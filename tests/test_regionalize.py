"""Tests for random contiguous aggregation and mean aggregation."""

import numpy as np
import pytest

from smaup import (
    AreaVariable,
    ContiguityError,
    CorruptPartitionError,
    InvalidKError,
    Regionalization,
    SarSpec,
    aggregate_mean,
    build_lattice_rook,
    from_adjacency_text,
    generate_sar,
    random_regions,
    validate_regionalization,
)
from smaup.regionalize import regionalization_from_csv, regionalization_to_csv


def union_find_region_check(assignment, neighbors, k) -> bool:
    """Oracle: each region connected, checked by union-find over same-label edges."""
    n = len(assignment)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in neighbors[i]:
            if assignment[i] == assignment[j]:
                parent[find(i)] = find(j)
    roots_per_label = {}
    for i in range(n):
        roots_per_label.setdefault(int(assignment[i]), set()).add(find(i))
    if sorted(roots_per_label) != list(range(k)):
        return False
    return all(len(roots) == 1 for roots in roots_per_label.values())


@pytest.fixture(scope="module")
def w10():
    return build_lattice_rook(10, 10)


class TestRandomRegions:
    def test_k_equals_n_is_a_bijection(self, w10):
        r = random_regions(w10, 100, seed=1)
        assert sorted(r.assignment.tolist()) == list(range(100))

    def test_k_one_single_region(self, w10):
        r = random_regions(w10, 1, seed=2)
        assert set(r.assignment.tolist()) == {0}

    def test_deterministic_under_seed(self, w10):
        a = random_regions(w10, 7, seed=33)
        b = random_regions(w10, 7, seed=33)
        assert np.array_equal(a.assignment, b.assignment)

    def test_thousand_seed_partition_validity_sweep(self, w10):
        # every output: k nonempty regions, each contiguous (union-find oracle)
        for seed in range(1000):
            r = random_regions(w10, 7, seed=seed)
            assert r.assignment.shape == (100,)
            sizes = np.bincount(r.assignment, minlength=7)
            assert sizes.min() >= 1
            assert union_find_region_check(r.assignment, w10.neighbors, 7)

    @pytest.mark.parametrize("k", [2, 13, 50, 99])
    def test_varied_k_validity(self, w10, k):
        for seed in range(25):
            r = random_regions(w10, k, seed=seed)
            validate_regionalization(r, w10)
            assert union_find_region_check(r.assignment, w10.neighbors, k)

    def test_invalid_k(self, w10):
        with pytest.raises(InvalidKError):
            random_regions(w10, 0, seed=0)
        with pytest.raises(InvalidKError):
            random_regions(w10, 101, seed=0)

    def test_disconnected_graph_rejected(self):
        w = from_adjacency_text("0: 1\n1: 0\n2: 3\n3: 2")
        # the connectivity answer is cached on w; every call must still refuse
        for seed in range(3):
            with pytest.raises(ContiguityError):
                random_regions(w, 2, seed=seed)


class TestAggregateMean:
    def test_k_equals_n_permutes_values(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.0, seed=3))
        r = random_regions(w10, 100, seed=4)
        agg = aggregate_mean(y, r)
        assert np.array_equal(np.sort(agg.region_means), np.sort(y.values))
        assert agg.region_sizes.tolist() == [1] * 100

    def test_constant_variable(self, w10):
        y = AreaVariable(values=np.full(100, 2.5), weights=w10)
        agg = aggregate_mean(y, random_regions(w10, 9, seed=5))
        assert np.all(agg.region_means == 2.5)

    def test_direct_arithmetic(self):
        w = build_lattice_rook(1, 4)
        y = AreaVariable(values=np.array([1.0, 2.0, 3.0, 4.0]), weights=w)
        r = Regionalization(assignment=np.array([0, 0, 1, 1]), k=2)
        agg = aggregate_mean(y, r)
        assert agg.region_means.tolist() == [1.5, 3.5]
        assert agg.region_sizes.tolist() == [2, 2]

    def test_equal_sizes_preserve_grand_mean(self):
        w = build_lattice_rook(1, 8)
        y = AreaVariable(values=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), weights=w)
        r = Regionalization(assignment=np.array([0, 0, 1, 1, 2, 2, 3, 3]), k=4)
        agg = aggregate_mean(y, r)
        assert float(agg.region_means.mean()) == float(y.values.mean())

    def test_permutation_equivariance(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.5, seed=6))
        r = random_regions(w10, 10, seed=7)
        perm = np.random.default_rng(8).permutation(10)
        relabeled = Regionalization(assignment=perm[r.assignment], k=10)
        a = aggregate_mean(y, r)
        b = aggregate_mean(y, relabeled)
        assert np.array_equal(b.region_means[perm], a.region_means)
        assert np.array_equal(b.region_sizes[perm], a.region_sizes)

    def test_sizes_sum_to_n(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.0, seed=9))
        for k in (3, 41, 86):
            agg = aggregate_mean(y, random_regions(w10, k, seed=k))
            assert int(agg.region_sizes.sum()) == 100

    def test_length_mismatch(self, w10):
        w4 = build_lattice_rook(1, 4)
        y = AreaVariable(values=np.array([1.0, 2.0, 3.0, 4.0]), weights=w4)
        with pytest.raises(Exception, match="100 areas"):
            aggregate_mean(y, random_regions(w10, 5, seed=0))


class TestPartitionType:
    def test_labels_must_cover_range(self):
        with pytest.raises(CorruptPartitionError, match="appear"):
            Regionalization(assignment=np.array([0, 0, 2, 2]), k=3)

    def test_labels_must_be_in_range(self):
        with pytest.raises(CorruptPartitionError):
            Regionalization(assignment=np.array([0, 1, 5]), k=2)

    def test_validate_flags_split_region(self):
        w = build_lattice_rook(1, 5)
        # label 0 at both ends, label 1 in the middle: region 0 disconnected
        r = Regionalization(assignment=np.array([0, 1, 1, 1, 0]), k=2)
        with pytest.raises(CorruptPartitionError, match="not contiguous"):
            validate_regionalization(r, w)

    def test_csv_round_trip(self):
        r = Regionalization(assignment=np.array([1, 0, 1, 2, 2]), k=3)
        assert regionalization_from_csv(regionalization_to_csv(r)) == r
