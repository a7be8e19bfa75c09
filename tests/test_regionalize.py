"""Tests for random contiguous aggregation and mean aggregation."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

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
)
from smaup import regionalize
from smaup.experiments import _partitions
from smaup.regionalize import (
    _grow,
    _raw_words,
)
from smaup.seeding import derive_seed


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


def lemire_draws(word):
    """Oracle: ``draw(m)`` by numpy's bounded rule (Lemire 2019) on the 32-bit
    words ``word()`` supplies, as ``int(rng.integers(m))`` makes it."""
    def draw(m):
        if m == 1:
            return 0
        while True:
            x = word() * m
            if x & 0xFFFFFFFF >= (2**32 - m) % m:
                return x >> 32
    return draw


def reference_random_regions(w, k, seed, draws=None):
    """Oracle: the set-based seed growth that ``random_regions`` replaced.

    Each step draws with scalar ``rng.integers`` (or ``draws(rng)`` after the
    seeds are chosen) and sorts the region's lazily cleaned frontier set;
    ``random_regions`` must give the same assignment for every (w, k, seed).
    """
    n = w.n
    rng = np.random.default_rng(seed)
    assignment = np.full(n, -1, dtype=np.int64)
    seeds = rng.choice(n, size=k, replace=False)
    draw = draws(rng) if draws else lambda m: int(rng.integers(m))
    for region, area in enumerate(seeds):
        assignment[area] = region
    frontiers = [{j for j in w.neighbors[area] if assignment[j] < 0} for area in seeds]
    active = [r for r in range(k) if frontiers[r]]
    remaining = n - k
    while remaining and active:
        pos = draw(len(active))
        region = active[pos]
        frontier = frontiers[region]
        frontier.difference_update([a for a in frontier if assignment[a] >= 0])
        if not frontier:
            active.pop(pos)
            continue
        ordered = sorted(frontier)
        area = ordered[draw(len(ordered))]
        frontier.discard(area)
        assignment[area] = region
        remaining -= 1
        for j in w.neighbors[area]:
            if assignment[j] < 0:
                frontier.add(j)
        if not frontier and pos < len(active) and active[pos] == region:
            active.pop(pos)
    return assignment


def adjacency_text(neighbor_sets) -> str:
    return "\n".join(f"{i}: " + " ".join(map(str, sorted(row)))
                     for i, row in enumerate(neighbor_sets))


def delaunay_weights(n, seed):
    """Contiguity of a Delaunay triangulation of n uniform random points."""
    points = np.random.default_rng(seed).random((n, 2))
    sets = [set() for _ in range(n)]
    for simplex in Delaunay(points).simplices:
        for a in simplex:
            sets[a].update(int(b) for b in simplex if b != a)
    return from_adjacency_text(adjacency_text(sets))


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
            assert_regions_connected_by_networkx(w10, r.assignment, k)
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


ORACLE_GRAPHS = {
    "lattice10x10": lambda: build_lattice_rook(10, 10),
    "lattice7x13": lambda: build_lattice_rook(7, 13),
    "lattice45x45": lambda: build_lattice_rook(45, 45),
    "lattice3x1": lambda: build_lattice_rook(3, 1),
    "delaunay300": lambda: delaunay_weights(300, seed=11),
}
ORACLE_SEEDS = [0, 1, 2] + np.random.default_rng(63).integers(0, 2**63 - 1, size=5).tolist()


class TestRegionStream:
    """The growth consumes one fixed random stream: pinned by the set-based
    oracle and by assignments recorded from it."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_reference(self, name):
        w = ORACLE_GRAPHS[name]()
        n = w.n
        for k in sorted({1, 2, max(1, n // 10), max(1, n // 2), n - 1, n} - {0}):
            for seed in ORACLE_SEEDS:
                got = random_regions(w, k, seed=seed).assignment
                assert np.array_equal(got, reference_random_regions(w, k, seed)), (k, seed)

    @pytest.mark.parametrize("shape, k, seed, labels", [
        ((3, 1), 2, 0, "001"),
        ((4, 4), 3, 5, "2221011101110000"),
        ((7, 13), 9, 2**62 + 12345,
         "1110000222222166660002222266666666222223444555662777333355552277733388855577773888888855777"),
        ((10, 10), 7, 33,
         "4444444444444444433311414543331111554333166665432311165555221105555522110005552211000522221100000022"),
    ])
    def test_recorded_assignments(self, shape, k, seed, labels):
        # recorded from the scalar-draw implementation; a change inside numpy's
        # bounded integers would move both the oracle and this function
        got = random_regions(build_lattice_rook(*shape), k, seed=seed).assignment
        assert "".join(map(str, got.tolist())) == labels

    def test_bounded_draws_equal_generator_integers(self):
        # the oracle of the inlined draw, on _grow's word supply, is numpy's
        # rule; 2**31 + 1 rejects about half of its words
        ranges = [1, 2, 3, 7, 100, 2**31 + 1, 2**32 - 1, 3 * 2**30] * 40
        rng, expected = np.random.default_rng(9), np.random.default_rng(9)
        for g in (rng, expected):
            g.choice(50, size=7, replace=False)
        # a block of 3 outputs forces a refill every few draws
        draw = lemire_draws(_raw_words(rng, 3))
        assert [draw(m) for m in ranges] == [int(expected.integers(m)) for m in ranges]

    @pytest.mark.parametrize("n, k, buffered", [(100, 12, 1), (12000, 6000, 0)])
    def test_raw_words_continue_the_generator(self, n, k, buffered):
        # after choice, a high half-word may be left buffered; it comes first
        for seed in range(5):
            rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
            for g in (rng, expected):
                g.choice(n, size=k, replace=False)
            assert rng.bit_generator.state["has_uint32"] == buffered
            word = _raw_words(rng, 4)
            got = [word() for _ in range(21)]
            assert got == expected.integers(0, 2**32, size=21, dtype=np.uint32).tolist()

    @pytest.mark.parametrize("name", ["lattice7x13", "delaunay300"])
    def test_inlined_draw_redraws_as_numpy(self, name, monkeypatch):
        # PCG64 words almost never fall in the redraw zone of a small range,
        # but a zero word does for every m that is not a power of two: with a
        # zero in every third word both pick sites redraw, as the oracle does
        def with_zeros(rng, block):
            word, served = _raw_words(rng, block), itertools.count()
            return lambda: 0 if next(served) % 3 == 0 else word()

        w = ORACLE_GRAPHS[name]()
        monkeypatch.setattr(regionalize, "_raw_words", with_zeros)
        for k in (2, 5, w.n // 3, w.n - 2):
            for seed in ORACLE_SEEDS[:4]:
                expected = reference_random_regions(
                    w, k, seed, draws=lambda rng: lemire_draws(with_zeros(rng, 4)))
                assert _grow(w.neighbors, w.n, k, seed) == expected.tolist(), (k, seed)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1-40 areas plus up to 2n extra edges."""
    n = draw(st.integers(1, 40))
    sets = [set() for _ in range(n)]
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        sets[i].add(j)
        sets[j].add(i)
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for a, b in draw(st.lists(pairs, max_size=2 * n)):
            if a != b:
                sets[a].add(b)
                sets[b].add(a)
    return from_adjacency_text(adjacency_text(sets))


class TestRandomConnectedGraphs:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), connected_graphs(), st.integers(0, 2**63 - 1))
    def test_partition_properties(self, data, w, seed):
        k = data.draw(st.integers(1, w.n))
        r = random_regions(w, k, seed=seed)
        assert r.assignment.shape == (w.n,)
        assert np.unique(r.assignment).tolist() == list(range(k))
        assert union_find_region_check(r.assignment, w.neighbors, k)
        assert np.array_equal(r.assignment, reference_random_regions(w, k, seed))


def networkx_graph(w):
    graph = nx.Graph()
    graph.add_nodes_from(range(w.n))
    graph.add_edges_from((i, j) for i, row in enumerate(w.neighbors) for j in row)
    return graph


def assert_regions_connected_by_networkx(w, labels, k):
    """Independent oracle: networkx sees every label's areas as one component."""
    graph = networkx_graph(w)
    members = {}
    for area, label in enumerate(labels):
        members.setdefault(label, []).append(area)
    assert sorted(members) == list(range(k))
    for label, areas in members.items():
        assert nx.is_connected(graph.subgraph(areas)), label


class TestMonteCarloKernel:
    """``experiments._partitions`` grows with ``_grow``, skipping the public
    path's validation; its labels, and the means its callers take by
    bincount, match the public path's."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), connected_graphs(), st.integers(0, 2**63 - 1))
    def test_means_equal_public_path(self, data, w, seed):
        k = data.draw(st.integers(1, w.n))
        values = np.random.default_rng(seed).standard_normal(w.n)
        y = AreaVariable(values=values, weights=w)
        path = (seed, k)
        got = list(_partitions(w, k, path, 3))
        assert len(got) == 3
        for rep, (labels, sizes) in enumerate(got):
            regions = random_regions(w, k, seed=derive_seed(*path, rep))
            assert np.array_equal(labels, regions.assignment)
            means = np.bincount(labels, y.values) / sizes
            assert np.array_equal(means, aggregate_mean(y, regions).region_means)
        labels = _grow(w.neighbors, w.n, k, derive_seed(*path, 0))
        assert_regions_connected_by_networkx(w, labels, k)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_grown_regions_connected_by_networkx(self, name):
        w = ORACLE_GRAPHS[name]()
        for k in sorted({1, 2, max(1, w.n // 10), max(1, w.n // 2), w.n - 1} - {0}):
            for seed in ORACLE_SEEDS[:4]:
                assert_regions_connected_by_networkx(w, _grow(w.neighbors, w.n, k, seed), k)


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
