"""Tests for random contiguous aggregation and mean aggregation."""

import itertools
import pickle
import weakref

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.stats
from scipy.spatial import Delaunay

from smaup import (
    AggregatedVariable,
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
    is_connected,
    random_regions,
)
from smaup import regionalize
from smaup.experiments import _partitions
from smaup.regionalize import _grow


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


def raw_words(bitgen):
    """``word()``: the 32-bit halves of ``bitgen``'s raw outputs, read one
    output at a time, low half first."""
    def halves():
        while True:
            out = int(bitgen.random_raw())
            yield out & 0xFFFFFFFF
            yield out >> 32
    return halves().__next__


def lemire_draws(word):
    """Oracle: ``draw(m)`` by numpy's bounded rule (Lemire 2019) on the 32-bit
    words ``word()`` supplies, as ``int(Generator(bitgen).integers(m))`` makes it."""
    def draw(m):
        if m == 1:
            return 0
        while True:
            x = word() * m
            if x & 0xFFFFFFFF >= (2**32 - m) % m:
                return x >> 32
    return draw


def generator_draws(bitgen):
    """``draw(m)``: numpy's own ``int(Generator(bitgen).integers(m))``."""
    rng = np.random.Generator(bitgen)
    return lambda m: int(rng.integers(m))


def reference_random_regions(w, k, bitgen, draws=generator_draws):
    """Oracle: the set-based seed growth that ``random_regions`` replaced, on
    the draw contract of stream version 4.

    The seeds are the stable argsort of ``bitgen``'s next n raw outputs;
    each later step draws with ``draws(bitgen)``, by default numpy's scalar
    ``Generator(bitgen).integers``, and sorts the region's lazily cleaned
    frontier set. ``random_regions(w, k, seed)`` must give its assignment on
    ``PCG64(seed)``.
    """
    n = w.n
    assignment = np.full(n, -1, dtype=np.int64)
    seeds = np.argsort(bitgen.random_raw(n), kind="stable")[:k]
    draw = draws(bitgen)
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


def relabelled(w, seed):
    """``w`` with its areas renumbered by a fixed random permutation."""
    perm = np.random.default_rng(seed).permutation(w.n)
    sets = [set() for _ in range(w.n)]
    for i, row in enumerate(w.neighbors):
        sets[perm[i]].update(int(perm[j]) for j in row)
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
    # high area indices, and so high bits of the sets growth keeps, in every region
    "lattice45x45-relabelled": lambda: relabelled(build_lattice_rook(45, 45), seed=20),
    "lattice3x1": lambda: build_lattice_rook(3, 1),
    "delaunay300": lambda: delaunay_weights(300, seed=11),
}
ORACLE_SEEDS = [0, 1, 2] + np.random.default_rng(63).integers(0, 2**63 - 1, size=5).tolist()


def path_stream(path, rep):
    """Repeat ``rep``'s substream of seed path ``path``: numpy's own
    ``jumped(rep)`` of the PCG64 on numpy's own SeedSequence of the path."""
    return np.random.PCG64(np.random.SeedSequence(entropy=path[0], spawn_key=path[1:])).jumped(rep)


class ZeroedWords:
    """A PCG64 whose every third 32-bit output half (counted from the start,
    low half first) reads 0: a word in the redraw zone of every range m that
    is not a power of two, which PCG64 words almost never are. Like PCG64's,
    its positions count modulo the period, 2**128, so an advance that wraps
    past it moves back."""

    def __init__(self, seed):
        self.bitgen, self.served = np.random.PCG64(seed), 0

    def random_raw(self, size=None):
        out = self.bitgen.random_raw(1 if size is None else size)
        halves = out.astype("<u8").view("<u4").copy()
        halves[(-2 * self.served) % 3::3] = 0
        self.served = (self.served + out.size) % 2**128
        out = halves.view("<u8").astype(np.uint64)
        return out if size is not None else out[0]

    def advance(self, delta):
        self.bitgen.advance(delta)
        self.served = (self.served + delta) % 2**128


class KeyedStream:
    """A PCG64 whose first outputs, the seed keys, read ``keys``."""

    def __init__(self, seed, keys):
        self.bitgen, self.keys, self.served = np.random.PCG64(seed), keys, 0

    def random_raw(self, size=None):
        out = self.bitgen.random_raw(1 if size is None else size)
        head = self.keys[self.served:self.served + out.size]
        out[:head.size] = head
        self.served += out.size
        return out if size is not None else out[0]

    def advance(self, delta):
        self.bitgen.advance(delta)
        self.served += delta


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
                expected = reference_random_regions(w, k, np.random.PCG64(seed))
                assert np.array_equal(got, expected), (k, seed)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_kernel_repeats_match_reference(self, name):
        # repeat i of a seed path is the oracle on the path's PCG64 jumped i times
        w = ORACLE_GRAPHS[name]()
        n = w.n
        for k in sorted({1, 2, max(1, n // 10), max(1, n // 2), n - 1, n} - {0}):
            for seed in ORACLE_SEEDS[:3]:
                path = (seed, 0, 2, k)
                for rep, (labels, _) in enumerate(_partitions(w, k, path, 6)):
                    expected = reference_random_regions(w, k, path_stream(path, rep))
                    assert np.array_equal(labels, expected), (k, seed, rep)

    @pytest.mark.parametrize("shape, k, seed, labels", [
        ((3, 1), 2, 0, "110"),
        ((4, 4), 3, 5, "2200210011101111"),
        ((7, 13), 9, 2**62 + 12345,
         "2255555881111222533388811122253338111012277733611001224777661100024447466660002444444466000"),
        ((10, 10), 7, 33,
         "6660044444666000044466660044446200004444220003414122223331112222333111252231311155553111115555511111"),
    ], ids=["lattice3x1-k2", "lattice4x4-k3", "lattice7x13-k9", "lattice10x10-k7"])
    def test_recorded_assignments(self, shape, k, seed, labels):
        # recorded from the oracle; a change inside numpy's PCG64 or bounded
        # integers would move both the oracle and this function
        got = random_regions(build_lattice_rook(*shape), k, seed=seed).assignment
        assert "".join(map(str, got.tolist())) == labels

    def test_seed_orders_uniform(self):
        # k = n = 4 on a 2x2 lattice: the labels are the seed order, so each of
        # the 24 orders must come up about 1,000 times in 24,000 partitions
        w = build_lattice_rook(2, 2)
        counts = {}
        for labels, _ in _partitions(w, 4, (5,), 24_000):
            order = tuple(labels.tolist())
            counts[order] = counts.get(order, 0) + 1
        assert sorted(counts) == sorted(itertools.permutations(range(4)))
        observed = np.array(list(counts.values()))
        assert scipy.stats.chisquare(observed).pvalue > 1e-3
        assert observed.min() > 850 and observed.max() < 1150

    def test_ties_broken_by_area_index(self):
        # a tie between two 64-bit keys (probability below n**2 / 2**65) falls
        # to the stable sort: with keys area % 3, the seeds are the areas of
        # key 0, then of key 1, then of key 2, each in area order
        class TiedKeys:
            def random_raw(self, size=None):
                return (np.arange(size) % 3).astype(np.uint64)

            def advance(self, delta):
                pass

        w = build_lattice_rook(10, 10)
        labels = _grow(w, w.n, TiedKeys(), 1)[0].tolist()
        seeds = [labels.index(region) for region in range(w.n)]
        assert seeds == [area for key in range(3) for area in range(key, w.n, 3)]

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_across_kth_key_goes_to_lower_area(self, seed):
        # two areas share the keys ranked k-1 and k: the lower-numbered one is
        # seed k-1, the other is no seed, and growth is the oracle's
        w, k = build_lattice_rook(10, 10), 30
        keys = np.random.default_rng(seed).permutation(w.n).astype(np.uint64) * 2**50
        p, q = np.argsort(keys)[k - 1:k + 1]
        keys[q] = keys[p]
        labels = _grow(w, k, KeyedStream(seed, keys), 1)[0].tolist()
        assert labels[min(p, q)] == k - 1
        expected = reference_random_regions(
            w, k, KeyedStream(seed, keys), draws=lambda bitgen: lemire_draws(raw_words(bitgen)))
        assert labels == expected.tolist()

    def test_bounded_draws_equal_generator_integers(self):
        # the redraw test's oracle is numpy's rule on the halves of raw
        # outputs; 2**31 + 1 rejects about half of its words
        ranges = [1, 2, 3, 7, 100, 2**31 + 1, 2**32 - 1, 3 * 2**30] * 40
        draw = lemire_draws(raw_words(np.random.PCG64(9)))
        expected = np.random.Generator(np.random.PCG64(9))
        assert [draw(m) for m in ranges] == [int(expected.integers(m)) for m in ranges]

    @pytest.mark.parametrize("name", ["lattice7x13", "delaunay300"])
    def test_inlined_draw_redraws_as_numpy(self, name):
        # a zero in every third word makes both pick sites redraw, as the
        # oracle does; the zeros sit at fixed places of the output stream,
        # whatever blocks _grow reads it in
        w = ORACLE_GRAPHS[name]()
        for k in (2, 5, w.n // 3, w.n - 2):
            for seed in ORACLE_SEEDS[:4]:
                expected = reference_random_regions(
                    w, k, ZeroedWords(seed), draws=lambda bitgen: lemire_draws(raw_words(bitgen)))
                assert np.array_equal(_grow(w, k, ZeroedWords(seed), 1)[0], expected), (k, seed)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1-70 areas plus up to 2n extra edges: growth's
    area sets cross the 64-bit word from 65 areas on."""
    n = draw(st.integers(1, 70))
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
        assert np.array_equal(r.assignment, reference_random_regions(w, k, np.random.PCG64(seed)))


def block_ks(n):
    return sorted({k for k in (2, 5, n // 3, n - 2, n) if 1 <= k <= n})


def position(stream):
    """Where a PCG64, or a ZeroedWords, stands in its stream."""
    if isinstance(stream, ZeroedWords):
        return stream.bitgen.state, stream.served
    return stream.state


def assert_block_is_successive_grows(w, k, stream, split, seed):
    """``_grow`` of r = sum(split) repeats on ``stream(seed)`` gives the rows
    of successive ``_grow`` blocks of the sizes in ``split`` on another
    ``stream(seed)``, and leaves it where they leave theirs."""
    whole, parts = stream(seed), stream(seed)
    got = _grow(w, k, whole, sum(split))
    expected = np.concatenate([_grow(w, k, parts, size) for size in split])
    assert got.dtype == np.int64 and got.shape == (sum(split), w.n), (k, seed)
    assert np.array_equal(got, expected), (k, seed, split)
    assert position(whole) == position(parts), (k, seed, split)


class TestGrowBlock:
    """A block's rows do not depend on how its repeats are split into
    blocks: r repeats grown at once are the repeats of any consecutive split
    of r, from the same outputs, and each row is the oracle on its
    repeat's substream."""

    @pytest.mark.parametrize("stream", [np.random.PCG64, ZeroedWords], ids=["pcg64", "zeroed-words"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_rows_are_successive_grows(self, name, stream):
        w = ORACLE_GRAPHS[name]()
        for k in block_ks(w.n):
            for seed in ORACLE_SEEDS[:3]:
                for split in ((1, 2, 4), (1,) * 7, (3, 3, 1)):
                    assert_block_is_successive_grows(w, k, stream, split, seed)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), connected_graphs(), st.integers(0, 2**63 - 1),
           st.sampled_from([np.random.PCG64, ZeroedWords]),
           st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_rows_are_successive_grows_on_random_graphs(self, data, w, seed, stream, split):
        k = data.draw(st.sampled_from(block_ks(w.n)))
        assert_block_is_successive_grows(w, k, stream, split, seed)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_rows_match_reference(self, name):
        # row rep of a block is the oracle on the stream jumped rep times
        w = ORACLE_GRAPHS[name]()
        for k in block_ks(w.n):
            for seed in ORACLE_SEEDS[:3]:
                path = (seed, 0, 2, k)
                for rep, row in enumerate(_grow(w, k, path_stream(path, 0), 5)):
                    expected = reference_random_regions(w, k, path_stream(path, rep))
                    assert np.array_equal(row, expected), (k, seed, rep)

    def test_row_that_runs_out_continues_its_own_substream(self, monkeypatch):
        # with every third word zeroed, k = 3 regions redraw past the pick
        # words a repeat reads ahead: each row reads on in its own substream,
        # from where those words end
        more_words, continued = regionalize._more_words, []

        def counting(bitgen, behind, size):
            continued.append(behind)
            yield from more_words(bitgen, behind, size)

        w, k, r = build_lattice_rook(10, 10), 3, 5
        stream, block = ZeroedWords(3), ZeroedWords(3)
        expected = np.concatenate([_grow(w, k, stream, 1) for _ in range(r)])
        monkeypatch.setattr(regionalize, "_more_words", counting)
        got = _grow(w, k, block, r)
        lead = w.n + w.n - k + regionalize._SPARE_PICKS
        assert continued == [(r - i) * regionalize._JUMP - lead for i in range(r)]
        assert np.array_equal(got, expected)
        assert position(block) == position(stream)

    def test_ends_where_the_next_repeat_starts(self):
        w = ORACLE_GRAPHS["delaunay300"]()
        for k in block_ks(w.n):
            bitgen = np.random.PCG64(8)
            _grow(w, k, bitgen, 6)
            assert bitgen.state == np.random.PCG64(8).jumped(6).state, k


class TestNeighborMasks:
    """Growth's neighbor masks are cached on the weights they describe: they
    die with them and never travel in their pickle."""

    def test_masks_match_neighbors(self):
        w = ORACLE_GRAPHS["lattice45x45-relabelled"]()
        for i, row in enumerate(w.neighbors):
            mask = w._neighbor_masks[i]
            assert [j for j in range(w.n) if mask >> j & 1] == list(row)

    def test_masks_die_with_weights(self):
        w = build_lattice_rook(7, 13)
        ref = weakref.ref(w)
        random_regions(w, 5, seed=1)
        list(_partitions(w, 5, (1,), 2))
        assert "_neighbor_masks" in w.__dict__
        del w
        assert ref() is None

    def test_masks_stay_out_of_pickle(self):
        w = build_lattice_rook(7, 13)
        is_connected(w)
        size = len(pickle.dumps(w))
        before = random_regions(w, 5, seed=1)
        assert "_neighbor_masks" in w.__dict__
        assert len(pickle.dumps(w)) == size
        copy = pickle.loads(pickle.dumps(w))
        assert copy == w and "_neighbor_masks" not in copy.__dict__
        assert random_regions(copy, 5, seed=1) == before


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
    """``experiments._partitions`` grows in ``_grow`` blocks, skipping the public
    path's validation; its labels, and the means its callers take by
    bincount, match the public path's."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), connected_graphs(), st.integers(0, 2**63 - 1))
    def test_means_equal_public_path(self, data, w, seed):
        # a one-element path is PCG64(seed), so repeat 0 is random_regions(w, k, seed)
        k = data.draw(st.integers(1, w.n))
        values = np.random.default_rng(seed).standard_normal(w.n)
        y = AreaVariable(values=values, weights=w)
        got = list(_partitions(w, k, (seed,), 3))
        assert len(got) == 3
        assert np.array_equal(got[0][0], random_regions(w, k, seed=seed).assignment)
        for rep, (labels, sizes) in enumerate(got):
            assert np.array_equal(labels, reference_random_regions(w, k, path_stream((seed,), rep)))
            assert_regions_connected_by_networkx(w, labels, k)
            means = np.bincount(labels, y.values) / sizes
            regions = Regionalization(assignment=labels, k=k)
            assert np.array_equal(means, aggregate_mean(y, regions).region_means)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_grown_regions_connected_by_networkx(self, name):
        w = ORACLE_GRAPHS[name]()
        for k in sorted({1, 2, max(1, w.n // 10), max(1, w.n // 2), w.n - 1} - {0}):
            for seed in ORACLE_SEEDS[:4]:
                labels = _grow(w, k, np.random.PCG64(seed), 1)[0]
                assert_regions_connected_by_networkx(w, labels, k)


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

    @pytest.mark.parametrize("assignment, k, error, message", [
        (np.zeros((2, 2), dtype=int), 1, CorruptPartitionError,
         r"assignment must be 1-D, got shape \(2, 2\)"),
        (np.zeros(4, dtype=int), 0, InvalidKError, "k must be >= 1, got 0"),
    ], ids=["2-D", "k-zero"])
    def test_malformed_partition_rejected(self, assignment, k, error, message):
        with pytest.raises(error, match=message):
            Regionalization(assignment=assignment, k=k)

    @pytest.mark.parametrize("means, sizes, message", [
        ([1.0, 2.0], [3], "must be aligned 1-D vectors"),
        ([1.0, 2.0], [3, 0], "every region must contain at least one area"),
        ([1.0, np.inf], [3, 1], "region means must be finite"),
    ], ids=["misaligned", "empty-region", "non-finite"])
    def test_malformed_aggregate_rejected(self, means, sizes, message):
        with pytest.raises(CorruptPartitionError, match=message):
            AggregatedVariable(region_means=np.array(means), region_sizes=np.array(sizes))
