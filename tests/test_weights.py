"""Tests for contiguity construction, parsing, and serialization."""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaup import (
    AdjacencyParseError,
    GeoJSONError,
    InvalidDimensionError,
    SpatialWeights,
    build_lattice_rook,
    from_adjacency_text,
    from_geojson,
    is_connected,
    to_adjacency_text,
)


def grid_edge_count_oracle(rows: int, cols: int) -> int:
    """Count shared grid edges by direct enumeration."""
    count = 0
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                count += 1
            if r + 1 < rows:
                count += 1
    return count


def bfs_component_size(neighbors, start=0) -> int:
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in neighbors[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen)


def square_feature(x, y, size=1.0):
    return {
        "type": "Feature",
        "properties": {},
        "geometry": {
            "type": "Polygon",
            "coordinates": [[
                [x, y], [x + size, y], [x + size, y + size], [x, y + size], [x, y],
            ]],
        },
    }


def square_grid_geojson(rows, cols):
    features = [square_feature(float(c), float(r)) for r in range(rows) for c in range(cols)]
    return json.dumps({"type": "FeatureCollection", "features": features})


class TestLattice:
    def test_smallest_lattice(self):
        w = build_lattice_rook(1, 2)
        assert w.n == 2
        assert w.neighbors == ((1,), (0,))
        assert w.weights == ((1.0,), (1.0,))

    def test_3x3_structure(self):
        w = build_lattice_rook(3, 3)
        center = 4
        assert w.neighbors[center] == (1, 3, 5, 7)
        assert w.weights[center] == (0.25, 0.25, 0.25, 0.25)
        for corner in (0, 2, 6, 8):
            assert len(w.neighbors[corner]) == 2
            assert w.weights[corner] == (0.5, 0.5)

    def test_30x30_edge_count_matches_enumeration(self):
        w = build_lattice_rook(30, 30)
        assert w.n == 900
        assert w.edge_count == grid_edge_count_oracle(30, 30) == 1740

    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (-1, 3), (1, 1)])
    def test_invalid_dimensions(self, rows, cols):
        with pytest.raises(InvalidDimensionError):
            build_lattice_rook(rows, cols)

    def test_area_count_overflow(self):
        with pytest.raises(InvalidDimensionError, match="cap"):
            build_lattice_rook(10**5, 10**5)

    def test_raw_mode_binary_weights(self):
        w = build_lattice_rook(3, 3, standardized=False)
        assert not w.standardized
        assert all(val == 1.0 for row in w.weights for val in row)


class TestAdjacencyText:
    def test_two_area_file_matches_lattice(self):
        w = from_adjacency_text("0: 1\n1: 0")
        assert w == build_lattice_rook(1, 2)

    def test_path_graph_weights(self):
        w = from_adjacency_text("0: 1\n1: 0 2\n2: 1")
        assert w.weights[1] == (0.5, 0.5)
        assert w.weights[0] == (1.0,)

    def test_lattice_dump_round_trip(self):
        original = build_lattice_rook(3, 3)
        assert from_adjacency_text(to_adjacency_text(original)) == original

    def test_comments_and_blank_lines(self):
        w = from_adjacency_text("# contiguity\n\n0: 1  # right\n1: 0\n")
        assert w.n == 2

    def test_self_loop_names_line(self):
        with pytest.raises(AdjacencyParseError, match="line 2"):
            from_adjacency_text("0: 1\n1: 0 1")

    def test_non_consecutive_ids(self):
        with pytest.raises(AdjacencyParseError, match="consecutive"):
            from_adjacency_text("0: 2\n2: 0")

    def test_empty_file(self):
        with pytest.raises(AdjacencyParseError, match="empty"):
            from_adjacency_text("# only comments\n")

    def test_missing_separator_names_line(self):
        with pytest.raises(AdjacencyParseError, match="line 1"):
            from_adjacency_text("0 1")

    @pytest.mark.parametrize("text, message", [
        ("a: 1\n1: 0", "line 1: area id 'a' is not an integer"),
        ("0: 1\n1: 0\n0: 1", "line 3: duplicate area id 0"),
        ("0: 1 x\n1: 0", "line 1: neighbor list contains a non-integer"),
        ("0: 5\n1: 0", "area 0: neighbor id 5 outside 0..1"),
    ], ids=["area-id", "duplicate-id", "neighbor-id", "neighbor-range"])
    def test_malformed_entry_rejected(self, text, message):
        with pytest.raises(AdjacencyParseError, match=message):
            from_adjacency_text(text)

    def test_asymmetric_input_repaired_with_warning(self):
        with pytest.warns(UserWarning, match="2 reciprocal"):
            w = from_adjacency_text("0: 1 2\n1:\n2:")
        assert w.neighbors[1] == (0,)
        assert w.neighbors[2] == (0,)


class TestGeoJSON:
    def test_two_squares_sharing_edge(self):
        doc = json.dumps({
            "type": "FeatureCollection",
            "features": [square_feature(0, 0), square_feature(1, 0)],
        })
        w = from_geojson(doc)
        assert w.neighbors == ((1,), (0,))

    def test_2x2_block_excludes_diagonals(self):
        w = from_geojson(square_grid_geojson(2, 2))
        assert all(len(row) == 2 for row in w.neighbors)
        # diagonal pairs share only a corner point
        assert 3 not in w.neighbors[0]
        assert 2 not in w.neighbors[1]

    def test_5x5_grid_equals_lattice(self):
        assert from_geojson(square_grid_geojson(5, 5)) == build_lattice_rook(5, 5)

    def test_corner_touch_is_not_adjacency(self):
        doc = json.dumps({
            "type": "FeatureCollection",
            "features": [square_feature(0, 0), square_feature(1, 1)],
        })
        w = from_geojson(doc)
        assert w.neighbors == ((), ())

    def test_multipolygon_supported(self):
        multi = {
            "type": "Feature",
            "properties": {},
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [square_feature(0, 0)["geometry"]["coordinates"]],
            },
        }
        doc = json.dumps({
            "type": "FeatureCollection",
            "features": [multi, square_feature(1, 0)],
        })
        assert from_geojson(doc).neighbors == ((1,), (0,))

    def test_malformed_json(self):
        with pytest.raises(GeoJSONError, match="malformed"):
            from_geojson("{not json")

    def test_non_polygon_geometry(self):
        doc = json.dumps({
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]}},
                square_feature(0, 0),
            ],
        })
        with pytest.raises(GeoJSONError, match="Point"):
            from_geojson(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"type": "Feature", "geometry": square_feature(0, 0)["geometry"]},
         "expected a GeoJSON FeatureCollection"),
        ({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "Polygon"}}, square_feature(1, 0)]},
         "feature 0: missing or invalid coordinates"),
        ({"type": "FeatureCollection", "features": [
            square_feature(0, 0),
            {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [[[1, 0], [1, 0]]]}}]},
         "feature 1: no usable boundary segments"),
    ], ids=["not-a-collection", "no-coordinates", "no-segment"])
    def test_unusable_document_rejected(self, doc, message):
        with pytest.raises(GeoJSONError, match=message):
            from_geojson(json.dumps(doc))

    def test_too_few_features(self):
        doc = json.dumps({"type": "FeatureCollection", "features": [square_feature(0, 0)]})
        with pytest.raises(GeoJSONError, match="at least 2"):
            from_geojson(doc)

    def test_quantization_absorbs_jitter(self):
        a = square_feature(0, 0)
        b = square_feature(1, 0)
        # nudge one shared vertex by much less than the quantum
        b["geometry"]["coordinates"][0][0][0] += 1e-12
        doc = json.dumps({"type": "FeatureCollection", "features": [a, b]})
        assert from_geojson(doc).neighbors == ((1,), (0,))


class TestConnectivity:
    def test_lattice_connected(self):
        assert is_connected(build_lattice_rook(3, 3))

    def test_two_disjoint_edges(self):
        w = from_adjacency_text("0: 1\n1: 0\n2: 3\n3: 2")
        assert not is_connected(w)

    def test_lattice_with_area_cut_out(self):
        original = build_lattice_rook(30, 30)
        lines = []
        victim = 435  # interior area; drop all its edges
        for i in range(original.n):
            if i == victim:
                lines.append(f"{i}:")
            else:
                nbrs = [j for j in original.neighbors[i] if j != victim]
                lines.append(f"{i}: " + " ".join(map(str, nbrs)))
        w = from_adjacency_text("\n".join(lines))
        assert not is_connected(w)
        assert bfs_component_size(w.neighbors) == w.n - 1


@st.composite
def labelled_graphs(draw):
    """(n, edges) on 1-40 areas: connected, with one isolated area, or in two
    parts. Each part is a random spanning tree plus extra edges; area labels
    are then shuffled."""
    shape = draw(st.sampled_from(["connected", "isolated", "two parts"]))
    n = draw(st.integers(1 if shape == "connected" else 2, 40))
    if shape == "connected":
        sizes = [n]
    elif shape == "isolated":
        sizes = [n - 1, 1]
    else:
        first = draw(st.integers(1, n - 1))
        sizes = [first, n - first]
    edges, start = set(), 0
    for size in sizes:
        for i in range(start + 1, start + size):
            edges.add((draw(st.integers(start, i - 1)), i))
        pairs = st.tuples(st.integers(start, start + size - 1), st.integers(start, start + size - 1))
        edges |= {(a, b) for a, b in draw(st.lists(pairs, max_size=2 * size)) if a != b}
        start += size
    label = draw(st.permutations(range(n)))
    return n, {(label[a], label[b]) for a, b in edges}


def weights_from_edges(n, edges, standardized=False):
    rows = [set() for _ in range(n)]
    for a, b in edges:
        rows[a].add(b)
        rows[b].add(a)
    return SpatialWeights.from_dict({
        "n": n, "neighbors": [sorted(row) for row in rows],
        "weights": [[1.0 / len(row) if standardized else 1.0 for _ in row] for row in rows],
        "standardized": standardized,
    })


class TestConnectivityOracle:
    @settings(max_examples=300, deadline=None)
    @given(labelled_graphs())
    def test_agrees_with_networkx(self, graph):
        n, edges = graph
        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(edges)
        w = weights_from_edges(n, edges)
        assert is_connected(w) == nx.is_connected(oracle)
        assert w.__dict__["_connected"] == nx.is_connected(oracle)  # cached

    def test_single_area(self):
        assert is_connected(weights_from_edges(1, set())) == nx.is_connected(nx.empty_graph(1))

    def test_needs_no_sparse_matrix(self):
        w = build_lattice_rook(4, 4)
        assert is_connected(w)
        assert "sparse" not in w.__dict__


class TestAdjacencyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(labelled_graphs(), st.booleans(), st.randoms(use_true_random=False))
    def test_shuffled_lines_give_the_same_weights(self, graph, standardized, rnd):
        n, edges = graph
        w = weights_from_edges(n, edges, standardized)
        lines = to_adjacency_text(w).splitlines()
        rnd.shuffle(lines)
        assert from_adjacency_text("\n".join(lines), standardized=standardized) == w


# fault -> the message SpatialWeights must reject it with
FAULTS = {
    "asymmetric": "asymmetric adjacency",
    "self-loop": "lists itself",
    "out-of-range": "outside",
    "duplicate": "duplicate neighbor",
    "unsorted": "ascending",
    "row-length": r"\d+ neighbors but \d+ weights",
    "row-sum": "sums to",
}


@st.composite
def faulty_weights(draw, fault):
    """Constructor arguments of a connected graph on 3-30 areas with one
    drawn fault in a drawn row, and the valid arguments it came from."""
    n = draw(st.integers(3, 30))
    rows = [set() for _ in range(n)]
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        rows[i].add(j)
        rows[j].add(i)
    neighbors = [sorted(row) for row in rows]
    standardized = fault == "row-sum" or draw(st.booleans())
    weights = [[1.0 / len(row) if standardized else 1.0 for _ in row] for row in neighbors]
    valid = {"n": n, "neighbors": tuple(map(tuple, neighbors)),
             "weights": tuple(map(tuple, weights)), "standardized": standardized}
    candidates = [i for i in range(n) if len(neighbors[i]) >= (2 if fault == "unsorted" else 1)]
    i = draw(st.sampled_from(candidates))
    row, wts = neighbors[i], weights[i]
    pos = draw(st.integers(0, len(row) - 1))
    if fault == "asymmetric":
        j = row[pos]
        at = neighbors[j].index(i)
        del neighbors[j][at], weights[j][at]
        if standardized:
            weights[j] = [1.0 / len(neighbors[j]) for _ in neighbors[j]]
    elif fault == "self-loop":
        at = sum(j < i for j in row)
        row.insert(at, i)
        wts.insert(at, wts[0])
    elif fault == "out-of-range":
        if draw(st.booleans()):
            row.append(n + draw(st.integers(0, 5)))
            wts.append(wts[0])
        else:
            row.insert(0, -1 - draw(st.integers(0, 5)))
            wts.insert(0, wts[0])
    elif fault == "duplicate":
        row.insert(pos, row[pos])
        wts.insert(pos, wts[pos])
    elif fault == "unsorted":
        row.reverse()
    elif fault == "row-length":
        del wts[pos]
    else:
        wts[pos] *= draw(st.sampled_from([0.5, 1 + 1e-9, 2.0, -1.0]))
    faulty = {**valid, "neighbors": tuple(map(tuple, neighbors)),
              "weights": tuple(map(tuple, weights))}
    return valid, faulty


class TestSpatialWeightsRejects:
    @pytest.mark.parametrize("fields, message", [
        ({"n": 0, "neighbors": (), "weights": ()}, "need at least one area, got n=0"),
        ({"n": 2, "neighbors": ((1,), (0,)), "weights": ((1.0,),)},
         "neighbor/weight lists must have length n=2"),
    ], ids=["no-areas", "list-lengths"])
    def test_malformed_shape(self, fields, message):
        with pytest.raises(InvalidDimensionError, match=message):
            SpatialWeights(**fields)

    @pytest.mark.parametrize("fault", list(FAULTS))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_fault_in_a_valid_graph(self, fault, data):
        valid, faulty = data.draw(faulty_weights(fault))
        SpatialWeights(**valid)
        with pytest.raises(InvalidDimensionError, match=FAULTS[fault]):
            SpatialWeights(**faulty)


@st.composite
def shuffled_polygon_grids(draw):
    """A rows x cols grid of unit squares as GeoJSON, features in a drawn
    order, each ring starting at a drawn corner in a drawn direction."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if rows * cols < 2:
        cols = 2
    cells = draw(st.permutations([(r, c) for r in range(rows) for c in range(cols)]))
    features = []
    for r, c in cells:
        ring = square_feature(float(c), float(r))["geometry"]["coordinates"][0][:4]
        shift = draw(st.integers(0, 3))
        ring = ring[shift:] + ring[:shift]
        if draw(st.booleans()):
            ring.reverse()
        features.append({"type": "Feature", "properties": {},
                         "geometry": {"type": "Polygon", "coordinates": [ring + ring[:1]]}})
    return rows, cols, cells, json.dumps({"type": "FeatureCollection", "features": features})


class TestGeoJSONRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(shuffled_polygon_grids(), st.booleans())
    def test_matches_relabelled_networkx_grid(self, grid, standardized):
        rows, cols, cells, doc = grid
        w = from_geojson(doc, standardized=standardized)
        index = {cell: i for i, cell in enumerate(cells)}
        oracle = nx.relabel_nodes(nx.grid_2d_graph(rows, cols), index)
        assert w.n == oracle.number_of_nodes()
        assert [set(row) for row in w.neighbors] == [set(oracle[i]) for i in range(w.n)]
        assert w.standardized == standardized
        assert SpatialWeights.from_json(w.to_json()) == w


class TestInvariantsAndSerialization:
    @pytest.mark.parametrize("builder", [
        lambda: build_lattice_rook(4, 7),
        lambda: from_adjacency_text("0: 1\n1: 0 2\n2: 1"),
        lambda: from_geojson(square_grid_geojson(3, 4)),
    ])
    def test_standardized_rows_sum_to_one(self, builder):
        w = builder()
        for i, row in enumerate(w.weights):
            if row:
                assert abs(sum(row) - 1.0) <= 1e-12

    def test_json_round_trip(self):
        for w in (build_lattice_rook(5, 3), build_lattice_rook(2, 2, standardized=False)):
            assert SpatialWeights.from_json(w.to_json()) == w

    def test_no_self_neighbors_enforced(self):
        with pytest.raises(InvalidDimensionError, match="itself"):
            SpatialWeights(n=2, neighbors=((0,), (0,)), weights=((1.0,), (1.0,)))

    def test_symmetry_enforced(self):
        with pytest.raises(InvalidDimensionError, match="asymmetric"):
            SpatialWeights(n=3, neighbors=((1,), (), ()), weights=((1.0,), (), ()))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(InvalidDimensionError, match="sums"):
            SpatialWeights(n=2, neighbors=((1,), (0,)), weights=((0.7,), (1.0,)))

    def test_from_dict_sorts_rows_with_their_weights(self):
        w = SpatialWeights.from_dict({
            "n": 3,
            "neighbors": [[2, 1], [0], [0]],
            "weights": [[0.25, 0.75], [1.0], [1.0]],
            "standardized": True,
        })
        assert w.neighbors == ((1, 2), (0,), (0,))
        assert w.weights == ((0.75, 0.25), (1.0,), (1.0,))
        assert w.sparse[0, 1] == 0.75 and w.sparse[0, 2] == 0.25

    def test_unsorted_row_rejected(self):
        with pytest.raises(InvalidDimensionError, match="ascending"):
            SpatialWeights(n=3, neighbors=((2, 1), (0,), (0,)),
                           weights=((0.5, 0.5), (1.0,), (1.0,)))

    def test_from_dict_row_length_mismatch_still_rejected(self):
        with pytest.raises(InvalidDimensionError, match="2 neighbors but 1 weights"):
            SpatialWeights.from_dict({"n": 3, "neighbors": [[2, 1], [0], [0]],
                                      "weights": [[1.0], [1.0], [1.0]], "standardized": False})

    def test_neighbor_index_range(self):
        with pytest.raises(InvalidDimensionError, match="outside"):
            SpatialWeights(n=2, neighbors=((5,), ()), weights=((1.0,), ()))

    def test_sparse_matrix_row_stochastic(self):
        w = build_lattice_rook(6, 6)
        sums = np.asarray(w.sparse.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)
