"""Contiguity structures: rook lattices, adjacency files, polygon shared edges.

The central object is :class:`SpatialWeights`, an immutable row-standardized
(or raw binary) contiguity graph over ``n`` areas. Constructors cover the
three input routes used throughout the toolkit: regular rook lattices,
hand-written adjacency lists, and GeoJSON polygon collections.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AdjacencyParseError,
    GeoJSONError,
    InvalidDimensionError,
)

__all__ = [
    "SpatialWeights",
    "build_lattice_rook",
    "from_adjacency_text",
    "from_geojson",
    "is_connected",
    "to_adjacency_text",
]

# Hard cap on lattice size, far above what the sparse SAR path needs memory
# for (rho estimation on 10^4 areas peaks under 100 MB); rows*cols beyond it
# is treated as an overflow.
_MAX_AREAS = 10**8

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SpatialWeights:
    """Contiguity graph with per-area neighbor lists and aligned weights.

    Parameters
    ----------
    n : int
        Number of areas.
    neighbors : tuple of tuple of int
        ``neighbors[i]`` lists the areas adjacent to area ``i`` in ascending
        index order (checked; ``from_dict`` sorts its rows).
    weights : tuple of tuple of float
        ``weights[i][j]`` is the weight of the edge from ``i`` to
        ``neighbors[i][j]``. Rows sum to 1 when ``standardized``.
    standardized : bool
        True when each nonempty weight row sums to one.

    Notes
    -----
    Instances are immutable after construction and safe to share across
    concurrent readers. The derived matrices below are cached lazily;
    concurrent first access may compute them twice, which is harmless
    (idempotent, first-writer-wins).
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]
    standardized: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise InvalidDimensionError(f"need at least one area, got n={self.n}")
        if len(self.neighbors) != self.n or len(self.weights) != self.n:
            raise InvalidDimensionError(
                f"neighbor/weight lists must have length n={self.n}"
            )
        neighbor_sets = [set(row) for row in self.neighbors]
        for i, row in enumerate(self.neighbors):
            if len(row) != len(self.weights[i]):
                raise InvalidDimensionError(
                    f"area {i}: {len(row)} neighbors but {len(self.weights[i])} weights"
                )
            if len(neighbor_sets[i]) != len(row):
                raise InvalidDimensionError(f"area {i}: duplicate neighbor entries")
            if any(a > b for a, b in zip(row, row[1:])):
                raise InvalidDimensionError(f"area {i}: neighbors are not in ascending order")
            for j in row:
                if not 0 <= j < self.n:
                    raise InvalidDimensionError(
                        f"area {i}: neighbor index {j} outside [0, {self.n})"
                    )
                if j == i:
                    raise InvalidDimensionError(f"area {i} lists itself as a neighbor")
                if i not in neighbor_sets[j]:
                    raise InvalidDimensionError(
                        f"asymmetric adjacency: {j} in neighbors[{i}] "
                        f"but {i} not in neighbors[{j}]"
                    )
            if self.standardized and row:
                s = math.fsum(self.weights[i])
                if abs(s - 1.0) > ROW_SUM_TOL:
                    raise InvalidDimensionError(
                        f"area {i}: standardized weight row sums to {s!r}, not 1"
                    )

    # -- derived, lazily cached ------------------------------------------

    @cached_property
    def sparse(self):
        """Weight matrix W as a ``scipy.sparse`` CSR matrix.

        scipy is loaded here, on first use, so building, serializing and
        checking weights never imports it.
        """
        import scipy.sparse as sp

        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for i, row in enumerate(self.neighbors):
            indptr[i + 1] = indptr[i] + len(row)
        indices = np.fromiter(
            (j for row in self.neighbors for j in row), dtype=np.int64, count=indptr[-1]
        )
        data = np.fromiter(
            (w for row in self.weights for w in row), dtype=np.float64, count=indptr[-1]
        )
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Neighbor count per area."""
        return np.array([len(row) for row in self.neighbors], dtype=np.int64)

    @cached_property
    def _neighbor_masks(self) -> tuple[int, ...]:
        """Neighbor set per area as an int: bit j of ``_neighbor_masks[i]`` is
        set iff j is adjacent to i. Region growth reads them. They take up to
        n**2 / 8 bytes in all, so they stay out of the pickle (``__getstate__``)."""
        return tuple(sum(1 << j for j in row) for row in self.neighbors)

    @cached_property
    def _neighbor_table(self) -> np.ndarray:
        """Read-only (n, d) array, d the largest neighbor count: row i lists
        the neighbors of area i, padded with n. Region growth indexes it for
        many partitions at once. Like the masks, it stays out of the pickle."""
        table = np.full((self.n, max(map(len, self.neighbors))), self.n, np.intp)
        for i, row in enumerate(self.neighbors):
            table[i, :len(row)] = row
        table.flags.writeable = False
        return table

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_neighbor_masks", None)
        state.pop("_neighbor_table", None)
        return state

    @property
    def edge_count(self) -> int:
        """Number of undirected edges in the contiguity graph."""
        return int(self.cardinalities.sum()) // 2

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict: {n, neighbors, weights, standardized}."""
        return {
            "n": self.n,
            "neighbors": [list(row) for row in self.neighbors],
            "weights": [list(row) for row in self.weights],
            "standardized": self.standardized,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "SpatialWeights":
        """Inverse of :meth:`to_dict`. Each row is sorted by neighbor index,
        its weights permuted with it."""
        neighbors = [tuple(int(j) for j in row) for row in d["neighbors"]]
        weights = [tuple(float(w) for w in row) for row in d["weights"]]
        for i, (nbrs, wts) in enumerate(zip(neighbors, weights)):
            # a row whose lengths differ is left for __post_init__ to reject
            if len(nbrs) == len(wts):
                order = sorted(range(len(nbrs)), key=nbrs.__getitem__)
                neighbors[i] = tuple(nbrs[k] for k in order)
                weights[i] = tuple(wts[k] for k in order)
        return cls(
            n=int(d["n"]),
            neighbors=tuple(neighbors),
            weights=tuple(weights),
            standardized=bool(d["standardized"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "SpatialWeights":
        return cls.from_dict(json.loads(text))


def _standardize_rows(
    neighbors: list[list[int]] | list[set[int]], standardized: bool
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[float, ...], ...]]:
    """Sort neighbor rows ascending and attach row-standardized (or binary) weights."""
    nb = tuple(tuple(sorted(row)) for row in neighbors)
    if standardized:
        wt = tuple(
            tuple(1.0 / len(row) for _ in row) if row else () for row in nb
        )
    else:
        wt = tuple(tuple(1.0 for _ in row) for row in nb)
    return nb, wt


def build_lattice_rook(rows: int, cols: int, standardized: bool = True) -> SpatialWeights:
    """Rook-contiguity weights for a regular ``rows`` x ``cols`` grid.

    Areas are indexed row-major: area ``r * cols + c`` sits at grid cell
    ``(r, c)``. Interior cells get 4 neighbors, edge cells 3, corners 2.

    Parameters
    ----------
    rows, cols : int
        Grid dimensions; ``rows * cols`` must be at least 2.
    standardized : bool
        Row-standardize the weights (default). Pass False for raw binary.
    """
    if rows < 1 or cols < 1:
        raise InvalidDimensionError(f"lattice dimensions must be >= 1, got {rows}x{cols}")
    n = rows * cols
    if n > _MAX_AREAS:
        raise InvalidDimensionError(
            f"lattice {rows}x{cols} has {n} areas, above the {_MAX_AREAS} cap"
        )
    if n < 2:
        raise InvalidDimensionError("a 1x1 lattice has no possible neighbors")

    neighbors: list[list[int]] = [[] for _ in range(n)]
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                neighbors[i].append(i + 1)
                neighbors[i + 1].append(i)
            if r + 1 < rows:
                neighbors[i].append(i + cols)
                neighbors[i + cols].append(i)
    nb, wt = _standardize_rows(neighbors, standardized)
    return SpatialWeights(n=n, neighbors=nb, weights=wt, standardized=standardized)


def from_adjacency_text(content: str, standardized: bool = True) -> SpatialWeights:
    """Parse adjacency-list text into weights.

    Format: one line per area, ``<area_id>: <id> <id> ...``, with ``#``
    starting a comment. Area ids must be the consecutive integers
    ``0 .. n-1`` (in any line order). Missing reciprocal edges are repaired
    by symmetrization, with a single warning reporting how many were added.

    Raises
    ------
    AdjacencyParseError
        On empty input, malformed lines, self-loops, duplicate or
        non-consecutive area ids. The message names the offending line.
    """
    entries: dict[int, list[int]] = {}
    saw_any = False
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_any = True
        head, sep, tail = line.partition(":")
        if not sep:
            raise AdjacencyParseError(f"line {lineno}: missing ':' separator")
        try:
            area = int(head.strip())
        except ValueError:
            raise AdjacencyParseError(
                f"line {lineno}: area id {head.strip()!r} is not an integer"
            ) from None
        if area in entries:
            raise AdjacencyParseError(f"line {lineno}: duplicate area id {area}")
        try:
            nbrs = [int(tok) for tok in tail.split()]
        except ValueError:
            raise AdjacencyParseError(
                f"line {lineno}: neighbor list contains a non-integer"
            ) from None
        if area in nbrs:
            raise AdjacencyParseError(f"line {lineno}: area {area} lists itself (self-loop)")
        entries[area] = nbrs

    if not saw_any:
        raise AdjacencyParseError("empty adjacency file (no non-comment lines)")
    n = len(entries)
    if sorted(entries) != list(range(n)):
        missing = sorted(set(range(n)) - set(entries))[:5]
        raise AdjacencyParseError(
            f"area ids must be consecutive 0..{n - 1}; missing {missing} "
            f"(or ids out of range present)"
        )
    for area, nbrs in entries.items():
        for j in nbrs:
            if not 0 <= j < n:
                raise AdjacencyParseError(
                    f"area {area}: neighbor id {j} outside 0..{n - 1}"
                )

    sets = [set(entries[i]) for i in range(n)]
    repaired = 0
    for i in range(n):
        for j in list(sets[i]):
            if i not in sets[j]:
                sets[j].add(i)
                repaired += 1
    if repaired:
        warnings.warn(
            f"adjacency list was asymmetric; added {repaired} reciprocal edge(s)",
            stacklevel=2,
        )
    nb, wt = _standardize_rows(sets, standardized)
    return SpatialWeights(n=n, neighbors=nb, weights=wt, standardized=standardized)


def to_adjacency_text(w: SpatialWeights) -> str:
    """Dump weights to the adjacency-list text format (weights are implied)."""
    lines = [
        f"{i}: " + " ".join(str(j) for j in w.neighbors[i]) for i in range(w.n)
    ]
    return "\n".join(lines) + "\n"


# Coordinates are snapped to a 1e-9 grid before comparison so that exactly
# shared boundary vertices survive serialization jitter.
_QUANT = 1e9


def _quantize(pt) -> tuple[int, int]:
    x, y = float(pt[0]), float(pt[1])
    return (round(x * _QUANT), round(y * _QUANT))


def _ring_edges(ring) -> set[tuple]:
    edges = set()
    pts = [_quantize(p) for p in ring]
    for a, b in zip(pts, pts[1:]):
        if a == b:
            continue
        edges.add((a, b) if a <= b else (b, a))
    return edges


def _polygon_edges(coordinates) -> set[tuple]:
    edges = set()
    for ring in coordinates:
        edges |= _ring_edges(ring)
    return edges


def from_geojson(content: str, standardized: bool = True) -> SpatialWeights:
    """Derive rook contiguity from a GeoJSON FeatureCollection of polygons.

    Two features are neighbors iff they share at least one boundary segment
    (a full edge; touching at a single point does not count). Feature order
    defines area index order.

    Raises
    ------
    GeoJSONError
        On malformed JSON, non-polygon geometry, or fewer than 2 features.
    """
    try:
        doc = json.loads(content)
    except json.JSONDecodeError as exc:
        raise GeoJSONError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise GeoJSONError("expected a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list) or len(features) < 2:
        raise GeoJSONError("need at least 2 polygon features")

    edge_owner: dict[tuple, list[int]] = {}
    for idx, feat in enumerate(features):
        geom = (feat or {}).get("geometry") or {}
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if not isinstance(coords, (list, tuple)):
            raise GeoJSONError(f"feature {idx}: missing or invalid coordinates")
        if gtype == "Polygon":
            edges = _polygon_edges(coords)
        elif gtype == "MultiPolygon":
            edges = set()
            for poly in coords:
                edges |= _polygon_edges(poly)
        else:
            raise GeoJSONError(
                f"feature {idx}: geometry type {gtype!r} is not Polygon/MultiPolygon"
            )
        if not edges:
            raise GeoJSONError(f"feature {idx}: no usable boundary segments")
        for e in edges:
            edge_owner.setdefault(e, []).append(idx)

    n = len(features)
    sets: list[set[int]] = [set() for _ in range(n)]
    for owners in edge_owner.values():
        if len(owners) < 2:
            continue
        for a in owners:
            for b in owners:
                if a != b:
                    sets[a].add(b)
    nb, wt = _standardize_rows(sets, standardized)
    return SpatialWeights(n=n, neighbors=nb, weights=wt, standardized=standardized)


def is_connected(w: SpatialWeights) -> bool:
    """True iff the contiguity graph has a single connected component.

    An iterative breadth-first walk from area 0 over the neighbor lists the
    weights already hold; it needs neither the sparse matrix nor scipy. The
    answer is cached on the weights object, so the graph is walked once.
    """
    cached = w.__dict__.get("_connected")
    if cached is None:
        seen = bytearray(w.n)
        seen[0] = 1
        queue = [0]
        for i in queue:  # the walk appends to the list it iterates
            for j in w.neighbors[i]:
                if not seen[j]:
                    seen[j] = 1
                    queue.append(j)
        cached = w.__dict__["_connected"] = len(queue) == w.n
    return cached
