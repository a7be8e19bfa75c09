"""Random contiguous aggregation of areas into regions, plus mean aggregation.

Regions are produced by seed-based growing: k seed areas are drawn uniformly
without replacement, then regions repeatedly claim a random unassigned
neighbor until every area is assigned. Each region is contiguous by
construction. Aggregation uses the unweighted mean of member areas. One
growth loop serves :func:`random_regions` and, without its validation, the
Monte Carlo kernel ``experiments._partitions``; both keep its draw contract.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContiguityError,
    CorruptPartitionError,
    InvalidKError,
    ShapeMismatchError,
)
from .sar import AreaVariable
from .weights import SpatialWeights, is_connected

__all__ = [
    "Regionalization",
    "AggregatedVariable",
    "random_regions",
    "aggregate_mean",
    "validate_regionalization",
    "regionalization_to_csv",
]


@dataclass(frozen=True)
class Regionalization:
    """A partition of n areas into k labeled regions.

    ``assignment[i]`` is the region label of area i, in [0, k). Labels must
    all be used; contiguity is checked against a weights object by
    :func:`validate_regionalization`.
    """

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise CorruptPartitionError(f"assignment must be 1-D, got shape {arr.shape}")
        if self.k < 1:
            raise InvalidKError(f"k must be >= 1, got {self.k}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.k):
            raise CorruptPartitionError(
                f"labels must lie in [0, {self.k}), got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        if np.unique(arr).size != self.k:
            raise CorruptPartitionError("every region label in [0, k) must appear at least once")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "assignment", arr)

    def __eq__(self, other):
        if not isinstance(other, Regionalization):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.assignment, other.assignment)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


@dataclass(frozen=True)
class AggregatedVariable:
    """Per-region means and sizes produced by aggregating an area variable."""

    region_means: np.ndarray
    region_sizes: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.region_means, dtype=np.float64)
        sizes = np.asarray(self.region_sizes, dtype=np.int64)
        if means.shape != sizes.shape or means.ndim != 1:
            raise CorruptPartitionError("region_means and region_sizes must be aligned 1-D vectors")
        if np.any(sizes < 1):
            raise CorruptPartitionError("every region must contain at least one area")
        if not np.all(np.isfinite(means)):
            raise CorruptPartitionError("region means must be finite")
        means = means.copy()
        means.flags.writeable = False
        sizes = sizes.copy()
        sizes.flags.writeable = False
        object.__setattr__(self, "region_means", means)
        object.__setattr__(self, "region_sizes", sizes)

    def __eq__(self, other):
        if not isinstance(other, AggregatedVariable):
            return NotImplemented
        return np.array_equal(self.region_means, other.region_means) and np.array_equal(
            self.region_sizes, other.region_sizes
        )

    @property
    def k(self) -> int:
        return self.region_means.shape[0]


def _bounded_draws(rng: np.random.Generator, block: int):
    """Return ``draw(m)``, uniform on [0, m), equal to ``int(rng.integers(m))``.

    The Generator's 32-bit words are read ``block`` at a time and mapped by
    numpy's bounded rule (Lemire 2019): for m >= 2 take ``x * m``, reject
    while its low 32 bits are below ``(2**32 - m) % m``, and return its top
    32 bits. A range of 1 reads no word.
    """
    words: list[int] = []
    pos = 0

    def draw(m: int) -> int:
        nonlocal words, pos
        if m == 1:
            return 0
        while True:
            if pos == len(words):
                words = rng.integers(0, 1 << 32, size=block, dtype=np.uint32).tolist()
                pos = 0
            x = words[pos] * m
            pos += 1
            low = x & 0xFFFFFFFF
            if low >= m or low >= (0x100000000 - m) % m:
                return x >> 32

    return draw


def _grow(neighbors, n: int, k: int, seed: int) -> list[int]:
    """Region labels of :func:`random_regions`, for k and a graph already checked.

    A region's frontier is listed when it is first picked: until then it is its
    seed alone, whose unassigned neighbours are exactly its frontier."""
    rng = np.random.default_rng(seed)
    seeds = rng.choice(n, size=k, replace=False).tolist()
    assignment = [-1] * n
    for region, area in enumerate(seeds):
        assignment[area] = region
    active = []
    for region, area in enumerate(seeds):
        for j in neighbors[area]:
            if assignment[j] < 0:
                active.append(region)
                break
    # frontiers[r]: None until r is first picked, then its sorted frontier (rows ascend)
    frontiers: list[list[int] | None] = [None] * k
    draw = _bounded_draws(rng, 2 * (n - k) + 16)
    remaining = n - k
    while remaining and active:
        pos = draw(len(active))
        region = active[pos]
        frontier = frontiers[region]
        if frontier is None:
            frontier = frontiers[region] = [j for j in neighbors[seeds[region]] if assignment[j] < 0]
        if not frontier:
            active.pop(pos)
            continue
        area = frontier[draw(len(frontier))]
        assignment[area] = region
        remaining -= 1
        for j in neighbors[area]:
            owner = assignment[j]
            if owner < 0:
                i = bisect_left(frontier, j)
                if i == len(frontier) or frontier[i] != j:
                    frontier.insert(i, j)
            else:
                # area left the frontier of every listed region it touches
                owned = frontiers[owner]
                if owned is not None:
                    i = bisect_left(owned, area)
                    if i < len(owned) and owned[i] == area:
                        del owned[i]
        if not frontier:
            active.pop(pos)
    return assignment


def random_regions(w: SpatialWeights, k: int, seed: int = 0) -> Regionalization:
    """Aggregate the n areas of ``w`` into k contiguous regions at random.

    k seed areas are drawn uniformly without replacement. Growth then
    repeats: pick a region uniformly from the active list, then assign it a
    uniformly chosen area of its frontier (the unassigned areas adjacent to
    it, in ascending order). A region leaves the active list when its own
    claim empties its frontier, or when it is picked with a frontier that
    other regions' claims emptied. Deterministic under a fixed seed.

    Draw contract: after ``rng.choice`` draws the seeds from
    ``np.random.default_rng(seed)``, every region pick and every area pick is
    one bounded draw on the Generator's 32-bit words, exactly as
    ``rng.integers(m)`` would make it, and a range of 1 draws nothing. The
    assignment thus depends only on (w, k, seed) and on numpy's PCG64,
    ``choice`` and bounded-integer rules.

    Raises
    ------
    InvalidKError
        If k is outside [1, n].
    ContiguityError
        If the contiguity graph is disconnected.
    """
    _check_growable(w, k)
    return Regionalization(assignment=np.array(_grow(w.neighbors, w.n, k, seed)), k=k)


def _check_growable(w: SpatialWeights, k: int) -> None:
    if not 1 <= k <= w.n:
        raise InvalidKError(f"k must be in [1, {w.n}], got {k}")
    if not is_connected(w):
        raise ContiguityError("contiguous regions are impossible on a disconnected graph")


def validate_regionalization(r: Regionalization, w: SpatialWeights) -> None:
    """Raise CorruptPartitionError unless every region is internally connected."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    if r.n != w.n:
        raise ShapeMismatchError(f"partition covers {r.n} areas but weights has n={w.n}")
    # with the edges between regions masked out, every component lies inside
    # one region, so the partition is contiguous iff there are exactly k
    edges = w.sparse.tocoo()
    inside = r.assignment[edges.row] == r.assignment[edges.col]
    masked = sp.coo_matrix((edges.data[inside], (edges.row[inside], edges.col[inside])), edges.shape)
    count, component = connected_components(masked)
    if count != r.k:
        first_areas = np.unique(component, return_index=True)[1]
        region = int(np.flatnonzero(np.bincount(r.assignment[first_areas], minlength=r.k) > 1)[0])
        members = np.flatnonzero(r.assignment == region)
        reached = np.count_nonzero(component == component[members[0]])
        raise CorruptPartitionError(
            f"region {region} is not contiguous ({reached} of {members.size} reachable)"
        )


def aggregate_mean(y: AreaVariable, r: Regionalization) -> AggregatedVariable:
    """Per-region unweighted means of ``y`` under partition ``r``."""
    if y.n != r.n:
        raise ShapeMismatchError(f"variable has {y.n} values but partition covers {r.n} areas")
    sizes = np.bincount(r.assignment, minlength=r.k)
    sums = np.bincount(r.assignment, weights=y.values, minlength=r.k)
    return AggregatedVariable(region_means=sums / sizes, region_sizes=sizes)


def regionalization_to_csv(r: Regionalization) -> str:
    """Two-column CSV ``area_id, region_id``."""
    lines = ["area_id,region_id"]
    lines.extend(f"{i},{int(label)}" for i, label in enumerate(r.assignment))
    return "\n".join(lines) + "\n"
