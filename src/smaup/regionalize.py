"""Random contiguous aggregation of areas into regions, plus mean aggregation.

Regions are produced by seed-based growing: k seed areas are drawn uniformly
without replacement, then regions repeatedly claim a random unassigned
neighbor until every area is assigned. Each region is contiguous by
construction. Aggregation uses the unweighted mean of member areas. One
growth loop serves :func:`random_regions` and, without its validation, the
Monte Carlo kernel ``experiments._partitions``; both keep its draw contract.

Draw contract (stream version 4). Growth reads one PCG64 bit generator, and
partition ``rep`` of a stream reads it from where ``bitgen.jumped(rep)``
starts, ``rep`` times numpy's PCG64 jump of (golden ratio - 1) * 2**128
outputs on: the streams-and-substreams layout of L'Ecuyer et al. (2002) on
PCG64's jump-ahead (O'Neill 2014). Substreams spaced by a power of two are
correlated on PCG64's underlying LCG, whose multiplier raised to 2**j is 1
modulo 2**(j + 2); the golden-ratio jump is not. Within a substream:

- the seeds are ``np.argsort(bitgen.random_raw(n), kind="stable")[:k]``, in
  that order: a uniform ordered k-subset, with a tie between two 64-bit keys
  (probability below n**2 / 2**65) broken by area index;
- every later region pick and area pick from m > 1 choices is numpy's
  bounded draw (Lemire 2019) on the 32-bit halves of the outputs that
  follow, low half first, as ``Generator(bitgen).integers(m)`` makes it;
  a range of 1 draws nothing;
- growth then advances the bit generator to the start of the next
  substream, so a partition depends on (stream, rep) alone. Outputs are
  read in blocks whose size moves no stream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

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
    "regionalization_to_csv",
]

# Outputs of one bit generator reserved for each partition grown from it:
# the step of numpy's ``PCG64.jumped``, (golden ratio - 1) * 2**128.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


@dataclass(frozen=True)
class Regionalization:
    """A partition of n areas into k labeled regions.

    ``assignment[i]`` is the region label of area i, in [0, k). Labels must
    all be used. Contiguity is not checked: :func:`random_regions` grows
    contiguous regions by construction.
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


def _grow(neighbors, n: int, k: int, bitgen: np.random.PCG64) -> list[int]:
    """Region labels of :func:`random_regions`, for k and a graph already checked,
    grown from ``bitgen``'s next substream (module docstring).

    A region's frontier is listed when it is first picked: until then it is its
    seed alone, whose unassigned neighbours are exactly its frontier. Each
    pick from m > 1 choices is numpy's bounded draw (Lemire 2019): take
    ``x = word * m``, redraw while its low 32 bits are below
    ``(2**32 - m) % m``, and use its top 32 bits."""
    block = n - k + 8  # outputs per read of pick words; moves no stream
    fills = 0

    def fill():
        nonlocal fills
        fills += 1
        return bitgen.random_raw(block).astype("<u8", copy=False).view("<u4").tolist()

    raw = bitgen.random_raw(n + block)
    seeds = np.argsort(raw[:n], kind="stable")[:k].tolist()
    first = raw[n:].astype("<u8", copy=False).view("<u4").tolist()
    word = chain(first, chain.from_iterable(iter(fill, None))).__next__
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
    remaining = n - k
    while remaining and active:
        m = len(active)
        pos = 0
        if m > 1:
            x = word() * m
            while (x & 0xFFFFFFFF) < m and (x & 0xFFFFFFFF) < (0x100000000 - m) % m:
                x = word() * m
            pos = x >> 32
        region = active[pos]
        frontier = frontiers[region]
        if frontier is None:
            frontier = frontiers[region] = [j for j in neighbors[seeds[region]] if assignment[j] < 0]
        if not frontier:
            active.pop(pos)
            continue
        m = len(frontier)
        i = 0
        if m > 1:
            x = word() * m
            while (x & 0xFFFFFFFF) < m and (x & 0xFFFFFFFF) < (0x100000000 - m) % m:
                x = word() * m
            i = x >> 32
        area = frontier.pop(i)
        assignment[area] = region
        remaining -= 1
        for j in neighbors[area]:
            owner = assignment[j]
            if owner < 0:
                i = bisect_left(frontier, j)
                if i == len(frontier) or frontier[i] != j:
                    frontier.insert(i, j)
            elif owner != region:
                # area left the frontier of every other listed region it touches
                owned = frontiers[owner]
                if owned is not None:
                    i = bisect_left(owned, area)
                    if i < len(owned) and owned[i] == area:
                        del owned[i]
        if not frontier:
            active.pop(pos)
    bitgen.advance(_JUMP - n - block * (fills + 1))
    return assignment


def random_regions(w: SpatialWeights, k: int, seed: int = 0) -> Regionalization:
    """Aggregate the n areas of ``w`` into k contiguous regions at random.

    k seed areas are drawn uniformly without replacement. Growth then
    repeats: pick a region uniformly from the active list, then assign it a
    uniformly chosen area of its frontier (the unassigned areas adjacent to
    it, in ascending order). A region leaves the active list when its own
    claim empties its frontier, or when it is picked with a frontier that
    other regions' claims emptied. Deterministic under a fixed seed.

    The regions are repeat 0 of the module's draw contract on
    ``np.random.PCG64(seed)``, the bit generator ``default_rng(seed)`` wraps:
    the seeds are the first k areas of the stable ``argsort`` of its first n
    raw outputs, and every later pick is numpy's bounded draw, as
    ``Generator(bitgen).integers(m)`` makes it, on the 32-bit halves of the
    outputs that follow, low half first; a range of 1 draws nothing. The
    assignment thus depends only on (w, k, seed) and on numpy's PCG64 and
    its bounded-integer rule.

    Raises
    ------
    InvalidKError
        If k is outside [1, n].
    ContiguityError
        If the contiguity graph is disconnected.
    """
    _check_growable(w, k)
    assignment = _grow(w.neighbors, w.n, k, np.random.PCG64(seed))
    return Regionalization(assignment=np.array(assignment), k=k)


def _check_growable(w: SpatialWeights, k: int) -> None:
    if not 1 <= k <= w.n:
        raise InvalidKError(f"k must be in [1, {w.n}], got {k}")
    if not is_connected(w):
        raise ContiguityError("contiguous regions are impossible on a disconnected graph")


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
