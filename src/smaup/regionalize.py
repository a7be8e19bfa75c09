"""Random contiguous aggregation of areas into regions, plus mean aggregation.

Regions are produced by seed-based growing: k seed areas are drawn uniformly
without replacement, then regions repeatedly claim a random unassigned
neighbor until every area is assigned. Each region is contiguous by
construction. Aggregation uses the unweighted mean of member areas.

One growth loop, :func:`_claim`, serves two set-ups of one draw contract.
:func:`_grow` sets up one repeat, for a consumer that may stop after any
repeat: :func:`random_regions` and, without its validation, the Monte Carlo
kernel ``experiments._partitions``, whose acceptance filter stops at the
first repeat that decides it. :func:`_grow_block` sets up r repeats as one
block of arrays, for a consumer that takes all r: the effects harness. Both
give the same labels from the same outputs.

Growth holds sets of areas as Python ints, bit j for area j: the unassigned
areas, and per region its reach, the union of its areas' neighbor sets
(cached on the weights). Adjacency is symmetric, so a region's frontier,
the unassigned areas adjacent to it, is ``reach & unassigned``, and its
i-th set bit from the lowest is its i-th area in ascending order.

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
  read in blocks whose size moves no stream: each repeat reads its seed
  keys and its first pick words in one read and advances to the next
  substream, and a repeat that uses up those words reads on in its own
  substream, wherever the bit generator then stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress

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
# A repeat reads n seed keys and n - k + _SPARE_PICKS outputs of pick words,
# which few partitions use up, then that many again per further read. The
# reads' sizes move no stream.
_SPARE_PICKS = 8


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


def _halves(outputs: np.ndarray) -> list[int]:
    """The 32-bit halves of raw outputs, low half first."""
    return outputs.astype("<u8", copy=False).view("<u4").tolist()


def _more_words(bitgen, behind: int, size: int):
    """The words of the outputs from ``behind`` outputs before ``bitgen``'s
    position on, read ``size`` outputs at a time. Each read leaves ``bitgen``
    where it found it; positions count modulo PCG64's period, 2**128."""
    while True:
        bitgen.advance(-behind % 2**128)
        outputs = bitgen.random_raw(size)
        behind -= size
        bitgen.advance(behind % 2**128)
        yield from _halves(outputs)


def _claim(masks, assignment, reach: list[int], active: list[int], unassigned: int,
           word) -> None:
    """Grow regions in place until every area is assigned or none can grow.
    ``assignment`` is a list, or a row of labels seen through a memoryview.

    A region's frontier is ``reach & unassigned`` (module docstring); its
    i-th area is found by clearing the i lowest, or the m - 1 - i highest, of
    its m set bits. A claim moves one bit out of ``unassigned``, writes the
    region into ``assignment`` and ORs the area's neighbor mask into the
    region's reach. Each pick from m > 1 choices is numpy's bounded draw
    (Lemire 2019) on the words ``word()`` returns: take ``x = word() * m``,
    redraw while its low 32 bits are below ``(2**32 - m) % m``, and use its
    top 32 bits."""
    while unassigned and active:
        m = len(active)
        pos = 0
        if m > 1:
            x = word() * m
            while (x & 0xFFFFFFFF) < m and (x & 0xFFFFFFFF) < (0x100000000 - m) % m:
                x = word() * m
            pos = x >> 32
        region = active[pos]
        frontier = reach[region] & unassigned
        if not frontier:
            active.pop(pos)
            continue
        m = frontier.bit_count()
        if m > 1:
            x = word() * m
            while (x & 0xFFFFFFFF) < m and (x & 0xFFFFFFFF) < (0x100000000 - m) % m:
                x = word() * m
            i = x >> 32
            j = m - 1 - i
            if i < j:
                while i:
                    frontier &= frontier - 1  # clear the lowest set bit
                    i -= 1
                frontier &= -frontier
            else:
                while j:
                    frontier ^= 1 << (frontier.bit_length() - 1)  # clear the highest
                    j -= 1
        area = frontier.bit_length() - 1
        assignment[area] = region
        unassigned ^= 1 << area
        reach[region] |= masks[area]
        # the other m - 1 frontier areas are still unassigned
        if m == 1 and not masks[area] & unassigned:
            active.pop(pos)


def _grow(w: SpatialWeights, k: int, bitgen: np.random.PCG64) -> list[int]:
    """Region labels of :func:`random_regions`, for k and a graph already checked,
    grown from ``bitgen``'s next substream (module docstring): the set-up of
    one repeat, for a consumer that may stop after any repeat."""
    n, masks = w.n, w._neighbor_masks
    picks = n - k + _SPARE_PICKS
    lead = n + picks
    raw = bitgen.random_raw(lead)
    bitgen.advance(_JUMP - lead)
    seeds = raw[:n].argsort(kind="stable")[:k]
    labels = np.empty(n, np.int64)
    labels.fill(-1)
    labels[seeds] = np.arange(k)
    unassigned = int.from_bytes(np.packbits(labels < 0, bitorder="little").tobytes(), "little")
    assignment = labels.tolist()
    reach = [masks[area] for area in seeds.tolist()]
    active = list(compress(range(k), map(unassigned.__and__, reach)))
    word = chain(_halves(raw[n:]), _more_words(bitgen, _JUMP - lead, picks)).__next__
    _claim(masks, assignment, reach, active, unassigned, word)
    return assignment


def _grow_block(w: SpatialWeights, k: int, bitgen: np.random.PCG64, r: int) -> np.ndarray:
    """The labels of r successive :func:`_grow` calls on ``bitgen`` as the rows
    of an (r, n) array: the set-up of a block, for a consumer that takes all
    r repeats. It reads what those calls read and leaves ``bitgen`` where
    they leave it.

    Every repeat's outputs are read first; then one stable row argsort draws
    all seeds, one label fill and one ``packbits`` give every row's
    unassigned set, the padded neighbor table gives every row's initial
    active list, a region being active iff its seed touches a free area,
    and one gather gives every row's reaches. Each row then grows in place
    by the loop :func:`_grow` runs; a row that uses up its pick words reads
    on in its own substream."""
    n, masks = w.n, w._neighbor_masks
    picks = n - k + _SPARE_PICKS
    lead = n + picks
    raw = np.empty((r, lead), np.uint64)
    for row in raw:
        row[:] = bitgen.random_raw(lead)
        bitgen.advance(_JUMP - lead)
    seeds = raw[:, :n].argsort(axis=1, kind="stable")[:, :k]
    labels = np.empty((r, n), np.int64)
    labels.fill(-1)
    np.put_along_axis(labels, seeds, np.arange(k), axis=1)
    free = np.zeros((r, n + 1), bool)  # column n: the table's padding, never free
    np.less(labels, 0, out=free[:, :n])
    touches_free = np.zeros((r, n), bool)
    for column in w._neighbor_table.T:
        touches_free |= free[:, column]
    active = np.take_along_axis(touches_free, seeds, axis=1)
    ends = np.count_nonzero(active, axis=1).cumsum().tolist()
    regions = np.nonzero(active)[1].tolist()  # row by row
    reaches = np.array(masks, object)[seeds].tolist()
    unassigned = np.packbits(free[:, :n], axis=1, bitorder="little")
    width, unassigned = unassigned.shape[1], unassigned.tobytes()
    flat = memoryview(labels.reshape(-1))
    start = 0
    for i, (end, reach, words) in enumerate(zip(ends, reaches, _halves(raw[:, n:]))):
        word = chain(words, _more_words(bitgen, (r - i) * _JUMP - lead, picks)).__next__
        _claim(masks, flat[i * n:i * n + n], reach, regions[start:end],
               int.from_bytes(unassigned[i * width:i * width + width], "little"), word)
        start = end
    return labels


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
    assignment = _grow(w, k, np.random.PCG64(seed))
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
