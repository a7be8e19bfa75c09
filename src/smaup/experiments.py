"""Monte Carlo harnesses: aggregation-effect sweeps, simulated null
distributions, and power/size estimation for the sensitivity test.

Every harness repeats one step: grow r random partitions of the areas into
k contiguous regions. A seed path names one PCG64 stream, the bit generator
``derive_rng(*seed_path)`` wraps, and repeat ``rep`` reads it from where
``bitgen.jumped(rep)`` starts (the draw contract of ``regionalize``).
:func:`_partition_block` grows the next repeats of a stream as one block,
by ``random_regions``'s growth without its validation, checks them, and
sizes their regions in one offset ``bincount``. The effects harness takes
all r repeats of an (instance, k) as one block, since it aggregates on all
of them. The acceptance filter takes them through :func:`_partitions`, in
blocks of 1, 2, 4, ..., since it stops at the first aggregation that
decides it; it grows at most one block past that repeat. How a stream is
split into blocks moves no partition. Both callers take region means by
``bincount``.

The null, power and size harnesses share one instance recipe, set by one
flag. A SAR field is drawn on a square rook lattice, a region count k is
drawn uniformly with 0.1 N < k < N, and the instance is kept iff each of the
kernel's r Levene decisions equals ``want_rejection``: False for the null and
size (the variance structure survives aggregation, i.e. the null holds),
True for power (it is destroyed every time, i.e. the alternative holds). The
filter stops at the first aggregation that decides it. On a failure only
(k, aggregations) are redrawn; the SAR field is kept. After
``_K_REDRAWS_PER_FIELD`` consecutive failures the field itself is redrawn,
which prevents livelock on pathological fields. One run,
:func:`_accepted_records`, yields (M, estimated rho) per accepted instance:
the null keeps the Ms, size and power price each M at its own estimated rho.

The effects harness draws every rho field of an instance first. Then, for
each k, it grows the instance's r partitions once, as one block, and works
on the F x r (field, repeat) rows as arrays: one offset ``bincount`` takes
every row's region means, one call of each test's kernel scores all rows,
and RCM and RCV take the Welch terms' means and squared deviations through
the formulas of ``stats``, so each row is bit for bit what scoring that
pair alone gives.

Every random draw derives from the master seed and a seed path that names
what the draw is, never where its cell sits in the run: (master seed,
[recipe tag,] instance, role, counters within the instance). Null, power and
size key instance j on (int(want_rejection), j), so size prices the null's
own instances; effects keys its draws on (instance, role[, k]). The
partitions of a region path are its stream's substreams, one per repeat. The
cells of a run share their instances' seeds (common random numbers, Glasserman
& Yao 1992): no cell depends on the others, and each cell's own distribution
is unchanged.

Every harness runs its instances through one fan-out, :func:`_fan_out`: one
task per (cell, instance), run serially or on a process pool, results handed
back per cell in instance order, so results are bitwise-identical regardless
of worker count or scheduling order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__ as _toolkit_version
from .core import m_statistic
from .critical_values import RHO_GRID, _check_alpha, _check_area_count, critical_value
from .errors import (
    CorruptPartitionError,
    ExperimentStallError,
    InvalidDimensionError,
    InvalidKError,
    RepeatedValueError,
)
from .regionalize import _check_growable, _grow
from .sar import (
    SarSpec,
    estimate_rho,
    generate_sar,
    generate_with_target_rho,
    w_eigenvalues,
)
from .seeding import _is_integer, derive_rng, derive_seed
from .stats import (_levene, _levene_rejects, _levene_terms, _mean, _relative_change, _variance,
                    _welch, _welch_terms)
from .weights import SpatialWeights, build_lattice_rook

__all__ = [
    "NullDistribution",
    "EffectsConfig",
    "EffectsCell",
    "EffectsSummary",
    "PowerSizeReport",
    "lattice_for_area_count",
    "effects_experiment",
    "generate_null",
    "power_experiment",
    "size_experiment",
]

# Levene level used inside the acceptance filters.
_FILTER_ALPHA = 0.05
# k redraws allowed per SAR field before the field is redrawn.
_K_REDRAWS_PER_FIELD = 50
# A replicate exceeding this many (k, aggregations) trials without an
# acceptance has a windowed acceptance rate below 1e-4 and is declared stalled.
_STALL_TRIALS = 10_000

# Seed-path role tags (keep distinct so streams never collide).
_ROLE_SAR = 0
_ROLE_KDRAW = 1
_ROLE_REGIONS = 2
_ROLE_BASE_FIELD = 3
_ROLE_TARGET_RHO = 4

# Version of the harnesses' random streams, recorded in every harness
# artifact. 2: one set of partitions per (instance, k) serves every rho level.
# 3: no seed path names a cell's place in the run (module docstring). 4: the
# repeats of a seed path are substreams of one PCG64 (``regionalize``).
_STREAM_VERSION = 4

# Effects recipe in rho-isolation mode: the base field's rho, and the window
# and attempt budget of the rank-matching permutation toward every other rho.
_BASE_RHO = 0.9
_TARGET_WINDOW = 0.5
_TARGET_MAX_RETRIES = 200


def _refuse_repeats(name: str, values, scope: str = "") -> None:
    """Raise RepeatedValueError naming the first value of ``values`` that repeats
    an earlier one: each copy would be simulated again as a cell of its own."""
    seen = set()
    for value in values:
        if value in seen:
            raise RepeatedValueError(f"{name}={value} given twice{scope}")
        seen.add(value)


def lattice_for_area_count(n: int) -> SpatialWeights:
    """Square rook lattice with n areas; n must be an integer >= 1 (a numpy
    integer will do, a bool or a float will not) and a perfect square.

    Every call for one n returns the same object for the life of the
    process, so what the harnesses compute on a lattice and cache on it
    (its spectrum, neighbour masks, connectivity verdict and sparse matrix)
    is computed once. Treat it as read-only; ``build_lattice_rook`` gives a
    fresh lattice of one's own.
    """
    side = math.isqrt(_check_area_count(n))
    if side * side != n:
        raise InvalidDimensionError(f"area count {n} is not a perfect square lattice size")
    return _square_lattice(side)


@functools.cache
def _square_lattice(side: int) -> SpatialWeights:
    """The process's one ``side`` x ``side`` rook lattice (``lattice_for_area_count``)."""
    return build_lattice_rook(side, side)


# ---------------------------------------------------------------------------
# Null distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullDistribution:
    """Sorted statistic values simulated under the null for one (N, rho) pair."""

    n: int
    rho: float
    values: np.ndarray
    replicates: int
    r_aggregations: int = 30
    master_seed: int = 0

    def __post_init__(self):
        arr = np.sort(np.asarray(self.values, dtype=np.float64))
        if arr.size != self.replicates:
            raise ValueError(
                f"{arr.size} values but replicates={self.replicates}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        if not isinstance(other, NullDistribution):
            return NotImplemented
        return (
            self.n == other.n
            and self.rho == other.rho
            and self.replicates == other.replicates
            and self.r_aggregations == other.r_aggregations
            and self.master_seed == other.master_seed
            and np.array_equal(self.values, other.values)
        )

    def percentile(self, q: float) -> float:
        """Empirical percentile (linear interpolation), q in [0, 100]."""
        return float(np.percentile(self.values, q))

    def to_dict(self) -> dict:
        return {
            "toolkit_version": _toolkit_version,
            "n": self.n,
            "rho": self.rho,
            "replicates": self.replicates,
            "r_aggregations": self.r_aggregations,
            "seed": self.master_seed,
            "stream_version": _STREAM_VERSION,
            "values": [float(v) for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "NullDistribution":
        return cls(
            n=int(d["n"]),
            rho=float(d["rho"]),
            values=np.asarray(d["values"], dtype=np.float64),
            replicates=int(d["replicates"]),
            r_aggregations=int(d.get("r_aggregations", 30)),
            master_seed=int(d.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "NullDistribution":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Shared instance recipe
# ---------------------------------------------------------------------------


def _partitions(w: SpatialWeights, k: int, seed_path: tuple[int, ...], r: int):
    """Yield the labels and region sizes of r random partitions of ``w`` into k regions.

    One PCG64, in the state ``derive_rng(*seed_path)`` wraps, serves every
    repeat: repeat ``rep`` grows its regions from where ``bitgen.jumped(rep)``
    starts. :func:`_partition_block` grows the repeats in blocks of 1, 2, 4,
    ... (the last cut to r), each when the consumer first asks for one of its
    repeats, so a consumer that stops after repeat j has grown
    min(r, 2**(floor(log2(j + 1)) + 1) - 1) repeats: at most one block past
    the one it stopped in. How the repeats are split into blocks moves no
    label.
    """
    bitgen = derive_rng(*seed_path).bit_generator
    grown = 0
    while grown < r:
        size = min(grown + 1, r - grown)
        yield from zip(*_partition_block(w, k, bitgen, size))
        grown += size


def _partition_block(w: SpatialWeights, k: int, bitgen: np.random.PCG64, r: int):
    """The labels and region sizes of the next r partitions of ``bitgen``'s
    stream into k regions, as (r, n) and (r, k) arrays.

    The labels keep ``random_regions``'s draw contract without its
    validation, and ``np.bincount(labels[i], y.values) / sizes[i]`` are the
    region means of ``aggregate_mean``, bit for bit. No partition with an
    unassigned area, a label outside [0, k) or an empty region gets out.
    """
    _check_growable(w, k)
    labels = _grow(w, k, bitgen, r)
    if labels.min() >= 0 and labels.max() < k:
        # row i owns bins i k to i k + k - 1 of one bincount
        sizes = np.bincount((labels + k * np.arange(r)[:, None]).ravel(), minlength=r * k)
        if sizes.min() >= 1:
            return labels, sizes.reshape(r, k)
    raise CorruptPartitionError(
        f"a grown partition leaves an area unassigned, a label outside [0, {k}) "
        f"or one of its {k} regions empty")


def _accepted_instance(
    w: SpatialWeights,
    rho: float,
    master_seed: int,
    want_rejection: bool,
    r: int,
    j: int,
) -> dict:
    """Draw (field, k, aggregations) until every Levene decision equals
    ``want_rejection``; instance j's seed path prefix is (int(want_rejection), j).

    Returns the accepted instance's estimated rho, k, and trial count.
    Raises ExperimentStallError when the acceptance rate over the trial
    window falls below 1e-4 (i.e. 10,000 consecutive failed trials).
    """
    n = w.n
    lo = n // 10 + 1
    hi = n - 1
    if lo > hi:
        raise InvalidKError(f"no integer k satisfies 0.1*{n} < k < {n}")
    path_prefix = (int(want_rejection), j)
    trials = 0
    attempt = 0
    while True:
        field_seed = derive_seed(master_seed, *path_prefix, _ROLE_SAR, attempt)
        y = generate_sar(w, SarSpec(rho=rho, seed=field_seed))
        y_terms = _levene_terms(y.values)
        for k_try in range(_K_REDRAWS_PER_FIELD):
            trials += 1
            if trials > _STALL_TRIALS:
                raise ExperimentStallError(
                    f"acceptance rate below 1e-4: no {'always' if want_rejection else 'never'}-reject "
                    f"instance in {trials} trials at (N={n}, rho={rho})",
                    rate=1.0 / trials,
                )
            k_rng = derive_rng(master_seed, *path_prefix, _ROLE_KDRAW, attempt, k_try)
            k = int(k_rng.integers(lo, hi + 1))
            seed_path = (master_seed, *path_prefix, _ROLE_REGIONS, attempt, k_try)
            if all(
                _levene_rejects(y_terms, np.bincount(labels, y.values) / sizes, _FILTER_ALPHA)
                == want_rejection
                for labels, sizes in _partitions(w, k, seed_path, r)
            ):
                rho_hat = estimate_rho(w, y)
                return {"rho_hat": rho_hat, "k": k, "trials": trials, "attempts": attempt + 1}
        attempt += 1


def _accepted_records(cells, want_rejection: bool, instances: int, r: int,
                      master_seed: int, workers: int) -> list[list[tuple[float, float]]]:
    """(M, estimated rho) of accepted instances 0..instances-1 of each (w, rho)
    cell, one list per cell in instance order."""
    if not _is_integer(r) or r < 1:
        raise ValueError(f"r must be >= 1 and an integer, got {r!r}")
    for w, _ in cells:
        w_eigenvalues(w)  # cached once, before fan-out: every instance estimates rho on w
    tasks = [(w, rho, master_seed, want_rejection, r) for w, rho in cells]
    return [
        [(m_statistic(res["rho_hat"], res["k"] / w.n), res["rho_hat"]) for res in results]
        for (w, _), results in zip(cells, _fan_out(_instance_task, tasks, instances, workers))
    ]


def generate_null(
    w_or_n,
    rho: float,
    replicates: int,
    r: int = 30,
    master_seed: int = 0,
    workers: int = 1,
) -> NullDistribution:
    """Simulate the statistic's null distribution for one (N, rho) pair.

    Each replicate draws SAR fields and aggregation levels until the
    never-reject Levene filter accepts, then records
    M(estimated rho, k/N). Values are returned sorted ascending.

    ``w_or_n`` is either a SpatialWeights object or an integer area count
    (a perfect square, turned into a rook lattice).
    """
    w = w_or_n if isinstance(w_or_n, SpatialWeights) else lattice_for_area_count(w_or_n)
    (records,) = _accepted_records([(w, rho)], False, replicates, r, master_seed, workers)
    return NullDistribution(
        n=w.n,
        rho=rho,
        values=np.array([m for m, _ in records]),
        replicates=int(replicates),
        r_aggregations=int(r),
        master_seed=int(master_seed),
    )


# ---------------------------------------------------------------------------
# Power and size
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSizeReport:
    """Rejection proportions per (N, rho) cell for one experiment kind."""

    kind: str  # "power" or "size"
    alpha: float
    instances: int
    cells: tuple[dict, ...]  # each: {"n", "rho", "proportion"}
    master_seed: int = 0

    def proportion(self, n: int, rho: float) -> float:
        for cell in self.cells:
            if cell["n"] == n and cell["rho"] == rho:
                return cell["proportion"]
        raise KeyError(f"no cell (N={n}, rho={rho})")

    def to_dict(self) -> dict:
        return {
            "toolkit_version": _toolkit_version,
            "kind": self.kind,
            "alpha": self.alpha,
            "instances": self.instances,
            "seed": self.master_seed,
            "stream_version": _STREAM_VERSION,
            "cells": list(self.cells),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        lines = ["rho,k_or_N,metric,value"]
        for cell in self.cells:
            lines.append(f"{cell['rho']},{cell['n']},{self.kind},{cell['proportion']!r}")
        return "\n".join(lines) + "\n"


def _rejection_experiment(
    want_rejection: bool,
    n_values,
    rho_values,
    instances: int,
    alpha: float,
    master_seed: int,
    workers: int,
    r: int,
) -> PowerSizeReport:
    _check_alpha(alpha)
    lattices = [lattice_for_area_count(n) for n in n_values]
    rho_values = [float(rho) for rho in rho_values]
    _refuse_repeats("N", [w.n for w in lattices])
    _refuse_repeats("rho", rho_values)
    pairs = [(w, rho) for w in lattices for rho in rho_values]
    per_cell = _accepted_records(pairs, want_rejection, instances, r, master_seed, workers)
    cells = tuple(
        {"n": w.n, "rho": rho,
         "proportion": sum(m > critical_value(w.n, rho_hat, alpha) for m, rho_hat in records) / instances}
        for (w, rho), records in zip(pairs, per_cell)
    )
    return PowerSizeReport("power" if want_rejection else "size", alpha, int(instances), cells,
                           int(master_seed))


def power_experiment(
    n_values,
    rho_values,
    instances: int,
    alpha: float = 0.05,
    master_seed: int = 0,
    workers: int = 1,
    r: int = 30,
) -> PowerSizeReport:
    """Estimated probability of rejecting when aggregation truly distorts.

    Instances satisfy the alternative (Levene rejects for every one of the r
    aggregations); the report gives the fraction of them our test rejects.
    """
    return _rejection_experiment(True, n_values, rho_values, instances, alpha, master_seed, workers, r)


def size_experiment(
    n_values,
    rho_values,
    instances: int,
    alpha: float = 0.05,
    master_seed: int = 0,
    workers: int = 1,
    r: int = 30,
) -> PowerSizeReport:
    """Estimated type-I error: rejection rate on instances satisfying the null."""
    return _rejection_experiment(False, n_values, rho_values, instances, alpha, master_seed, workers, r)


# ---------------------------------------------------------------------------
# Aggregation-effects experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectsConfig:
    """Configuration of the aggregation-effects sweep.

    ``k_lists`` maps each area count N to the region counts to test. In
    rho-isolation mode (default) each instance draws one base field at
    rho = 0.9 and derives every other autocorrelation level by rank-matching
    permutation (estimated rho within 0.5 of the target, at most 200
    attempts), so all rho levels of an instance share one value multiset and
    the effect of rho is isolated from sampling noise; without it, every rho
    level solves its field from the instance's one set of innovations. In
    either mode the rho levels of an instance share one set of r partitions
    per k, and no seed path names an N, rho or k position, so a cell does not
    depend on the other cells of the run. Every k must be an integer in
    [2, N], r an integer >= 1, and no rho level, or k of one N, may be given
    twice.
    """

    k_lists: dict[int, tuple[int, ...]]
    rho_values: tuple[float, ...] = RHO_GRID
    instances: int = 50
    r: int = 30
    rho_isolation: bool = True
    master_seed: int = 0

    def __post_init__(self):
        if not self.k_lists or not all(self.k_lists.values()):
            raise InvalidKError(f"every N needs at least one k, got {self.k_lists}")
        _refuse_repeats("rho", self.rho_values)
        for n, ks in self.k_lists.items():
            _refuse_repeats("k", ks, f" for N={n}")
            for k in ks:
                if not _is_integer(k) or not 2 <= k <= n:
                    raise InvalidKError(
                        f"cell (N={n}, k={k}): k must lie in [2, N] and be an integer "
                        "(two-sample tests need 2 regions)"
                    )
        _check_instances(self.instances)
        if not _is_integer(self.r) or self.r < 1:
            raise ValueError(f"r must be >= 1 and an integer, got {self.r!r}")
        # the counts checked above, as Python ints
        object.__setattr__(self, "k_lists", {n: tuple(map(int, ks)) for n, ks in self.k_lists.items()})
        object.__setattr__(self, "instances", int(self.instances))
        object.__setattr__(self, "r", int(self.r))


@dataclass(frozen=True)
class EffectsCell:
    """Per-(N, rho, k) summary over instances.

    ``rcm_bars``/``rcv_bars`` hold one repeat-averaged value per instance;
    rejection proportions pool all instances x repeats tests at alpha 0.05.
    """

    n: int
    rho: float
    k: int
    rcm_bars: tuple[float, ...]
    rcv_bars: tuple[float, ...]
    t_rejection_proportion: float
    levene_rejection_proportion: float


@dataclass(frozen=True)
class EffectsSummary:
    """All cells of one effects run; ``to_dict`` adds the reproduction metadata."""

    cells: tuple[EffectsCell, ...]
    instances: int
    r: int
    master_seed: int
    rho_isolation: bool

    def cell(self, n: int, rho: float, k: int) -> EffectsCell:
        for c in self.cells:
            if c.n == n and c.rho == rho and c.k == k:
                return c
        raise KeyError(f"no cell (N={n}, rho={rho}, k={k})")

    def to_dict(self) -> dict:
        return {
            "toolkit_version": _toolkit_version,
            "instances": self.instances,
            "r": self.r,
            "seed": self.master_seed,
            "rho_isolation": self.rho_isolation,
            "metadata": {"stream_version": _STREAM_VERSION, "rcm_divisor": "abs(mean)"},
            "cells": [
                {
                    "n": c.n,
                    "rho": c.rho,
                    "k": c.k,
                    "rcm_bars": list(c.rcm_bars),
                    "rcv_bars": list(c.rcv_bars),
                    "t_rejection_proportion": c.t_rejection_proportion,
                    "levene_rejection_proportion": c.levene_rejection_proportion,
                }
                for c in self.cells
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """Long format ``rho,k_or_N,metric,value``.

        Metrics are prefixed with ``n{N}.`` when the summary spans more than
        one lattice size.
        """
        multi_n = len({c.n for c in self.cells}) > 1
        lines = ["rho,k_or_N,metric,value"]
        for c in self.cells:
            prefix = f"n{c.n}." if multi_n else ""
            for i, v in enumerate(c.rcm_bars):
                lines.append(f"{c.rho},{c.k},{prefix}rcm_bar_{i:03d},{v!r}")
            for i, v in enumerate(c.rcv_bars):
                lines.append(f"{c.rho},{c.k},{prefix}rcv_bar_{i:03d},{v!r}")
            lines.append(f"{c.rho},{c.k},{prefix}rcm_bar_mean,{float(np.mean(c.rcm_bars))!r}")
            lines.append(f"{c.rho},{c.k},{prefix}rcv_bar_mean,{float(np.mean(c.rcv_bars))!r}")
            lines.append(f"{c.rho},{c.k},{prefix}t_reject_prop,{c.t_rejection_proportion!r}")
            lines.append(f"{c.rho},{c.k},{prefix}levene_reject_prop,{c.levene_rejection_proportion!r}")
        return "\n".join(lines) + "\n"


def _effects_rows(values: np.ndarray, labels: np.ndarray, sizes: np.ndarray):
    """Aggregate F fields on r partitions into k regions and score every
    (field, repeat) row against its field, all rows at once.

    ``values`` is (F, n), ``labels`` (r, n) and ``sizes`` (r, k). Returns the
    RCM and RCV, (F, r), and the Welch and Levene outcomes, whose statistics
    and p-values are (F, r). Row (f, i) is, bit for bit, what aggregating
    field f on partition i alone and scoring the pair with the public
    ``rcm``, ``rcv``, ``welch_t_test`` and ``levene_test`` gives.
    """
    (n_fields, _), (r, k) = values.shape, sizes.shape
    fields = values[:, None, :]  # (F, 1, n): broadcasts over the repeats
    # row (f, i) owns bins (f r + i) k to (f r + i) k + k - 1 of one bincount
    bins = labels + k * np.arange(n_fields * r).reshape(n_fields, r, 1)
    sums = np.bincount(bins.ravel(), np.broadcast_to(fields, bins.shape).ravel())
    means = sums.reshape(n_fields, r, k) / sizes
    field_welch, means_welch = _welch_terms(fields), _welch_terms(means)
    welch = _welch(*field_welch, *means_welch)
    levene = _levene(*_levene_terms(fields), *_levene_terms(means))
    (n, mean_o, ss_o), (_, mean_ag, ss_ag) = field_welch, means_welch
    rcm = _relative_change(mean_o, mean_ag, "mean")
    rcv = _relative_change(_variance(n, ss_o), _variance(k, ss_ag), "variance")
    return rcm, rcv, welch, levene


def _effects_instance_task(args) -> dict:
    """One instance of the effects recipe on one lattice, across its rho and k
    cells: ``{(rho, k): (rcm_bar, rcv_bar, t_rejections, levene_rejections)}``.

    Every rho field of the instance is drawn first. Then, for each k,
    :func:`_partition_block` grows the r partitions once, as one block, with
    their region sizes, and :func:`_effects_rows` scores every field on
    every partition in one array pass: one ``bincount`` for all region
    means and one call of each test's kernel. Its seed paths, (master seed,
    instance, role[, k]), are the same on every lattice and at every
    rho level.
    """
    config, w, ks, instance = args
    master_seed = config.master_seed
    base_seed = derive_seed(master_seed, instance, _ROLE_BASE_FIELD)
    base = generate_sar(w, SarSpec(rho=_BASE_RHO, seed=base_seed)) if config.rho_isolation else None
    fields = []
    for rho in config.rho_values:
        if not config.rho_isolation:
            seed = derive_seed(master_seed, instance, _ROLE_SAR)
            y = generate_sar(w, SarSpec(rho=rho, seed=seed))
        elif rho == _BASE_RHO:
            y = base
        else:
            seed = derive_seed(master_seed, instance, _ROLE_TARGET_RHO)
            y = generate_with_target_rho(w, base, target=rho, window=_TARGET_WINDOW,
                                         max_retries=_TARGET_MAX_RETRIES, seed=seed)
        fields.append(y.values)
    values = np.stack(fields)
    out: dict[tuple[float, int], tuple] = {}
    for k in ks:
        bitgen = derive_rng(master_seed, instance, _ROLE_REGIONS, k).bit_generator
        labels, sizes = _partition_block(w, k, bitgen, config.r)
        rcm, rcv, welch, levene = _effects_rows(values, labels, sizes)
        t_rej, lev_rej = (test.rejects(_FILTER_ALPHA).sum(axis=1) for test in (welch, levene))
        for rho, rcm_bar, rcv_bar, t, lev in zip(config.rho_values, _mean(rcm), _mean(rcv), t_rej, lev_rej):
            out[(rho, k)] = (float(rcm_bar), float(rcv_bar), int(t), int(lev))
    return out


def effects_experiment(config: EffectsConfig, workers: int = 1) -> EffectsSummary:
    """Sweep aggregation effects over (N, rho, k) cells.

    For each instance the variable is aggregated r times per cell; the cell
    records the instance's repeat-averaged relative changes in mean and
    variance, and the pooled rejection proportions of the Welch-t and Levene
    tests against the original variable. Deterministic under the config's
    master seed, independent of worker count, and the same for a cell
    whatever other cells the config holds.
    """
    lattices = []
    for n in sorted(config.k_lists):
        w = lattice_for_area_count(n)
        if config.rho_isolation:
            w_eigenvalues(w)  # cached once: rank-matching estimates rho on w again and again
        lattices.append((config, w, config.k_lists[n]))
    per_lattice = _fan_out(_effects_instance_task, lattices, config.instances, workers)
    tests = config.instances * config.r
    cells = []
    for (_, w, ks), results in zip(lattices, per_lattice):
        for rho in config.rho_values:
            for k in ks:
                rcm_bars, rcv_bars, t_rej, lev_rej = zip(*(res[(rho, k)] for res in results))
                cells.append(EffectsCell(
                    w.n, rho, k, rcm_bars, rcv_bars,
                    t_rejection_proportion=sum(t_rej) / tests,
                    levene_rejection_proportion=sum(lev_rej) / tests,
                ))
    return EffectsSummary(
        cells=tuple(cells),
        instances=config.instances,
        r=config.r,
        master_seed=int(config.master_seed),
        rho_isolation=config.rho_isolation,
    )


# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------


def _instance_task(args) -> dict:
    """Accepted instance j of a null, power or size cell: ``args`` are those
    of :func:`_accepted_instance`, looked up when the task runs."""
    return _accepted_instance(*args)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: only a run with more
    than one worker needs ``concurrent.futures``. The first binding in the
    module namespace stays, so a pool class set on the module is the one
    ``_fan_out`` uses."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return globals().setdefault(name, ProcessPoolExecutor)


def _check_instances(instances: int) -> None:
    if not _is_integer(instances) or instances < 1:
        raise ValueError(f"need at least 1 instance or replicate per cell, an integer, got {instances!r}")


def _fan_out(task, cells: list[tuple], instances: int, workers: int) -> list[list]:
    """Run ``task((*cell, j))`` for every cell and every instance j < ``instances``.

    Tasks run serially, or on a pool of ``workers`` processes; either way the
    result is one list per cell, in instance order.
    """
    _check_instances(instances)
    if not _is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    tasks = [(*cell, j) for cell in cells for j in range(instances)]
    if workers == 1 or len(tasks) <= 1:
        results = [task(t) for t in tasks]
    else:
        with __getattr__("ProcessPoolExecutor")(max_workers=workers) as pool:
            results = list(pool.map(task, tasks, chunksize=max(1, len(tasks) // (workers * 4))))
    return [results[i:i + instances] for i in range(0, len(results), instances)]
