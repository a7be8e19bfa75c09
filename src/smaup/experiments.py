"""Monte Carlo harnesses: aggregation-effect sweeps, simulated null
distributions, and power/size estimation for the sensitivity test.

Every harness repeats one step, implemented once in :func:`_partitions`:
grow r random partitions of the areas into k contiguous regions. The region
seed of repeat ``rep`` is ``derive_seed(*seed_path, rep)``, derived only
when that repeat is reached. It shares ``random_regions``'s growth loop but
skips its validation. Its callers take each field's region means by
``bincount`` and the field's share of Welch and Levene once per field.

The null, power and size harnesses share one instance recipe. A SAR field is
drawn on a square rook lattice, a region count k is drawn uniformly with
0.1 N < k < N, and the instance is kept or redrawn according to the Levene
decisions over the kernel's r aggregations:

* null / size recipe: keep iff Levene never rejects (the variance structure
  survives aggregation, i.e. the null hypothesis holds);
* power recipe: keep iff Levene rejects every time (the variance structure
  is destroyed, i.e. the alternative holds).

The filter stops at the first aggregation that decides it. On a failure only
(k, aggregations) are redrawn; the SAR field is kept. After
``_K_REDRAWS_PER_FIELD`` consecutive failures the field itself is redrawn,
which prevents livelock on pathological fields.

The effects harness draws every rho field of an instance first. Then, for
each k, it grows the instance's r partitions once and aggregates every rho
field on each of them, feeding the means to the Welch and Levene tests. A
partition depends only on (W, k, seed), so its seed path is (master seed,
N index, instance, role, k, repeat): a cell's partitions do not depend on
the other rho levels or ks of the run. Sharing them across rho levels is a
common-random-numbers design; each cell's own distribution is unchanged.

Every harness runs its instances through one fan-out, :func:`_fan_out`: one
task per (cell, instance), run serially or on a process pool, results handed
back per cell in instance order. Every random draw is derived from the master
seed and a path of integers (for the null, power and size harnesses: cell,
instance, attempt, k draw and repeat), so results are bitwise-identical
regardless of worker count or scheduling order.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__ as _toolkit_version
from .core import m_statistic
from .critical_values import RHO_GRID, critical_value
from .errors import CorruptPartitionError, ExperimentStallError, InvalidDimensionError, InvalidKError
from .regionalize import _check_growable, _grow
from .sar import (
    SarSpec,
    estimate_rho,
    generate_sar,
    generate_with_target_rho,
    w_eigenvalues,
)
from .seeding import derive_rng, derive_seed
from .stats import _levene, _levene_terms, _sample, _welch, _welch_terms, mean_over_repeats
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

# Version of the effects harness's random streams, recorded in its metadata.
# 2: the region seed path is (master seed, N index, instance, role, k, repeat),
# so one set of partitions per (instance, k) serves every rho level.
_EFFECTS_STREAM_VERSION = 2

# Effects recipe in rho-isolation mode: the base field's rho, and the window
# and attempt budget of the rank-matching permutation toward every other rho.
_BASE_RHO = 0.9
_TARGET_WINDOW = 0.5
_TARGET_MAX_RETRIES = 200

def lattice_for_area_count(n: int) -> SpatialWeights:
    """Square rook lattice with n areas; n must be a perfect square."""
    side = math.isqrt(n)
    if side * side != n:
        raise InvalidDimensionError(f"area count {n} is not a perfect square lattice size")
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

    Repeat ``rep`` grows its regions from ``derive_seed(*seed_path, rep)``,
    derived when the consumer asks for that repeat. The labels are those of
    ``random_regions(w, k, seed)``, and ``np.bincount(labels, y.values) / sizes``
    are the region means of ``aggregate_mean``, bit for bit.
    """
    _check_growable(w, k)
    for rep in range(r):
        labels = np.array(_grow(w.neighbors, w.n, k, derive_seed(*seed_path, rep)))
        sizes = np.bincount(labels)
        if sizes.size != k or sizes.min() < 1:
            raise CorruptPartitionError(f"grown partition does not use all {k} region labels")
        yield labels, sizes


def _accepted_instance(
    w: SpatialWeights,
    rho: float,
    master_seed: int,
    path_prefix: tuple[int, ...],
    mode: str,
    r: int,
) -> dict:
    """Draw (field, k, aggregations) until the acceptance filter passes.

    Returns the accepted instance's estimated rho, k, and trial count.
    Raises ExperimentStallError when the acceptance rate over the trial
    window falls below 1e-4 (i.e. 10,000 consecutive failed trials).
    """
    n = w.n
    lo = n // 10 + 1
    hi = n - 1
    if lo > hi:
        raise InvalidKError(f"no integer k satisfies 0.1*{n} < k < {n}")
    # never_reject: keep iff no Levene test rejects; always_reject: iff all do
    want_rejection = mode == "always_reject"
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
                    f"acceptance rate below 1e-4: no {mode} instance in {trials} trials "
                    f"at (N={n}, rho={rho})",
                    rate=1.0 / trials,
                )
            k_rng = derive_rng(master_seed, *path_prefix, _ROLE_KDRAW, attempt, k_try)
            k = int(k_rng.integers(lo, hi + 1))
            seed_path = (master_seed, *path_prefix, _ROLE_REGIONS, attempt, k_try)
            if all(
                _levene(*y_terms, *_levene_terms(_sample(np.bincount(labels, y.values) / sizes)))
                .rejects(_FILTER_ALPHA) == want_rejection
                for labels, sizes in _partitions(w, k, seed_path, r)
            ):
                rho_hat = estimate_rho(w, y)
                return {"rho_hat": rho_hat, "k": k, "trials": trials, "attempts": attempt + 1}
        attempt += 1


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
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    w = w_or_n if isinstance(w_or_n, SpatialWeights) else lattice_for_area_count(int(w_or_n))
    w_eigenvalues(w)  # cached once, before fan-out: every replicate estimates rho on w
    cell = (w, rho, master_seed, "never_reject", r, 0)
    (results,) = _fan_out(_instance_task, [cell], replicates, workers)
    return NullDistribution(
        n=w.n,
        rho=rho,
        values=np.array([m_statistic(res["rho_hat"], res["k"] / w.n) for res in results]),
        replicates=replicates,
        r_aggregations=r,
        master_seed=master_seed,
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
    kind: str,
    n_values,
    rho_values,
    instances: int,
    alpha: float,
    master_seed: int,
    workers: int,
    r: int,
) -> PowerSizeReport:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    mode = "always_reject" if kind == "power" else "never_reject"
    n_values = [int(n) for n in n_values]
    rho_values = [float(rho) for rho in rho_values]
    lattices = {n: lattice_for_area_count(n) for n in n_values}
    for w in lattices.values():
        w_eigenvalues(w)  # cached once: every instance estimates rho on its lattice
    pairs = [(n, rho) for n in n_values for rho in rho_values]
    cells = [(lattices[n], rho, master_seed, mode, r, ci + 1) for ci, (n, rho) in enumerate(pairs)]
    report_cells = []
    for (n, rho), results in zip(pairs, _fan_out(_instance_task, cells, instances, workers)):
        rejections = 0
        for res in results:
            rho_hat = res["rho_hat"]
            rejections += m_statistic(rho_hat, res["k"] / n) > critical_value(n, rho_hat, alpha)
        report_cells.append({"n": n, "rho": rho, "proportion": rejections / instances})
    return PowerSizeReport(
        kind=kind,
        alpha=alpha,
        instances=instances,
        cells=tuple(report_cells),
        master_seed=master_seed,
    )


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
    return _rejection_experiment("power", n_values, rho_values, instances, alpha, master_seed, workers, r)


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
    return _rejection_experiment("size", n_values, rho_values, instances, alpha, master_seed, workers, r)


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
    the effect of rho is isolated from sampling noise. In either mode the rho
    levels of an instance also share one set of r partitions per k: region
    seeds derive from (master_seed, N index, instance, role, k, repeat),
    with k keyed by value, so a cell does not depend on which other rho
    levels or ks the run holds.
    """

    k_lists: dict[int, tuple[int, ...]]
    rho_values: tuple[float, ...] = RHO_GRID
    instances: int = 50
    r: int = 30
    rho_isolation: bool = True
    master_seed: int = 0

    def __post_init__(self):
        for n, ks in self.k_lists.items():
            for k in ks:
                if k < 2:
                    raise InvalidKError(
                        f"cell (N={n}, k={k}): k must be >= 2 (two-sample tests need 2 regions)"
                    )
        if self.r < 1:
            raise ValueError("r must be >= 1")


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
    """All cells of one effects run plus reproduction metadata."""

    cells: tuple[EffectsCell, ...]
    instances: int
    r: int
    master_seed: int
    rho_isolation: bool
    metadata: dict = field(default_factory=dict, compare=False)

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
            "metadata": dict(self.metadata),
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
            lines.append(f"{c.rho},{c.k},{prefix}rcm_bar_mean,{mean_over_repeats(c.rcm_bars)!r}")
            lines.append(f"{c.rho},{c.k},{prefix}rcv_bar_mean,{mean_over_repeats(c.rcv_bars)!r}")
            lines.append(f"{c.rho},{c.k},{prefix}t_reject_prop,{c.t_rejection_proportion!r}")
            lines.append(f"{c.rho},{c.k},{prefix}levene_reject_prop,{c.levene_rejection_proportion!r}")
        return "\n".join(lines) + "\n"


def _effects_instance_task(args) -> dict:
    """One instance of the effects recipe on one lattice, across its rho and k
    cells: ``{(rho, k): (rcm_bar, rcv_bar, t_rejections, levene_rejections)}``.

    Every rho field of the instance is drawn first; then, for each k, the r
    partitions are grown once and every field is aggregated on each of them.
    """
    config, n_index, w, ks, instance = args
    master_seed = config.master_seed
    base_seed = derive_seed(master_seed, n_index, instance, _ROLE_BASE_FIELD)
    base = generate_sar(w, SarSpec(rho=_BASE_RHO, seed=base_seed)) if config.rho_isolation else None
    fields = []
    for rho_index, rho in enumerate(config.rho_values):
        if not config.rho_isolation:
            seed = derive_seed(master_seed, n_index, instance, _ROLE_SAR, rho_index)
            y = generate_sar(w, SarSpec(rho=rho, seed=seed))
        elif rho == _BASE_RHO:
            y = base
        else:
            seed = derive_seed(master_seed, n_index, instance, _ROLE_TARGET_RHO, rho_index)
            y = generate_with_target_rho(w, base, target=rho, window=_TARGET_WINDOW,
                                         max_retries=_TARGET_MAX_RETRIES, seed=seed)
        fields.append((y.values, float(y.values.mean()), float(y.values.var(ddof=1)),
                       _welch_terms(y.values), _levene_terms(y.values)))
    out: dict[tuple[float, int], tuple] = {}
    for k in ks:
        repeats = [[] for _ in fields]
        seed_path = (master_seed, n_index, instance, _ROLE_REGIONS, k)
        for labels, sizes in _partitions(w, k, seed_path, config.r):
            for (values, mu_o, var_o, y_welch, y_levene), tally in zip(fields, repeats):
                means = np.bincount(labels, values) / sizes
                means_welch = _welch_terms(means)
                _, mean_ag, ss_ag = means_welch
                # zero-mean SAR fields make the signed-divisor relative change
                # explode; divide by |mean| and flag it in run metadata
                tally.append((
                    abs(mu_o - mean_ag) / abs(mu_o),
                    abs(var_o - ss_ag / (k - 1)) / var_o,
                    _welch(*y_welch, *means_welch).rejects(_FILTER_ALPHA),
                    _levene(*y_levene, *_levene_terms(means)).rejects(_FILTER_ALPHA),
                ))
        for rho, tally in zip(config.rho_values, repeats):
            rcms, rcvs, t_rej, lev_rej = zip(*tally)
            out[(rho, k)] = (mean_over_repeats(rcms), mean_over_repeats(rcvs), sum(t_rej), sum(lev_rej))
    return out


def effects_experiment(config: EffectsConfig, workers: int = 1) -> EffectsSummary:
    """Sweep aggregation effects over (N, rho, k) cells.

    For each instance the variable is aggregated r times per cell; the cell
    records the instance's repeat-averaged relative changes in mean and
    variance, and the pooled rejection proportions of the Welch-t and Levene
    tests against the original variable. Deterministic under the config's
    master seed, independent of worker count.

    Cells with k > N are skipped with a warning, and a lattice left without
    cells is not simulated; the others keep their place in the sorted N list,
    so their seed paths do not depend on which cells were skipped.

    Raises
    ------
    InvalidKError
        If no (N, k) cell is feasible.
    """
    lattices = []
    for n_index, n in enumerate(sorted(config.k_lists)):
        w = lattice_for_area_count(n)
        infeasible = [k for k in config.k_lists[n] if k > n]
        if infeasible:
            warnings.warn(f"skipping infeasible k values {infeasible} at N={n}", stacklevel=2)
        ks = tuple(k for k in config.k_lists[n] if k <= n)
        if not ks:
            continue
        if config.rho_isolation:
            w_eigenvalues(w)  # cached once: rank-matching estimates rho on w again and again
        lattices.append((config, n_index, w, ks))
    if not lattices:
        raise InvalidKError("no feasible (N, k) cell: every k exceeds its N")
    per_lattice = _fan_out(_effects_instance_task, lattices, config.instances, workers)
    tests = config.instances * config.r
    cells = []
    for (_, _, w, ks), results in zip(lattices, per_lattice):
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
        master_seed=config.master_seed,
        rho_isolation=config.rho_isolation,
        metadata={
            "stream_version": _EFFECTS_STREAM_VERSION,
            "rcm_divisor": "abs(mean)",
            "rcm_divisor_note": (
                "relative change in mean divides by |mean| because simulated "
                "fields are near-zero-mean; the signed-divisor definition is "
                "available as smaup.stats.rcm"
            ),
        },
    )


# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------


def _instance_task(args) -> dict:
    """Accepted instance j of null/power/size cell ``cell`` (the null is cell 0)."""
    w, rho, master_seed, mode, r, cell, j = args
    return _accepted_instance(w, rho, master_seed, (cell, j), mode, r)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: only a run with more
    than one worker needs ``concurrent.futures``. The first binding in the
    module namespace stays, so a pool class set on the module is the one
    ``_fan_out`` uses."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return globals().setdefault(name, ProcessPoolExecutor)


def _fan_out(task, cells: list[tuple], instances: int, workers: int) -> list[list]:
    """Run ``task((*cell, j))`` for every cell and every instance j < ``instances``.

    Tasks run serially, or on a pool of ``workers`` processes; either way the
    result is one list per cell, in instance order.
    """
    if instances < 1:
        raise ValueError(f"need at least 1 instance or replicate per cell, got {instances}")
    tasks = [(*cell, j) for cell in cells for j in range(instances)]
    if workers <= 1 or len(tasks) <= 1:
        results = [task(t) for t in tasks]
    else:
        with __getattr__("ProcessPoolExecutor")(max_workers=workers) as pool:
            results = list(pool.map(task, tasks, chunksize=max(1, len(tasks) // (workers * 4))))
    return [results[i:i + instances] for i in range(0, len(results), instances)]
