"""Reference computations the benchmark makes apart from the program.

Each checker returns a list of problems; an empty list means the program's
answer passed. :func:`layer_checks` runs the layer oracles on samples the
benchmark draws, and :func:`self_test` feeds every checker a hand-made wrong
answer that it must reject.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg
import scipy.special
import scipy.stats

from inputs import derive, row_standardized

TOL_TEST = 1e-10
TOL_RHO = 1e-4
TOL_M = 1e-12

# The six published constants of M(rho, theta) = L / (1 + eta * exp(tau * rho)).
_B, _M, _P, _A, _BETA0, _BETA1 = -2.188, 7.031, 0.516, 1.287, 5.319, -5.532


def m_closed_form(rho: float, theta: float) -> float:
    ceiling = 1.0 / (1.0 + math.exp(_B + _M * theta))
    return ceiling / (1.0 + _P * theta ** _A * math.exp((_BETA0 + _BETA1 * theta) * rho))


def levene_ref(a, b) -> tuple[float, float]:
    """Mean-centred Levene F on two groups and its p-value, via fdtrc."""
    za = np.abs(a - a.mean())
    zb = np.abs(b - b.mean())
    z = np.concatenate([za, zb])
    between = a.size * (za.mean() - z.mean()) ** 2 + b.size * (zb.mean() - z.mean()) ** 2
    within = ((za - za.mean()) ** 2).sum() + ((zb - zb.mean()) ** 2).sum()
    dfd = a.size + b.size - 2
    f = dfd * between / within
    return float(f), float(scipy.special.fdtrc(1, dfd, f))


def welch_ref(a, b) -> tuple[float, float]:
    """Welch t and two-sided p-value, via stdtr."""
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    t = (a.mean() - b.mean()) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va ** 2 / (a.size - 1) + vb ** 2 / (b.size - 1))
    return float(t), float(2.0 * scipy.special.stdtr(df, -abs(t)))


def close(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def check_test(label: str, outcome, ref: tuple[float, float], scipy_ref) -> list[str]:
    problems = []
    for source, (stat, p) in (("closed form", ref), ("scipy.stats", scipy_ref)):
        if not (close(outcome.statistic, stat, TOL_TEST) and close(outcome.p_value, p, TOL_TEST)):
            problems.append(f"{label}: ({outcome.statistic!r}, {outcome.p_value!r}) != "
                            f"{source} ({stat!r}, {p!r})")
    return problems


def check_partition(assignment, k: int, neighbors) -> list[str]:
    """Every area labelled in [0, k), all k labels used, each region connected."""
    labels = np.asarray(assignment)
    n = len(neighbors)
    if labels.shape != (n,):
        return [f"partition covers {labels.shape} areas, not {n}"]
    if labels.min() < 0 or labels.max() >= k or np.unique(labels).size != k:
        return [f"labels are not exactly 0..{k - 1}"]
    for region in range(k):
        members = set(np.flatnonzero(labels == region).tolist())
        start = next(iter(members))
        seen = {start}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in neighbors[i]:
                if j in members and j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != len(members):
            return [f"region {region} is not contiguous ({len(seen)} of {len(members)} reachable)"]
    return []


def check_means(values, assignment, k: int, means) -> list[str]:
    expected = [math.fsum(v for v, g in zip(values, assignment) if g == region)
                / sum(1 for g in assignment if g == region) for region in range(k)]
    if np.allclose(means, expected, rtol=1e-12, atol=1e-12):
        return []
    return ["region means differ from the benchmark's own per-region means"]


def ml_rho(w: sp.csr_matrix, y: np.ndarray) -> float:
    """Concentrated-likelihood ML rho with a sparse-LU log-determinant."""
    n = y.size
    wy = w @ y
    e0, e1 = y - y.mean(), wy - wy.mean()
    s00, s01, s11 = float(e0 @ e0), float(e0 @ e1), float(e1 @ e1)
    eye, wc = sp.identity(n, format="csc"), w.tocsc()

    def negative_loglik(rho: float) -> float:
        lu = scipy.sparse.linalg.splu((eye - rho * wc).tocsc())
        logdet = float(np.log(np.abs(lu.U.diagonal())).sum())
        sse = s00 - 2.0 * rho * s01 + rho * rho * s11
        return 0.5 * n * math.log(sse / n) - logdet

    res = scipy.optimize.minimize_scalar(
        negative_loglik, bounds=(-0.999, 0.999), method="bounded", options={"xatol": 1e-10})
    return float(res.x)


def check_rho(label: str, rho: float, ref: float, tol: float = TOL_RHO) -> list[str]:
    return [] if abs(rho - ref) <= tol else [f"{label}: rho {rho!r} vs reference {ref!r} (tol {tol})"]


def check_m(m: float, rho: float, theta: float) -> list[str]:
    ref = m_closed_form(rho, theta)
    return [] if abs(m - ref) <= TOL_M else [f"M {m!r} != closed form {ref!r}"]


def snap_critical_value(rows: dict, n: int, rho: float, alpha: float) -> float:
    """Nearest grid cell of an exported table: N clamped, rho ties toward 0."""
    n_grid = sorted({key[1] for key in rows})
    rho_grid = sorted({key[0] for key in rows})
    clamped = min(max(n, n_grid[0]), n_grid[-1])
    n_snap = min(n_grid, key=lambda g: abs(g - clamped))
    rho_snap = min(rho_grid, key=lambda g: (abs(g - rho), abs(g)))
    return rows[(rho_snap, n_snap, alpha)]


def parse_critical_values(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("rho,"):
            continue
        rho, n, alpha, value = line.split(",")
        rows[(float(rho), int(n), float(alpha))] = float(value)
    return rows


def expected_min_safe_k(rows: list[tuple[int, bool]]) -> int | None:
    """min_safe_k's documented rule over (k, rejected) rows in descending k."""
    previous = None
    for k, rejected in rows:
        if rejected:
            return previous
        previous = k
    return previous


# -- layer oracles on samples the benchmark draws -------------------------------


def irregular_graph(seed: int) -> list[set[int]]:
    """A connected graph that is not a lattice: a 12 x 12 grid with about a
    third of its edges dropped (keeping a spanning tree) and random chords."""
    rng = np.random.default_rng(seed)
    side = 12
    n = side * side
    edges = [(i, i + 1) for i in range(n) if (i + 1) % side] + [(i, i + side) for i in range(n - side)]
    rng.shuffle(edges)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    neighbors: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb or rng.random() < 0.5:
            parent[ra] = rb
            neighbors[a].add(b)
            neighbors[b].add(a)
    for _ in range(n // 6):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        neighbors[a].add(b)
        neighbors[b].add(a)
    return neighbors


def layer_checks(smaup, seed: int) -> list[str]:
    """Run the program's test, region and aggregation layers against the oracles."""
    problems = []
    rng = np.random.default_rng(derive(seed, 99))
    for _ in range(12):
        a = rng.standard_normal(100) * rng.uniform(0.5, 2.0)
        b = rng.standard_normal(int(rng.integers(5, 90))) * rng.uniform(0.2, 2.0)
        problems += check_test("levene_test", smaup.levene_test(a, b), levene_ref(a, b),
                               scipy.stats.levene(a, b, center="mean"))
        problems += check_test("welch_t_test", smaup.welch_t_test(a, b), welch_ref(a, b),
                               scipy.stats.ttest_ind(a, b, equal_var=False))
    irregular = irregular_graph(derive(seed, 98))
    adjacency = "".join(f"{i}: {' '.join(map(str, sorted(nb)))}\n" for i, nb in enumerate(irregular))
    graphs = [
        (smaup.build_lattice_rook(10, 10), None),
        (smaup.build_lattice_rook(7, 13), None),
        (smaup.from_adjacency_text(adjacency), irregular),
    ]
    for w, neighbors in graphs:
        neighbors = neighbors if neighbors is not None else [set(row) for row in w.neighbors]
        y = smaup.AreaVariable(values=rng.standard_normal(w.n), weights=w)
        for k in (2, w.n // 10 + 1, w.n // 2, w.n - 1, w.n):
            regions = smaup.random_regions(w, k, seed=int(rng.integers(2**62)))
            problems += check_partition(regions.assignment, k, neighbors)
            agg = smaup.aggregate_mean(y, regions)
            problems += check_means(y.values, regions.assignment, k, agg.region_means)
    return problems


def self_test() -> list[str]:
    """Every checker must reject a hand-made wrong answer."""
    failures = []
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(40), rng.standard_normal(15) * 2.0

    class Outcome:
        def __init__(self, statistic, p_value):
            self.statistic, self.p_value = statistic, p_value

    stat, p = levene_ref(a, b)
    if not check_test("self", Outcome(stat, p), (stat, p), scipy.stats.levene(a, b, center="mean")) == []:
        failures.append("levene oracle rejects scipy's own answer")
    if not check_test("self", Outcome(stat, p + 1e-8), (stat, p), (stat, p)):
        failures.append("levene oracle accepts a perturbed p-value")
    t, pt = welch_ref(a, b)
    if not check_test("self", Outcome(t * (1 + 1e-8), pt), (t, pt), (t, pt)):
        failures.append("welch oracle accepts a perturbed statistic")

    grid = rook_grid(3)
    if check_partition([0, 0, 0, 1, 1, 1, 2, 2, 2], 3, grid):
        failures.append("partition oracle rejects a valid partition")
    for wrong, why in (([0, 1, 0, 1, 1, 1, 2, 2, 2], "non-contiguous region"),
                       ([0, 0, 0, 1, 1, 1, 1, 1, 1], "unused label"),
                       ([0, 0, 0, 1, 1, 1, 2, 2], "uncovered area")):
        if not check_partition(wrong, 3, grid):
            failures.append(f"partition oracle accepts a {why}")
    values = np.arange(9, dtype=float)
    labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    if check_means(values, labels, 3, [1.0, 4.0, 7.0]):
        failures.append("mean oracle rejects correct means")
    if not check_means(values, labels, 3, [1.0, 4.0, 7.0 + 1e-9]):
        failures.append("mean oracle accepts a perturbed mean")

    w = row_standardized(grid)
    y = np.array([0.3, -1.2, 0.8, 2.0, -0.4, 0.1, 1.1, -0.9, 0.5])
    rho = ml_rho(w, y)
    if not check_rho("self", rho + 2 * TOL_RHO, rho):
        failures.append("rho oracle accepts a perturbed estimate")
    m = m_closed_form(0.5, 0.3)
    if not check_m(m + 1e-11, 0.5, 0.3):
        failures.append("M oracle accepts a perturbed statistic")
    if expected_min_safe_k([(5, False), (4, False), (3, True)]) != 4 \
            or expected_min_safe_k([(5, True)]) is not None \
            or expected_min_safe_k([(2, False), (1, False)]) != 1:
        failures.append("min-safe-k rule disagrees with its hand-worked cases")
    return failures


def rook_grid(side: int) -> list[set[int]]:
    return [{j for j in (i - side, i + side, i - 1 if i % side else -1, i + 1 if (i + 1) % side else -1)
             if 0 <= j < side * side} for i in range(side * side)]
