"""The four workloads: what one round does, how its output is checked, and
what a traced pass records.

Every workload is driven by one closed-loop client, the benchmark process,
which starts an operation only after the previous one has returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import oracles
from inputs import SIMULATE_RHO, CliInputs, round_seed
from tracing import CLI_COMMANDS, Tracer, merge

N_AREAS = 100
LATTICE_SIDE = 10


def digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


class OperationFailed(Exception):
    """Operations of a round exited non-zero; ``count`` says how many."""

    def __init__(self, message: str, count: int = 1):
        super().__init__(message)
        self.count = count


class Workload:
    """One round of operations plus its checks; subclasses fill these in."""

    name = ""
    unit = ""  # what one unit of units_per_s is
    units_per_round = 1
    ops_per_round = 1
    traced_passes = 3  # passes over round 0 in one traced_round

    def __init__(self, ctx):
        self.ctx = ctx
        self.smaup = ctx.smaup
        self.details: dict = {}

    def prepare(self) -> None:
        """Untimed input preparation."""

    def setup_probe(self) -> list[str]:
        return ["lattice", str(LATTICE_SIDE), str(LATTICE_SIDE)]

    def round(self, index: int, workers: int = 1):
        """Run round ``index`` and return its output."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """SHA-256 of a round's output bytes, to compare runs of one seed."""
        return digest(output.to_json())

    def traced_round(self) -> dict:
        """Untraced and traced passes over round 0's operations.

        Worker processes keep their spans, so the layer figures come from a
        one-worker pass and the pool figures from a traced pass at full width.
        """
        start = perf_counter()
        self.round(0)
        untraced = perf_counter() - start
        layers = Tracer()
        with layers:
            start = perf_counter()
            self.round(0)
            traced = perf_counter() - start
        pool = Tracer()
        with pool:
            self.round(0, workers=self.ctx.workers)
        return {"untraced": untraced, "traced": traced,
                "layers": layers, "pool": pool, "cli_wall": {}}

    def same_across_workers(self, first) -> list[str]:
        """Round 0 again, at full width, must give round 0's bytes."""
        again = self.round(0, workers=self.ctx.workers)
        if again.to_json() != first.to_json():
            return [f"round 0 at {self.ctx.workers} workers differs from the timed run at 1"]
        return []


# -- Monte Carlo workloads --------------------------------------------------------


class McNull(Workload):
    name = "mc-null"
    unit = "accepted null replicate"
    units_per_round = 20

    def round(self, index, workers=1):
        return self.smaup.generate_null(
            N_AREAS, 0.0, replicates=self.units_per_round, r=30,
            master_seed=round_seed(self.ctx.seed, index), workers=workers)

    def check(self, outputs):
        problems = []
        for index, dist in enumerate(outputs):
            doc = dist.to_dict()
            values = np.asarray(doc["values"])
            if doc["replicates"] != self.units_per_round or values.size != self.units_per_round:
                problems.append(f"round {index}: {values.size} values for {self.units_per_round} replicates")
            if np.any(np.diff(values) < 0) or not np.all((values > 0) & (values < 1)):
                problems.append(f"round {index}: values unsorted or outside (0, 1)")
            p90, p95, p99 = (dist.percentile(q) for q in (90, 95, 99))
            if not p90 <= p95 <= p99:
                problems.append(f"round {index}: percentiles out of order")
            if (doc["n"], doc["rho"], doc["seed"]) != (N_AREAS, 0.0, round_seed(self.ctx.seed, index)):
                problems.append(f"round {index}: N, rho or seed not echoed")
        pooled = np.concatenate([d.values for d in outputs])
        self.details["null_p95_pooled"] = float(np.percentile(pooled, 95))
        return problems + self.same_across_workers(outputs[0])


class McEffects(McNull):
    name = "mc-effects"
    unit = "effects instance"
    units_per_round = 2
    ks = (12, 53, 90)
    rhos = (-0.9, 0.0, 0.9)

    def round(self, index, workers=1):
        config = self.smaup.EffectsConfig(
            k_lists={N_AREAS: self.ks}, rho_values=self.rhos, instances=self.units_per_round,
            r=30, rho_isolation=True, master_seed=round_seed(self.ctx.seed, index))
        return self.smaup.effects_experiment(config, workers=workers)

    def check(self, outputs):
        problems = []
        tests = {}
        for index, summary in enumerate(outputs):
            cells = summary.to_dict()["cells"]
            if len(cells) != len(self.ks) * len(self.rhos):
                problems.append(f"round {index}: {len(cells)} cells")
            for c in cells:
                if len(c["rcm_bars"]) != self.units_per_round or min(c["rcm_bars"] + c["rcv_bars"]) < 0:
                    problems.append(f"round {index}: bad RCM/RCV in cell {c['rho']}, {c['k']}")
                props = (c["t_rejection_proportion"], c["levene_rejection_proportion"])
                if not all(0.0 <= p <= 1.0 for p in props):
                    problems.append(f"round {index}: proportion outside [0, 1]")
                pooled = tests.setdefault((c["rho"], c["k"]), [0.0, 0.0, []])
                pooled[0] += props[0]
                pooled[1] += props[1]
                pooled[2] += c["rcv_bars"]
        rounds = len(outputs)
        worst_welch = max(p[0] for p in tests.values()) / rounds
        fading, strong = tests[(0.9, 90)], tests[(-0.9, 12)]
        self.details["worst_welch_pooled"] = worst_welch
        if worst_welch >= 0.02:
            problems.append(f"worst Welch rejection {worst_welch:.4f} not below 0.02")
        if not (np.mean(fading[2]) < np.mean(strong[2]) and fading[1] < strong[1]):
            problems.append("variance effect does not fade from (-0.9, 12) to (0.9, 90)")
        return problems + self.same_across_workers(outputs[0])


# -- CLI workload --------------------------------------------------------------------


class CliAnalyze(Workload):
    name = "cli-analyze"
    unit = "four-command analysis"
    ops_per_round = len(CLI_COMMANDS)
    traced_passes = 2

    def prepare(self):
        self.inputs = CliInputs(self.ctx.seed)
        self.dir = self.ctx.work / "inputs"
        self.paths = self.inputs.write(self.dir)
        self.out = self.ctx.work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        exported = self.ctx.run([sys.executable, "-m", "smaup.cli", "export-critical-values"])
        if exported.returncode != 0:
            raise OperationFailed("export-critical-values failed")
        self.table = oracles.parse_critical_values(exported.stdout)

    def setup_probe(self):
        return ["geojson", str(self.paths["geojson"])]

    def commands(self) -> dict[str, list[str]]:
        # Paths relative to the checkout root keep the outputs' configuration
        # hashes, and so their bytes, the same wherever the checkout lives.
        geojson, values, w, sim, test = (
            os.path.relpath(p, self.ctx.root) for p in (
                self.paths["geojson"], self.paths["values"], self.out / "w.json",
                self.out / "sim.csv", self.out / "test.json"))
        return {
            "weights": ["weights", "--geojson", geojson, "--out", w],
            "simulate": ["simulate", "--weights", w, "--rho", str(SIMULATE_RHO),
                         "--seed", str(self.inputs.simulate_seed), "--out", sim],
            "test": ["test", "--values", values, "--weights", w,
                     "--k", str(self.inputs.k), "--json", test],
            "scan": ["scan", "--values", values, "--weights", w],
        }

    def _pass(self, launcher) -> tuple[dict, dict]:
        for stale in self.out.iterdir():
            stale.unlink()
        walls, outputs = {}, {}
        failed = []
        for command, argv in self.commands().items():
            start = perf_counter()
            proc = self.ctx.run(launcher(command) + argv)
            walls[command] = perf_counter() - start
            if proc.returncode != 0:
                failed.append(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            outputs[command] = proc.stdout
        if failed:
            raise OperationFailed("; ".join(failed), len(failed))
        for name in ("w.json", "sim.csv", "test.json"):
            outputs[name] = (self.out / name).read_text()
        return walls, outputs

    def round(self, index, workers=1):
        walls, outputs = self._pass(_as_user)
        outputs["walls"] = walls
        return outputs

    output_keys = ("weights", "simulate", "test", "scan", "w.json", "sim.csv", "test.json")

    def fingerprint(self, output):
        return digest("\0".join(output[key] for key in self.output_keys))

    def check(self, outputs):
        first = outputs[0]
        problems = []
        for index, later in enumerate(outputs[1:], start=1):
            if any(later[key] != first[key] for key in self.output_keys):
                problems.append(f"round {index} output bytes differ from round 0")
        self.details["cli_wall_median_s"] = cli_wall_medians([o["walls"] for o in outputs])
        n = self.inputs.n

        doc = json.loads(first["w.json"])
        got = [set(row) for row in doc["neighbors"]]
        if doc["n"] != n or got != self.inputs.neighbors:
            problems.append("weights: neighbour sets differ from the grid's rook adjacency")
        elif any(abs(x - 1.0 / len(row)) > 1e-15 for row, ws in zip(doc["neighbors"], doc["weights"]) for x in ws):
            problems.append("weights: rows are not standardized")

        sim = np.array([float(line) for line in first["sim.csv"].splitlines()
                        if line and not line.startswith("#") and line != "value"])
        if sim.size != n:
            problems.append(f"simulate: {sim.size} values for {n} areas")
        else:
            rho_sim = oracles.ml_rho(self.inputs.w, sim)
            self.details["simulate_rho_ml"] = rho_sim
            problems += oracles.check_rho("simulate", rho_sim, SIMULATE_RHO, tol=0.1)

        result = json.loads(first["test.json"])
        rho_ref = oracles.ml_rho(self.inputs.w, self.inputs.values)
        self.details["test_rho_ml"] = rho_ref
        problems += oracles.check_rho("test", result["rho_used"], rho_ref)
        problems += oracles.check_m(result["m_value"], result["rho_used"], self.inputs.k / n)
        crit = oracles.snap_critical_value(self.table, n, result["rho_used"], 0.05)
        if result["critical_values"]["0.05"] != crit or \
                result["decision"]["0.05"] != (result["m_value"] > crit):
            problems.append("test: decision does not follow M > exported critical value")

        rows, verdict = [], "missing"
        for line in first["scan"].splitlines():
            parts = line.split()
            if len(parts) >= 5 and parts[0].isdigit():
                rows.append((int(parts[0]), parts[4] == "reject"))
            elif line.startswith("minimum safe k:"):
                verdict = int(parts[3])
            elif line.startswith("no safe k"):
                verdict = None
        if [k for k, _ in rows] != list(range(n, 0, -1)):
            problems.append(f"scan: {len(rows)} rows, not k = {n}..1")
        elif verdict != oracles.expected_min_safe_k(rows):
            problems.append(f"scan: minimum safe k {verdict} disagrees with the row decisions")
        self.details["min_safe_k"] = verdict
        return problems

    def traced_round(self):
        walls, _ = self._pass(_as_user)
        span_files = {c: self.ctx.work / f"spans-{c}.jsonl" for c in CLI_COMMANDS}
        tracecli = str(Path(__file__).with_name("tracecli.py"))
        traced_walls, _ = self._pass(lambda command: [sys.executable, tracecli, str(span_files[command])])
        spans, counters = merge([Tracer.load(span_files[c]) for c in CLI_COMMANDS])
        tracer = Tracer()
        tracer.spans, tracer.counters = spans, counters
        return {"untraced": sum(walls.values()), "traced": sum(traced_walls.values()),
                "layers": tracer, "pool": None, "cli_wall": walls}


def _as_user(command: str) -> list[str]:
    return [sys.executable, "-m", "smaup.cli"]


WORKLOADS = {w.name: w for w in (McNull, McEffects, CliAnalyze)}


def cli_wall_medians(walls: list[dict]) -> dict[str, float]:
    """Median wall time of each CLI command over rounds (0 where none ran)."""
    return {c: median(w.get(c, 0.0) for w in walls) for c in CLI_COMMANDS}
