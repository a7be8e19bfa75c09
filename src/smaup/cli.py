"""Command-line surface of the toolkit.

Subcommands mirror the library modules: ``weights``, ``simulate``,
``permute-rho``, ``aggregate``, ``test``, ``scan``, ``null``, ``power``,
``size``, ``effects``, and ``export-critical-values``. All randomness flows
from one ``--seed``; when omitted, a seed is drawn from OS entropy and
echoed so the run can be reproduced. Every output artifact embeds the
toolkit version, the master seed, and a hash of the effective configuration,
and an output path of ``-`` means stdout.

Exit codes: 0 success, else the error class's ``exit_code`` (2
configuration/parse failure, 3 numerical failure, 4 experiment stall).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
from pathlib import Path

from ._version import __version__
from .core import _first_safe_k, scan_k, smaup_test
from .critical_values import ALPHA_GRID, TABLE_VERSION, export_critical_values_csv
from .errors import RepeatedValueError, SmaupError
from .experiments import (
    EffectsConfig,
    NullDistribution,
    effects_experiment,
    generate_null,
    lattice_for_area_count,
    power_experiment,
    size_experiment,
)
from .regionalize import aggregate_mean, random_regions, regionalization_to_csv
from .sar import (
    SarSpec,
    area_variable_from_csv,
    area_variable_to_csv,
    generate_sar,
    generate_with_target_rho,
)
from .weights import (
    SpatialWeights,
    build_lattice_rook,
    from_adjacency_text,
    from_geojson,
    is_connected,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer (--workers, $SMAUP_WORKERS)")
    return value


def _resolve_seed(args) -> int:
    if args.seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed} (drawn from OS entropy; pass --seed {seed} to reproduce)",
              file=sys.stderr)
        return seed
    return args.seed


# Execution details that must not change result bytes (outputs stay identical
# across worker counts and output destinations).
_NON_CONFIG_ARGS = {"func", "out", "json", "regions_out", "workers"}
# Input files, hashed by content: the stamp must not depend on how a path is spelled.
_INPUT_FILE_ARGS = ("adjacency", "geojson", "null", "values", "weights")


def _config_hash(args) -> str:
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in _NON_CONFIG_ARGS
               and isinstance(v, (int, float, str, bool, list, tuple, type(None)))}
    for name in _INPUT_FILE_ARGS:
        if payload.get(name):
            payload[name] = hashlib.sha256(Path(payload[name]).read_bytes()).hexdigest()
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(path: str | None, args, body: dict | str, seed: int | None = None) -> None:
    """Write one artifact, stamped with the toolkit version, config hash and
    seed: a dict as indented JSON with those keys appended, text after a
    ``# key=value ...`` comment line. No path, or ``-``, means stdout."""
    meta = {"toolkit_version": __version__, "config_hash": _config_hash(args)}
    if seed is not None:
        meta["master_seed"] = seed
    if isinstance(body, dict):
        text = json.dumps({**body, **meta}, indent=2) + "\n"
    else:
        text = "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n" + body
    _write_text(path, text)


def _load_inputs(args):
    """The ``--weights`` JSON, the ``--values`` CSV on it, and the ``--null``
    JSON, or None where the command has no ``--null`` or it is not given."""
    w = SpatialWeights.from_json(Path(args.weights).read_text())
    y = area_variable_from_csv(Path(args.values).read_text(), w)
    null_path = getattr(args, "null", None)
    null = NullDistribution.from_json(Path(null_path).read_text()) if null_path else None
    return w, y, null


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


# Area sources, in the order an error names them: (option, its spelling,
# loader of (value, standardized)). Each command defines some of them.
_AREA_SOURCES = (
    ("n", "--n N", lambda n, std: lattice_for_area_count(n)),
    ("weights", "--weights FILE", lambda path, std: SpatialWeights.from_json(Path(path).read_text())),
    ("lattice", "--lattice R C", lambda rc, std: build_lattice_rook(*rc, standardized=std)),
    ("adjacency", "--adjacency FILE",
     lambda path, std: from_adjacency_text(Path(path).read_text(), standardized=std)),
    ("geojson", "--geojson FILE", lambda path, std: from_geojson(Path(path).read_text(), standardized=std)),
)


def _weights_from_args(args) -> SpatialWeights:
    """The weights of the one area source given, binary under ``--raw``."""
    offered = [source for source in _AREA_SOURCES if hasattr(args, source[0])]
    given = [source for source in offered if getattr(args, source[0]) is not None]
    if len(given) != 1:
        names = [spelling for _, spelling, _ in offered]
        raise ValueError(f"pass exactly one of {', '.join(names[:-1])} or {names[-1]}")
    ((option, _, load),) = given
    return load(getattr(args, option), not getattr(args, "raw", False))


def _cmd_weights(args) -> int:
    w = _weights_from_args(args)
    _emit(args.out, args, w.to_dict())
    summary = f"n={w.n} edges={w.edge_count} connected={is_connected(w)}"
    if args.out in (None, "-"):
        print(summary, file=sys.stderr)
    else:
        print(f"{summary} -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    w = _weights_from_args(args)
    y = generate_sar(w, SarSpec(rho=args.rho, seed=seed))
    _emit(args.out, args, area_variable_to_csv(y), seed)
    return 0


def _cmd_permute_rho(args) -> int:
    seed = _resolve_seed(args)
    w, y, _ = _load_inputs(args)
    permuted = generate_with_target_rho(
        w, y, target=args.target, window=args.window,
        max_retries=args.max_retries, seed=seed,
    )
    meta = permuted.meta
    text = f"# attempts={meta['attempts']} rho_estimate={meta['rho_estimate']}\n"
    _emit(args.out, args, text + area_variable_to_csv(permuted), seed)
    return 0


def _cmd_aggregate(args) -> int:
    seed = _resolve_seed(args)
    w, y, _ = _load_inputs(args)
    regions = random_regions(w, args.k, seed=seed)
    agg = aggregate_mean(y, regions)
    if args.regions_out:
        _emit(args.regions_out, args, regionalization_to_csv(regions), seed)
    lines = ["region_id,mean,size"]
    lines.extend(
        f"{j},{float(agg.region_means[j])!r},{int(agg.region_sizes[j])}"
        for j in range(agg.k)
    )
    _emit(args.out, args, "\n".join(lines) + "\n", seed)
    return 0


def _result_table(result) -> str:
    stars = result.significance_stars()
    header = f"{'N':>6} {'k':>6} {'rho':>8} {'theta':>7} {'M':>9} " \
             f"{'M_crit(0.01)':>13} {'M_crit(0.05)':>13} {'M_crit(0.1)':>12} {'pseudo-p':>9} {'sig':>4}"
    pp = "-" if result.pseudo_p is None else f"{result.pseudo_p:.3f}"
    row = (
        f"{result.n:>6} {result.k:>6} {result.rho_used:>8.3f} {result.theta:>7.3f} "
        f"{result.m_value:>9.5f} {result.critical_values[0.01]:>13.5f} "
        f"{result.critical_values[0.05]:>13.5f} {result.critical_values[0.1]:>12.5f} "
        f"{pp:>9} {stars:>4}"
    )
    return header + "\n" + row


def _cmd_test(args) -> int:
    w, y, null = _load_inputs(args)
    result = smaup_test(y, w, args.k, alpha=args.alpha, null=null, rho=args.rho)
    print(_result_table(result))
    verdict = "rejected" if result.rejects(args.alpha) else "not rejected"
    print(f"H0 (not MAUP-sensitive) {verdict} at alpha={args.alpha}")
    if args.json:
        _emit(args.json, args, result.to_dict())
    return 0


def _cmd_scan(args) -> int:
    w, y, null = _load_inputs(args)
    k_max = args.k_max if args.k_max is not None else w.n
    k_min = args.k_min if args.k_min is not None else 1
    results = scan_k(y, w, alpha=args.alpha, k_min=k_min, k_max=k_max, null=null, rho=args.rho)
    pp_header = "pseudo-p" if null is not None else f"M_crit({args.alpha})"
    print(f"{'k':>6} {'theta':>7} {'M':>9} {pp_header:>13} {'decision':>12} {'sig':>4}")
    for res in results:
        if null is not None:
            compare = f"{res.pseudo_p:.3f}"
        else:
            compare = f"{res.critical_values[args.alpha]:.5f}"
        decision = "reject" if res.rejects(args.alpha) else "not-reject"
        print(f"{res.k:>6} {res.theta:>7.3f} {res.m_value:>9.5f} {compare:>13} "
              f"{decision:>12} {res.significance_stars():>4}")
    verdict = _first_safe_k(results, args.alpha)
    if verdict is None:
        print(f"no safe k in [{k_min}, {k_max}] at alpha={args.alpha}")
    else:
        print(f"minimum safe k: {verdict} (alpha={args.alpha})")
    if args.json:
        _emit(args.json, args, {
            "min_safe_k": verdict,
            "alpha": args.alpha,
            "k_range": [k_min, k_max],
            "results": [res.to_dict() for res in results],
        })
    return 0


def _cmd_null(args) -> int:
    seed = _resolve_seed(args)
    w = _weights_from_args(args)
    dist = generate_null(
        w, rho=args.rho, replicates=args.replicates, r=args.r,
        master_seed=seed, workers=args.workers,
    )
    _emit(args.out, args, dist.to_dict(), seed)
    return 0


def _cmd_power_or_size(args, kind: str) -> int:
    seed = _resolve_seed(args)
    runner = power_experiment if kind == "power" else size_experiment
    report = runner(
        n_values=args.n,
        rho_values=args.rhos,
        instances=args.instances,
        alpha=args.alpha,
        master_seed=seed,
        workers=args.workers,
        r=args.r,
    )
    _emit(args.out, args, report.to_csv() if args.format == "csv" else report.to_dict(), seed)
    return 0


def _cmd_effects(args) -> int:
    seed = _resolve_seed(args)
    k_lists: dict[int, tuple[int, ...]] = {}
    for cell in args.cell:
        head, sep, tail = cell.partition(":")
        if not sep:
            raise ValueError(f"--cell must look like N:k1,k2,... got {cell!r}")
        n = int(head)
        if n in k_lists:
            raise RepeatedValueError(f"--cell N={n} given twice; list all its ks in one N:k1,k2,...")
        k_lists[n] = tuple(_int_list(tail))
    config = EffectsConfig(
        k_lists=k_lists,
        rho_values=tuple(args.rhos),
        instances=args.instances,
        r=args.r,
        rho_isolation=not args.no_isolation,
        master_seed=seed,
    )
    summary = effects_experiment(config, workers=args.workers)
    _emit(args.out, args, summary.to_csv() if args.format == "csv" else summary.to_dict(), seed)
    return 0


def _cmd_export_critical_values(args) -> int:
    text = f"# toolkit_version={__version__} table_version={TABLE_VERSION}\n"
    _write_text(args.out, text + export_critical_values_csv())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: drawn from OS entropy and echoed)")


def _add_workers(p):
    # argparse runs a string default through ``type``, so a bad $SMAUP_WORKERS
    # is a usage error of the subcommand that reads it
    p.add_argument("--workers", type=_positive_int,
                   default=os.environ.get("SMAUP_WORKERS") or os.cpu_count() or 1,
                   help="worker processes (default: logical cores, or $SMAUP_WORKERS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smaup",
        description="MAUP sensitivity testing and simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="build contiguity weights")
    p.add_argument("--lattice", nargs=2, type=int, metavar=("R", "C"))
    p.add_argument("--adjacency", metavar="FILE")
    p.add_argument("--geojson", metavar="FILE")
    p.add_argument("--raw", action="store_true", help="binary weights, no row standardization")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("simulate", help="draw one SAR field")
    p.add_argument("--weights", metavar="FILE")
    p.add_argument("--lattice", nargs=2, type=int, metavar=("R", "C"))
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--out", metavar="FILE")
    _add_seed(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("permute-rho", help="rank-permute a variable toward a target rho")
    p.add_argument("--values", required=True, metavar="CSV")
    p.add_argument("--weights", required=True, metavar="JSON")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--max-retries", type=int, default=100)
    p.add_argument("--out", metavar="FILE")
    _add_seed(p)
    p.set_defaults(func=_cmd_permute_rho)

    p = sub.add_parser("aggregate", help="random contiguous aggregation + region means")
    p.add_argument("--values", required=True, metavar="CSV")
    p.add_argument("--weights", required=True, metavar="JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--regions-out", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    _add_seed(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("test", help="run the MAUP-sensitivity test")
    p.add_argument("--values", required=True, metavar="CSV")
    p.add_argument("--weights", required=True, metavar="JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--null", metavar="FILE")
    p.add_argument("--rho", type=float, default=None, help="skip estimation, use this rho")
    p.add_argument("--alpha", type=float, default=0.05, choices=ALPHA_GRID)
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("scan", help="scan aggregation levels for the minimum safe k")
    p.add_argument("--values", required=True, metavar="CSV")
    p.add_argument("--weights", required=True, metavar="JSON")
    p.add_argument("--alpha", type=float, default=0.05, choices=ALPHA_GRID)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--null", metavar="FILE")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("null", help="simulate a null distribution for (N, rho)")
    p.add_argument("--n", type=int, default=None, help="area count (perfect square lattice)")
    p.add_argument("--lattice", nargs=2, type=int, metavar=("R", "C"))
    p.add_argument("--weights", metavar="FILE")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--r", type=int, default=30)
    p.add_argument("--out", metavar="FILE")
    _add_seed(p)
    _add_workers(p)
    p.set_defaults(func=_cmd_null)

    for kind in ("power", "size"):
        p = sub.add_parser(kind, help=f"estimate test {kind} on (N, rho) cells")
        p.add_argument("--n", type=_int_list, required=True, help="comma list of area counts")
        p.add_argument("--rhos", type=_float_list, default=[0.0],
                       help="comma list of rho values (use --rhos=-0.9,0 for negatives)")
        p.add_argument("--instances", type=int, required=True)
        p.add_argument("--alpha", type=float, default=0.05, choices=ALPHA_GRID)
        p.add_argument("--r", type=int, default=30)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", metavar="FILE")
        _add_seed(p)
        _add_workers(p)
        p.set_defaults(func=lambda a, kind=kind: _cmd_power_or_size(a, kind))

    p = sub.add_parser("effects", help="aggregation-effects sweep over (N, rho, k) cells")
    p.add_argument("--cell", action="append", required=True, metavar="N:k1,k2,...",
                   help="lattice size and its k list; repeatable")
    p.add_argument("--rhos", type=_float_list, default=[-0.9, 0.0, 0.9],
                   help="comma list of rho values (use --rhos=-0.9,0 for negatives)")
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--r", type=int, default=30)
    p.add_argument("--no-isolation", action="store_true",
                   help="solve each rho's SAR field from the instance's shared innovations "
                        "instead of permuting a shared base")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", metavar="FILE")
    _add_seed(p)
    _add_workers(p)
    p.set_defaults(func=_cmd_effects)

    p = sub.add_parser("export-critical-values", help="dump the embedded critical-value table")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_export_critical_values)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SmaupError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
