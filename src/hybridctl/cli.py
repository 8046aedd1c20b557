"""Command-line front end.

``run`` executes the scenarios of a config file and writes raw,
summary, and diagnostics files; ``table`` re-renders a summary CSV as
text; ``presets`` lists the built-in coefficient presets; ``analyze``
applies the estimators once to a user-supplied subjects CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from . import harness
from .harness import ConfigError
from .trialdata import PRESETS, load_subjects_csv, preset_n_total

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILURES = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridctl",
        description="Hybrid-controlled-trial borrowing estimators and simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the scenarios of a config file")
    run.add_argument("--config", required=True, help="YAML run config")
    run.add_argument("--scenario", help="run only this scenario id")
    run.add_argument("--reps", type=int, help="override replicate count")
    run.add_argument("--seed", type=int, help="override master seed")
    run.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    run.add_argument("--out", default="results", help="output directory (default ./results)")

    presets = sub.add_parser("presets", help="coefficient presets")
    presets.add_argument("action", choices=["list"])

    table = sub.add_parser("table", help="render a summary CSV as text")
    table.add_argument("--in", dest="in_dir", required=True, help="directory with summary.csv")
    table.add_argument(
        "--style", choices=["plain", "paper"], default="paper",
        help="plain rows or paired null/alt layout (default paper)",
    )

    analyze = sub.add_parser("analyze", help="run estimators once on a subjects CSV")
    analyze.add_argument("--data", required=True, help="subjects CSV (trial,z,y,x1..xp)")
    analyze.add_argument("--covset", type=int, default=1, choices=[1, 2, 3])
    analyze.add_argument(
        "--methods", default="unadj.rc,PSM,PSW",
        help="comma-separated method ids (default unadj.rc,PSM,PSW)",
    )
    analyze.add_argument("--seed", type=int, default=0, help="seed for match tie-breaking")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = harness.load_config(args.config)
    cfg = harness.apply_overrides(
        cfg, scenario_id=args.scenario, replicates=args.reps, master_seed=args.seed
    )
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # its message names the path
        raise ConfigError(f"--out: {exc}") from exc
    # Checked, not opened: a run that cannot write its files fails before
    # its first replicate, and no earlier output is truncated until then.
    raw_path, summary_path, diagnostics_path = paths = [
        os.path.join(args.out, name) for name in ("raw.csv", "summary.csv", "diagnostics.json")]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"--out: {path} is a directory")
        if not os.access(path if os.path.exists(path) else args.out, os.W_OK):
            raise ConfigError(f"--out: {path} is not writable")

    # One pool for the whole run. It forks its workers at the first chunk
    # it is given and is closed, on success or failure, before any file
    # is written.
    results = []
    with ProcessPoolExecutor(args.threads) if args.threads > 1 else nullcontext() as pool:
        for scenario in cfg.scenarios:
            print(
                f"running {scenario.scenario_id}: {scenario.replicates} replicates, "
                f"{len(scenario.cells)} cells",
                flush=True,
            )
            results.append(harness.run_scenario(scenario, workers=args.threads, pool=pool))

    harness.write_raw_csv(raw_path, results)
    harness.write_summary_csv(summary_path, results)
    harness.write_diagnostics(diagnostics_path, results, cfg.failure_threshold)

    rows = [row for r in results for row in r.summary]
    print()
    print(harness.render_summary_table(rows, style="plain"))
    print(f"\nwrote raw.csv, summary.csv, diagnostics.json to {args.out}")

    failing = [r for r in results if r.failure_fraction > cfg.failure_threshold]
    for r in failing:
        print(
            f"scenario {r.scenario.scenario_id}: method failure fraction "
            f"{r.failure_fraction:.4f} exceeds threshold {cfg.failure_threshold:.4f}",
            file=sys.stderr,
        )
    return EXIT_FAILURES if failing else EXIT_OK


def _cmd_presets(_: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        c = PRESETS[name]
        print(
            f"{name}: n_total={preset_n_total(name)} k={c.k_historical} "
            f"theta={c.theta_treat:g} alpha0={c.alpha0:g}"
        )
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    path = os.path.join(args.in_dir, "summary.csv")
    try:
        rows = harness.read_summary_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    print(harness.render_summary_table(rows, style=args.style))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    harness.check_seed(args.seed, "--seed")
    try:
        dataset = load_subjects_csv(args.data)
    except OSError as exc:  # its message names the file
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"{args.data}: {exc}") from exc
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods is empty")
    cells = harness.expand_cells(methods, (args.covset,), where="--methods")
    name = os.path.basename(args.data)
    rows = harness.evaluate_cells(dataset, cells, name, args.seed, 0, intervals=True)
    width = max(len(harness.cell_label(c.key)) for c in cells)
    for cell, est in zip(cells, rows):
        label = harness.cell_label(cell.key).ljust(width)
        if est.failed:
            print(f"{label}  failed: {';'.join(est.flags)}")
            continue
        lo, hi = est.interval
        extra = f"  [{';'.join(est.flags)}]" if est.flags else ""
        print(
            f"{label}  estimate={est.estimate:+.4f}  se={est.se:.4f}  "
            f"ci=({lo:+.4f}, {hi:+.4f})  reject={est.reject}{extra}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "presets": _cmd_presets,
        "table": _cmd_table,
        "analyze": _cmd_analyze,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout fails here, inside the try
    except BrokenPipeError:
        # A reader such as `head` closed stdout. Point it at devnull so the
        # flush at exit does not fail again, and exit non-zero quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
