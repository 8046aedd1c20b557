"""hybridctl benchmark: replicate throughput of `hybridctl run` on grid workloads.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload grid-single --seed 1 --seconds 20 --trace 0

Each workload runs `hybridctl run` on its config in ``bench/configs`` over
and over, every time in a fresh process (``bench/launch.py``), until
``--seconds`` have passed; the seed goes to ``hybridctl run --seed``.
After the timed loop the outputs are checked against computations made
apart from the program (``bench/checks.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(method cells, i.e. rows of ``raw.csv``) and ``metrics``.

``--trace 0`` reports the end-to-end metrics over the invocations:
``reps_per_s`` of the fastest, and the medians of ``setup_s`` and
``peak_rss_mb``.
``--trace 1`` alternates untraced and traced invocations
(``bench/tracer.py``) and reports the per-layer metrics. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    config: str
    reps: int  # replicates per scenario per invocation (`hybridctl run --reps`)
    threads: int  # `hybridctl run --threads`
    map_check: bool  # compare MAP rows with the exact reference


WORKLOADS = {
    "grid-single": Workload("grid-single.yaml", reps=2, threads=1, map_check=True),
    "grid-multi": Workload("grid-multi.yaml", reps=2, threads=1, map_check=True),
    "frequentist": Workload("frequentist.yaml", reps=20, threads=1, map_check=False),
    "grid-parallel": Workload("grid-single.yaml", reps=4, threads=2, map_check=True),
}

# Every process the benchmark starts uses one BLAS/OpenMP thread, so no
# run uses more threads than its worker processes.
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
INVOCATION_TIMEOUT_S = 150.0


@dataclass
class Invocation:
    out_dir: str
    reps: int
    rc: int
    setup_s: float
    reps_per_s: float
    peak_rss_mb: float
    user_s: float
    sys_s: float
    minor_faults: int
    trace_path: str | None


def invoke(root: str, env: dict, out_dir: str, workload: Workload, seed: int,
           threads: int, traced: bool) -> Invocation:
    """One `hybridctl run` in a fresh process, timed and measured from outside."""
    os.makedirs(out_dir)
    timing = os.path.join(out_dir, "timing.json")
    trace_path = os.path.join(out_dir, "spans.json") if traced else None
    config = os.path.join(BENCH_DIR, "configs", workload.config)
    argv = [sys.executable, os.path.join(BENCH_DIR, "launch.py"), timing, trace_path or "-",
            "--", "run", "--config", config,
            "--reps", str(workload.reps), "--seed", str(seed), "--threads", str(threads),
            "--out", out_dir]
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, 9))
        timer.start()
        try:
            # wait4 reports the child's rusage, its waited-for pool workers
            # included; ru_maxrss is then the largest of them.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(timing) as fh:
        marks = json.load(fh)
    reps = workload.reps * len(checks.load_scenarios(config))
    loop_s = (marks["loop_end"] - marks["loop_start"]) / 1e9
    return Invocation(
        out_dir=out_dir,
        reps=reps,
        rc=proc.returncode,
        setup_s=(marks["loop_start"] - t0) / 1e9,
        reps_per_s=reps / loop_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        user_s=usage.ru_utime,
        sys_s=usage.ru_stime,
        minor_faults=usage.ru_minflt,
        trace_path=trace_path,
    )


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

SELF_MS = (
    "trialdata.build_replicate", "regress.fit_ols", "regress.fit_logistic",
    "regress.sandwich_cov", "propensity.estimate_ps", "propensity.positions",
    "propensity.match_nearest", "propensity.ipw_weights", "propensity.stratify",
    "borrow.map_prior", "borrow.robustify", "borrow.posterior_update",
    "borrow.effect_posterior", "borrow.estimate_pss_pp", "borrow.estimate_pss_cl",
    "mixed.profiled_criterion", "metrics.summarize",
)
SELF_MS_EXPLICIT = (
    "borrow.estimate_map", "borrow.estimate_psm_map", "borrow.estimate_psw_map",
    "propensity.estimate_psm", "propensity.estimate_psw", "propensity.unadjusted_effect",
    "mixed.estimate_mm",
)
CALLS = (
    "borrow.map_prior", "mixed.fit_lmm", "propensity.positions", "propensity.estimate_ps",
    "propensity.match_nearest", "regress.fit_logistic",
)
WRITERS = ("harness.write_raw_csv", "harness.write_summary_csv", "harness.write_diagnostics")

PER_LAYER_UNITS = {
    **{f"{n}.ms": "ms" for n in SELF_MS},
    **{f"{n}.self_ms": "ms" for n in SELF_MS_EXPLICIT},
    **{f"{n}.calls": "count" for n in CALLS},
    "borrow.map_prior.distinct_share": "ratio",
    "borrow.map_prior.grid_cells": "count",
    "borrow.map_prior.computed_mb": "MB",
    "mixed.fit_lmm.ms": "ms",
    "mixed.criterion_evals_per_fit": "count",
    "harness.run_replicate.ms": "ms",
    "harness.run_replicate.uncovered_share": "ratio",
    "harness.write_outputs.ms": "ms",
    "harness.load_config.ms": "ms",
    "harness.scaling_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    "run.user_s": "s",
    "run.sys_s": "s",
    "run.minor_faults": "count",
}


def load_traces(paths: list[str]) -> tuple[list, list[list]]:
    """Spans of every trace file, and the map_prior calls of each file apart."""
    spans, calls = [], []
    for path in paths:
        for part in sorted(glob.glob(path) + glob.glob(path + ".*")):
            with open(part) as fh:
                data = json.load(fh)
            spans += data["spans"]
            calls.append(data["map_calls"])
    return spans, calls


def layer_metrics(trace_paths: list[str], reps: int, n_invocations: int) -> dict:
    """Per-replicate self time and calls of each span name, plus ratios."""
    spans, map_calls_per_file = load_traces(trace_paths)
    child_ns: dict[int, int] = {}
    for _, start, end, parent, _ in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    replicate_ms = []
    for name, start, end, _, sid in spans:
        dur = end - start
        incl_ns[name] = incl_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns.get(sid, 0)
        calls[name] = calls.get(name, 0) + 1
        if name == "harness.run_replicate":
            replicate_ms.append(dur / 1e6)

    def per_rep_ms(table, name):
        return table.get(name, 0) / 1e6 / reps

    m = {}
    for name in SELF_MS:
        m[f"{name}.ms"] = per_rep_ms(self_ns, name)
    for name in SELF_MS_EXPLICIT:
        m[f"{name}.self_ms"] = per_rep_ms(self_ns, name)
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0) / reps
    # Inputs repeat only within a replicate, and every file holds whole
    # replicates, so new inputs are counted file by file: invocations at
    # one seed repeat each other's inputs.
    map_calls = [c for part in map_calls_per_file for c in part]
    n_map = len(map_calls)
    keyed = [[k for k, _ in part if k is not None] for part in map_calls_per_file]
    n_keyed = sum(len(k) for k in keyed)
    m["borrow.map_prior.distinct_share"] = (
        sum(len(set(k)) for k in keyed) / n_keyed if n_keyed else 0.0)
    m["borrow.map_prior.grid_cells"] = (sum(c for _, c in map_calls) / n_map) if n_map else 0.0
    m["borrow.map_prior.computed_mb"] = sum(c for _, c in map_calls) * 8 / 1e6 / reps
    m["mixed.fit_lmm.ms"] = per_rep_ms(incl_ns, "mixed.fit_lmm")
    fits = calls.get("mixed.fit_lmm", 0)
    m["mixed.criterion_evals_per_fit"] = (
        calls.get("mixed.profiled_criterion", 0) / fits if fits else 0.0)
    m["harness.run_replicate.ms"] = statistics.median(replicate_ms) if replicate_ms else 0.0
    total_rep = incl_ns.get("harness.run_replicate", 0)
    m["harness.run_replicate.uncovered_share"] = (
        self_ns.get("harness.run_replicate", 0) / total_rep if total_rep else 0.0)
    m["harness.write_outputs.ms"] = sum(per_rep_ms(incl_ns, w) for w in WRITERS)
    m["harness.load_config.ms"] = incl_ns.get("harness.load_config", 0) / 1e6 / n_invocations
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hybridctl", "__init__.py")):
        print(f"no hybridctl source tree under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hybridctl  # compiles the package once, before any timed invocation

    if not os.path.abspath(hybridctl.__file__).startswith(src + os.sep):
        print(f"imported hybridctl from {hybridctl.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ONE_THREAD, PYTHONPATH=src)
    base = os.path.join(root, ".bench_runs", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(base, ignore_errors=True)

    # Invocation kinds take turns, so a slow stretch of the machine hits
    # each kind alike: untraced, traced (--trace 1), and one worker on the
    # same inputs (--trace 1 with workers, for the scaling efficiency).
    kinds = [("run", workload.threads, False)]
    if args.trace:
        kinds.append(("traced", workload.threads, True))
        if workload.threads > 1:
            kinds.append(("serial", 1, False))
    done: dict[str, list[Invocation]] = {name: [] for name, _, _ in kinds}
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < len(kinds) or time.monotonic() < deadline:
        name, threads, traced_run = kinds[i % len(kinds)]
        done[name].append(invoke(root, env, os.path.join(base, f"{name}{len(done[name])}"),
                                 workload, args.seed, threads, traced_run))
        i += 1
    if workload.threads > 1 and not args.trace:
        # not timed: the one-worker output the two-worker output must equal
        done["serial"] = [invoke(root, env, os.path.join(base, "serial0"), workload,
                                 args.seed, 1, False)]
    untraced, traced = done["run"], done.get("traced", [])
    serial = done.get("serial", [])

    runs = untraced + traced + serial
    first = untraced[0].out_dir
    problems = [f"{r.out_dir}: hybridctl run exited with {r.rc}" for r in runs if r.rc not in (0, 3)]
    if not problems:
        found, report = checks.check_outputs(
            first, os.path.join(BENCH_DIR, "configs", workload.config), args.seed,
            workload.map_check)
        problems += found
        for r in runs[1:]:
            for name in ("raw.csv", "summary.csv"):
                problems += checks.check_identical(
                    os.path.join(r.out_dir, name), os.path.join(first, name),
                    "same seed, one worker" if any(r is s for s in serial) else "same seed")
    else:
        report = {"rows": 0, "failed_rows": 0}
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        metrics = layer_metrics([r.trace_path for r in traced], sum(r.reps for r in traced),
                                len(traced))
        untraced_rps = max(r.reps_per_s for r in untraced)
        metrics["trace.overhead_ratio"] = untraced_rps / max(r.reps_per_s for r in traced)
        metrics["harness.scaling_efficiency"] = (
            untraced_rps / (workload.threads * max(r.reps_per_s for r in serial))
            if serial else 1.0)
        n_reps = sum(r.reps for r in untraced)
        metrics["run.user_s"] = sum(r.user_s for r in untraced) / n_reps
        metrics["run.sys_s"] = sum(r.sys_s for r in untraced) / n_reps
        metrics["run.minor_faults"] = sum(r.minor_faults for r in untraced) / n_reps
        units = PER_LAYER_UNITS
    else:
        metrics = {
            # best invocation: interference from other tenants of the machine
            # only ever slows an invocation down (see README, "Steadiness")
            "reps_per_s": max(r.reps_per_s for r in untraced),
            "setup_s": statistics.median(r.setup_s for r in untraced),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
        }
        units = {"reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print("env " + json.dumps({**environment(), "workload": args.workload, "seed": args.seed,
                               "invocations": len(runs), "checks": report}))
    result = {
        "correct": not problems,
        "attempted": report["rows"] * len(runs) or 1,
        "failed": report["failed_rows"] * len(runs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
