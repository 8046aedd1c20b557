"""Scenario orchestration: config parsing, seeded replication, output.

A run config names one or more scenarios; each scenario expands into a
list of method cells (method, covariate set, hyperparameter label) that
are all evaluated on the same generated dataset per replicate. Seeds
derive from (master seed, scenario id, replicate index, purpose label),
so adding or removing methods never perturbs the data stream, and a
rerun with the same seed is byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import operator
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np
# numpy loads these on first use. Loaded here, they stay out of the first
# replicate: np.unique calls np.ma.is_masked, and replicate_rng is np.random's.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401
import yaml

from .borrow import (
    TAU_LADDER,
    arm_summaries,
    build_strata,
    estimate_pss_cl,
    estimate_pss_pp,
    map_estimates,
    matched_studies,
    pool_studies,
    weighted_studies,
)
from .metrics import EffectEstimate, ReplicateColumns, SummaryRow, failed_estimate
from .metrics import row_essr, summarize
from .mixed import estimate_mm, pooled_stats
from .propensity import (
    COVSETS,
    estimate_ps,
    estimate_psm,
    estimate_psw,
    full_rank_design,
    ipw_weights,
    match_nearest,
    unadjusted_effect,
)
from .trialdata import GenCoefficients, PRESETS, TrialDataset, build_replicate, preset, preset_n_total
from .trialdata import _field

__all__ = [
    "ConfigError",
    "Cell",
    "METHODS",
    "ScenarioConfig",
    "load_config",
    "apply_overrides",
    "expand_cells",
    "check_seed",
    "run_scenario",
    "evaluate_cells",
    "write_raw_csv",
    "write_summary_csv",
    "read_summary_csv",
    "write_diagnostics",
    "render_summary_table",
    "cell_label",
]

RAW_HEADER = (
    "scenario_id,replicate,method_id,covset,hyperparam,estimate,se,reject,essr_pct,flags"
)


# summary.csv in column order: (column, SummaryRow field, parser of its text,
# whether an empty field reads as None). The header, the writer and the
# reader all follow this one table.
_SUMMARY_COLUMNS: tuple[tuple[str, str, Callable[[str], object], bool], ...] = (
    ("scenario_id", "scenario_id", str, False),
    ("method_id", "method_id", str, False),
    ("covset", "covset_id", int, True),
    ("hyperparam", "hyperparam", str, False),
    ("bias", "bias", float, False),
    ("rel_bias_pct", "rel_bias_pct", float, True),
    ("type1_or_power", "reject_rate", float, False),
    ("mean_se", "mean_se", float, False),
    ("essr_pct", "essr_pct", float, True),
    ("essr_empirical_pct", "essr_empirical_pct", float, True),
    ("n_used", "n_used", int, False),
    ("n_failed", "n_failed", int, False),
)
SUMMARY_HEADER = ",".join(column for column, *_ in _SUMMARY_COLUMNS)

DEFAULT_FAILURE_THRESHOLD = 0.05


class ConfigError(ValueError):
    """A run config failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One result column: a method with a covariate set and, for a
    MAP-family cell, its vague-component weight ``omega`` and tau-ladder
    label (None for the default tau scale). Every other method has fixed
    settings and an empty hyperparameter label.
    """

    method_id: str
    covset: int | None
    omega: float | None = None
    tau_label: str | None = None

    @property
    def hyperparam(self) -> str:
        """The label of the MAP settings, e.g. ``omega=0.5,tau=XS``."""
        if self.omega is None:
            return ""
        tau = "" if self.tau_label is None else f",tau={self.tau_label}"
        return f"omega={self.omega:g}{tau}"

    @property
    def key(self) -> tuple[str, int | None, str]:
        return (self.method_id, self.covset, self.hyperparam)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    coeffs: GenCoefficients
    n_total: int
    theta_true: float
    replicates: int
    master_seed: int
    covsets: tuple[int, ...]
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[ScenarioConfig, ...]
    failure_threshold: float = DEFAULT_FAILURE_THRESHOLD


@dataclass
class ScenarioResult:
    """One scenario's run. ``columns`` holds every replicate row, row i
    of each array being ``scenario.cells[i]`` and column r replicate r
    (see ``metrics.ReplicateColumns``); ``summary`` has one row per cell,
    in cell order. ``flag_counts`` counts each "method_id|flag" over the
    rows, and ``failure_fraction`` is the share of rows that failed.
    """

    scenario: ScenarioConfig
    summary: list[SummaryRow]
    columns: ReplicateColumns
    flag_counts: dict[str, int]
    failure_fraction: float


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------


# YAML loads true/false as bools (ints) and .nan/.inf as floats; no numeric field
# takes them, nor an integer too large for a float.
def _is_number(x: object) -> bool:
    return math.isfinite(x) if isinstance(x, float) else _is_int(x) and abs(x) <= sys.float_info.max


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _has_bool(x: object) -> bool:
    return isinstance(x, bool) or (isinstance(x, list) and any(map(_has_bool, x)))


def _map(entry: dict, where: str) -> list[tuple[float, str | None]]:
    """One (omega, tau-ladder label) pair per omega and label."""
    if "omega" in entry and "omegas" in entry:
        raise ConfigError(f"{where}: give either omega or omegas, not both")
    omegas = entry.get("omegas", [entry.get("omega", 0.5)])
    if not isinstance(omegas, list) or not omegas:
        raise ConfigError(f"{where}.omegas: expected a non-empty list")
    tau_labels = entry.get("tau_ladder")
    if tau_labels is not None and not (isinstance(tau_labels, list) and tau_labels):
        raise ConfigError(f"{where}.tau_ladder: expected a non-empty list")
    for lab in tau_labels or ():
        if not isinstance(lab, str) or lab not in TAU_LADDER:
            raise ConfigError(f"{where}.tau_ladder: unknown label {lab!r} "
                              f"(expected one of {sorted(TAU_LADDER)})")

    for omega in omegas:
        if not _is_number(omega) or not 0 <= omega <= 1:
            raise ConfigError(f"{where}: omega {omega!r} outside [0, 1]")
    return [(float(omega), label) for omega in omegas for label in tau_labels or [None]]


_MAP_KEYS = frozenset({"omega", "omegas", "tau_ladder"})


@dataclass(frozen=True)
class MethodSpec:
    """Everything a method id means to the harness.

    ``covset``: the method runs once per covariate set, and an entry may
    set ``covsets``. A method sets exactly one of ``evaluate``, which runs
    one cell on a replicate, and ``studies``, which a MAP-family method
    sets: it builds the (k, 2) studies and drop flags of its source for a
    covariate set. A MAP-family entry may set ``omega``/``omegas`` and
    ``tau_ladder``, one cell per combination.
    """

    covset: bool
    evaluate: Callable[[Cell, _ReplicateCaches], EffectEstimate] | None = None
    studies: Callable[[_ReplicateCaches, int | None], tuple[np.ndarray, tuple]] | None = None

    @property
    def map(self) -> bool:
        return self.studies is not None

    @property
    def keys(self) -> frozenset[str]:
        """The config keys an entry may set besides ``method_id``."""
        return frozenset({"covsets"} if self.covset else ()) | (_MAP_KEYS if self.map else set())


# The evaluators look each estimator up as a module global when they
# run, so a wrapper installed on this module's names sees every call. The
# MAP-family methods give only their studies: evaluate_cells builds those
# of every MAP-family source of a replicate in cell order, and one
# map_estimates call evaluates them all.
METHODS: dict[str, MethodSpec] = {
    "unadj.rc": MethodSpec(False, lambda cell, c:
        unadjusted_effect(c.dataset.reduced_concurrent)),
    "unadj.fc": MethodSpec(False, lambda cell, c:
        unadjusted_effect(c.dataset.full_concurrent)),
    "PSM": MethodSpec(True, lambda cell, c:
        estimate_psm(c.dataset, c.psfit(cell.covset), c.matchset(cell.covset))),
    "PSW": MethodSpec(True, lambda cell, c:
        estimate_psw(c.dataset, c.psfit(cell.covset), c.weightset(cell.covset))),
    "MAP": MethodSpec(False, studies=lambda c, covset:
        (pool_studies(c.dataset), ())),
    "PSM+MAP": MethodSpec(True, studies=lambda c, covset:
        matched_studies(c.psfit(covset), c.trial_matchsets(covset))),
    "PSW+MAP": MethodSpec(True, studies=lambda c, covset:
        weighted_studies(c.dataset, c.psfit(covset), c.weightset(covset))),
    "PSS+PP": MethodSpec(True, lambda cell, c:
        estimate_pss_pp(c.strata(cell.covset))),
    "PSS+CL": MethodSpec(True, lambda cell, c:
        estimate_pss_cl(c.strata(cell.covset))),
    "MM": MethodSpec(True, lambda cell, c:
        estimate_mm(c.mm_stats(), cell.covset)),
    "MM.nc": MethodSpec(False, lambda cell, c:
        estimate_mm(c.mm_stats(), None)),
}

# The two unadjusted benchmarks lead every cell list: every other
# method's effective sample size is reported relative to unadj.rc.
_BENCHMARK_CELLS = (Cell("unadj.rc", None), Cell("unadj.fc", None))


def _parse_covsets(covsets: object, where: str) -> tuple[int, ...]:
    if not isinstance(covsets, list) or not covsets or not all(
        _is_int(c) and c in COVSETS for c in covsets
    ):
        raise ConfigError(f"{where}: expected a non-empty subset of {list(COVSETS)}")
    return tuple(int(c) for c in covsets)


def expand_cells(
    methods: list, covsets: tuple[int, ...], where: str = "methods"
) -> tuple[Cell, ...]:
    """Turn config method entries into concrete cells.

    The two unadjusted benchmarks are always present (injected up front
    when the config omits them). Two entries that expand to the same
    (method, covset, hyperparam) cell are a config error.
    """
    cells: list[Cell] = list(_BENCHMARK_CELLS)
    seen = {c.key for c in cells}
    for i, raw in enumerate(methods):
        here = f"{where}[{i}]"
        if not isinstance(raw, (str, dict, type(None))):
            raise ConfigError(f"{here}: expected a method id or a mapping, not {raw!r}")
        entry = {"method_id": raw} if isinstance(raw, str) else dict(raw or {})
        if "method_id" not in entry:
            raise ConfigError(f"{here}: missing method_id")
        method_id = entry.pop("method_id")
        spec = METHODS.get(method_id) if isinstance(method_id, str) else None
        if spec is None:
            raise ConfigError(f"{here}.method_id: unknown method {method_id!r} "
                              f"(expected one of {sorted(METHODS)})")
        unknown = set(entry) - spec.keys
        if unknown:
            raise ConfigError(f"{here}: unknown key(s) {sorted(unknown)} for method {method_id}")
        own_covsets: tuple[int | None, ...] = (None,)
        if spec.covset:
            own_covsets = _parse_covsets(entry.get("covsets", list(covsets)), f"{here}.covsets")
        variants = _map(entry, here) if spec.map else [(None, None)]
        for omega, tau_label in variants:
            for cs in own_covsets:
                cell = Cell(method_id, cs, omega, tau_label)
                if cell.key in seen:
                    if cell in _BENCHMARK_CELLS:
                        continue
                    raise ConfigError(f"{here}: duplicate cell {cell.key}")
                seen.add(cell.key)
                cells.append(cell)
    return tuple(cells)


def _parse_coefficients(raw: dict, where: str) -> GenCoefficients:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping")
    allowed = {"alpha0", "alpha", "theta_treat", "beta0", "beta", "sigma_e"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown coefficient key(s) {sorted(unknown)}")
    missing = {"alpha0", "alpha", "theta_treat", "beta0", "beta"} - set(raw)
    if missing:
        raise ConfigError(f"{where}: missing coefficient key(s) {sorted(missing)}")
    for key, value in raw.items():
        if _has_bool(value):
            raise ConfigError(f"{where}.{key}: expected numbers, not true/false")
    try:
        coeffs = GenCoefficients(
            alpha0=float(raw["alpha0"]),
            alpha=np.asarray(raw["alpha"], dtype=float),
            theta_treat=float(raw["theta_treat"]),
            beta0=np.asarray(raw["beta0"], dtype=float),
            beta=np.asarray(raw["beta"], dtype=float),
            sigma_e=float(raw.get("sigma_e", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    for key in raw:
        if not np.all(np.isfinite(getattr(coeffs, key))):
            raise ConfigError(f"{where}.{key}: expected finite numbers")
    return coeffs


def _parse_scenario(raw: dict, defaults: dict, where: str) -> ScenarioConfig:
    allowed = {
        "scenario_id", "preset", "coefficients", "theta_treat", "n_total",
        "replicates", "master_seed", "covsets", "methods",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    if "scenario_id" not in raw or not isinstance(raw["scenario_id"], str):
        raise ConfigError(f"{where}.scenario_id: required string")
    sid = raw["scenario_id"]

    if ("preset" in raw) == ("coefficients" in raw):
        raise ConfigError(f"{where}: give exactly one of preset or coefficients")
    if "preset" in raw:
        name = raw["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(
                f"{where}.preset: unknown preset {name!r} (expected one of {sorted(PRESETS)})"
            )
        coeffs = preset(name)
        n_total = raw.get("n_total", preset_n_total(name))
    else:
        coeffs = _parse_coefficients(raw["coefficients"], f"{where}.coefficients")
        if "n_total" not in raw:
            raise ConfigError(f"{where}.n_total: required with explicit coefficients")
        n_total = raw["n_total"]
    if not _is_int(n_total) or n_total < 4:
        raise ConfigError(f"{where}.n_total: expected an integer >= 4")

    theta = raw.get("theta_treat", coeffs.theta_treat)
    if not _is_number(theta):
        raise ConfigError(f"{where}.theta_treat: expected a number")
    coeffs = coeffs.with_theta(float(theta))

    replicates = raw.get("replicates", defaults["replicates"])
    if not _is_int(replicates) or replicates < 1:
        raise ConfigError(f"{where}.replicates: expected an integer >= 1")

    master_seed = check_seed(raw.get("master_seed", defaults["master_seed"]),
                             f"{where}.master_seed")

    covsets = _parse_covsets(raw.get("covsets", list(COVSETS)), f"{where}.covsets")

    methods = raw.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"{where}.methods: required non-empty list")
    cells = expand_cells(methods, covsets, f"{where}.methods")

    return ScenarioConfig(
        scenario_id=sid,
        coeffs=coeffs,
        n_total=int(n_total),
        theta_true=float(theta),
        replicates=int(replicates),
        master_seed=int(master_seed),
        covsets=covsets,
        cells=cells,
    )


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML run config; reject unknown keys."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    allowed = {"master_seed", "replicates", "failure_threshold", "scenarios"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown top-level key(s) {sorted(unknown)}")
    check_seed(raw.get("master_seed"), f"{path}: master_seed")
    replicates = raw.get("replicates", 2000)
    if not _is_int(replicates) or replicates < 1:
        raise ConfigError(f"{path}: replicates: expected an integer >= 1")
    threshold = raw.get("failure_threshold", DEFAULT_FAILURE_THRESHOLD)
    if not _is_number(threshold) or not 0 <= threshold <= 1:
        raise ConfigError(f"{path}: failure_threshold: expected a number in [0, 1]")
    scen_raw = raw.get("scenarios")
    if not isinstance(scen_raw, list) or not scen_raw:
        raise ConfigError(f"{path}: scenarios: required non-empty list")

    defaults = {"replicates": replicates, "master_seed": raw["master_seed"]}
    scenarios = []
    seen = set()
    for i, s in enumerate(scen_raw):
        if not isinstance(s, dict):
            raise ConfigError(f"{path}: scenarios[{i}]: expected a mapping")
        cfg = _parse_scenario(s, defaults, f"{path}: scenarios[{i}]")
        if cfg.scenario_id in seen:
            raise ConfigError(f"{path}: scenarios[{i}]: duplicate scenario_id {cfg.scenario_id!r}")
        seen.add(cfg.scenario_id)
        scenarios.append(cfg)
    return RunConfig(scenarios=tuple(scenarios), failure_threshold=float(threshold))


def apply_overrides(
    cfg: RunConfig,
    scenario_id: str | None = None,
    replicates: int | None = None,
    master_seed: int | None = None,
) -> RunConfig:
    scenarios = cfg.scenarios
    if scenario_id is not None:
        scenarios = tuple(s for s in scenarios if s.scenario_id == scenario_id)
        if not scenarios:
            known = [s.scenario_id for s in cfg.scenarios]
            raise ConfigError(f"unknown scenario {scenario_id!r} (config has {known})")
    if replicates is not None:
        if replicates < 1:
            raise ConfigError("replicates override must be >= 1")
        scenarios = tuple(replace(s, replicates=replicates) for s in scenarios)
    if master_seed is not None:
        check_seed(master_seed, "seed override")
        scenarios = tuple(replace(s, master_seed=master_seed) for s in scenarios)
    return replace(cfg, scenarios=scenarios)


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def check_seed(seed: object, where: str) -> int:
    """``seed`` if it is a master seed: an integer in [0, 2**64), the 64
    bits of entropy that :func:`replicate_rng` takes, so distinct seeds
    give distinct streams. Otherwise a ``ConfigError`` naming ``where``."""
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise ConfigError(f"{where}: expected an integer in [0, 2**64), not {seed!r}")
    return seed


def replicate_rng(
    master_seed: int, scenario_id: str, replicate: int, label: str
) -> np.random.Generator:
    """Independent stream for one purpose within one replicate."""
    seq = np.random.SeedSequence(
        entropy=(master_seed, _hash64(scenario_id), int(replicate), _hash64(label))
    )
    return np.random.default_rng(seq)


class _ReplicateCaches:
    """Inputs shared across a replicate's cells, each built once: propensity
    fits, weight sets, strata, the mixed models' per-trial statistics and
    the MAP family's arm summaries. Match sets come from each fit's one
    matching pass, which keeps every set that no tie can change.
    A build that fails with a ``ValueError`` (the expected numerical
    failures) is not retried: every later lookup raises the same error
    again."""

    def __init__(self, dataset: TrialDataset, sid: str, seed: int, replicate: int):
        self.dataset = dataset
        self.sid, self.seed, self.replicate = sid, seed, replicate
        self.memo: dict = {}

    def _memo(self, key: tuple, build: Callable[[], object]):
        if key not in self.memo:
            try:
                self.memo[key] = build()
            except ValueError as exc:
                self.memo[key] = exc
        if isinstance(self.memo[key], ValueError):
            raise self.memo[key]
        return self.memo[key]

    def psfit(self, covset: int):
        """The covariate set's fit. Whether [1, x] has full rank is found
        once per replicate; if so, no fit checks its own design's rank."""
        return self._memo(("ps", covset), lambda: estimate_ps(
            self.dataset, covset, self._memo(("rank",), lambda: full_rank_design(self.dataset))))

    def _match(self, covset: int, label: str, pool: int | None):
        """Match the reduced concurrent trial to historical pool ``pool``
        (every pool if None) in the fit's one matching pass; a tie draws
        the set's own seeded stream."""
        return match_nearest(self.psfit(covset), pool, rng=lambda: replicate_rng(
            self.seed, self.sid, self.replicate, label))

    def matchset(self, covset: int):
        """Matches against all historical pools together."""
        return self._match(covset, f"match:c{covset}", None)

    def trial_matchsets(self, covset: int):
        """Matches against each historical pool separately."""
        return [
            self._match(covset, f"match:c{covset}:trial{j}", j)
            for j in range(1, self.dataset.k_historical + 1)
        ]

    def weightset(self, covset: int):
        return self._memo(("weights", covset), lambda: ipw_weights(self.psfit(covset)))

    def strata(self, covset: int):
        return self._memo(("strata", covset), lambda: build_strata(self.psfit(covset)))

    def mm_stats(self):
        return self._memo(("mm",), lambda: pooled_stats(self.dataset))

    def arms(self):
        return self._memo(("arms",), lambda: arm_summaries(self.dataset))


def evaluate_cells(
    dataset: TrialDataset,
    cells: tuple[Cell, ...],
    scenario_id: str,
    master_seed: int,
    replicate: int,
    intervals: bool = False,
) -> list[EffectEstimate]:
    """Run every cell on one dataset; failures become flagged rows
    (:func:`metrics.failed_estimate`), each cell its own row object.

    ``rows[i]`` is the estimate of ``cells[i]``: the estimators return
    unlabelled results, and a row's label is its cell's. One
    ``map_estimates`` call gives every MAP-family row, from the studies of
    each (method, covariate set) source, built in cell order; then the
    other cells run. MAP-family rows carry their credible-interval ends
    only when ``intervals`` is true.
    """
    caches = _ReplicateCaches(dataset, scenario_id, master_seed, replicate)
    # the expected numerical failures (separation, singular designs,
    # degenerate data) all raise ValueError; anything else is a bug
    rows: dict[int, EffectEstimate] = {}
    sources: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        if METHODS[cell.method_id].map:
            sources.setdefault((cell.method_id, cell.covset), []).append(i)
    inputs, batched = [], []
    for (method_id, covset), at in sources.items():
        # The order of arms and studies fixes which error text a failing
        # source's rows carry: the plain source summarises the arms before
        # its pools, the matched and weighted ones after building their studies.
        try:
            if method_id == "MAP":
                caches.arms()
            studies, flags = METHODS[method_id].studies(caches, covset)
            caches.arms()
        except ValueError as exc:
            rows.update((i, failed_estimate(exc)) for i in at)
            continue
        inputs.append((studies, [cells[i].tau_label for i in at], [cells[i].omega for i in at],
                       flags))
        batched.append(at)
    if inputs:
        for at, got in zip(batched, map_estimates(caches.arms(), inputs, intervals)):
            rows.update(zip(at, got))
    for i, cell in enumerate(cells):
        if not METHODS[cell.method_id].map:
            try:
                rows[i] = METHODS[cell.method_id].evaluate(cell, caches)
            except ValueError as exc:
                rows[i] = failed_estimate(exc)
    return [rows[i] for i in range(len(cells))]


def run_replicate(scenario: ScenarioConfig, replicate: int) -> list[EffectEstimate]:
    """Generate one dataset and evaluate every method cell on it. A
    dataset that cannot be generated (a ``ValueError``, such as too few
    concurrent subjects) fails every cell of the replicate."""
    rng = replicate_rng(scenario.master_seed, scenario.scenario_id, replicate, "data")
    try:
        dataset = build_replicate(scenario.coeffs, scenario.n_total, rng)
    except ValueError as exc:
        return [failed_estimate(exc) for _ in scenario.cells]
    return evaluate_cells(
        dataset, scenario.cells, scenario.scenario_id, scenario.master_seed, replicate
    )


def _run_chunk(scenario: ScenarioConfig, lo: int, hi: int) -> ReplicateColumns:
    """Replicates ``lo`` to ``hi - 1`` of a scenario, each folded into
    columns as it finishes: a pool worker sends columns, not rows."""
    return ReplicateColumns.from_rows(
        (run_replicate(scenario, r) for r in range(lo, hi)), len(scenario.cells), hi - lo)


def run_scenario(scenario: ScenarioConfig, workers: int = 1,
                 pool: ProcessPoolExecutor | None = None) -> ScenarioResult:
    """Run all replicates of one scenario and summarize.

    Replicates are independent and self-contained, so they can be split
    across processes; each replicate's rows are folded into the
    scenario's columns as soon as it finishes, in replicate order, and
    summarized in one pass, making the output identical for any worker
    count. The ``workers`` chunks run on ``pool`` when one is given,
    which stays open for the caller's next scenario; otherwise on a pool
    opened and closed here.
    """
    reps = scenario.replicates
    n_cells = len(scenario.cells)
    if workers <= 1 or reps < 2 * workers:
        columns = ReplicateColumns.from_rows(
            (run_replicate(scenario, r) for r in range(reps)), n_cells, reps)
    else:
        bounds = np.linspace(0, reps, workers + 1).astype(int)
        chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        columns = ReplicateColumns(n_cells, reps)
        with (ProcessPoolExecutor(max_workers=workers) if pool is None
              else nullcontext(pool)) as pool:
            for (lo, _), part in zip(chunks, pool.map(
                    _run_chunk, [scenario] * len(chunks),
                    [lo for lo, _ in chunks], [hi for _, hi in chunks])):
                columns.put_block(lo, part)

    summary = summarize([c.key for c in scenario.cells], columns, scenario.theta_true,
                        scenario.scenario_id)
    flag_counts: Counter[str] = Counter()
    for (i, _), flags in columns.flags.items():
        method_id = scenario.cells[i].method_id
        for f in flags:
            flag_counts[f"{method_id}|{f}"] += 1
    failed = columns.failed
    return ScenarioResult(
        scenario=scenario,
        summary=summary,
        columns=columns,
        flag_counts=dict(sorted(flag_counts.items())),
        failure_fraction=(int(np.count_nonzero(failed)) / failed.size) if failed.size else 0.0,
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _csv_fields(*fields: object) -> str:
    """``fields`` as csv.writer writes them inside a row: each one
    quoted where it must be, comma-separated, without the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow((0, *fields))  # a leading field: a lone "" would be quoted
    return buf.getvalue()[2:-2]


# Replicates per write of raw.csv: the text of one batch is held at a time.
_RAW_BATCH = 64


def _raw_batches(result: ScenarioResult, quote: Callable[[str], str]) -> Iterator[str]:
    """The raw.csv lines of a scenario, ``_RAW_BATCH`` replicates to a
    string, formatted from the columns as csv.writer formats each row;
    ``quote`` gives a text field's CSV text."""
    def label(text: str) -> str:  # inside a %-format
        return quote(text).replace("%", "%%")

    cols, cells = result.columns, result.scenario.cells
    sid = label(result.scenario.scenario_id)
    heads = [f"{sid},%d,{label(c.method_id)},{'' if c.covset is None else c.covset},"
             f"{label(c.hyperparam)},%.10g,%.10g,%d," for c in cells]
    essr = row_essr([c.key for c in cells], cols)
    flags = cols.flags
    for lo in range(0, cols.n_reps, _RAW_BATCH):
        hi = min(lo + _RAW_BATCH, cols.n_reps)
        lines = []
        for r, ests, ses, rejects, essrs in zip(range(lo, hi), *(a[:, lo:hi].T.tolist() for a in (
                cols.estimate, cols.se, cols.reject, essr))):
            for i, (head, e, s, j, v) in enumerate(zip(heads, ests, ses, rejects, essrs)):
                f = flags.get((i, r)) if flags else None
                lines.append(head % (r, e, s, j) + ("" if v != v else "%.10g" % v)  # NaN: no ESSR
                             + ("," if f is None else "," + quote(";".join(f))) + "\r\n")
        yield "".join(lines)


def write_raw_csv(path: str, results: list[ScenarioResult]) -> None:
    """One row per (scenario, replicate, cell), in that order."""
    quote = functools.cache(_csv_fields)  # each distinct text once per file
    with open(path, "w", newline="") as fh:
        fh.write(_csv_fields(*RAW_HEADER.split(",")) + "\r\n")
        for result in results:
            fh.writelines(_raw_batches(result, quote))


def write_summary_csv(path: str, results: list[ScenarioResult]) -> None:
    """None is written as an empty field, floats as %.10g, ints as they
    are and strings as csv.writer writes them."""
    quote = functools.cache(_csv_fields)
    values = operator.attrgetter(*(field for _, field, *_ in _SUMMARY_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_fields(*SUMMARY_HEADER.split(",")) + "\r\n")
        for result in results:
            fh.write("".join(",".join(
                "" if v is None else "%.10g" % v if isinstance(v, float)
                else quote(v) if isinstance(v, str) else str(v) for v in values(row)) + "\r\n"
                for row in result.summary))


def read_summary_csv(path: str) -> list[SummaryRow]:
    """Rows of a summary.csv; a ValueError names the file and, for a row
    that is short or long, does not parse or is not valid CSV, its line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            got = ",".join(reader.fieldnames or [])
            if got != SUMMARY_HEADER:
                raise ValueError(f"unexpected header {got!r}")
            return [SummaryRow(**{
                field: None if optional and rec[column] == ""
                else _field(reader.line_num, rec, column, parse)
                for column, field, parse, optional in _SUMMARY_COLUMNS
            }) for rec in reader]
        except csv.Error as exc:  # the DictReader's own line_num lags a row behind
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_diagnostics(path: str, results: list[ScenarioResult], threshold: float) -> None:
    payload = {
        "se_convention": "HC0",
        "failure_threshold": threshold,
        "scenarios": [
            {
                "scenario_id": r.scenario.scenario_id,
                "replicates": r.scenario.replicates,
                "master_seed": r.scenario.master_seed,
                "theta_true": r.scenario.theta_true,
                "failure_fraction": r.failure_fraction,
                "flag_counts": r.flag_counts,
            }
            for r in results
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cell_label(key: tuple[str, int | None, str]) -> str:
    """Readable label for a cell key, e.g. ``MAP(omega=0.2)`` or ``PSM [c3]``."""
    method_id, covset, hyperparam = key
    label = method_id
    if hyperparam:
        label += f"({hyperparam})"
    if covset is not None:
        label += f" [c{covset}]"
    return label


def _fmt_cell(x: float | None, digits: int = 3) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "."
    return f"{x:.{digits}f}"


def render_summary_table(rows: list[SummaryRow], style: str = "plain") -> str:
    """Text rendering of summary rows.

    ``plain`` is one line per cell. ``paper`` pairs a null arm with its
    alternative arm (scenario ids ending in ``-null`` / ``-alt``) into
    the null-rate / power / ESSR layout the result tables use.
    """
    if style == "plain":
        header = ["scenario", "method", "bias", "rel_bias%", "rate", "mean_se",
                  "essr%", "essr_emp%", "n", "fail"]
        table = [header]
        for r in rows:
            table.append([
                r.scenario_id, cell_label(r.key), _fmt_cell(r.bias), _fmt_cell(r.rel_bias_pct, 1),
                _fmt_cell(r.reject_rate), _fmt_cell(r.mean_se), _fmt_cell(r.essr_pct, 1),
                _fmt_cell(r.essr_empirical_pct, 1), str(r.n_used), str(r.n_failed),
            ])
        return _render_aligned(table)
    if style != "paper":
        raise ValueError(f"unknown table style {style!r} (expected 'plain' or 'paper')")

    def base(sid: str) -> str:
        for suffix in ("-null", "-alt"):
            if sid.endswith(suffix):
                return sid[: -len(suffix)]
        return sid

    groups: dict[str, dict[str, dict]] = {}
    for r in rows:
        arm = "null" if r.scenario_id.endswith("-null") else "alt"
        groups.setdefault(base(r.scenario_id), {}).setdefault(arm, {})[cell_label(r.key)] = r

    blocks = []
    for gname, arms in groups.items():
        labels: list[str] = []
        for arm in ("null", "alt"):
            for label in arms.get(arm, {}):
                if label not in labels:
                    labels.append(label)
        table = [["method", "bias(null)", "type1", "essr%(null)",
                  "bias(alt)", "rel_bias%", "power", "essr%(alt)"]]
        for label in labels:
            nr = arms.get("null", {}).get(label)
            ar = arms.get("alt", {}).get(label)
            table.append([
                label,
                _fmt_cell(nr.bias if nr else None),
                _fmt_cell(nr.reject_rate if nr else None),
                _fmt_cell(nr.essr_pct if nr else None, 1),
                _fmt_cell(ar.bias if ar else None),
                _fmt_cell(ar.rel_bias_pct if ar else None, 1),
                _fmt_cell(ar.reject_rate if ar else None),
                _fmt_cell(ar.essr_pct if ar else None, 1),
            ])
        blocks.append(f"== {gname} ==\n" + _render_aligned(table))
    return "\n\n".join(blocks)


def _render_aligned(table: list[list[str]]) -> str:
    widths = [max(len(row[j]) for row in table) for j in range(len(table[0]))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
