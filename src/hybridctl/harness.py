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
import hashlib
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import yaml

from .borrow import (
    MapConfig,
    TAU_LADDER,
    estimate_map,
    estimate_psm_map,
    estimate_pss_cl,
    estimate_pss_pp,
    estimate_psw_map,
)
from .metrics import EffectEstimate, SummaryRow, essr, summarize
from .mixed import estimate_mm
from .propensity import (
    COVSETS,
    DEFAULT_CALIPER_MULT,
    DEFAULT_N_STRATA,
    DEFAULT_WEIGHT_BOUNDS,
    estimate_ps,
    estimate_psm,
    estimate_psw,
    ipw_weights,
    match_nearest,
    unadjusted_effect,
)
from .trialdata import GenCoefficients, PRESETS, TrialDataset, build_replicate, preset, preset_n_total

__all__ = [
    "ConfigError",
    "Cell",
    "MethodSpec",
    "METHODS",
    "ScenarioConfig",
    "RunConfig",
    "ScenarioResult",
    "load_config",
    "apply_overrides",
    "expand_cells",
    "replicate_rng",
    "run_replicate",
    "run_scenario",
    "evaluate_cells",
    "write_raw_csv",
    "write_summary_csv",
    "read_summary_csv",
    "write_diagnostics",
    "render_summary_table",
    "cell_label",
    "RAW_HEADER",
    "SUMMARY_HEADER",
]

_MASK64 = (1 << 64) - 1

RAW_HEADER = (
    "scenario_id,replicate,method_id,covset,hyperparam,estimate,se,reject,essr_pct,flags"
)
SUMMARY_HEADER = (
    "scenario_id,method_id,covset,hyperparam,bias,rel_bias_pct,type1_or_power,"
    "mean_se,essr_pct,essr_empirical_pct,n_used,n_failed"
)

DEFAULT_FAILURE_THRESHOLD = 0.05


class ConfigError(ValueError):
    """A run config failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One result column: a method with a covariate set and hyper label.

    ``opts`` holds the method's options fully resolved by its ``METHODS``
    entry, so evaluation applies no defaults of its own.
    """

    method_id: str
    covset: int | None
    hyperparam: str
    opts: tuple[tuple[str, object], ...] = ()

    @property
    def key(self) -> tuple[str, int | None, str]:
        return (self.method_id, self.covset, self.hyperparam)

    def opt(self, key: str):
        return dict(self.opts)[key]


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
    scenario: ScenarioConfig
    summary: list[SummaryRow]
    replicate_rows: list[list[EffectEstimate]]
    flag_counts: dict[str, int]
    failure_fraction: float


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

# One option variant of a config entry: hyperparameter label parts and
# resolved (key, value) options.
Variant = tuple[list[str], list[tuple[str, object]]]


def _fmt(x: float) -> str:
    return f"{float(x):g}"


# YAML's true/false load as bool, a subclass of int; no numeric field takes one.
def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _has_bool(x: object) -> bool:
    return isinstance(x, bool) or (isinstance(x, list) and any(map(_has_bool, x)))


def _caliper(entry: dict, where: str) -> list[Variant]:
    mult = entry.get("caliper_mult", DEFAULT_CALIPER_MULT)
    units = entry.get("caliper_units", "sd")
    if not _is_number(mult) or mult < 0:
        raise ConfigError(f"{where}.caliper_mult: expected a non-negative number")
    if units not in ("sd", "raw"):
        raise ConfigError(f"{where}.caliper_units: expected 'sd' or 'raw'")
    parts = []
    if mult != DEFAULT_CALIPER_MULT or units != "sd":
        parts.append(f"caliper={_fmt(mult)}:{units}")
    return [(parts, [("caliper", (float(mult), units))])]


def _weight_bounds(entry: dict, where: str) -> list[Variant]:
    bounds = entry.get("weight_bounds", list(DEFAULT_WEIGHT_BOUNDS))
    if not (
        isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_number, bounds))
        and 0 < bounds[0] < bounds[1]
    ):
        raise ConfigError(f"{where}.weight_bounds: expected [lower, upper] with 0 < lower < upper")
    parts = []
    if tuple(bounds) != DEFAULT_WEIGHT_BOUNDS:
        parts.append(f"bounds={_fmt(bounds[0])}:{_fmt(bounds[1])}")
    return [(parts, [("weight_bounds", (float(bounds[0]), float(bounds[1])))])]


def _map(entry: dict, where: str) -> list[Variant]:
    """One variant per omega and tau-ladder label, each with its MapConfig."""
    if "omega" in entry and "omegas" in entry:
        raise ConfigError(f"{where}: give either omega or omegas, not both")
    if "tau_ladder" in entry and "tau_scale" in entry:
        raise ConfigError(f"{where}: give either tau_ladder or tau_scale, not both")
    omegas = entry.get("omegas", [entry.get("omega", 0.5)])
    if not isinstance(omegas, list) or not omegas:
        raise ConfigError(f"{where}.omegas: expected a non-empty list")
    tau_labels = entry.get("tau_ladder")
    if tau_labels is not None:
        if not isinstance(tau_labels, list) or not tau_labels:
            raise ConfigError(f"{where}.tau_ladder: expected a non-empty list")
        for lab in tau_labels:
            if lab not in TAU_LADDER:
                raise ConfigError(
                    f"{where}.tau_ladder: unknown label {lab!r} "
                    f"(expected one of {sorted(TAU_LADDER)})"
                )
    tau_scale = entry.get("tau_scale")
    if tau_scale is not None and (not _is_number(tau_scale) or tau_scale < 0):
        raise ConfigError(f"{where}.tau_scale: expected a non-negative number")

    variants = []
    for omega in omegas:
        if not _is_number(omega) or not 0 <= omega <= 1:
            raise ConfigError(f"{where}: omega {omega!r} outside [0, 1]")
        for tau_label in tau_labels or [None]:
            parts = [f"omega={_fmt(omega)}"]
            if tau_label is not None:
                parts.append(f"tau={tau_label}")
            if tau_scale is not None:
                parts.append(f"tau={_fmt(tau_scale)}")
            cfg = MapConfig(
                omega=float(omega),
                tau_scale=None if tau_scale is None else float(tau_scale),
                tau_ladder_label=tau_label,
            )
            variants.append((parts, [("map", cfg)]))
    return variants


def _strata(entry: dict, where: str) -> list[Variant]:
    n_strata = entry.get("n_strata", DEFAULT_N_STRATA)
    if not _is_int(n_strata) or n_strata < 2:
        raise ConfigError(f"{where}.n_strata: expected an integer >= 2")
    total_borrow = entry.get("total_borrow")
    if total_borrow is not None and (not _is_number(total_borrow) or total_borrow < 0):
        raise ConfigError(f"{where}.total_borrow: expected a non-negative number")
    parts = []
    if n_strata != DEFAULT_N_STRATA:
        parts.append(f"strata={n_strata}")
    if total_borrow is not None:
        parts.append(f"borrow={_fmt(total_borrow)}")
        total_borrow = float(total_borrow)
    return [(parts, [("n_strata", n_strata), ("total_borrow", total_borrow)])]


def _reml(entry: dict, where: str) -> list[Variant]:
    reml = entry.get("reml", True)
    if not isinstance(reml, bool):
        raise ConfigError(f"{where}.reml: expected true or false")
    return [([] if reml else ["ml"], [("reml", reml)])]


@dataclass(frozen=True)
class MethodSpec:
    """Everything a method id means to the harness.

    ``keys`` are the config keys an entry may set besides ``method_id``
    (and ``covsets`` when ``covset`` is true, i.e. the method runs once
    per covariate set). Each of ``parsers`` validates its options of an
    entry and returns their variants; an entry expands to every
    combination of them. ``evaluate`` runs one cell on a replicate.
    """

    keys: frozenset[str]
    covset: bool
    parsers: tuple[Callable[[dict, str], list[Variant]], ...]
    evaluate: Callable[[Cell, _ReplicateCaches], EffectEstimate]


_CALIPER_KEYS = frozenset({"caliper_mult", "caliper_units"})
_BOUNDS_KEYS = frozenset({"weight_bounds"})
_MAP_KEYS = frozenset({"omega", "omegas", "tau_ladder", "tau_scale"})
_STRATA_KEYS = frozenset({"n_strata", "total_borrow"})
_REML_KEYS = frozenset({"reml"})

# The evaluators look each estimator up as a module global when they
# run, so a wrapper installed on this module's names sees every call.
METHODS: dict[str, MethodSpec] = {
    "unadj.rc": MethodSpec(frozenset(), False, (), lambda cell, c:
        unadjusted_effect(c.dataset.reduced_concurrent)),
    "unadj.fc": MethodSpec(frozenset(), False, (), lambda cell, c:
        unadjusted_effect(c.dataset.full_concurrent)),
    "PSM": MethodSpec(_CALIPER_KEYS, True, (_caliper,), lambda cell, c:
        estimate_psm(c.dataset, c.psfit(cell.covset),
                     c.matchset(cell.covset, cell.opt("caliper")))),
    "PSW": MethodSpec(_BOUNDS_KEYS, True, (_weight_bounds,), lambda cell, c:
        estimate_psw(c.dataset, c.psfit(cell.covset),
                     c.weightset(cell.covset, cell.opt("weight_bounds")))),
    "MAP": MethodSpec(_MAP_KEYS, False, (_map,), lambda cell, c:
        estimate_map(c.dataset, cell.opt("map"))),
    "PSM+MAP": MethodSpec(_MAP_KEYS | _CALIPER_KEYS, True, (_map, _caliper), lambda cell, c:
        estimate_psm_map(c.dataset, cell.opt("map"), c.psfit(cell.covset),
                         c.trial_matchsets(cell.covset, cell.opt("caliper")))),
    "PSW+MAP": MethodSpec(_MAP_KEYS | _BOUNDS_KEYS, True, (_map, _weight_bounds), lambda cell, c:
        estimate_psw_map(c.dataset, cell.opt("map"), c.psfit(cell.covset),
                         c.weightset(cell.covset, cell.opt("weight_bounds")))),
    "PSS+PP": MethodSpec(_STRATA_KEYS, True, (_strata,), lambda cell, c:
        estimate_pss_pp(c.dataset, c.psfit(cell.covset),
                        cell.opt("n_strata"), cell.opt("total_borrow"))),
    "PSS+CL": MethodSpec(_STRATA_KEYS, True, (_strata,), lambda cell, c:
        estimate_pss_cl(c.dataset, c.psfit(cell.covset),
                        cell.opt("n_strata"), cell.opt("total_borrow"))),
    "MM": MethodSpec(_REML_KEYS, True, (_reml,), lambda cell, c:
        estimate_mm(c.dataset, cell.covset, cell.opt("reml"))),
    "MM.nc": MethodSpec(_REML_KEYS, False, (_reml,), lambda cell, c:
        estimate_mm(c.dataset, None, cell.opt("reml"))),
}

# The two unadjusted benchmarks lead every cell list: every other
# method's effective sample size is reported relative to unadj.rc.
_BENCHMARK_CELLS = (Cell("unadj.rc", None, ""), Cell("unadj.fc", None, ""))


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
        entry = {"method_id": raw} if isinstance(raw, str) else dict(raw or {})
        if "method_id" not in entry:
            raise ConfigError(f"{here}: missing method_id")
        method_id = entry.pop("method_id")
        spec = METHODS.get(method_id)
        if spec is None:
            raise ConfigError(
                f"{here}: unknown method {method_id!r} (expected one of {sorted(METHODS)})"
            )
        unknown = set(entry) - spec.keys - ({"covsets"} if spec.covset else set())
        if unknown:
            raise ConfigError(f"{here}: unknown key(s) {sorted(unknown)} for method {method_id}")
        own_covsets: tuple[int | None, ...] = (None,)
        if spec.covset:
            own_covsets = _parse_covsets(entry.get("covsets", list(covsets)), f"{here}.covsets")
        variants: list[Variant] = [([], [])]
        for parse in spec.parsers:
            variants = [(p + q, o + r) for p, o in variants for q, r in parse(entry, here)]
        for parts, opts in variants:
            for cs in own_covsets:
                cell = Cell(method_id, cs, ",".join(parts), tuple(opts))
                if cell.key in seen:
                    if cell in _BENCHMARK_CELLS:
                        continue
                    raise ConfigError(f"{here}: duplicate cell {cell.key}")
                seen.add(cell.key)
                cells.append(cell)
    return tuple(cells)


def _parse_coefficients(raw: dict, where: str) -> GenCoefficients:
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
        return GenCoefficients(
            alpha0=float(raw["alpha0"]),
            alpha=np.asarray(raw["alpha"], dtype=float),
            theta_treat=float(raw["theta_treat"]),
            beta0=(
                float(raw["beta0"])
                if _is_number(raw["beta0"])
                else np.asarray(raw["beta0"], dtype=float)
            ),
            beta=np.asarray(raw["beta"], dtype=float),
            sigma_e=float(raw.get("sigma_e", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
        if name not in PRESETS:
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

    master_seed = raw.get("master_seed", defaults["master_seed"])
    if not _is_int(master_seed):
        raise ConfigError(f"{where}.master_seed: expected an integer")

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
    if not _is_int(raw.get("master_seed")):
        raise ConfigError(f"{path}: master_seed: required integer")
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
        scenarios = tuple(replace(s, master_seed=master_seed) for s in scenarios)
    return replace(cfg, scenarios=scenarios)


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def replicate_rng(
    master_seed: int, scenario_id: str, replicate: int, label: str
) -> np.random.Generator:
    """Independent stream for one purpose within one replicate."""
    seq = np.random.SeedSequence(
        entropy=(master_seed & _MASK64, _hash64(scenario_id), int(replicate), _hash64(label))
    )
    return np.random.default_rng(seq)


class _ReplicateCaches:
    """Shared propensity fits and match/weight sets across a replicate's cells."""

    def __init__(self, dataset: TrialDataset, sid: str, seed: int, replicate: int):
        self.dataset = dataset
        self.sid = sid
        self.seed = seed
        self.replicate = replicate
        self.psfits: dict = {}
        self.matches: dict = {}
        self.weights: dict = {}

    def psfit(self, covset: int):
        if covset not in self.psfits:
            self.psfits[covset] = estimate_ps(self.dataset, covset)
        return self.psfits[covset]

    def _match(self, covset: int, caliper: tuple[float, str], label: str, hist_mask):
        """Match the reduced concurrent trial to the pooled rows in
        ``hist_mask``, with its own seeded stream."""
        key = (label, caliper)
        if key not in self.matches:
            rng = replicate_rng(self.seed, self.sid, self.replicate, label)
            self.matches[key] = match_nearest(
                self.psfit(covset), np.flatnonzero(hist_mask),
                caliper_mult=caliper[0], caliper_units=caliper[1], rng=rng,
            )
        return self.matches[key]

    def matchset(self, covset: int, caliper: tuple[float, str]):
        """Matches against all historical pools together."""
        trial = self.dataset.pooled.trial
        return self._match(covset, caliper, f"match:c{covset}", trial > 0)

    def trial_matchsets(self, covset: int, caliper: tuple[float, str]):
        """Matches against each historical pool separately."""
        trial = self.dataset.pooled.trial
        return [
            self._match(covset, caliper, f"match:c{covset}:trial{j}", trial == j)
            for j in range(1, self.dataset.k_historical + 1)
        ]

    def weightset(self, covset: int, bounds: tuple[float, float]):
        key = (covset, bounds)
        if key not in self.weights:
            self.weights[key] = ipw_weights(self.psfit(covset), bounds=bounds)
        return self.weights[key]


def _failed_estimate(exc: Exception) -> EffectEstimate:
    reason = f"error:{type(exc).__name__}:{str(exc)[:120]}"
    nan = float("nan")
    return EffectEstimate(estimate=nan, se=nan, reject=False, interval=(nan, nan),
                          flags=(reason,), failed=True)


def evaluate_cells(
    dataset: TrialDataset,
    cells: tuple[Cell, ...],
    scenario_id: str,
    master_seed: int,
    replicate: int,
) -> list[EffectEstimate]:
    """Run every cell on one dataset; failures become flagged rows.

    ``rows[i]`` is the estimate of ``cells[i]``: the estimators return
    unlabelled results, and a row's label is its cell's.
    """
    caches = _ReplicateCaches(dataset, scenario_id, master_seed, replicate)
    rows: list[EffectEstimate] = []
    for cell in cells:
        try:
            est = METHODS[cell.method_id].evaluate(cell, caches)
        except ValueError as exc:
            # the expected numerical failures (separation, singular designs,
            # degenerate data) all raise ValueError; anything else is a bug
            est = _failed_estimate(exc)
        rows.append(est)

    rc = next((r for c, r in zip(cells, rows) if c.method_id == "unadj.rc"), None)
    if rc is not None and not rc.failed and rc.se * rc.se > 0:
        for est in rows:
            if est is rc or est.failed or not est.se * est.se > 0:
                continue
            est.essr_pct = essr(rc.se * rc.se, est.se * est.se)
    return rows


def run_replicate(scenario: ScenarioConfig, replicate: int) -> list[EffectEstimate]:
    """Generate one dataset and evaluate every method cell on it."""
    rng = replicate_rng(scenario.master_seed, scenario.scenario_id, replicate, "data")
    dataset = build_replicate(scenario.coeffs, scenario.n_total, rng)
    return evaluate_cells(
        dataset, scenario.cells, scenario.scenario_id, scenario.master_seed, replicate
    )


def _run_chunk(scenario: ScenarioConfig, lo: int, hi: int) -> list[list[EffectEstimate]]:
    return [run_replicate(scenario, r) for r in range(lo, hi)]


def run_scenario(scenario: ScenarioConfig, workers: int = 1) -> ScenarioResult:
    """Run all replicates of one scenario and summarize.

    Replicates are independent and self-contained, so they can be split
    across processes; rows are reassembled in replicate order and
    summarized in one pass, making the output identical for any worker
    count.
    """
    reps = scenario.replicates
    if workers <= 1 or reps < 2 * workers:
        per_rep = [run_replicate(scenario, r) for r in range(reps)]
    else:
        bounds = np.linspace(0, reps, workers + 1).astype(int)
        chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [scenario] * len(chunks),
                                  [lo for lo, _ in chunks], [hi for _, hi in chunks]))
        per_rep = [rows for part in parts for rows in part]

    summary = summarize([c.key for c in scenario.cells], per_rep, scenario.theta_true,
                        scenario.scenario_id)
    flag_counts: Counter[str] = Counter()
    n_rows = 0
    n_failed = 0
    for rows in per_rep:
        for cell, est in zip(scenario.cells, rows):
            n_rows += 1
            n_failed += est.failed
            for f in est.flags:
                flag_counts[f"{cell.method_id}|{f}"] += 1
    return ScenarioResult(
        scenario=scenario,
        summary=summary,
        replicate_rows=per_rep,
        flag_counts=dict(sorted(flag_counts.items())),
        failure_fraction=(n_failed / n_rows) if n_rows else 0.0,
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _num(x: float | None) -> str:
    if x is None:
        return ""
    return "%.10g" % x


def write_raw_csv(path: str, results: list[ScenarioResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER.split(","))
        for result in results:
            sid = result.scenario.scenario_id
            for r, rows in enumerate(result.replicate_rows):
                for cell, est in zip(result.scenario.cells, rows):
                    writer.writerow([
                        sid,
                        r,
                        cell.method_id,
                        "" if cell.covset is None else cell.covset,
                        cell.hyperparam,
                        _num(est.estimate),
                        _num(est.se),
                        int(est.reject),
                        _num(est.essr_pct),
                        ";".join(est.flags),
                    ])


def write_summary_csv(path: str, results: list[ScenarioResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER.split(","))
        for result in results:
            for row in result.summary:
                writer.writerow([
                    row.scenario_id,
                    row.method_id,
                    "" if row.covset_id is None else row.covset_id,
                    row.hyperparam,
                    _num(row.bias),
                    _num(row.rel_bias_pct),
                    _num(row.reject_rate),
                    _num(row.mean_se),
                    _num(row.essr_pct),
                    _num(row.essr_empirical_pct),
                    row.n_used,
                    row.n_failed,
                ])


def read_summary_csv(path: str) -> list[SummaryRow]:
    def opt(v: str) -> float | None:
        return None if v == "" else float(v)

    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        got = ",".join(reader.fieldnames or [])
        if got != SUMMARY_HEADER:
            raise ValueError(f"{path}: unexpected header {got!r}")
        for rec in reader:
            rows.append(
                SummaryRow(
                    scenario_id=rec["scenario_id"],
                    method_id=rec["method_id"],
                    covset_id=None if rec["covset"] == "" else int(rec["covset"]),
                    hyperparam=rec["hyperparam"],
                    bias=float(rec["bias"]),
                    rel_bias_pct=opt(rec["rel_bias_pct"]),
                    reject_rate=float(rec["type1_or_power"]),
                    mean_se=float(rec["mean_se"]),
                    essr_pct=opt(rec["essr_pct"]),
                    essr_empirical_pct=opt(rec["essr_empirical_pct"]),
                    n_used=int(rec["n_used"]),
                    n_failed=int(rec["n_failed"]),
                )
            )
    return rows


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
