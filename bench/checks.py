"""Output checks made apart from the program.

Each ``check_*`` function returns a list of problems, empty when the
outputs pass. They recompute what ``hybridctl run`` wrote with the
benchmark's own code and compare:

(a) ``summary.csv`` against a summary recomputed from ``raw.csv``;
(b) the ``unadj.rc`` and ``unadj.fc`` rows against a difference in means
    with a pooled-variance SE on the regenerated datasets;
(c) each row's ``essr_pct`` against 100 (se_rc^2 / se^2 - 1);
(d) Wald-type rows' ``reject`` against |estimate / se| > z_0.975;
(e) two output files byte for byte;
and the ``MAP`` rows against an exact normal-mixture MAP computation
(:func:`map_reference`).

Only the data generator (``hybridctl.trialdata``) is taken from the
program, to regenerate each replicate's dataset from the documented
seed derivation; no estimator code is.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import OrderedDict

import numpy as np
import yaml
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

Z975 = float(ndtri(0.975))
WALD_METHODS = {"unadj.rc", "unadj.fc", "PSM", "PSW", "PSS+PP", "PSS+CL", "MM", "MM.nc"}

# Documented tau rule of the MAP prior: ladder multiples of the empirical
# scale (SD of the study means, or the single study's SE), and a quarter
# of the study SE for a single pool without a ladder label.
TAU_LADDER = {"L": 10.0, "M": 1.0, "S": 0.1, "XS": 0.01}
SINGLE_POOL_TAU_MULT = 0.25

# MAP rows must agree with the reference within this many posterior SDs.
MAP_TOL_SD = 2e-3

# raw.csv prints numbers with 10 significant digits
PRINTED_REL = 5e-10

_MASK64 = (1 << 64) - 1


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def num(text: str) -> float | None:
    return None if text == "" else float(text)


def is_failed(row: dict) -> bool:
    return not math.isfinite(float(row["estimate"]))


def load_scenarios(config_path: str) -> dict[str, dict]:
    """scenario id -> {"preset", "theta"} from a benchmark workload config."""
    with open(config_path) as fh:
        raw = yaml.safe_load(fh)
    return {
        s["scenario_id"]: {"preset": s["preset"], "theta": float(s["theta_treat"])}
        for s in raw["scenarios"]
    }


# ---------------------------------------------------------------------------
# Regenerated datasets
# ---------------------------------------------------------------------------


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def replicate_rng(master_seed: int, scenario_id: str, replicate: int, label: str):
    """The seed derivation documented for `hybridctl run`: one stream per purpose."""
    seq = np.random.SeedSequence(
        entropy=(master_seed & _MASK64, _hash64(scenario_id), int(replicate), _hash64(label))
    )
    return np.random.default_rng(seq)


class Datasets:
    """Regenerates replicate datasets on demand, keyed by (scenario, replicate)."""

    def __init__(self, scenarios: dict[str, dict], master_seed: int):
        self.scenarios = scenarios
        self.master_seed = master_seed
        self._cache: dict = {}

    def get(self, sid: str, replicate: int):
        key = (sid, replicate)
        if key not in self._cache:
            from hybridctl.trialdata import build_replicate, preset, preset_n_total

            spec = self.scenarios[sid]
            coeffs = preset(spec["preset"]).with_theta(spec["theta"])
            rng = replicate_rng(self.master_seed, sid, replicate, "data")
            self._cache[key] = build_replicate(coeffs, preset_n_total(spec["preset"]), rng)
        return self._cache[key]


# ---------------------------------------------------------------------------
# (a) summary.csv recomputed from raw.csv
# ---------------------------------------------------------------------------


def recompute_summary(raw: list[dict], thetas: dict[str, float]) -> list[dict]:
    cells: OrderedDict = OrderedDict()
    for row in raw:
        key = (row["scenario_id"], row["method_id"], row["covset"], row["hyperparam"])
        cell = cells.setdefault(key, {"used": [], "failed": 0})
        if is_failed(row):
            cell["failed"] += 1
        else:
            cell["used"].append(row)

    def var(rows):
        """Sample variance of the estimates, and a bound on its error from
        raw.csv printing each estimate to PRINTED_REL."""
        vals = np.array([float(r["estimate"]) for r in rows])
        if vals.size < 2:
            return None, None
        err = 2.0 * float((np.abs(vals - vals.mean()) * np.abs(vals)).sum()) * PRINTED_REL
        return float(np.var(vals, ddof=1)), err / (vals.size - 1)

    out = []
    for (sid, mid, cov, hyper), cell in cells.items():
        used = cell["used"]
        theta = thetas[sid]
        rec = {"scenario_id": sid, "method_id": mid, "covset": cov, "hyperparam": hyper,
               "n_used": len(used), "n_failed": cell["failed"]}
        if not used:
            rec.update(bias=math.nan, rel_bias_pct=None, type1_or_power=math.nan,
                       mean_se=math.nan, essr_pct=None, essr_empirical_pct=None)
            out.append(rec)
            continue
        n = len(used)
        bias = math.fsum(float(r["estimate"]) - theta for r in used) / n
        essrs = [float(r["essr_pct"]) for r in used if r["essr_pct"] != ""]
        rc = cells.get((sid, "unadj.rc", "", ""))
        rc_var, rc_err = var(rc["used"]) if rc else (None, None)
        own_var, own_err = var(used)
        emp = None
        if rc_var is not None and own_var is not None and own_var > 0:
            emp = (rc_var / own_var - 1.0) * 100.0
            # a ratio of two small variances magnifies the printing error
            rec["essr_empirical_tol"] = 2.0 * 100.0 * (rc_var / own_var) * (
                rc_err / rc_var + own_err / own_var) if rc_var > 0 else 0.0
        rec.update(
            bias=bias,
            rel_bias_pct=None if theta == 0 else 100.0 * bias / theta,
            type1_or_power=sum(int(r["reject"]) for r in used) / n,
            mean_se=math.fsum(float(r["se"]) for r in used) / n,
            essr_pct=math.fsum(essrs) / len(essrs) if essrs else None,
            essr_empirical_pct=emp,
        )
        out.append(rec)
    return out


SUMMARY_FIELDS = ("bias", "rel_bias_pct", "type1_or_power", "mean_se", "essr_pct",
                  "essr_empirical_pct")


def check_summary(raw: list[dict], summary: list[dict], thetas: dict[str, float]) -> list[str]:
    expected = recompute_summary(raw, thetas)
    problems = []
    if len(expected) != len(summary):
        return [f"(a) summary.csv has {len(summary)} rows, raw.csv gives {len(expected)}"]
    for exp, got in zip(expected, summary):
        where = f"(a) {got['scenario_id']} {got['method_id']} [{got['covset']}] {got['hyperparam']}"
        for key in ("scenario_id", "method_id", "covset", "hyperparam"):
            if exp[key] != got[key]:
                problems.append(f"{where}: {key} {got[key]!r}, expected {exp[key]!r}")
        for key in ("n_used", "n_failed"):
            if int(got[key]) != exp[key]:
                problems.append(f"{where}: {key} {got[key]}, expected {exp[key]}")
        extra_tol = {"essr_empirical_pct": exp.get("essr_empirical_tol", 0.0)}
        for key in SUMMARY_FIELDS:
            e, g = exp[key], num(got[key])
            if e is None or g is None:
                if (e is None) != (g is None):
                    problems.append(f"{where}: {key} {got[key]!r}, expected {e!r}")
            elif not (math.isnan(e) and math.isnan(g)) and not math.isclose(
                    e, g, rel_tol=1e-7, abs_tol=1e-8 + extra_tol.get(key, 0.0)):
                problems.append(f"{where}: {key} {g!r}, expected {e!r}")
    return problems


# ---------------------------------------------------------------------------
# (b) unadjusted rows from the regenerated data
# ---------------------------------------------------------------------------


def diff_in_means(y: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Treated minus control mean, with the pooled-variance standard error."""
    yt, yc = y[z == 1], y[z == 0]
    ss = float(((yt - yt.mean()) ** 2).sum() + ((yc - yc.mean()) ** 2).sum())
    s2 = ss / (yt.size + yc.size - 2)
    return float(yt.mean() - yc.mean()), math.sqrt(s2 * (1.0 / yt.size + 1.0 / yc.size))


def check_unadjusted(raw: list[dict], datasets: Datasets) -> list[str]:
    problems = []
    seen = 0
    for row in raw:
        mid = row["method_id"]
        if mid not in ("unadj.rc", "unadj.fc"):
            continue
        seen += 1
        ds = datasets.get(row["scenario_id"], int(row["replicate"]))
        group = ds.reduced_concurrent if mid == "unadj.rc" else ds.full_concurrent
        est, se = diff_in_means(group.y, group.z)
        where = f"(b) {row['scenario_id']} rep {row['replicate']} {mid}"
        if is_failed(row):
            problems.append(f"{where}: failed row")
            continue
        if not math.isclose(float(row["estimate"]), est, rel_tol=2e-9, abs_tol=1e-12):
            problems.append(f"{where}: estimate {row['estimate']}, expected {est!r}")
        if not math.isclose(float(row["se"]), se, rel_tol=2e-9, abs_tol=1e-12):
            problems.append(f"{where}: se {row['se']}, expected {se!r}")
        if int(row["reject"]) != int(abs(est / se) > Z975):
            problems.append(f"{where}: reject {row['reject']}, expected {int(abs(est / se) > Z975)}")
    if not seen:
        problems.append("(b) raw.csv has no unadj.rc or unadj.fc rows")
    return problems


# ---------------------------------------------------------------------------
# (c) ESSR and (d) Wald decisions, row by row
# ---------------------------------------------------------------------------


def check_essr(raw: list[dict]) -> list[str]:
    rc_se = {
        (r["scenario_id"], r["replicate"]): float(r["se"])
        for r in raw if r["method_id"] == "unadj.rc" and not is_failed(r)
    }
    problems = []
    for row in raw:
        where = (f"(c) {row['scenario_id']} rep {row['replicate']} {row['method_id']} "
                 f"[{row['covset']}] {row['hyperparam']}")
        base = rc_se.get((row["scenario_id"], row["replicate"]))
        if row["method_id"] == "unadj.rc" or is_failed(row) or base is None:
            if row["essr_pct"] != "":
                problems.append(f"{where}: essr_pct {row['essr_pct']} where none is defined")
            continue
        se = float(row["se"])
        ratio = base * base / (se * se)
        expected = 100.0 * (ratio - 1.0)
        # printing error of the two SEs, squared, doubled for safety
        tol = 100.0 * ratio * 8.0 * PRINTED_REL
        if row["essr_pct"] == "" or not math.isclose(
                float(row["essr_pct"]), expected, rel_tol=1e-9, abs_tol=tol):
            problems.append(f"{where}: essr_pct {row['essr_pct']!r}, expected {expected!r}")
    return problems


def check_wald(raw: list[dict]) -> list[str]:
    problems = []
    for row in raw:
        if row["method_id"] not in WALD_METHODS or is_failed(row):
            continue
        z = abs(float(row["estimate"]) / float(row["se"]))
        if abs(z - Z975) < 1e-7:
            continue  # within rounding of the boundary
        if int(row["reject"]) != int(z > Z975):
            problems.append(
                f"(d) {row['scenario_id']} rep {row['replicate']} {row['method_id']} "
                f"[{row['covset']}]: reject {row['reject']} with |z| = {z:.6f}"
            )
    return problems


# ---------------------------------------------------------------------------
# (e) byte identity
# ---------------------------------------------------------------------------


def check_identical(path: str, reference: str, what: str) -> list[str]:
    with open(path, "rb") as a, open(reference, "rb") as b:
        if a.read() != b.read():
            return [f"(e) {path} differs from {reference} ({what})"]
    return []


# ---------------------------------------------------------------------------
# MAP reference: exact normal mixture, no theta grid
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes for the tau integral on [0, TAU_SPAN * tau_scale];
# the half-normal prior beyond TAU_SPAN scales is below exp(-50).
TAU_SPAN = 10.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)


def map_reference(
    means: np.ndarray,
    ses: np.ndarray,
    tau_scale: float,
    omega: float,
    vague_mean: float,
    vague_sd: float,
    c_mean: float,
    c_se: float,
    t_mean: float,
    t_se: float,
    alpha: float = 0.05,
) -> tuple[float, float, float, float]:
    """(estimate, sd, lower, upper) of the treated-minus-control posterior.

    The MAP prior is a normal mixture over a dense Gauss-Legendre tau
    quadrature: at each tau the study-mean location integrates out under
    a flat prior, giving a normal predictive weighted by the half-normal
    prior times the profiled marginal likelihood. The vague component
    enters with weight ``omega``; each component updates conjugately with
    the concurrent controls, and the interval ends come from root-finding
    on the mixture CDF of the effect.
    """
    means = np.asarray(means, dtype=float)
    ses = np.asarray(ses, dtype=float)
    if tau_scale == 0.0:
        taus = np.zeros(1)
        log_w = np.zeros(1)
    else:
        half = 0.5 * TAU_SPAN * tau_scale
        taus = half * (_GL_X + 1.0)
        log_w = np.log(_GL_W * half) - 0.5 * (taus / tau_scale) ** 2
    v = ses[None, :] ** 2 + taus[:, None] ** 2
    prec = 1.0 / v
    pressum = prec.sum(axis=1)
    mu_hat = (means[None, :] * prec).sum(axis=1) / pressum
    quad = ((means[None, :] - mu_hat[:, None]) ** 2 * prec).sum(axis=1)
    log_w = log_w - 0.5 * (np.log(v).sum(axis=1) + np.log(pressum) + quad)
    w = np.exp(log_w - log_w.max())
    w = (1.0 - omega) * w / w.sum()

    comp_mean = np.append(mu_hat, vague_mean)
    comp_var = np.append(1.0 / pressum + taus**2, vague_sd**2)
    comp_w = np.append(w, omega)

    # conjugate update of every component with the concurrent controls
    marg_var = comp_var + c_se**2
    log_like = -0.5 * (c_mean - comp_mean) ** 2 / marg_var - 0.5 * np.log(marg_var)
    keep = comp_w > 0
    log_post = np.full(comp_w.shape, -np.inf)
    log_post[keep] = np.log(comp_w[keep]) + log_like[keep]
    post_w = np.exp(log_post - log_post.max())
    post_w /= post_w.sum()
    post_var = 1.0 / (1.0 / comp_var + 1.0 / c_se**2)
    post_mean = post_var * (comp_mean / comp_var + c_mean / c_se**2)

    eff_mean = t_mean - post_mean
    eff_var = post_var + t_se**2
    est = float(post_w @ eff_mean)
    sd = math.sqrt(float(post_w @ (eff_var + (eff_mean - est) ** 2)))
    eff_sd = np.sqrt(eff_var)

    def cdf(d: float) -> float:
        return float(post_w @ ndtr((d - eff_mean) / eff_sd))

    lo_b, hi_b = est - 40.0 * sd, est + 40.0 * sd
    lower = brentq(lambda d: cdf(d) - alpha / 2.0, lo_b, hi_b, xtol=1e-14 * sd, rtol=1e-15)
    upper = brentq(lambda d: cdf(d) - (1.0 - alpha / 2.0), lo_b, hi_b, xtol=1e-14 * sd, rtol=1e-15)
    return est, sd, lower, upper


def _mean_se(y: np.ndarray) -> tuple[float, float]:
    return float(y.mean()), float(y.std(ddof=1) / math.sqrt(y.size))


def map_row_reference(ds, hyperparam: str) -> tuple[float, float, float, float]:
    """Reference for one plain ``MAP`` row, e.g. ``omega=0.5,tau=XS``."""
    opts = dict(part.split("=", 1) for part in hyperparam.split(","))
    omega = float(opts["omega"])
    red = ds.reduced_concurrent
    t_mean, t_se = _mean_se(red.y[red.z == 1])
    c_mean, c_se = _mean_se(red.y[red.z == 0])
    studies = [_mean_se(pool.y) for pool in ds.historical]
    means = np.array([m for m, _ in studies])
    ses = np.array([s for _, s in studies])
    if "tau" in opts:
        scale = ses[0] if means.size == 1 else float(np.std(means, ddof=1))
        tau_scale = TAU_LADDER[opts["tau"]] * scale
    elif means.size == 1:
        tau_scale = SINGLE_POOL_TAU_MULT * ses[0]
    else:
        tau_scale = TAU_LADDER["M"] * float(np.std(means, ddof=1))
    prec = 1.0 / ses**2
    vague_mean = float((means * prec).sum() / prec.sum())
    vague_sd = float(np.std(np.concatenate([p.y for p in ds.historical]), ddof=1))
    return map_reference(means, ses, tau_scale, omega, vague_mean, vague_sd,
                         c_mean, c_se, t_mean, t_se)


def check_map_reference(raw: list[dict], datasets: Datasets) -> tuple[list[str], dict]:
    """Compare every plain ``MAP`` row with :func:`map_row_reference`.

    Returns the problems and the largest deviations seen, in SD units.
    """
    problems = []
    worst = {"rows": 0, "estimate_sd": 0.0, "se_sd": 0.0}
    for row in raw:
        if row["method_id"] != "MAP":
            continue
        where = f"MAP {row['scenario_id']} rep {row['replicate']} {row['hyperparam']}"
        if is_failed(row):
            problems.append(f"{where}: failed row")
            continue
        ds = datasets.get(row["scenario_id"], int(row["replicate"]))
        est, sd, lower, upper = map_row_reference(ds, row["hyperparam"])
        d_est = abs(float(row["estimate"]) - est) / sd
        d_se = abs(float(row["se"]) - sd) / sd
        worst["rows"] += 1
        worst["estimate_sd"] = max(worst["estimate_sd"], d_est)
        worst["se_sd"] = max(worst["se_sd"], d_se)
        if d_est > MAP_TOL_SD or d_se > MAP_TOL_SD:
            problems.append(f"{where}: estimate/se off the reference by "
                            f"{d_est:.2e}/{d_se:.2e} SD ({est!r}, {sd!r})")
        decided = min(abs(lower), abs(upper)) > MAP_TOL_SD * sd
        if decided and int(row["reject"]) != int(lower > 0 or upper < 0):
            problems.append(f"{where}: reject {row['reject']} against the reference "
                            f"interval ({lower:.6f}, {upper:.6f})")
    return problems, worst


# ---------------------------------------------------------------------------
# All checks on one run's outputs
# ---------------------------------------------------------------------------


def check_outputs(out_dir: str, config_path: str, master_seed: int,
                  map_check: bool) -> tuple[list[str], dict]:
    """Checks (a)-(d), plus the MAP reference when ``map_check``; returns
    the problems and a small report (rows, failed rows, MAP deviations)."""
    scenarios = load_scenarios(config_path)
    thetas = {sid: s["theta"] for sid, s in scenarios.items()}
    _, raw = read_csv(f"{out_dir}/raw.csv")
    _, summary = read_csv(f"{out_dir}/summary.csv")
    datasets = Datasets(scenarios, master_seed)
    problems = (check_summary(raw, summary, thetas) + check_unadjusted(raw, datasets)
                + check_essr(raw) + check_wald(raw))
    report = {"rows": len(raw), "failed_rows": sum(is_failed(r) for r in raw)}
    if map_check:
        map_problems, worst = check_map_reference(raw, datasets)
        problems += map_problems
        report["map_reference"] = worst
        if not worst["rows"]:
            problems.append("MAP reference: raw.csv has no MAP rows")
    return problems, report
