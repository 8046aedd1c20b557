"""Historical borrowing via meta-analytic predictive and power priors.

The meta-analytic predictive (MAP) prior for the concurrent control
mean comes from a normal hierarchy over historical study means with a
half-normal prior on the between-study SD tau. Everything is done by
deterministic quadrature: the study-mean location integrates out
analytically under a flat prior and tau is integrated by quadrature,
so the predictive prior is an exact normal mixture with one component
per tau node. Robustification appends a unit-information vague normal
component with weight omega, the concurrent-control update is conjugate
per component (each reweighted by its marginal likelihood), and the
treatment-effect posterior convolves each component with the normal
treated-arm likelihood in closed form; credible-interval ends come from
Newton's method on the mixture CDF.

Power-prior borrowing discounts the historical likelihood precision by
a factor alpha; the stratified variants split the pooled sample by
concurrent propensity-score quantiles and borrow a fixed total number
of effective historical subjects spread over strata in proportion to
their historical counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .metrics import ALPHA, EffectEstimate, wald_estimate
from .propensity import DEFAULT_N_STRATA, MatchSet, PsFit, stratify
from .trialdata import TrialDataset

__all__ = [
    "NormalMixture",
    "StudySummary",
    "MapConfig",
    "SINGLE_POOL_TAU_MULT",
    "TAU_LADDER",
    "map_prior",
    "robustify",
    "posterior_update",
    "effect_posterior",
    "power_prior_update",
    "estimate_map",
    "estimate_psm_map",
    "estimate_psw_map",
    "estimate_pss_pp",
    "estimate_pss_cl",
]

# Between-study SD ladder: multiples of the empirical scale. The
# empirical scale is the sample SD of the study means (k >= 2) or the
# single study's standard error (k = 1).
TAU_LADDER = {"L": 10.0, "M": 1.0, "S": 0.1, "XS": 0.01}

# Label-less default for a single historical pool, as a fraction of that
# pool's standard error (see _resolve_tau_scale).
SINGLE_POOL_TAU_MULT = 0.25

# Quadrature nodes over the between-study SD tau in map_prior.
N_TAU = 201


# ---------------------------------------------------------------------------
# Normal mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalMixture:
    """Finite mixture of normals: aligned weights, means and SDs."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self) -> None:
        w, m, s = self.weights, self.means, self.sds
        if w.ndim != 1 or w.size < 1 or m.shape != w.shape or s.shape != w.shape:
            raise ValueError("weights, means and sds must be 1-d arrays of equal length >= 1")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s)) and np.all(s > 0)):
            raise ValueError("component means must be finite and SDs positive")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to 1")

    @staticmethod
    def normal(mean: float, sd: float) -> "NormalMixture":
        return NormalMixture(np.ones(1), np.array([float(mean)]), np.array([float(sd)]))

    def mean(self) -> float:
        return float(self.weights @ self.means)

    def var(self) -> float:
        mu = self.mean()
        return float(self.weights @ (self.sds**2 + (self.means - mu) ** 2))

    def sd(self) -> float:
        return math.sqrt(max(self.var(), 0.0))


# ---------------------------------------------------------------------------
# Study summaries and MAP configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudySummary:
    """Mean and standard error of one historical study."""

    mean: float
    se: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.se) and self.se > 0):
            raise ValueError("study summary needs a finite mean and positive se")


@dataclass(frozen=True)
class MapConfig:
    """Hyperparameters of the robust MAP pipeline.

    ``omega`` is the vague-component weight (1 disables borrowing).
    ``tau_scale`` fixes the half-normal scale directly; when None it is
    the empirical scale times the ladder multiplier for
    ``tau_ladder_label``. The vague component sits at the
    precision-weighted pooled study mean with the unit-information SD
    (pooled historical outcome SD).
    """

    omega: float
    tau_scale: float | None = None
    tau_ladder_label: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must lie in [0, 1]")
        if self.tau_scale is not None and self.tau_scale < 0:
            raise ValueError("tau_scale must be non-negative")
        if self.tau_ladder_label is not None and self.tau_ladder_label not in TAU_LADDER:
            raise ValueError(f"unknown tau ladder label {self.tau_ladder_label!r}")


def empirical_tau_scale(studies: list[StudySummary]) -> float:
    """Data-driven tau scale: SD of study means, or the single study SE."""
    if not studies:
        raise ValueError("need at least one study")
    if len(studies) == 1:
        return studies[0].se
    return float(np.std([s.mean for s in studies], ddof=1))


# ---------------------------------------------------------------------------
# MAP prior construction
# ---------------------------------------------------------------------------


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    return w


def map_prior(studies: list[StudySummary], tau_scale: float) -> NormalMixture:
    """Meta-analytic predictive prior for a new study mean.

    For each tau on an ``N_TAU``-node grid the location parameter
    integrates out under a flat prior, giving a normal predictive with
    the profiled marginal likelihood of tau; the half-normal(tau_scale) prior then weights the
    tau grid, so the prior is a normal mixture with one component per
    tau node. ``tau_scale = 0`` collapses to fixed-effect pooling.
    """
    if tau_scale < 0 or not np.isfinite(tau_scale):
        raise ValueError("tau_scale must be finite and non-negative")
    means = np.array([s.mean for s in studies], dtype=float)
    ses = np.array([s.se for s in studies], dtype=float)
    if means.size == 0:
        raise ValueError("need at least one study")

    if tau_scale == 0.0:
        taus = np.zeros(1)
        log_w = np.zeros(1)
    else:
        taus = np.concatenate(
            [[0.0], np.geomspace(tau_scale * 1e-3, tau_scale * 10.0, N_TAU - 1)]
        )
        # half-normal prior density and trapezoid quadrature in tau
        log_w = -0.5 * (taus / tau_scale) ** 2 + np.log(_trapezoid_weights(taus))

    v = ses[None, :] ** 2 + taus[:, None] ** 2  # (tau nodes, k)
    prec = 1.0 / v
    pressum = prec.sum(axis=1)
    mu_hat = (means[None, :] * prec).sum(axis=1) / pressum
    v_mu = 1.0 / pressum
    if means.size > 1:
        quad = ((means[None, :] - mu_hat[:, None]) ** 2 * prec).sum(axis=1)
        log_w = log_w - 0.5 * (np.log(v).sum(axis=1) + np.log(pressum) + quad)
    w_tau = np.exp(log_w - log_w.max())
    return NormalMixture(w_tau / w_tau.sum(), mu_hat, np.sqrt(v_mu + taus**2))


def robustify(prior: NormalMixture, omega: float, mean: float, sd: float) -> NormalMixture:
    """Append a vague normal component N(``mean``, ``sd``) with weight ``omega``."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    return NormalMixture(
        np.append((1.0 - omega) * prior.weights, omega),
        np.append(prior.means, mean),
        np.append(prior.sds, sd),
    )


def posterior_update(prior: NormalMixture, data_mean: float, data_se: float) -> NormalMixture:
    """Conjugate normal update of every component.

    Each component is reweighted by its marginal likelihood of the data,
    N(data_mean; m_k, s_k^2 + data_se^2).
    """
    if not (np.isfinite(data_mean) and np.isfinite(data_se) and data_se > 0):
        raise ValueError("need a finite data mean and positive se")
    var = prior.sds**2
    marg_var = var + data_se**2
    with np.errstate(divide="ignore"):
        log_w = (
            np.log(prior.weights)
            - 0.5 * (data_mean - prior.means) ** 2 / marg_var
            - 0.5 * np.log(marg_var)
        )
    w = np.exp(log_w - log_w.max())
    post_var = var * data_se**2 / marg_var
    post_mean = (prior.means * data_se**2 + data_mean * var) / marg_var
    return NormalMixture(w / w.sum(), post_mean, np.sqrt(post_var))


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _mixture_quantile(
    w: np.ndarray, mu: np.ndarray, sd: np.ndarray, q: float, mean: float, total_sd: float
) -> float:
    """The q-quantile of a normal mixture by bracketed Newton on its CDF.

    Cantelli's inequality puts the quantile within k total SDs of the
    mean, k = sqrt(1/min(q, 1-q) - 1), which gives the starting bracket;
    the mixture density is the derivative, and a Newton step that leaves
    the bracket is replaced by bisection.
    """
    k = math.sqrt(1.0 / min(q, 1.0 - q) - 1.0)
    lo, hi = mean - k * total_sd, mean + k * total_sd
    x = mean + float(ndtri(q)) * total_sd
    tol = 1e-12 * total_sd
    for _ in range(100):
        z = (x - mu) / sd
        f = float(w @ ndtr(z)) - q
        if f < 0.0:
            lo = x
        else:
            hi = x
        dens = float(w @ (np.exp(-0.5 * z * z) / sd)) * _INV_SQRT_2PI
        step = f / dens if dens > 0.0 else math.inf
        if abs(step) < tol:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if hi - lo < tol:
                return x
    return x


def effect_posterior(
    control_posterior: NormalMixture,
    treated_mean: float,
    treated_se: float,
    alpha: float = ALPHA,
) -> EffectEstimate:
    """Posterior of treated mean minus control mean.

    The treated arm contributes an exact normal, so the difference is a
    normal mixture with one component per control component: moments are
    exact and each end of the central credible interval is a quantile of
    the mixture (:func:`_mixture_quantile`). Rejection means the interval
    excludes zero.
    """
    if treated_se <= 0 or not np.isfinite(treated_se):
        raise ValueError("treated se must be positive and finite")
    est = treated_mean - control_posterior.mean()
    sd = math.sqrt(treated_se**2 + control_posterior.var())

    w = control_posterior.weights
    mu = treated_mean - control_posterior.means
    comp_sd = np.sqrt(control_posterior.sds**2 + treated_se**2)
    lo_q = _mixture_quantile(w, mu, comp_sd, alpha / 2.0, est, sd)
    hi_q = _mixture_quantile(w, mu, comp_sd, 1.0 - alpha / 2.0, est, sd)
    return EffectEstimate(
        estimate=est,
        se=sd,
        reject=bool(lo_q > 0.0 or hi_q < 0.0),
        interval=(lo_q, hi_q),
    )


def power_prior_update(
    prior_mean: float,
    prior_se: float,
    ext_mean: float,
    ext_se: float,
    alpha_discount: float,
) -> tuple[float, float]:
    """Normal power-prior update: external precision discounted by alpha."""
    if not 0.0 <= alpha_discount <= 1.0:
        raise ValueError("alpha_discount must lie in [0, 1]")
    if ext_se <= 0:
        raise ValueError("external se must be positive")
    if not 0.0 < prior_se <= math.inf:
        raise ValueError("prior se must be positive (math.inf for a flat prior)")
    if alpha_discount == 0.0:
        return float(prior_mean), float(prior_se)
    p0 = 0.0 if math.isinf(prior_se) else 1.0 / (prior_se * prior_se)
    pe = alpha_discount / (ext_se * ext_se)
    prec = p0 + pe
    mean = (p0 * prior_mean + pe * ext_mean) / prec
    return float(mean), float(math.sqrt(1.0 / prec))


# ---------------------------------------------------------------------------
# MAP-family estimators
# ---------------------------------------------------------------------------


def _mean_se(y: np.ndarray) -> tuple[float, float]:
    n = y.size
    if n < 2:
        raise ValueError("need at least two observations for a mean and se")
    return float(y.mean()), float(y.std(ddof=1) / math.sqrt(n))


def _pooled_mean(studies: list[StudySummary]) -> float:
    prec = np.array([1.0 / (s.se * s.se) for s in studies])
    means = np.array([s.mean for s in studies])
    return float((means * prec).sum() / prec.sum())


def _resolve_tau_scale(cfg: MapConfig, studies: list[StudySummary]) -> float:
    if cfg.tau_scale is not None:
        return float(cfg.tau_scale)
    if cfg.tau_ladder_label is None and len(studies) == 1:
        # A single pool leaves the between-study spread unidentified and
        # its standard error overstates any plausible spread, so the
        # label-less default borrows more aggressively. The multiplier
        # was calibrated once against the simulation grid and is frozen.
        return SINGLE_POOL_TAU_MULT * studies[0].se
    return TAU_LADDER[cfg.tau_ladder_label or "M"] * empirical_tau_scale(studies)


def estimate_map(
    dataset: TrialDataset,
    cfg: MapConfig,
    studies: list[StudySummary] | None = None,
    extra_flags: tuple[str, ...] = (),
) -> EffectEstimate:
    """Robust MAP borrowing for the concurrent control arm.

    Historical pools enter as study summaries (mean, sd/sqrt(n)); the
    MAP prior is robustified with weight omega, updated with the reduced
    concurrent control arm, and contrasted against the treated arm.
    Callers may inject their own ``studies`` (matched or weighted
    summaries); an empty list forces omega = 1, i.e. no borrowing beyond
    the vague component.
    """
    red = dataset.reduced_concurrent
    t_mean, t_se = _mean_se(red.y[red.z == 1])
    c_mean, c_se = _mean_se(red.y[red.z == 0])
    unit_sd = float(np.std(dataset.pooled.y[len(red):], ddof=1))

    flags = list(extra_flags)
    if studies is None:
        studies = [StudySummary(*_mean_se(pool.y)) for pool in dataset.historical]

    omega = cfg.omega
    if not studies:
        omega = 1.0
        flags.append("map:no_studies_forced_omega1")
        prior = NormalMixture.normal(c_mean, unit_sd)
        tau_scale = 0.0
        prior_raw_sd = unit_sd
    else:
        tau_scale = _resolve_tau_scale(cfg, studies)
        raw_prior = map_prior(studies, tau_scale)
        prior_raw_sd = raw_prior.sd()
        prior = robustify(raw_prior, omega, _pooled_mean(studies), unit_sd)

    posterior = posterior_update(prior, c_mean, c_se)
    est = effect_posterior(posterior, t_mean, t_se)
    prior_var = prior.var()
    est.flags = tuple(flags)
    est.diagnostics = {
        "tau_scale": tau_scale,
        "prior_sd": math.sqrt(prior_var),
        "prior_ess": (unit_sd * unit_sd) / prior_var if prior_var > 0 else float("inf"),
        "prior_map_sd": prior_raw_sd,
        "control_post_sd": posterior.sd(),
        "n_studies": float(len(studies)),
    }
    return est


def matched_study_summary(
    matchset: MatchSet, psfit: PsFit
) -> StudySummary | None:
    """Mean and cluster-aware SE of a matched historical multiset.

    Re-used subjects count once per pair in the mean; the SE treats each
    unique subject as a cluster, so duplication widens rather than
    shrinks it. Returns None when fewer than two distinct subjects are
    matched.
    """
    uniq, counts = np.unique(matchset.hist_rows, return_counts=True)
    u = uniq.size
    if u < 2:
        return None
    y_u = psfit.sample.y[uniq]
    m = counts.sum()
    mean = float((counts * y_u).sum() / m)
    # u/(u-1) degrees-of-freedom factor: with every subject matched once
    # this reduces exactly to the plain ddof-1 standard error
    se = float(np.sqrt(((counts * (y_u - mean)) ** 2).sum() * u / (u - 1)) / m)
    if se <= 0:
        return None
    return StudySummary(mean=mean, se=se)


def weighted_study_summary(
    y: np.ndarray, weights: np.ndarray
) -> StudySummary | None:
    """Weighted mean and robust SE of one pool's retained subjects."""
    keep = weights > 0
    if keep.sum() < 2:
        return None
    y = y[keep]
    w = weights[keep]
    total = w.sum()
    mean = float((w * y).sum() / total)
    n_eff = total * total / (w * w).sum()
    if n_eff <= 1:
        return None
    # n_eff/(n_eff-1) degrees-of-freedom factor: with unit weights this
    # reduces exactly to the plain ddof-1 standard error
    se = float(np.sqrt((w * w * (y - mean) ** 2).sum() * n_eff / (n_eff - 1)) / total)
    if se <= 0:
        return None
    return StudySummary(mean=mean, se=se)


def estimate_psm_map(
    dataset: TrialDataset, cfg: MapConfig, psfit: PsFit, matchsets: list[MatchSet]
) -> EffectEstimate:
    """MAP borrowing from per-trial matched historical summaries.

    ``matchsets[j - 1]`` matches historical pool j separately against all
    reduced concurrent subjects; pools with under two distinct matches
    are dropped (flagged), and if every pool drops out omega is forced
    to 1.
    """
    flags = []
    studies = []
    for j, ms in enumerate(matchsets, start=1):
        summary = matched_study_summary(ms, psfit)
        if summary is None:
            flags.append(f"psm_map:pool{j}_unmatched_dropped")
        else:
            studies.append(summary)
    return estimate_map(dataset, cfg, studies=studies, extra_flags=tuple(flags))


def estimate_psw_map(
    dataset: TrialDataset, cfg: MapConfig, psfit: PsFit, weights: np.ndarray
) -> EffectEstimate:
    """MAP borrowing from per-trial weighted historical summaries."""
    sample = psfit.sample
    flags = []
    studies = []
    for j in range(1, dataset.k_historical + 1):
        mask = sample.trial == j
        summary = weighted_study_summary(sample.y[mask], weights[mask])
        if summary is None:
            flags.append(f"psw_map:pool{j}_trimmed_dropped")
        else:
            studies.append(summary)
    return estimate_map(dataset, cfg, studies=studies, extra_flags=tuple(flags))


# ---------------------------------------------------------------------------
# Stratified power-prior estimators
# ---------------------------------------------------------------------------


@dataclass
class _Stratum:
    t_y: np.ndarray
    c_y: np.ndarray
    h_y: np.ndarray
    n_conc: int


def _build_strata(
    dataset: TrialDataset, psfit: PsFit, n_strata: int
) -> tuple[list[_Stratum], list[str]]:
    labels = stratify(psfit, n_strata=n_strata)
    sample = psfit.sample
    conc = sample.trial == 0
    flags: list[str] = []
    strata: list[_Stratum] = []
    for s in range(n_strata):
        mask = labels == s
        t_y = sample.y[mask & conc & (sample.z == 1)]
        c_y = sample.y[mask & conc & (sample.z == 0)]
        h_y = sample.y[mask & ~conc]
        strata.append(_Stratum(t_y=t_y, c_y=c_y, h_y=h_y, n_conc=int((mask & conc).sum())))

    def invalid(st: _Stratum) -> bool:
        return st.t_y.size < 2 or st.c_y.size < 2

    merged = True
    while merged and len(strata) > 1:
        merged = False
        for i, st in enumerate(strata):
            if invalid(st):
                j = i - 1 if i > 0 else i + 1
                nb = strata[j]
                strata[j] = _Stratum(
                    t_y=np.concatenate([nb.t_y, st.t_y]),
                    c_y=np.concatenate([nb.c_y, st.c_y]),
                    h_y=np.concatenate([nb.h_y, st.h_y]),
                    n_conc=nb.n_conc + st.n_conc,
                )
                del strata[i]
                flags.append(f"pss:merged_stratum_{i}")
                merged = True
                break
    if len(strata) == 1 and invalid(strata[0]):
        raise ValueError("cannot form any stratum with both concurrent arms populated")
    return strata, flags


def _default_total_borrow(dataset: TrialDataset) -> float:
    red = dataset.reduced_concurrent
    return float(max(int(red.z.sum()) - int((red.z == 0).sum()), 0))


def estimate_pss_pp(
    dataset: TrialDataset,
    psfit: PsFit,
    n_strata: int = DEFAULT_N_STRATA,
    total_borrow: float | None = None,
) -> EffectEstimate:
    """Stratified power-prior borrowing.

    ``total_borrow`` effective historical subjects (default: the number
    needed to restore 1:1 in the reduced concurrent trial) are allocated
    across strata proportionally to historical stratum counts. The
    discount allocated / available is therefore the same in every
    stratum with at least two historical subjects:
    alpha = min(1, total_borrow / n_hist), n_hist the historical
    subjects inside the concurrent score range; other strata get 0. Each
    stratum updates its concurrent-control likelihood with the
    discounted historical likelihood; stratum effects are combined with
    concurrent-share weights and their variances with squared weights.
    """
    if total_borrow is None:
        total_borrow = _default_total_borrow(dataset)
    if total_borrow < 0:
        raise ValueError("total_borrow must be non-negative")
    strata, flags = _build_strata(dataset, psfit, n_strata)
    n_hist_total = sum(st.h_y.size for st in strata)
    n_conc_total = sum(st.n_conc for st in strata)

    effects = []
    variances = []
    weights = []
    alphas = []
    for st in strata:
        t_mean, t_se = _mean_se(st.t_y)
        c_mean, c_se = _mean_se(st.c_y)
        if st.h_y.size >= 2 and n_hist_total > 0 and total_borrow > 0:
            h_mean, h_se = _mean_se(st.h_y)
            allocated = total_borrow * st.h_y.size / n_hist_total
            a_s = min(1.0, allocated / st.h_y.size)
        else:
            h_mean, h_se, a_s = 0.0, 1.0, 0.0
        p_mean, p_se = power_prior_update(c_mean, c_se, h_mean, h_se, a_s)
        effects.append(t_mean - p_mean)
        variances.append(t_se * t_se + p_se * p_se)
        weights.append(st.n_conc / n_conc_total)
        alphas.append(a_s)

    w = np.asarray(weights)
    est = float(w @ np.asarray(effects))
    se = math.sqrt(float((w * w) @ np.asarray(variances)))
    return wald_estimate(
        est, se, flags=tuple(flags),
        diagnostics={
            "total_borrow": float(total_borrow),
            "n_strata_effective": float(len(strata)),
            "mean_alpha": float(np.mean(alphas)),
        },
    )


def estimate_pss_cl(
    dataset: TrialDataset,
    psfit: PsFit,
    n_strata: int = DEFAULT_N_STRATA,
    total_borrow: float | None = None,
) -> EffectEstimate:
    """Stratified composite-likelihood borrowing.

    Per stratum the control estimate is the count-weighted mean of
    concurrent and discounted historical controls with standard error
    sigma_s / sqrt(n_cs + eta * n_hs), sigma_s the pooled within-
    stratum control SD. ``total_borrow`` is allocated as in
    :func:`estimate_pss_pp`, so the discount eta = min(1, total_borrow /
    n_hist) is the same in every stratum with at least two historical
    subjects (0 in the others). The overall variance combines stratum
    variances with linear (not squared) concurrent-share weights, which
    is what makes the method markedly conservative.
    """
    if total_borrow is None:
        total_borrow = _default_total_borrow(dataset)
    if total_borrow < 0:
        raise ValueError("total_borrow must be non-negative")
    strata, flags = _build_strata(dataset, psfit, n_strata)
    n_hist_total = sum(st.h_y.size for st in strata)
    n_conc_total = sum(st.n_conc for st in strata)

    effects = []
    variances = []
    weights = []
    for st in strata:
        t_mean, t_se = _mean_se(st.t_y)
        n_c = st.c_y.size
        n_h = st.h_y.size
        c_mean = float(st.c_y.mean())
        if n_h >= 2 and n_hist_total > 0 and total_borrow > 0:
            allocated = total_borrow * n_h / n_hist_total
            eta = min(1.0, allocated / n_h)
            h_mean = float(st.h_y.mean())
            ss = float(((st.c_y - c_mean) ** 2).sum() + ((st.h_y - h_mean) ** 2).sum())
            sigma = math.sqrt(ss / (n_c + n_h - 2))
        else:
            eta, h_mean = 0.0, 0.0
            sigma = float(st.c_y.std(ddof=1))
        denom = n_c + eta * n_h
        ctrl_est = (n_c * c_mean + eta * n_h * h_mean) / denom
        ctrl_se = sigma / math.sqrt(denom)
        effects.append(t_mean - ctrl_est)
        variances.append(t_se * t_se + ctrl_se * ctrl_se)
        weights.append(st.n_conc / n_conc_total)

    w = np.asarray(weights)
    est = float(w @ np.asarray(effects))
    se = math.sqrt(float(w @ np.asarray(variances)))
    return wald_estimate(
        est, se, flags=tuple(flags),
        diagnostics={
            "total_borrow": float(total_borrow),
            "n_strata_effective": float(len(strata)),
        },
    )
