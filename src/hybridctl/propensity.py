"""Propensity-score machinery: fitting, matching, weighting, stratification.

The score models membership in the concurrent trial against all pooled
historical controls, fit on the reduced concurrent arm plus every
historical pool. Downstream estimators either match historical controls
to concurrent subjects (1:1 nearest neighbor with replacement under a
caliper), reweight them by the odds ps/(1-ps) with symmetric trimming,
or stratify the pooled sample by concurrent-score quantiles.

The settings are fixed, as in the simulation study: a caliper of
``CALIPER_MULT`` = 0.2 SD of the pooled score (Austin 2011, Pharm. Stat.
10:150), trimming of odds weights outside ``WEIGHT_BOUNDS`` = [0.05, 20],
and ``N_STRATA`` = 5 score strata (Rosenbaum & Rubin 1984, JASA 79:516).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import EffectEstimate, wald_estimate
from .regress import arm_contrast, fit_logistic
from .trialdata import SubjectGroup, TrialDataset

__all__ = [
    "COVSETS",
    "covset_columns",
    "PsFit",
    "MatchSet",
    "estimate_ps",
    "match_nearest",
    "ipw_weights",
    "stratify",
    "unadjusted_effect",
    "estimate_psm",
    "estimate_psw",
]

COVSETS = (1, 2, 3)

CALIPER_MULT = 0.2
WEIGHT_BOUNDS = (0.05, 20.0)
N_STRATA = 5


def covset_columns(covset: int, n_cols: int) -> tuple[int, ...]:
    """Column indices for a covariate-set id.

    Set 1 uses every covariate, set 2 drops x4, set 3 keeps only
    x1..x3. Sets 2 and 3 model progressively less of the selection
    mechanism and are how misspecification enters the simulations.
    """
    if covset == 1:
        return tuple(range(n_cols))
    if covset == 2:
        if n_cols < 4:
            raise ValueError("covariate set 2 (drop x4) needs at least four covariates")
        return tuple(j for j in range(n_cols) if j != 3)
    if covset == 3:
        if n_cols < 3:
            raise ValueError("covariate set 3 (keep x1..x3) needs at least three covariates")
        return (0, 1, 2)
    raise ValueError(f"unknown covariate set {covset!r} (expected 1, 2 or 3)")


@dataclass
class PsFit:
    """Fitted propensity scores on the pooled analysis sample.

    ``sample`` is the dataset's ``pooled`` sample (the reduced
    concurrent trial, then every historical pool) and ``ps`` aligns with
    its rows.
    """

    sample: SubjectGroup
    ps: np.ndarray

    @property
    def is_concurrent(self) -> np.ndarray:
        return self.sample.trial == 0


@dataclass(frozen=True)
class MatchSet:
    """Matched pairs as aligned sample rows: concurrent and historical."""

    conc_rows: np.ndarray
    hist_rows: np.ndarray
    caliper: float


def estimate_ps(dataset: TrialDataset, covset: int) -> PsFit:
    """Fit the concurrent-membership logistic model on the pooled sample."""
    pooled = dataset.pooled
    cols = covset_columns(covset, pooled.x.shape[1])
    X = np.column_stack([np.ones(len(pooled)), pooled.x[:, cols]])
    return PsFit(sample=pooled, ps=fit_logistic(X, (pooled.trial == 0).astype(float))[1])


def match_nearest(
    psfit: PsFit, historical_rows: np.ndarray, rng: np.random.Generator | None = None
) -> MatchSet:
    """1:1 nearest-neighbor matching with replacement under a caliper.

    Every concurrent row of the sample is matched to the candidate among
    ``historical_rows`` with the closest propensity score; pairs farther
    apart than the caliper (``CALIPER_MULT`` times the pooled-score SD)
    are discarded and the subject left unmatched. Distance ties go to the
    candidate drawn earliest in a seeded shuffle, which makes reruns
    reproducible.
    """
    caliper = CALIPER_MULT * float(np.std(psfit.ps, ddof=1))

    c_rows = np.flatnonzero(psfit.is_concurrent)
    h_rows = np.asarray(historical_rows, dtype=np.intp)
    if h_rows.size == 0:
        return MatchSet(c_rows[:0], h_rows, caliper)
    ps_c = psfit.ps[c_rows]

    shuffled = h_rows[rng.permutation(h_rows.size)] if rng is not None else h_rows
    sort_in_shuffled = np.argsort(psfit.ps[shuffled], kind="stable")
    sorted_rows = shuffled[sort_in_shuffled]
    sorted_ps = psfit.ps[sorted_rows]
    priority = sort_in_shuffled  # position in the shuffle; lower wins ties

    m = sorted_ps.size
    j = np.searchsorted(sorted_ps, ps_c)
    left = np.clip(j - 1, 0, m - 1)
    right = np.clip(j, 0, m - 1)
    dist_left = np.where(j > 0, np.abs(ps_c - sorted_ps[left]), np.inf)
    dist_right = np.where(j < m, np.abs(sorted_ps[right] - ps_c), np.inf)

    # each neighbour's run of equal scores is represented by its head, the
    # first of the run in the stable sort and so the best priority; the
    # right neighbour, the first score >= ps_c, is one already
    rep_left = np.searchsorted(sorted_ps, sorted_ps[left])
    rep_right = right
    take_right = (dist_right < dist_left) | (
        (dist_right == dist_left) & (priority[rep_right] < priority[rep_left])
    )
    chosen = np.where(take_right, rep_right, rep_left)
    within = np.where(take_right, dist_right, dist_left) <= caliper
    return MatchSet(c_rows[within], sorted_rows[chosen[within]], caliper)


def ipw_weights(psfit: PsFit) -> np.ndarray:
    """Odds weights ps/(1-ps) for historical rows, 1 for concurrent rows.

    Historical weights falling outside ``WEIGHT_BOUNDS`` are trimmed (set
    to zero), which drops score regions with essentially no concurrent
    support on either side. Every other weight is at least the lower
    bound, so a historical row is trimmed exactly when its weight is 0.
    """
    lo, hi = WEIGHT_BOUNDS
    conc = psfit.is_concurrent
    with np.errstate(divide="ignore", over="ignore"):
        odds = psfit.ps / (1.0 - psfit.ps)
    weights = np.where(conc, 1.0, odds)
    weights[~conc & ((odds < lo) | (odds > hi) | ~np.isfinite(odds))] = 0.0
    return weights


def stratify(psfit: PsFit) -> np.ndarray:
    """Assign every pooled subject one of ``N_STRATA`` strata by
    concurrent-score quantiles.

    Cut points are the 1/n .. (n-1)/n quantiles of the concurrent
    subjects' scores, so concurrent subjects split evenly. Historical
    subjects outside the concurrent score range get label -1 (excluded).
    """
    conc_mask = psfit.is_concurrent
    conc_ps = psfit.ps[conc_mask]
    n_distinct = np.unique(conc_ps).size
    if n_distinct < N_STRATA:
        raise ValueError(f"only {n_distinct} distinct concurrent scores for {N_STRATA} strata")
    cuts = np.quantile(conc_ps, np.arange(1, N_STRATA) / N_STRATA)
    labels = np.searchsorted(cuts, psfit.ps, side="left").astype(int)
    outside = ~conc_mask & ((psfit.ps < conc_ps.min()) | (psfit.ps > conc_ps.max()))
    labels[outside] = -1
    return labels


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def unadjusted_effect(group: SubjectGroup) -> EffectEstimate:
    """Plain OLS of outcome on treatment within one trial, model-based SE."""
    fit = arm_contrast(group.y, group.z)
    return wald_estimate(fit.slope, float(np.sqrt(fit.var_model)))


def estimate_psm(dataset: TrialDataset, psfit: PsFit, matchset: MatchSet) -> EffectEstimate:
    """Matching estimator: OLS on the concurrent trial plus matched controls.

    Matched historical subjects enter the control arm once per pair (so
    re-used controls appear as duplicated rows). The treatment SE is
    two-way cluster-robust over matched pair x subject,
    V_pair + V_subject - V_HC0: a concurrent row shares a pair cluster
    with the historical row matched to it (their outcomes correlate
    through X), and the duplicated rows of a re-used control share a
    subject cluster (Austin & Cafri 2020, Stat. Med. 39:1623). Should
    that sum not be positive, the subject-cluster variance is used,
    flagged. Clusters are labelled by row of the pooled sample, whose
    first rows are the reduced concurrent trial, so subject ids are
    never read. With an empty match set the estimate falls back to the
    unadjusted reduced-concurrent fit, flagged.
    """
    red = dataset.reduced_concurrent
    n_pairs = matchset.hist_rows.size
    if n_pairs == 0:
        est = unadjusted_effect(red)
        est.flags = ("psm:no_matches_concurrent_only",)
        return est

    own = np.arange(len(red))
    rows = np.r_[own, matchset.hist_rows]  # a subject's row is its cluster label
    fit = arm_contrast(psfit.sample.y[rows], psfit.sample.z[rows],
                       clusters=(np.r_[own, matchset.conc_rows], rows))
    v_pair, v_subject = fit.var_clusters
    var = v_pair + v_subject - fit.var_hc0
    flags: tuple[str, ...] = ()
    if not var > 0:
        var = v_subject
        flags = ("psm:twoway_var_nonpositive",)
    return wald_estimate(
        fit.slope, float(np.sqrt(var)), flags=flags,
        diagnostics={
            "n_pairs": float(n_pairs),
            "n_unmatched": float(len(red) - n_pairs),
            "n_unique_matched": float(np.unique(matchset.hist_rows).size),
        },
    )


def estimate_psw(dataset: TrialDataset, psfit: PsFit, weights: np.ndarray) -> EffectEstimate:
    """Weighting estimator: WLS of outcome on treatment, robust SE.

    Concurrent subjects keep weight 1; retained historical controls get
    the trimmed odds weights of :func:`ipw_weights`. If trimming removes
    every historical subject the estimate falls back to the unadjusted
    reduced-concurrent fit, flagged.
    """
    sample = psfit.sample
    hist = ~psfit.is_concurrent
    keep = weights > 0
    hist_kept = int(np.sum(keep & hist))
    if hist_kept == 0:
        est = unadjusted_effect(dataset.reduced_concurrent)
        est.flags = ("psw:all_historical_trimmed_concurrent_only",)
        return est
    fit = arm_contrast(sample.y[keep], sample.z[keep], weights=weights[keep])
    return wald_estimate(
        fit.slope, float(np.sqrt(fit.var_hc0)),
        diagnostics={
            "n_hist_kept": float(hist_kept),
            "n_trimmed": float(np.sum(hist & (weights == 0))),
            "hist_weight_sum": float(np.sum(weights[hist])),
        },
    )
