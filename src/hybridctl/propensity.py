"""Propensity-score machinery: fitting, matching, weighting, stratification.

The score models membership in the concurrent trial against all pooled
historical controls, fit on the reduced concurrent arm plus every
historical pool. Downstream estimators either match historical controls
to concurrent subjects (1:1 nearest neighbor with replacement under a
caliper), reweight them by the odds ps/(1-ps) with symmetric trimming,
or stratify the pooled sample by concurrent-score quantiles.

Matching makes one pass per fit: the caliper, the concurrent scores and
one stable sort of the historical scores are computed once, and every
candidate set (all pools, or one pool) reads its rows from that sort
(numpy's default sort, redone stably only if two scores tie exactly).
The seeded shuffle that breaks distance ties is drawn only when an exact
score tie or an equidistant pair can decide a match; with continuous
covariates there are none.

The settings are fixed, as in the simulation study: a caliper of
``CALIPER_MULT`` = 0.2 SD of the pooled score (Austin 2011, Pharm. Stat.
10:150), trimming of odds weights outside ``WEIGHT_BOUNDS`` = [0.05, 20],
and ``N_STRATA`` = 5 score strata (Rosenbaum & Rubin 1984, JASA 79:516).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .metrics import EffectEstimate, wald_estimate
from .regress import arm_contrast, fit_logistic, mean_sd
from .trialdata import SubjectGroup, TrialDataset

__all__ = [
    "COVSETS",
    "covset_columns",
    "PsFit",
    "MatchSet",
    "full_rank_design",
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

    @cached_property
    def _by_score(self) -> _ByScore:
        """What every match set of this fit shares, computed once."""
        conc = self.is_concurrent
        conc_rows, hist = np.flatnonzero(conc), np.flatnonzero(~conc)
        rows = hist[np.argsort(self.ps[hist])]
        ps = self.ps[rows]
        if (ps[1:] == ps[:-1]).any():  # distinct scores have one order under any sort
            rows = hist[np.argsort(self.ps[hist], kind="stable")]
        return _ByScore(CALIPER_MULT * mean_sd(self.ps)[1], conc_rows,
                        self.ps[conc_rows], rows, ps, self.sample.trial[rows], {})


@dataclass(frozen=True)
class MatchSet:
    """Matched pairs as aligned sample rows: concurrent and historical."""

    conc_rows: np.ndarray
    hist_rows: np.ndarray
    caliper: float


@dataclass(frozen=True)
class _ByScore:
    """The caliper, the concurrent rows and their scores, and every
    historical row in one stable sort by score (equal scores by row),
    with its score and pool; ``tie_free`` holds the match sets that no
    shuffle can change, by pool (None for every pool)."""

    caliper: float
    conc_rows: np.ndarray
    conc_ps: np.ndarray
    rows: np.ndarray
    ps: np.ndarray
    trial: np.ndarray
    tie_free: dict


def full_rank_design(dataset: TrialDataset) -> bool:
    """Whether the pooled sample's design [1, x] has full column rank.

    Every covariate set's design is a column subset of it, whose smallest
    singular value is no smaller and largest no larger (interlacing), so
    under ``matrix_rank``'s tolerance a subset of a full-rank design is
    full rank too. False also where the rank cannot be computed: each
    fit then checks its own design and raises as it would alone."""
    pooled = dataset.pooled
    X = np.column_stack([np.ones(len(pooled)), pooled.x])
    try:
        return bool(np.linalg.matrix_rank(X) == X.shape[1])
    except ValueError:  # numpy.linalg.LinAlgError is one
        return False


def estimate_ps(dataset: TrialDataset, covset: int, full_rank: bool = False) -> PsFit:
    """Fit the concurrent-membership logistic model on the pooled sample.
    ``full_rank``: :func:`full_rank_design` holds for ``dataset``, so the
    fit skips the rank check of its own design."""
    pooled = dataset.pooled
    cols = covset_columns(covset, pooled.x.shape[1])
    X = np.column_stack([np.ones(len(pooled)), pooled.x[:, cols]])
    t = (pooled.trial == 0).astype(float)
    return PsFit(sample=pooled, ps=fit_logistic(X, t, check_rank=not full_rank)[1])


def match_nearest(
    psfit: PsFit, pool: int | None = None,
    rng: Callable[[], np.random.Generator] | None = None,
) -> MatchSet:
    """1:1 nearest-neighbor matching with replacement under a caliper.

    Every concurrent row of the sample is matched to the candidate with
    the closest propensity score: any historical row when ``pool`` is
    None, else a row of pool ``pool``. Pairs farther apart than the
    caliper (``CALIPER_MULT`` times the pooled-score SD) are discarded
    and the subject left unmatched.

    Distance ties go to the candidate drawn earliest in a seeded shuffle
    of the candidates in ascending row order, which makes reruns
    reproducible. ``rng`` makes that shuffle's generator and is called
    only when a tie can decide a match: an exact score tie among the
    candidates, or a concurrent score equidistant from its two
    neighbors. Without ``rng`` the lowest row wins a tie. A set no
    shuffle can change is kept on the fit and served to every later
    call for the same candidates.
    """
    byscore = psfit._by_score
    rows, scores, key = byscore.rows, byscore.ps, None
    if pool is not None:
        keep = byscore.trial == pool
        if not keep.all():  # with a single pool, pool 1 is every pool
            rows, scores, key = rows[keep], scores[keep], pool
    if key in byscore.tie_free:
        return byscore.tie_free[key]
    c_rows, ps_c, caliper = byscore.conc_rows, byscore.conc_ps, byscore.caliper
    m = rows.size
    if m == 0:
        byscore.tie_free[key] = MatchSet(c_rows[:0], rows, caliper)
        return byscore.tie_free[key]

    j = np.searchsorted(scores, ps_c)
    # the neighbours either side; past either end the score is -inf or +inf
    padded = np.concatenate(([-np.inf], scores, [np.inf]))
    dist_left, dist_right = ps_c - padded[j], padded[j + 1] - ps_c
    take_right, even = dist_right < dist_left, dist_right == dist_left
    left, right = j - 1, j
    tied = bool(even.any() or (scores[1:] == scores[:-1]).any())
    if tied:
        # order each run of equal scores by position in the shuffle (by row
        # without one); a run is represented by its head, the first of the
        # run and so the best priority. The right neighbour, the first score
        # >= ps_c, is one already.
        priority = rows
        if rng is not None:
            priority = np.empty(m, dtype=np.intp)
            priority[np.argsort(rows)[rng().permutation(m)]] = np.arange(m)
            order = np.lexsort((priority, scores))
            rows, priority = rows[order], priority[order]
        right = np.minimum(j, m - 1)
        left = np.searchsorted(scores, scores[np.maximum(j - 1, 0)])
        take_right |= even & (priority[right] < priority[left])
    chosen = np.where(take_right, right, left)
    within = np.where(take_right, dist_right, dist_left) <= caliper
    matchset = MatchSet(c_rows[within], rows[chosen[within]], caliper)
    if not tied:
        byscore.tie_free[key] = matchset
    return matchset


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
    subjects' scores by numpy's ``linear`` rule (``np.quantile``'s
    default), so concurrent subjects split evenly; one sort of those
    scores gives the cut points, their distinct count and their range.
    Historical subjects outside the concurrent score range get label -1
    (excluded).
    """
    conc_mask = psfit.is_concurrent
    conc_ps = np.sort(psfit.ps[conc_mask])
    n_distinct = int(conc_ps.size > 0) + int(np.count_nonzero(conc_ps[1:] != conc_ps[:-1]))
    if n_distinct < N_STRATA:
        raise ValueError(f"only {n_distinct} distinct concurrent scores for {N_STRATA} strata")
    labels = np.searchsorted(_cut_points(conc_ps), psfit.ps, side="left").astype(int)
    outside = ~conc_mask & ((psfit.ps < conc_ps[0]) | (psfit.ps > conc_ps[-1]))
    labels[outside] = -1
    return labels


def _cut_points(sorted_ps: np.ndarray) -> list[float]:
    """The 1/n .. (n-1)/n quantiles of ascending scores by numpy's
    ``linear`` rule, as ``np.quantile`` computes them: at index
    i + g = (size - 1) q the lerp a + (b - a) g of the scores a and b at
    i and i + 1, taken as b - (b - a)(1 - g) when g >= 1/2."""
    last = sorted_ps.size - 1
    cuts = []
    for k in range(1, N_STRATA):
        index = last * (k / N_STRATA)
        i = int(index)
        g = index - i
        a, b = float(sorted_ps[i]), float(sorted_ps[i + 1])
        diff = b - a
        cuts.append(b - diff * (1 - g) if g >= 0.5 else a + diff * g)
    return cuts


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
    first rows are the reduced concurrent trial (subjects carry no ids).
    With an empty match set the estimate falls back to the unadjusted
    reduced-concurrent fit, flagged.
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
            "n_unique_matched": float(np.count_nonzero(np.bincount(matchset.hist_rows))),
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
