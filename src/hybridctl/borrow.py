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
treated-arm likelihood in closed form. An estimate rejects when the
posterior CDF of the effect at 0 lies in either alpha/2 tail, which is
when its central credible interval excludes 0; the interval ends
themselves are solved only on request, by bisection on the same CDF.
That CDF sums normal CDFs, which come from a numpy port of cephes
``ndtr`` (the routine behind scipy.special.ndtr).

The three MAP-family estimators differ only in their studies, a (k, 2)
array of means and SEs: the historical pools, or their matched or
weighted summaries. One core, :func:`map_estimates`, takes the arm
summaries (:func:`arm_summaries`) and every study source of a dataset,
each a study array with any number of (tau-ladder label, omega) pairs,
each label naming a tau scale (:func:`resolve_tau_scale`). A mixture is
always given as (rows, components) arrays of weights, means and SDs, a
row per mixture. The core makes one pass per group of (source, pair)
rows with the same study count and zero scale: :func:`map_prior` builds
the group's priors in one call, and :func:`robustify`,
:func:`posterior_update` and :func:`effect_posterior` run their step on
all its rows at once. A source without studies takes the same steps
from a prior with no components, so robustifying leaves the vague
component alone. Each kernel works row by row, in the order of the
one-mixture formulas, so each pair's estimate is the same to the last
bit whatever rows share its calls. A kernel does not raise for a bad
row: it computes every row and returns its checks, each a message and a
per-row mask, and the core fails the sources of the rows that a check
marks, each source alone, with one failed row per pair.

Power-prior borrowing discounts the historical likelihood precision by
a factor alpha. The two stratified estimators share one front end:
strata of the pooled sample by concurrent propensity-score quantiles,
built once per replicate and covariate set by :func:`build_strata` as a
table of each stratum's arm counts, outcome means and centred sums of
squares, and a total number of borrowed subjects, the concurrent treated
surplus that restores 1:1, spread over the strata in proportion to their
historical counts, which comes to one discount min(1, total_borrow /
n_hist). They differ only in how a stratum's borrowed controls enter: a
power prior (PSS+PP) or a composite likelihood (PSS+CL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import ALPHA, EffectEstimate, failed_estimate, wald_estimate
from .propensity import N_STRATA, MatchSet, PsFit, stratify
from .regress import mean_sd
from .trialdata import TrialDataset

__all__ = [
    "SINGLE_POOL_TAU_MULT",
    "TAU_LADDER",
    "map_prior",
    "robustify",
    "posterior_update",
    "effect_posterior",
    "credible_interval",
    "ArmSummaries",
    "arm_summaries",
    "pool_studies",
    "matched_studies",
    "weighted_studies",
    "resolve_tau_scale",
    "map_estimates",
    "Strata",
    "build_strata",
    "estimate_pss_pp",
    "estimate_pss_cl",
]

# Between-study SD ladder: multiples of the empirical scale. The
# empirical scale is the sample SD of the study means (k >= 2) or the
# single study's standard error (k = 1).
TAU_LADDER = {"L": 10.0, "M": 1.0, "S": 0.1, "XS": 0.01}

# Label-less default for a single historical pool, as a fraction of that
# pool's standard error (see resolve_tau_scale).
SINGLE_POOL_TAU_MULT = 0.25

# Quadrature nodes over the between-study SD tau in map_prior.
N_TAU = 201


# ---------------------------------------------------------------------------
# Study summaries and the MAP prior
# ---------------------------------------------------------------------------


def _studies(rows) -> np.ndarray:
    """The (k, 2) array of (mean, se) ``rows``, each checked as it is read."""
    kept = []
    for mean, se in rows:
        if not (math.isfinite(mean) and math.isfinite(se) and se > 0):
            raise ValueError("study summary needs a finite mean and positive se")
        kept.append((mean, se))
    return np.array(kept, dtype=float).reshape(-1, 2)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoid weights of each row of a (rows, nodes) grid."""
    w = np.empty_like(grid)
    w[:, 1:-1] = (grid[:, 2:] - grid[:, :-2]) / 2.0
    w[:, 0] = (grid[:, 1] - grid[:, 0]) / 2.0
    w[:, -1] = (grid[:, -1] - grid[:, -2]) / 2.0
    return w


Checks = list[tuple[str, np.ndarray]]  # (message, per-row mask true where a row passes)


def map_prior(
    studies: np.ndarray, tau_scales: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], Checks]:
    """Meta-analytic predictive priors for a new study mean, one per row of
    an (S, k, 2) stack of study arrays with the same k and its S tau scales.

    For each tau on an ``N_TAU``-node grid the location parameter
    integrates out under a flat prior, giving a normal predictive with
    the profiled marginal likelihood of tau; the half-normal(tau scale)
    prior then weights the tau grid, so each prior is a normal mixture
    with one component per tau node, returned as (S, ``N_TAU``) arrays of
    weights, means and SDs. Scales that are all 0 collapse to
    fixed-effect pooling, with (S, 1) arrays. Each row is computed on its
    own, as the one-prior formulas give it, and the checks mark the rows
    with a bad scale, study, component or weight. No studies, or scales
    neither all zero nor all positive, raise a ``ValueError``.
    """
    studies, tau_scales = np.asarray(studies, dtype=float), np.asarray(tau_scales, dtype=float)
    if studies.shape[1] == 0:
        raise ValueError("need at least one study")
    means, ses = studies[:, :, 0], studies[:, :, 1]
    rows = len(tau_scales)
    with np.errstate(all="ignore"):
        if not tau_scales.any():
            taus, log_w = np.zeros((rows, 1)), np.zeros((rows, 1))
        elif tau_scales.all():
            taus = np.zeros((rows, N_TAU))  # C-ordered, so each row sums on its own
            # a scale too small for its grid to start above 0 runs as NaN: its row fails
            scales = np.where(tau_scales * 1e-3 != 0, tau_scales, np.nan)
            taus[:, 1:] = np.geomspace(scales * 1e-3, scales * 10.0, N_TAU - 1, axis=1)
            # half-normal prior density and trapezoid quadrature in tau
            log_w = -0.5 * (taus / tau_scales[:, None]) ** 2 + np.log(_trapezoid_weights(taus))
        else:
            raise ValueError("tau scales must be all zero or all positive")
        v = ses[:, None, :] ** 2 + taus[:, :, None] ** 2  # (rows, tau nodes, k)
        prec = 1.0 / v
        pressum = prec.sum(axis=2)
        mu_hat = (means[:, None, :] * prec).sum(axis=2) / pressum
        v_mu = 1.0 / pressum
        if studies.shape[1] > 1:
            quad = ((means[:, None, :] - mu_hat[:, :, None]) ** 2 * prec).sum(axis=2)
            log_w = log_w - 0.5 * (np.log(v).sum(axis=2) + np.log(pressum) + quad)
        w_tau = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        sds = np.sqrt(v_mu + taus**2)
        w = w_tau / w_tau.sum(axis=1, keepdims=True)
    return (w, mu_hat, sds), [
        ("tau_scale must be finite and non-negative", np.isfinite(tau_scales) & (tau_scales >= 0)),
        ("study summary needs a finite mean and positive se",
         (np.isfinite(means) & np.isfinite(ses) & (ses > 0)).all(axis=1)),
        _components_ok(mu_hat, sds),
        ("prior weights must be finite", np.isfinite(w_tau).all(axis=1)),
    ]


# ---------------------------------------------------------------------------
# Stacked mixtures: one row per mixture, one column per component
# ---------------------------------------------------------------------------
#
# Every kernel works row by row and reduces only along a row, in the order
# of the one-mixture formulas, so a row's bits do not depend on the rows
# stacked with it, as long as the stacks are C-ordered (each row
# contiguous), as ``np.stack`` of 1-d arrays and row indexing make them. On
# an F-ordered stack the BLAS row sums add in another order: a row sum of
# 201 weights then moved in its last bit. Bad rows are computed too, with
# floating-point warnings off: only the checks mark them, and a check of an
# argument that all rows share, such as the data SE, marks every row.


# The rationals of cephes ``ndtr`` (as in scipy.special.ndtr), highest power
# first: erf(x) = x T(x^2) / U(x^2) for |x| < 1, and erfc(x) = exp(-x^2) P(x) /
# Q(x) for 1 <= x < 8 and exp(-x^2) R(x) / S(x) above. U, Q and S are monic;
# their leading 1 is left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc(x) is 0 once x^2 exceeds it


def _polevl(v: np.ndarray, coefs: tuple[float, ...], monic: bool = False) -> np.ndarray:
    """Horner's rule in cephes' order: ``coefs`` highest power first, after a
    leading 1 when ``monic``."""
    acc = v + coefs[0] if monic else v * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        acc *= v
        acc += c
    return acc


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, a numpy port of cephes ``ndtr``.

    Each branch runs on its own elements only. Below |x| = 1 (x = a /
    sqrt(2)) the result is 0.5 + 0.5 erf(x); cephes' erfc form for |x| in
    [sqrt(1/2), 1) is the same double. Above it is 0.5 erfc(|x|), reflected
    for x > 0, with |x| capped at 27, where erfc is already 0. The only
    difference from scipy.special.ndtr is numpy's ``exp``, which may differ
    from the C library's in the last bit.
    """
    x = np.multiply(a, math.sqrt(0.5))
    z = np.abs(x)
    y = np.empty_like(z)
    near = z < 1.0
    xn = x[near]
    t = xn * xn
    e = _polevl(t, _ERF_T)
    e *= xn
    e /= _polevl(t, _ERF_U, monic=True)
    e *= 0.5
    e += 0.5
    y[near] = e
    far = ~near
    zf = np.minimum(z[far], 27.0)
    big = zf >= 8.0
    if big.any():
        p, q = np.empty_like(zf), np.empty_like(zf)
        for sel, num, den in ((~big, _ERFC_P, _ERFC_Q), (big, _ERFC_R, _ERFC_S)):
            p[sel], q[sel] = _polevl(zf[sel], num), _polevl(zf[sel], den, monic=True)
    else:
        p, q = _polevl(zf, _ERFC_P), _polevl(zf, _ERFC_Q, monic=True)
    zz = zf * zf
    g = np.exp(-zz)
    g[zz > _MAXLOG] = 0.0
    g *= p
    g /= q
    g *= 0.5
    np.subtract(1.0, g, out=g, where=x[far] > 0.0)
    y[far] = g
    return y


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (rows, n) arrays.

    A stacked vector-vector ``matmul`` runs the BLAS dot of a 1-d
    ``a @ b`` on every row; ``(a * b).sum(1)`` and ``einsum`` add in
    another order and move last bits.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _moments(w: np.ndarray, m: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each row's mixture."""
    mu = _rowdot(w, m)
    return mu, _rowdot(w, s**2 + (m - mu[:, None]) ** 2)


def _components_ok(means: np.ndarray, sds: np.ndarray | float) -> tuple[str, np.ndarray]:
    """The check of (rows, components) means and SDs, or of 1-d means and any SDs."""
    ok = np.isfinite(means) & np.isfinite(sds) & (sds > 0)
    return "component means must be finite and SDs positive", ok.reshape(len(ok), -1).all(axis=1)


def robustify(
    w: np.ndarray, m: np.ndarray, s: np.ndarray, omegas: np.ndarray, mean, sd: float
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], Checks]:
    """Append a vague component N(``mean``, ``sd``) to every row, with row
    i's weight ``omegas[i]`` (in [0, 1]; :func:`map_estimates` checks it).
    ``mean`` is one number, or one per row; the check marks the rows whose
    vague component is bad. Rows with no components and omega 1 come back
    as the vague component alone."""
    rows = len(w)
    means = np.broadcast_to(np.asarray(mean, dtype=float), (rows,))
    with np.errstate(all="ignore"):
        w = np.hstack([(1.0 - omegas)[:, None] * w, omegas[:, None]])
    return ((w, np.hstack([m, means[:, None]]), np.hstack([s, np.full((rows, 1), sd)])),
            [_components_ok(means, sd)])


def posterior_update(
    w: np.ndarray, m: np.ndarray, s: np.ndarray, data_mean: float, data_se: float
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], Checks]:
    """Conjugate normal update of every component of every row.

    Each component is reweighted by its marginal likelihood of the data,
    N(data_mean; m_k, s_k^2 + data_se^2). The checks are of the data (the
    same for every row), the components and the weights: a row whose
    components the data all rule out (every likelihood underflows to 0)
    has no posterior weights and fails as a bad row.
    """
    with np.errstate(all="ignore"):
        var = s**2
        marg_var = var + data_se**2
        log_w = np.log(w) - 0.5 * (data_mean - m) ** 2 / marg_var - 0.5 * np.log(marg_var)
        post_w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        post_var = var * data_se**2 / marg_var
        post_mean = (m * data_se**2 + data_mean * var) / marg_var
        post_sd = np.sqrt(post_var)
        post = post_w / post_w.sum(axis=1, keepdims=True), post_mean, post_sd
    return post, [
        ("need a finite data mean and positive se",
         np.full(len(w), np.isfinite(data_mean) and np.isfinite(data_se) and data_se > 0)),
        _components_ok(post_mean, post_sd),
        ("posterior weights must be finite", np.isfinite(post_w).all(axis=1)),
    ]


def effect_posterior(
    w: np.ndarray, m: np.ndarray, s: np.ndarray, treated_mean: float, treated_se: float,
) -> tuple[tuple[np.ndarray, ...], Checks]:
    """Posterior of treated mean minus control mean, for each row's control
    posterior.

    The treated arm contributes an exact normal, so the difference is a
    normal mixture with one component per control component: its moments
    and its CDF are exact. Returns per-row arrays: the estimates, SDs,
    F(0) = P(difference <= 0) and the control posterior variances. The
    central 1 - alpha credible interval excludes 0 exactly when F(0) <
    alpha/2 or F(0) > 1 - alpha/2, so no end is solved here (see
    :func:`credible_interval`). The checks are of the treated SE (the
    same for every row) and of each row's estimate and SD, which may
    overflow.
    """
    with np.errstate(all="ignore"):
        c_mean, c_var = _moments(w, m, s)
        est = treated_mean - c_mean
        sd = np.sqrt(treated_se**2 + c_var)
        mu, comp_sd = treated_mean - m, np.sqrt(s**2 + treated_se**2)
        f0 = _rowdot(w, _ndtr(-mu / comp_sd))
    return (est, sd, f0, c_var), [
        ("treated se must be positive and finite",
         np.full(len(w), treated_se > 0 and np.isfinite(treated_se))),
        ("effect posterior must be finite", np.isfinite(est) & np.isfinite(sd)),
    ]


def credible_interval(
    w: np.ndarray, m: np.ndarray, s: np.ndarray, treated_mean: float, treated_se: float,
    alpha: float = ALPHA,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of each row's central 1 - alpha credible
    interval for the difference of :func:`effect_posterior`.

    Each end is a quantile q of the mixture, found by bisection on the
    same CDF that gives F(0). Cantelli's inequality puts it within k total
    SDs of the mean, k = sqrt(1/min(q, 1-q) - 1) = sqrt(2/alpha - 1),
    which is the starting bracket; a fixed ceil(log2(2k / 1e-12))
    halvings leave every row's bracket under 1e-12 of its total SD, and
    its midpoint is the end. The rows must pass :func:`effect_posterior`'s
    checks.
    """
    (est, sd, _, _), _ = effect_posterior(w, m, s, treated_mean, treated_se)
    mu, comp_sd = treated_mean - m, np.sqrt(s**2 + treated_se**2)
    rows = len(w)
    k = math.sqrt(2.0 / alpha - 1.0)
    w2, mu2, sd2 = (np.concatenate([a, a]) for a in (w, mu, comp_sd))
    q = np.repeat([alpha / 2.0, 1.0 - alpha / 2.0], rows)
    lo, hi = np.tile(est - k * sd, 2), np.tile(est + k * sd, 2)
    for _ in range(math.ceil(math.log2(2.0 * k / 1e-12))):
        mid = 0.5 * (lo + hi)
        below = _rowdot(w2, _ndtr((mid[:, None] - mu2) / sd2)) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    ends = 0.5 * (lo + hi)
    return ends[:rows], ends[rows:]


# ---------------------------------------------------------------------------
# Power prior
# ---------------------------------------------------------------------------


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
    mean, sd = mean_sd(y)
    return mean, sd / math.sqrt(n)


@dataclass(frozen=True)
class ArmSummaries:
    """What every MAP-family estimate of one dataset reads besides its
    studies: mean and SE of the reduced concurrent treated and control
    arms, and the unit-information SD (the pooled historical outcome SD)."""

    t_mean: float
    t_se: float
    c_mean: float
    c_se: float
    unit_sd: float


def arm_summaries(dataset: TrialDataset) -> ArmSummaries:
    red = dataset.reduced_concurrent
    t_mean, t_se = _mean_se(red.y[red.z == 1])
    c_mean, c_se = _mean_se(red.y[red.z == 0])
    historical = dataset.pooled.y[len(red):]
    if historical.size < 2:
        raise ValueError("need at least two observations for a mean and se")
    unit_sd = mean_sd(historical)[1]
    return ArmSummaries(t_mean, t_se, c_mean, c_se, unit_sd)


def pool_studies(dataset: TrialDataset) -> np.ndarray:
    """One study (mean, sd/sqrt(n)) per historical pool."""
    return _studies(_mean_se(pool.y) for pool in dataset.historical)


def matched_study_summary(matchset: MatchSet, psfit: PsFit) -> tuple[float, float] | None:
    """Mean and cluster-aware SE of a matched historical multiset.

    Re-used subjects count once per pair in the mean; the SE treats each
    unique subject as a cluster, so duplication widens rather than
    shrinks it. Returns None when fewer than two distinct subjects are
    matched, or when their outcomes are all equal: the SE would then be 0
    or rounding noise.
    """
    uniq, counts = np.unique(matchset.hist_rows, return_counts=True)
    u = uniq.size
    if u < 2:
        return None
    y_u = psfit.sample.y[uniq]
    if y_u.min() == y_u.max():
        return None
    m = counts.sum()
    mean = float((counts * y_u).sum() / m)
    # u/(u-1) degrees-of-freedom factor: with every subject matched once
    # this reduces exactly to the plain ddof-1 standard error
    se = float(np.sqrt(((counts * (y_u - mean)) ** 2).sum() * u / (u - 1)) / m)
    if se <= 0:
        return None
    return mean, se


def weighted_study_summary(y: np.ndarray, weights: np.ndarray) -> tuple[float, float] | None:
    """Weighted mean and robust SE of one pool's retained subjects, or None
    when under two are retained or their outcomes are all equal (the SE
    would then be 0 or rounding noise)."""
    keep = weights > 0
    if keep.sum() < 2:
        return None
    y = y[keep]
    if y.min() == y.max():
        return None
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
    return mean, se


def matched_studies(
    psfit: PsFit, matchsets: list[MatchSet]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Summaries of the pools matched separately (``matchsets[j - 1]`` for
    pool j), and a flag for each pool with under two distinct matches,
    which is dropped."""
    summaries = [matched_study_summary(ms, psfit) for ms in matchsets]
    return _kept(summaries, "psm_map:pool{}_unmatched_dropped")


def weighted_studies(
    dataset: TrialDataset, psfit: PsFit, weights: np.ndarray
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Weighted summaries of the pools, and a flag for each pool that its
    weights leave without a summary, which is dropped."""
    trial, y = psfit.sample.trial, psfit.sample.y
    summaries = [weighted_study_summary(y[trial == j], weights[trial == j])
                 for j in range(1, dataset.k_historical + 1)]
    return _kept(summaries, "psw_map:pool{}_trimmed_dropped")


def _kept(summaries: list, flag: str) -> tuple[np.ndarray, tuple[str, ...]]:
    return (_studies(s for s in summaries if s is not None),
            tuple(flag.format(j) for j, s in enumerate(summaries, start=1) if s is None))


def resolve_tau_scale(tau_label: str | None, studies: np.ndarray) -> float:
    """The half-normal tau scale that a ``TAU_LADDER`` label (None for the
    default) names for a (k, 2) study array (0 for no studies, where the
    prior is the vague component alone)."""
    return _tau_scales([tau_label], studies)[0]


def _tau_scales(tau_labels: list[str | None], studies: np.ndarray) -> list[float]:
    """The tau scale of each label (see :func:`resolve_tau_scale`), with the
    empirical scale of ``studies`` computed once."""
    for label in tau_labels:
        if label is not None and label not in TAU_LADDER:
            raise ValueError(f"unknown tau ladder label {label!r}")
    if len(studies) == 0:
        return [0.0] * len(tau_labels)
    if len(studies) > 1:
        # means too large to square give an inf or NaN scale, which fails
        # the source in map_prior's checks instead of warning here
        with np.errstate(over="ignore", invalid="ignore"):
            sd = float(np.std(studies[:, 0], ddof=1))
        return [TAU_LADDER[label or "M"] * sd for label in tau_labels]
    # A single pool leaves the between-study spread unidentified and its
    # standard error overstates any plausible spread, so the label-less
    # default borrows more aggressively. The multiplier was calibrated
    # once against the simulation grid and is frozen.
    se = float(studies[0, 1])
    return [SINGLE_POOL_TAU_MULT * se if label is None else TAU_LADDER[label] * se
            for label in tau_labels]


def _fail(failed: dict, steps: list[tuple[list[tuple], Checks]]) -> None:
    """Set ``failed[i]`` to the error that source i's failed rows carry, for
    the sources of the rows the checks of each step mark, a step given as
    its rows' keys (source first) and its checks, in step order: a source
    takes the first check, by step and then by check, that any of its rows
    fails; a source failed before keeps its error."""
    for keys, checks in steps:
        for message, ok in checks:
            for r in np.flatnonzero(~ok).tolist():
                failed.setdefault(keys[r][0], ValueError(message))


MapSource = tuple[np.ndarray, list[str | None], list[float], tuple[str, ...]]


def map_estimates(
    arms: ArmSummaries, sources: list[MapSource], intervals: bool = False
) -> list[list[EffectEstimate]]:
    """Robust MAP estimates of one dataset, for every study source at once.

    A source is ``(studies, tau_labels, omegas, flags)``: a (k, 2) study
    array and one estimate per (tau label, omega) pair, each with the
    source's ``flags``. The MAP prior (one per distinct tau scale that the
    source's labels name) is robustified with weight omega by a vague
    component at the precision-weighted pooled study mean with SD
    ``arms.unit_sd``, updated with the concurrent control arm and
    contrasted against the treated arm; an estimate rejects when its
    central credible interval at level ``ALPHA`` excludes zero, decided
    from F(0) (:func:`effect_posterior`), kept as the ``post_prob_le0``
    diagnostic. The interval ends (:func:`credible_interval`) are solved
    only when ``intervals`` is true, else ``interval`` is None. Every
    label must be known, every omega in [0, 1] and a source's tau scales
    all zero or all positive, with studies or without. No studies force
    omega = 1: the prior has no components, so the vague component at the
    control mean is all there is.

    The (source, pair) rows are grouped by study count and zero scale, so
    each source falls in one group, and each group makes one
    :func:`map_prior` call (none without studies) and one
    :func:`robustify`, :func:`posterior_update` and
    :func:`effect_posterior` call. Each row is computed on its own, so
    each estimate equals that of a call with its pair alone, bit for bit.
    Returns, for each source, one row per pair in pair order. A failing
    source's rows are failed rows (:func:`metrics.failed_estimate`) of the
    ``ValueError`` of the first check (by step, then by check) that any of
    them fails, as with that source alone; it leaves the others as they were.
    """
    failed: dict[int, ValueError] = {}
    groups: dict[tuple[int, bool], list[tuple[int, int]]] = {}
    scales: dict[int, list[float]] = {}
    for i, (studies, tau_labels, omegas, _) in enumerate(sources):
        try:
            if len(tau_labels) != len(omegas):
                raise ValueError("need one omega per tau label")
            scales[i] = _tau_scales(tau_labels, studies)
            if not all(0.0 <= o <= 1.0 for o in omegas):
                raise ValueError("omega must lie in [0, 1]")
            if len({t == 0.0 for t in scales[i]}) > 1:
                raise ValueError("tau scales must be all zero or all positive")
        except ValueError as exc:
            failed[i] = exc
            continue
        for j, t in enumerate(scales[i]):
            groups.setdefault((len(studies), t == 0.0), []).append((i, j))

    rows: dict[tuple[int, int], EffectEstimate] = {}
    for (k, _), keys in groups.items():
        # One prior per (source, distinct tau scale), picked for each pair.
        # The vague component sits at the pooled study mean, each prior's
        # first component (the one at tau = 0); without studies, at the
        # control mean.
        at = {key: r for r, key in enumerate(dict.fromkeys((i, scales[i][j]) for i, j in keys))}
        if k:
            prior, prior_checks = map_prior(np.stack([sources[i][0] for i, _ in at]),
                                            np.array([t for _, t in at]))
            pick = np.array([at[i, scales[i][j]] for i, j in keys], dtype=np.intp)
            w, m, s = (a[pick] for a in prior)
            vague = m[:, 0]
        else:
            prior_checks, (w, m, s), vague = [], [np.empty((len(keys), 0))] * 3, arms.c_mean
        omegas = np.array([sources[i][2][j] if k else 1.0 for i, j in keys], dtype=float)
        robust, robust_checks = robustify(w, m, s, omegas, vague, sd=arms.unit_sd)
        post, post_checks = posterior_update(*robust, data_mean=arms.c_mean, data_se=arms.c_se)
        eff, eff_checks = effect_posterior(*post, treated_mean=arms.t_mean, treated_se=arms.t_se)
        _fail(failed, [(list(at), prior_checks), (keys, robust_checks),
                       (keys, post_checks), (keys, eff_checks)])

        # Only the rows of live sources become estimates.
        live = np.array([i not in failed for i, _ in keys], dtype=bool)
        map_sd = (np.sqrt(np.maximum(_moments(w[live], m[live], s[live])[1], 0.0)).tolist()
                  if k else [arms.unit_sd] * int(live.sum()))
        prior_var = _moments(*(a[live] for a in robust))[1].tolist()
        ends = [None] * len(prior_var)
        if intervals:
            ends = list(zip(*(a.tolist() for a in credible_interval(
                *(a[live] for a in post), arms.t_mean, arms.t_se))))
        flags = () if k else ("map:no_studies_forced_omega1",)
        for key, msd, pv, interval, est, sd, f0, post_var in zip(
                (key for key in keys if key[0] not in failed), map_sd, prior_var, ends,
                *(a[live].tolist() for a in eff)):
            i, j = key
            rows[key] = EffectEstimate(
                estimate=est, se=sd, reject=f0 < ALPHA / 2.0 or f0 > 1.0 - ALPHA / 2.0,
                interval=interval, flags=tuple(sources[i][3]) + flags, diagnostics={
                    "tau_scale": float(scales[i][j]),
                    "prior_sd": math.sqrt(pv),
                    "prior_ess": (arms.unit_sd * arms.unit_sd) / pv if pv > 0 else float("inf"),
                    "prior_map_sd": msd,
                    "control_post_sd": math.sqrt(max(post_var, 0.0)),
                    "n_studies": float(k),
                    "post_prob_le0": f0,
                })
    return [[failed_estimate(failed[i]) for _ in labels] if i in failed
            else [rows[i, j] for j in range(len(labels))]
            for i, (_, labels, _, _) in enumerate(sources)]


# ---------------------------------------------------------------------------
# Stratified power-prior estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strata:
    """Merged strata as a table: a row per stratum and a column per arm
    (concurrent treated, concurrent control, historical), holding the
    number of subjects and the mean and centred sum of squares of their
    outcomes (0 and 0 for an empty arm); and the merge flags."""

    n: np.ndarray  # (S, 3) counts
    mean: np.ndarray  # (S, 3)
    ss: np.ndarray  # (S, 3)
    flags: tuple[str, ...]


def build_strata(psfit: PsFit) -> Strata:
    """Split the pooled sample into the :func:`stratify` strata, then merge.

    A stratum with under two concurrent treated or control subjects joins
    its left neighbour (the first its right one), flagged with its index
    at the time; the merges are decided on the counts, and the table is
    then summed over the merged labels. Raises ``ValueError`` when no
    stratum has both concurrent arms populated.
    """
    labels = stratify(psfit)
    sample = psfit.sample
    keep = labels >= 0
    labels, y = labels[keep], sample.y[keep]
    arm = np.where(sample.trial == 0, 1 - sample.z, 2)[keep]  # treated, control, historical
    counts = np.bincount(labels * 3 + arm, minlength=3 * N_STRATA).reshape(N_STRATA, 3)
    merged = np.zeros(N_STRATA, dtype=np.intp)  # the merged stratum of each stratum
    flags: list[str] = []
    kept = waiting_t = waiting_c = 0  # waiting: invalid leading strata's counts
    for s, (n_t, n_c) in enumerate(counts[:, :2].tolist()):
        n_t, n_c = n_t + waiting_t, n_c + waiting_c
        if n_t >= 2 and n_c >= 2:
            kept, waiting_t, waiting_c = kept + 1, 0, 0
        elif kept:
            flags.append(f"pss:merged_stratum_{kept}")
        elif s < N_STRATA - 1:
            flags.append("pss:merged_stratum_0")
            waiting_t, waiting_c = n_t, n_c
        else:
            raise ValueError("cannot form any stratum with both concurrent arms populated")
        merged[s] = max(kept - 1, 0)
    key = merged[labels] * 3 + arm
    n = np.bincount(key, minlength=3 * kept)
    mean = np.bincount(key, y, 3 * kept) / np.maximum(n, 1)
    d = y - mean[key]
    ss = np.bincount(key, d * d, 3 * kept)
    return Strata(n.reshape(kept, 3), mean.reshape(kept, 3), ss.reshape(kept, 3), tuple(flags))


def _borrow_shares(strata: Strata) -> tuple[float, np.ndarray, np.ndarray]:
    """The total borrow (the treated surplus), stratum discounts and concurrent shares."""
    n_treated, n_control, n_hist = strata.n.sum(axis=0).tolist()
    total_borrow = float(max(n_treated - n_control, 0))
    discount = min(1.0, total_borrow / n_hist) if n_hist else 0.0
    discounts = np.where(strata.n[:, 2] >= 2, discount, 0.0)
    return total_borrow, discounts, strata.n[:, :2].sum(axis=1) / (n_treated + n_control)


def _stratum_se(strata: Strata) -> np.ndarray:
    """The SE of each stratum and arm mean, as :func:`_mean_se` gives it.
    Only a historical arm may have under two subjects; its entry is then
    a placeholder that neither estimator reads."""
    if np.any(strata.n[:, :2] < 2):
        raise ValueError("need at least two observations for a mean and se")
    n = np.maximum(strata.n, 2)
    return np.sqrt(strata.ss / (n - 1)) / np.sqrt(n)


def estimate_pss_pp(strata: Strata) -> EffectEstimate:
    """Stratified power-prior borrowing on :func:`build_strata` strata.

    Each stratum updates its concurrent-control likelihood with its
    historical likelihood discounted by the one discount
    alpha = min(1, total_borrow / n_hist) (0 in strata with under two
    historical subjects), where total_borrow is the number of treated
    subjects beyond the concurrent controls, which restores 1:1. Stratum effects are combined
    with concurrent-share weights and their variances with squared ones.
    """
    total_borrow, alphas, w = _borrow_shares(strata)
    effects, variances = [], []
    for (t_mean, c_mean, h_mean), (t_se, c_se, h_se), a_s in zip(
            strata.mean.tolist(), _stratum_se(strata).tolist(), alphas.tolist()):
        if a_s == 0:
            h_mean, h_se = 0.0, 1.0
        p_mean, p_se = power_prior_update(c_mean, c_se, h_mean, h_se, a_s)
        effects.append(t_mean - p_mean)
        variances.append(t_se * t_se + p_se * p_se)

    est = float(w @ np.asarray(effects))
    se = math.sqrt(float((w * w) @ np.asarray(variances)))
    return wald_estimate(
        est, se, flags=strata.flags,
        diagnostics={
            "total_borrow": total_borrow,
            "n_strata_effective": float(len(strata.n)),
            "mean_alpha": float(np.mean(alphas)),
        },
    )


def estimate_pss_cl(strata: Strata) -> EffectEstimate:
    """Stratified composite-likelihood borrowing.

    Per stratum the control estimate is the count-weighted mean of
    concurrent and discounted historical controls with standard error
    sigma_s / sqrt(n_cs + eta * n_hs), sigma_s the pooled within-
    stratum control SD and eta the discount alpha of
    :func:`estimate_pss_pp`. The overall variance combines stratum
    variances with linear (not squared) concurrent-share weights, which
    is what makes the method markedly conservative.
    """
    total_borrow, etas, w = _borrow_shares(strata)
    effects, variances = [], []
    for (_, n_c, n_h), (t_mean, c_mean, h_mean), (_, ss_c, ss_h), t_se, eta in zip(
            strata.n.tolist(), strata.mean.tolist(), strata.ss.tolist(),
            _stratum_se(strata)[:, 0].tolist(), etas.tolist()):
        if eta > 0:
            sigma = math.sqrt((ss_c + ss_h) / (n_c + n_h - 2))
        else:
            h_mean = 0.0
            sigma = math.sqrt(ss_c / (n_c - 1))
        denom = n_c + eta * n_h
        ctrl_est = (n_c * c_mean + eta * n_h * h_mean) / denom
        ctrl_se = sigma / math.sqrt(denom)
        effects.append(t_mean - ctrl_est)
        variances.append(t_se * t_se + ctrl_se * ctrl_se)

    est = float(w @ np.asarray(effects))
    se = math.sqrt(float(w @ np.asarray(variances)))
    return wald_estimate(
        est, se, flags=strata.flags,
        diagnostics={
            "total_borrow": total_borrow,
            "n_strata_effective": float(len(strata.n)),
        },
    )
