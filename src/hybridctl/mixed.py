"""Random-intercept linear mixed model across trial sources.

Treats each trial (the concurrent one plus every historical pool) as a
group with its own intercept deviation: y = X beta + b_g + e with
b_g ~ N(0, sigma_b^2) and e ~ N(0, sigma^2). The restricted (REML)
criterion profiles down to the variance ratio lambda = sigma_b^2 / sigma^2
and is written in the eigenvalues kappa of the G x G matrix Z'QZ, with
Q = I - X (X'X)^-1 X' and e the coordinates of Z'Qy on its eigenvectors
(Crainiceanu & Ruppert 2004, JRSS-B 66:165; Bates et al. 2015, JSS 67(1)):
rss = y'Qy - sum lambda e^2 / (1 + lambda kappa), and the criterion is
dof log(rss / dof) + sum log(1 + lambda kappa) + log|X'X|. Each lambda
costs O(G) scalar operations; a scan brackets the minimum and a
safeguarded Newton step in log lambda refines it. G is at most a few
groups, so the scan is one numpy pass over its grid while the Newton
step's two slopes are summed on Python floats.

Everything a fit reads comes from :class:`GroupStats` of the data matrix
[X, y]: the group sizes n_g, the group means and the within-group cross
products W of the group-centred columns. The cross products in the V^-1
metric are then W + sum n_g / (1 + lambda n_g) m_g m_g' with m_g the
group means, a sum of positive terms that does not cancel however large
lambda grows (at lambda = 0 it is [X, y]'[X, y]). The statistics of a
design are a column slice of those of any wider design, so
:func:`estimate_mm` slices every MM cell of a replicate from one pass
over the pooled sample (:func:`pooled_stats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import EffectEstimate, wald_estimate
from .propensity import covset_columns
from .regress import SingularDesignError
from .trialdata import TrialDataset

__all__ = ["pooled_stats", "estimate_mm"]

LOG_LAMBDA_SPAN = 12.0

# The scans of _fit, as (log lambda, lambda) with lambda = 0 first:
# 25 points over [e^-span, e^span], then over the span widened by half.
_SCANS = tuple((t, np.concatenate([[0.0], np.exp(t)]))
               for t in (np.linspace(-span, span, 25)
                         for span in (LOG_LAMBDA_SPAN, 1.5 * LOG_LAMBDA_SPAN)))


@dataclass(frozen=True)
class GroupStats:
    """Per-group statistics of the columns of a data matrix [X, y], the
    outcome last. A column with a non-finite value makes only its own
    entries non-finite."""

    n: np.ndarray  # (G,) group sizes
    means: np.ndarray  # (G, q) column means per group
    within: np.ndarray  # (q, q) cross products of the group-centred columns
    constant: np.ndarray  # (q,) the column holds one non-zero value throughout
    finite: np.ndarray  # (q,) the column has no non-finite value

    def select(self, cols: list[int]) -> GroupStats:
        """The statistics of the data matrix's columns ``cols``."""
        return GroupStats(self.n, self.means[:, cols], self.within[np.ix_(cols, cols)],
                          self.constant[cols], self.finite[cols])


@dataclass(frozen=True)
class LmmFit:
    coef: np.ndarray
    cov: np.ndarray
    lambda_hat: float
    sigma2: float
    sigma_b2: float
    criterion_value: float
    n_groups: int
    flags: tuple[str, ...] = ()

    def se(self, index: int) -> float:
        return math.sqrt(self.cov[index, index])


def group_stats(data: np.ndarray, groups: np.ndarray) -> GroupStats:
    """The statistics of the columns of ``data`` over the groups that
    ``groups`` labels: the group means in one product with the group
    indicators, the centred cross products in one more."""
    _, inverse = np.unique(groups, return_inverse=True)
    onehot = (inverse == np.arange(inverse.max() + 1)[:, None]).astype(float)
    n = np.bincount(inverse)
    with np.errstate(invalid="ignore", over="ignore"):
        means = (onehot @ data) / n[:, None]
        centred = data - means[inverse]
        within = centred.T @ centred
    # each column's extremes, NaN if it holds one: reduced along the rows of
    # a transposed copy, as numpy reduces a narrow array along axis 0 slowly
    columns = np.ascontiguousarray(data.T)
    lo, hi = columns.min(axis=1), columns.max(axis=1)
    return GroupStats(n, means, within, (lo == hi) & (data[0] != 0),
                      np.isfinite(lo) & np.isfinite(hi))


def pooled_stats(dataset: TrialDataset) -> GroupStats:
    """:func:`group_stats` of [1, z, x1..xd, y] over the trials of the
    pooled sample, which every MM cell of a replicate slices."""
    pooled = dataset.pooled
    return group_stats(np.column_stack([np.ones(len(pooled)), pooled.z, pooled.x, pooled.y]),
                       pooled.trial)


def _cross(stats: GroupStats, w: np.ndarray) -> np.ndarray:
    """[X, y]' V^-1 [X, y] over sigma^2, for the group weights
    w = n / (1 + lambda n)."""
    return stats.within + (stats.means.T * w) @ stats.means


def _spectrum(stats: GroupStats) -> tuple:
    """kappa, e^2, y'Qy, dof and log|X'X| from one p x p solve. A constant
    column of X puts the all-ones vector in the null space of Z'QZ; that
    direction is projected out exactly, not by a threshold."""
    p = stats.means.shape[1] - 1
    dof = int(stats.n.sum()) - p
    if dof <= 0:
        raise SingularDesignError("no residual variation left to profile")
    cross = _cross(stats, stats.n)
    xtx = cross[:p, :p]
    sums = stats.means * stats.n[:, None]  # group sums of [X, y]
    try:
        chol = np.linalg.cholesky(xtx)
        sol = np.linalg.solve(xtx, np.column_stack([cross[:p, p], sums[:, :p].T]))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("design is singular") from exc
    K = np.diag(stats.n.astype(float)) - sums[:, :p] @ sol[:, 1:]
    r = sums[:, p] - sums[:, :p] @ sol[:, 0]
    if stats.constant[:p].any():
        i, j = np.arange(stats.n.size)[:, None], np.arange(1, stats.n.size)
        basis = ((i < j) - j * (i == j)) / np.sqrt(j * (j + 1.0))  # Helmert contrasts
        K, r = basis.T @ K @ basis, r @ basis
    kappa, vecs = np.linalg.eigh(K)
    return (kappa, (r @ vecs) ** 2, cross[p, p] - cross[:p, p] @ sol[:, 0], dof,
            2.0 * np.log(np.diagonal(chol)).sum())


def _criterion(spec: tuple, lam):
    """The criterion at every lambda of an array."""
    kappa, e2, yqy, dof, logdet_xtx = spec
    lam = np.asarray(lam, dtype=float)[..., None]
    d = 1.0 + lam * kappa
    rss = yqy - (lam * e2 / d).sum(axis=-1)
    if np.any(rss <= 0):
        raise SingularDesignError("no residual variation left to profile")
    return dof * np.log(rss / dof) + np.log1p(lam * kappa).sum(axis=-1) + logdet_xtx


def _slopes(spec: tuple) -> Callable[[float], tuple[float, float]]:
    """The first and second derivatives of the criterion in log lambda,
    as a function of log lambda. G is a few groups, so each is summed on
    Python floats, term by term in the order numpy sums them; a numpy
    call per step would cost more than the arithmetic."""
    kappa, e2, yqy, dof, _ = spec
    terms = list(zip(kappa.tolist(), e2.tolist()))
    yqy = float(yqy)

    def slopes(t: float) -> tuple[float, float]:
        lam = math.exp(t)
        fitted = sum1 = sum2 = s_sum = s_var = 0.0
        for k, e in terms:
            d = 1.0 + lam * k
            s = lam * k / d
            u = lam * e / (d * d)
            fitted += lam * e / d
            sum1 += u
            sum2 += u * s
            s_sum += s
            s_var += s * (1.0 - s)
        rss = yqy - fitted
        if rss <= 0:
            raise SingularDesignError("no residual variation left to profile")
        r1 = -sum1 / rss
        r2 = r1 + 2.0 * sum2 / rss
        return dof * r1 + s_sum, dof * (r2 - r1 * r1) + s_var

    return slopes


def _newton(slopes: Callable[[float], tuple[float, float]], lo: float, hi: float) -> float:
    """Minimize on [lo, hi] from the first and second derivatives
    (:func:`_slopes`, on Python floats): Newton steps on the first, kept
    inside a bracket where it goes from - to +, with bisection for a step
    that leaves it or a concave point. An end where the first derivative
    does not change sign is returned as is."""
    if slopes(lo)[0] >= 0:
        return lo
    if slopes(hi)[0] <= 0:
        return hi
    x, tol = 0.5 * (lo + hi), 1e-10 * (hi - lo)
    for _ in range(200):
        g, h = slopes(x)
        lo, hi = (x, hi) if g < 0 else (lo, x)
        step = g / h if h > 0 else math.inf
        if abs(step) <= tol:
            return x - step
        if hi - lo <= tol:
            return x
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x


def _fit(stats: GroupStats) -> LmmFit:
    """Fit the random-intercept model by profiled REML to the design whose
    statistics are ``stats`` (:func:`group_stats` of [X, y]).

    The variance ratio is scanned on {0} union 25 log-spaced points over
    [e^-12, e^12]; a minimum at the upper edge widens the span once, to
    e^18, and flags the fit. A safeguarded Newton step in log lambda then
    refines the minimum between the best point's scan neighbours, or below
    lambda_1 when lambda = 0 is best and the slope there is negative.
    lambda = 0 is kept if the refined point does not beat it.
    """
    if not stats.finite[-1]:
        raise ValueError("y has non-finite values")
    if not stats.finite[:-1].all():
        raise ValueError("X has non-finite values")
    if stats.n.size < 2:
        raise ValueError("need at least two groups to separate the intercept variance")
    spec = kappa, e2, yqy, dof, _ = _spectrum(stats)

    flags: list[str] = []
    for t, lams in _SCANS:
        values = _criterion(spec, lams)
        k = int(values.argmin())
        if k < t.size or flags:
            break
        flags.append("mm:lambda_span_widened")

    lam_hat, crit_hat = 0.0, float(values[0])
    if k > 0 or dof * e2.sum() / yqy > kappa.sum():  # else the slope at 0 is >= 0
        lo = t[k - 2] if k > 1 else t[0] - (2.0 if k else 30.0)
        t_hat = _newton(_slopes(spec), lo, t[min(k, t.size - 1)])
        crit = float(_criterion(spec, math.exp(t_hat)))
        if crit < crit_hat:
            lam_hat, crit_hat = math.exp(t_hat), crit

    # GLS at lambda_hat through the Cholesky factor of X'V^-1 X
    cross = _cross(stats, stats.n / (1.0 + lam_hat * stats.n))
    p = cross.shape[0] - 1
    A, b = cross[:p, :p], cross[:p, p]
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("whitened design is singular") from exc
    beta = np.linalg.solve(A, b)
    sigma2 = float(cross[p, p] - b @ beta) / dof
    return LmmFit(coef=beta, cov=sigma2 * (chol_inv.T @ chol_inv), lambda_hat=lam_hat,
                  sigma2=sigma2, sigma_b2=lam_hat * sigma2, criterion_value=crit_hat,
                  n_groups=stats.n.size, flags=tuple(flags))


def estimate_mm(stats: GroupStats, covset: int | None) -> EffectEstimate:
    """Treatment effect from the trial-level random-intercept model.

    Pools the reduced concurrent trial with every historical pool and
    lets each trial carry its own intercept deviation; covariates enter
    as fixed effects when a covariate set is given, otherwise the model
    is intercept plus treatment only. ``stats`` is the dataset's
    :func:`pooled_stats`, from which the design's columns are sliced.
    """
    n_x = stats.means.shape[1] - 3
    cols = [0, 1] + ([] if covset is None else [2 + c for c in covset_columns(covset, n_x)])
    fit = _fit(stats.select(cols + [n_x + 2]))
    return wald_estimate(
        float(fit.coef[1]), fit.se(1), flags=fit.flags,
        diagnostics={"lambda_hat": fit.lambda_hat, "sigma2": fit.sigma2,
                     "sigma_b2": fit.sigma_b2, "n_groups": float(fit.n_groups)},
    )
