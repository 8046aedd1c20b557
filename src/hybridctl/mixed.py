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
safeguarded Newton step in log lambda refines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import EffectEstimate, wald_estimate
from .propensity import covset_columns
from .regress import SingularDesignError
from .trialdata import TrialDataset

__all__ = ["GroupStats", "LmmFit", "group_stats", "profiled_criterion", "fit_lmm",
           "estimate_mm"]

LOG_LAMBDA_SPAN = 12.0


@dataclass(frozen=True)
class GroupStats:
    """Sufficient statistics for the profiled criterion, stacked over G groups."""

    n: np.ndarray  # (G,) group sizes
    U: np.ndarray  # (G, p) column sums of X per group
    y_sum: np.ndarray  # (G,) outcome sums per group
    xtx: np.ndarray  # (p, p)
    xty: np.ndarray  # (p,)
    yty: float
    has_constant: bool  # X has a non-zero constant column


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


def group_stats(X: np.ndarray, y: np.ndarray, groups: np.ndarray) -> GroupStats:
    _, inverse = np.unique(groups, return_inverse=True)
    onehot = (inverse == np.arange(inverse.max() + 1)[:, None]).astype(float)
    has_constant = bool(np.any(np.all(X == X[0], axis=0) & (X[0] != 0)))
    return GroupStats(np.bincount(inverse), onehot @ X, onehot @ y, X.T @ X, X.T @ y,
                      float(y @ y), has_constant)


def _spectrum(stats: GroupStats) -> tuple:
    """kappa, e^2, y'Qy, dof and log|X'X| from one p x p solve. A constant
    column of X puts the all-ones vector in the null space of Z'QZ; that
    direction is projected out exactly, not by a threshold."""
    dof = int(stats.n.sum()) - stats.xtx.shape[0]
    if dof <= 0:
        raise SingularDesignError("no residual variation left to profile")
    try:
        chol = np.linalg.cholesky(stats.xtx)
        sol = np.linalg.solve(stats.xtx, np.column_stack([stats.xty, stats.U.T]))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("design is singular") from exc
    K = np.diag(stats.n.astype(float)) - stats.U @ sol[:, 1:]
    r = stats.y_sum - stats.U @ sol[:, 0]
    if stats.has_constant:
        i, j = np.arange(stats.n.size)[:, None], np.arange(1, stats.n.size)
        basis = ((i < j) - j * (i == j)) / np.sqrt(j * (j + 1.0))  # Helmert contrasts
        K, r = basis.T @ K @ basis, r @ basis
    kappa, vecs = np.linalg.eigh(K)
    return (kappa, (r @ vecs) ** 2, stats.yty - stats.xty @ sol[:, 0], dof,
            2.0 * np.log(np.diagonal(chol)).sum())


def _criterion(spec: tuple, lam, slopes: bool = False):
    """The criterion at every lambda of an array or, with ``slopes``, its
    first and second derivatives in log lambda."""
    kappa, e2, yqy, dof, logdet_xtx = spec
    lam = np.asarray(lam, dtype=float)[..., None]
    d = 1.0 + lam * kappa
    rss = yqy - (lam * e2 / d).sum(axis=-1)
    if np.any(rss <= 0):
        raise SingularDesignError("no residual variation left to profile")
    if not slopes:
        return dof * np.log(rss / dof) + np.log1p(lam * kappa).sum(axis=-1) + logdet_xtx
    s = lam * kappa / d
    r1 = -(lam * e2 / d**2).sum(axis=-1) / rss
    r2 = r1 + 2.0 * (lam * e2 / d**2 * s).sum(axis=-1) / rss
    return float(dof * r1 + s.sum()), float(dof * (r2 - r1**2) + (s * (1.0 - s)).sum())


def _newton(slopes, lo: float, hi: float) -> float:
    """Minimize on [lo, hi] from the first and second derivatives: Newton
    steps on the first, kept inside a bracket where it goes from - to +,
    with bisection for a step that leaves it or a concave point. An end
    where the first derivative does not change sign is returned as is."""
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


def profiled_criterion(stats: GroupStats, lam):
    """Minus twice the profiled restricted log-likelihood, up to a constant.

    A scalar lambda gives a float, an array of lambdas an array of the
    same shape.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambda must be non-negative")
    crit = _criterion(_spectrum(stats), lam)
    return float(crit) if crit.ndim == 0 else crit


def fit_lmm(y: np.ndarray, X: np.ndarray, groups: np.ndarray) -> LmmFit:
    """Fit the random-intercept model by profiled REML.

    The variance ratio is scanned on {0} union 25 log-spaced points over
    [e^-12, e^12]; a minimum at the upper edge widens the span once, to
    e^18, and flags the fit. A safeguarded Newton step in log lambda then
    refines the minimum between the best point's scan neighbours, or below
    lambda_1 when lambda = 0 is best and the slope there is negative.
    lambda = 0 is kept if the refined point does not beat it.
    """
    y, X, groups = np.asarray(y, dtype=float), np.asarray(X, dtype=float), np.asarray(groups)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size or groups.shape != y.shape:
        raise ValueError("y, X, and groups must have matching first dimensions")
    for name, values in (("y", y), ("X", X)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has non-finite values")
    stats = group_stats(X, y, groups)
    if stats.n.size < 2:
        raise ValueError("need at least two groups to separate the intercept variance")
    spec = kappa, e2, yqy, dof, _ = _spectrum(stats)

    flags: list[str] = []
    for span in (LOG_LAMBDA_SPAN, 1.5 * LOG_LAMBDA_SPAN):
        t = np.linspace(-span, span, 25)
        values = _criterion(spec, np.concatenate([[0.0], np.exp(t)]))
        k = int(values.argmin())
        if k < t.size or flags:
            break
        flags.append("mm:lambda_span_widened")

    lam_hat, crit_hat = 0.0, float(values[0])
    if k > 0 or dof * e2.sum() / yqy > kappa.sum():  # else the slope at 0 is >= 0
        lo = t[k - 2] if k > 1 else t[0] - (2.0 if k else 30.0)
        t_hat = _newton(lambda s: _criterion(spec, math.exp(s), True), lo, t[min(k, t.size - 1)])
        crit = float(_criterion(spec, math.exp(t_hat)))
        if crit < crit_hat:
            lam_hat, crit_hat = math.exp(t_hat), crit

    # GLS at lambda_hat through the Cholesky factor of X'V^-1 X
    c = lam_hat / (1.0 + lam_hat * stats.n)
    A = stats.xtx - (stats.U.T * c) @ stats.U
    b = stats.xty - stats.U.T @ (c * stats.y_sum)
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("whitened design is singular") from exc
    beta = np.linalg.solve(A, b)
    sigma2 = float(stats.yty - c @ stats.y_sum**2 - b @ beta) / dof
    return LmmFit(coef=beta, cov=sigma2 * (chol_inv.T @ chol_inv), lambda_hat=lam_hat,
                  sigma2=sigma2, sigma_b2=lam_hat * sigma2, criterion_value=crit_hat,
                  n_groups=stats.n.size, flags=tuple(flags))


def estimate_mm(dataset: TrialDataset, covset: int | None) -> EffectEstimate:
    """Treatment effect from the trial-level random-intercept model.

    Pools the reduced concurrent trial with every historical pool and
    lets each trial carry its own intercept deviation; covariates enter
    as fixed effects when a covariate set is given, otherwise the model
    is intercept plus treatment only.
    """
    pooled = dataset.pooled
    cols: list[np.ndarray] = [np.ones(len(pooled)), pooled.z.astype(float)]
    if covset is not None:
        cols.extend(pooled.x[:, c] for c in covset_columns(covset, pooled.x.shape[1]))
    fit = fit_lmm(pooled.y, np.column_stack(cols), pooled.trial)
    return wald_estimate(
        float(fit.coef[1]), fit.se(1), flags=fit.flags,
        diagnostics={"lambda_hat": fit.lambda_hat, "sigma2": fit.sigma2,
                     "sigma_b2": fit.sigma_b2, "n_groups": float(fit.n_groups)},
    )
