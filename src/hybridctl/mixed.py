"""Random-intercept linear mixed model across trial sources.

Treats each trial (the concurrent one plus every historical pool) as a
group with its own intercept deviation: y = X beta + b_g + e with
b_g ~ N(0, sigma_b^2) and e ~ N(0, sigma^2). Writing lambda for the
variance ratio sigma_b^2 / sigma^2, everything profiles down to a
one-dimensional criterion in lambda because the group covariance
(I + lambda 11') inverts in closed form: the whitened normal equations
are X'X - sum_g c_g u_g u_g' with c_g = lambda / (1 + lambda n_g) and
u_g the column sums of group g. The criterion is evaluated on whole
vectors of lambda at once (one batched Cholesky) and minimized by a
grid scan followed by grids that zoom in on the best point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import EffectEstimate, wald_estimate
from .propensity import covset_columns
from .regress import SingularDesignError
from .trialdata import TrialDataset

__all__ = [
    "GroupStats",
    "LmmFit",
    "group_stats",
    "profiled_criterion",
    "fit_lmm",
    "estimate_mm",
]

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


@dataclass(frozen=True)
class LmmFit:
    coef: np.ndarray
    cov: np.ndarray
    lambda_hat: float
    sigma2: float
    sigma_b2: float
    reml: bool
    criterion_value: float
    n_groups: int
    flags: tuple[str, ...] = ()

    def se(self, index: int) -> float:
        return math.sqrt(self.cov[index, index])


def group_stats(X: np.ndarray, y: np.ndarray, groups: np.ndarray) -> GroupStats:
    _, inverse = np.unique(groups, return_inverse=True)
    onehot = (inverse == np.arange(inverse.max() + 1)[:, None]).astype(float)
    return GroupStats(
        n=np.bincount(inverse),
        U=onehot @ X,
        y_sum=onehot @ y,
        xtx=X.T @ X,
        xty=X.T @ y,
        yty=float(y @ y),
    )


def _profile(stats: GroupStats, lam: np.ndarray, reml: bool):
    """GLS fit and criterion at every lambda of a 1-d array.

    Returns the criterion (L,), the Cholesky factors of the whitened
    X'V^-1 X (L, p, p), the coefficients (L, p) and the residual variance
    estimates (L,); V = I + lambda ZZ' is the covariance over sigma^2.
    """
    n = int(stats.n.sum())
    p = stats.xtx.shape[0]
    c = lam[:, None] / (1.0 + lam[:, None] * stats.n)
    A = stats.xtx - np.einsum("lg,gi,gj->lij", c, stats.U, stats.U)
    b = stats.xty - (c * stats.y_sum) @ stats.U
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("whitened design is singular") from exc
    beta = np.linalg.solve(A, b[..., None])[..., 0]
    rss = stats.yty - c @ stats.y_sum**2 - np.einsum("li,li->l", b, beta)
    dof = n - p if reml else n
    if np.any(rss <= 0) or dof <= 0:
        raise SingularDesignError("no residual variation left to profile")
    sigma2 = rss / dof
    crit = dof * np.log(sigma2) + np.log1p(lam[:, None] * stats.n).sum(axis=1)
    if reml:
        crit += 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return crit, chol, beta, sigma2


def profiled_criterion(stats: GroupStats, lam, reml: bool = True):
    """Minus twice the profiled (restricted) log-likelihood, up to a constant.

    A scalar lambda gives a float, an array of lambdas an array of the
    same shape.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambda must be non-negative")
    crit = _profile(stats, lam.reshape(-1), reml)[0].reshape(lam.shape)
    return float(crit) if crit.ndim == 0 else crit


def _zoom(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize f on [lo, hi] by 25-point grids, each spanning the
    neighbours of the previous grid's best point, until that span is
    below tol. Returns the best point and its value."""
    while True:
        x = np.linspace(lo, hi, 25)
        values = f(x)
        k = int(values.argmin())
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, x.size - 1)]
        if hi - lo <= tol:
            return float(x[k]), float(values[k])


def fit_lmm(
    y: np.ndarray,
    X: np.ndarray,
    groups: np.ndarray,
    reml: bool = True,
) -> LmmFit:
    """Fit the random-intercept model by profiled (RE)ML.

    The variance ratio is scanned on {0} union 25 log-spaced points over
    [e^-12, e^12]; a minimum at the upper edge widens the span once, to
    e^18, and flags the fit. Zooming grids then refine the minimum on the
    log scale between the best point's grid neighbours, or on [0, lambda_1]
    when lambda = 0 is best, and lambda = 0 is kept if no point beats it.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size or groups.shape != y.shape:
        raise ValueError("y, X, and groups must have matching first dimensions")
    stats = group_stats(X, y, groups)
    if stats.n.size < 2:
        raise ValueError("need at least two groups to separate the intercept variance")

    def crit(lam):
        return profiled_criterion(stats, lam, reml=reml)

    flags: list[str] = []
    span = LOG_LAMBDA_SPAN
    for attempt in range(2):
        lams = np.concatenate([[0.0], np.exp(np.linspace(-span, span, 25))])
        values = crit(lams)
        k = int(values.argmin())
        if k == lams.size - 1 and attempt == 0:
            span = 1.5 * LOG_LAMBDA_SPAN
            flags.append("mm:lambda_span_widened")
            continue
        break

    if k == 0:
        # boundary minimum at lambda = 0; refine against the smallest grid point
        lam_hat, best = _zoom(crit, 0.0, lams[1], tol=1e-10)
        if values[0] <= best:
            lam_hat = 0.0
    else:
        lo = math.log(lams[k - 1]) if k > 1 else math.log(lams[1]) - 2.0
        hi = math.log(lams[min(k + 1, lams.size - 1)])
        t_hat, best = _zoom(lambda t: crit(np.exp(t)), lo, hi, tol=1e-8)
        lam_hat = math.exp(t_hat)
        if values[0] < best:
            lam_hat = 0.0

    crit_hat, chol, beta, sigma2_hat = _profile(stats, np.array([lam_hat]), reml)
    sigma2 = float(sigma2_hat[0])
    chol_inv = np.linalg.inv(chol[0])
    return LmmFit(
        coef=beta[0],
        cov=sigma2 * (chol_inv.T @ chol_inv),
        lambda_hat=float(lam_hat),
        sigma2=sigma2,
        sigma_b2=float(lam_hat * sigma2),
        reml=reml,
        criterion_value=float(crit_hat[0]),
        n_groups=stats.n.size,
        flags=tuple(flags),
    )


def _stack_for_mm(dataset: TrialDataset, covset: int | None) -> tuple[np.ndarray, ...]:
    pooled = dataset.pooled
    cols: list[np.ndarray] = [np.ones(len(pooled)), pooled.z.astype(float)]
    if covset is not None:
        cols.extend(pooled.x[:, c] for c in covset_columns(covset, pooled.x.shape[1]))
    return pooled.y, np.column_stack(cols), pooled.trial


def estimate_mm(dataset: TrialDataset, covset: int | None, reml: bool = True) -> EffectEstimate:
    """Treatment effect from the trial-level random-intercept model.

    Pools the reduced concurrent trial with every historical pool and
    lets each trial carry its own intercept deviation; covariates enter
    as fixed effects when a covariate set is given, otherwise the model
    is intercept plus treatment only.
    """
    y, X, trial = _stack_for_mm(dataset, covset)
    fit = fit_lmm(y, X, trial, reml=reml)
    return wald_estimate(
        float(fit.coef[1]), fit.se(1),
        flags=fit.flags,
        diagnostics={
            "lambda_hat": fit.lambda_hat,
            "sigma2": fit.sigma2,
            "sigma_b2": fit.sigma_b2,
            "n_groups": float(fit.n_groups),
        },
    )
