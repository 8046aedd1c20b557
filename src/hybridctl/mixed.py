"""Random-intercept linear mixed model across trial sources.

Treats each trial (the concurrent one plus every historical pool) as a
group with its own intercept deviation: y = X beta + b_g + e with
b_g ~ N(0, sigma_b^2) and e ~ N(0, sigma^2). Writing lambda for the
variance ratio sigma_b^2 / sigma^2, everything profiles down to a
one-dimensional criterion in lambda because the group covariance
(I + lambda 11') inverts in closed form. The criterion is minimized by
a grid scan followed by golden-section refinement on log lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .metrics import EffectEstimate, wald_estimate
from .propensity import covset_columns
from .regress import SingularDesignError
from .trialdata import SubjectGroup, TrialDataset

__all__ = [
    "GroupStats",
    "LmmFit",
    "group_stats",
    "profiled_criterion",
    "fit_lmm",
    "estimate_mm",
]

LOG_LAMBDA_SPAN = 12.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GroupStats:
    """Per-group sufficient statistics for the profiled criterion."""

    n: int
    xtx: np.ndarray
    xty: np.ndarray
    x_colsum: np.ndarray
    y_sum: float
    y_sq: float


@dataclass(frozen=True)
class LmmFit:
    coef: np.ndarray
    cov: np.ndarray
    labels: tuple[str, ...]
    lambda_hat: float
    sigma2: float
    sigma_b2: float
    reml: bool
    criterion_value: float
    n_obs: int
    n_groups: int
    flags: tuple[str, ...] = ()

    def se(self, index: int) -> float:
        return math.sqrt(self.cov[index, index])


def group_stats(X: np.ndarray, y: np.ndarray, groups: np.ndarray) -> list[GroupStats]:
    _, inverse = np.unique(groups, return_inverse=True)
    stats = []
    for g in range(inverse.max() + 1):
        mask = inverse == g
        Xg, yg = X[mask], y[mask]
        stats.append(
            GroupStats(
                n=int(mask.sum()),
                xtx=Xg.T @ Xg,
                xty=Xg.T @ yg,
                x_colsum=Xg.sum(axis=0),
                y_sum=float(yg.sum()),
                y_sq=float(yg @ yg),
            )
        )
    return stats


def _assemble(stats: list[GroupStats], lam: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Whitened normal equations and residual pieces at a given lambda."""
    p = stats[0].xtx.shape[0]
    A = np.zeros((p, p))
    b = np.zeros(p)
    q = 0.0
    log_extra = 0.0
    for st in stats:
        c = lam / (1.0 + lam * st.n)
        A += st.xtx - c * np.outer(st.x_colsum, st.x_colsum)
        b += st.xty - c * st.y_sum * st.x_colsum
        q += st.y_sq - c * st.y_sum**2
        log_extra += math.log1p(lam * st.n)
    return A, b, q, log_extra


def profiled_criterion(stats: list[GroupStats], lam: float, reml: bool = True) -> float:
    """Minus twice the profiled (restricted) log-likelihood, up to a constant."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    n = sum(st.n for st in stats)
    p = stats[0].xtx.shape[0]
    A, b, q, log_extra = _assemble(stats, lam)
    try:
        chol = cho_factor(A, lower=True)
    except LinAlgError as exc:
        raise SingularDesignError("whitened design is singular") from exc
    beta = cho_solve(chol, b)
    rss = q - float(b @ beta)
    dof = n - p if reml else n
    if rss <= 0 or dof <= 0:
        raise SingularDesignError("no residual variation left to profile")
    crit = dof * math.log(rss / dof) + log_extra
    if reml:
        crit += 2.0 * float(np.log(np.diag(chol[0])).sum())
    return crit


def _golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_lmm(
    y: np.ndarray,
    X: np.ndarray,
    groups: np.ndarray,
    labels: tuple[str, ...] | None = None,
    reml: bool = True,
) -> LmmFit:
    """Fit the random-intercept model by profiled (RE)ML.

    The variance ratio is scanned on {0} union a log-spaced grid over
    [e^-12, e^12], then the bracketing interval around the grid minimum
    is refined by golden section on the log scale. A minimum at the
    upper edge widens the span once and flags the fit.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size or groups.shape != y.shape:
        raise ValueError("y, X, and groups must have matching first dimensions")
    if labels is None:
        labels = tuple(f"b{j}" for j in range(X.shape[1]))
    stats = group_stats(X, y, groups)
    if len(stats) < 2:
        raise ValueError("need at least two groups to separate the intercept variance")

    def crit(lam: float) -> float:
        return profiled_criterion(stats, lam, reml=reml)

    flags: list[str] = []
    span = LOG_LAMBDA_SPAN
    for attempt in range(2):
        log_grid = np.linspace(-span, span, 25)
        lams = np.concatenate([[0.0], np.exp(log_grid)])
        values = np.array([crit(l) for l in lams])
        k = int(values.argmin())
        if k == lams.size - 1 and attempt == 0:
            span = 1.5 * LOG_LAMBDA_SPAN
            flags.append("mm:lambda_span_widened")
            continue
        break

    if k == 0:
        # boundary minimum at lambda = 0; refine against the smallest grid point
        lam_hat = _golden_section(lambda t: crit(t), 0.0, lams[1], tol=1e-10)
        if crit(0.0) <= crit(lam_hat):
            lam_hat = 0.0
    else:
        lo = math.log(lams[max(k - 1, 1)]) if k > 1 else math.log(lams[1]) - 2.0
        hi = math.log(lams[min(k + 1, lams.size - 1)])
        t_hat = _golden_section(lambda t: crit(math.exp(t)), lo, hi)
        lam_hat = math.exp(t_hat)
        if crit(0.0) < crit(lam_hat):
            lam_hat = 0.0

    n = y.size
    p = X.shape[1]
    A, b, q, _ = _assemble(stats, lam_hat)
    chol = cho_factor(A, lower=True)
    beta = cho_solve(chol, b)
    rss = q - float(b @ beta)
    dof = n - p if reml else n
    sigma2 = rss / dof
    cov = sigma2 * cho_solve(chol, np.eye(p))
    return LmmFit(
        coef=beta,
        cov=cov,
        labels=labels,
        lambda_hat=float(lam_hat),
        sigma2=float(sigma2),
        sigma_b2=float(lam_hat * sigma2),
        reml=reml,
        criterion_value=crit(lam_hat),
        n_obs=n,
        n_groups=len(stats),
        flags=tuple(flags),
    )


def _stack_for_mm(dataset: TrialDataset, covset: int | None) -> tuple[np.ndarray, ...]:
    parts = [dataset.reduced_concurrent, *dataset.historical]
    merged = SubjectGroup.concat(parts)
    cols: list[np.ndarray] = [np.ones(len(merged)), merged.z.astype(float)]
    labels = ["const", "z"]
    if covset is not None:
        sel = covset_columns(covset, merged.x.shape[1])
        for c in sel:
            cols.append(merged.x[:, c])
            labels.append(f"x{c + 1}")
    X = np.column_stack(cols)
    return merged.y, X, merged.trial, tuple(labels)


def estimate_mm(dataset: TrialDataset, covset: int | None, reml: bool = True) -> EffectEstimate:
    """Treatment effect from the trial-level random-intercept model.

    Pools the reduced concurrent trial with every historical pool and
    lets each trial carry its own intercept deviation; covariates enter
    as fixed effects when a covariate set is given ("MM"), otherwise the
    model is intercept plus treatment only ("MM.nc").
    """
    y, X, trial, labels = _stack_for_mm(dataset, covset)
    fit = fit_lmm(y, X, trial, labels=labels, reml=reml)
    return wald_estimate(
        "MM" if covset is not None else "MM.nc", covset, float(fit.coef[1]), fit.se(1),
        flags=fit.flags,
        diagnostics={
            "lambda_hat": fit.lambda_hat,
            "sigma2": fit.sigma2,
            "sigma_b2": fit.sigma_b2,
            "n_groups": float(fit.n_groups),
        },
    )
