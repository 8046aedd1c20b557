"""Regression kernels shared by the estimators.

Weighted least squares via the normal equations, logistic regression by
iteratively reweighted least squares with step halving, heteroskedastic
(HC0) and cluster-robust sandwich covariances. Kept self-contained so
every estimator in the package runs through the same numerics; the
Wald test on their standard errors is ``metrics.wald_estimate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

__all__ = [
    "SingularDesignError",
    "SeparationError",
    "FitResult",
    "fit_ols",
    "fit_logistic",
    "sandwich_cov",
    "sandwich_se",
]

# Newton budget, step tolerance and divergence bound of fit_logistic.
LOGISTIC_MAX_ITER = 100
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_COEF = 1e3


class SingularDesignError(ValueError):
    """Design matrix is rank deficient."""


class SeparationError(ValueError):
    """Logistic likelihood is degenerate (perfect or quasi-separation)."""


@dataclass
class FitResult:
    """Output of :func:`fit_ols` or :func:`fit_logistic`.

    ``cov_model`` is the model-based covariance of ``coef``; ``design``
    and ``weights`` are retained so sandwich covariances can be formed
    afterwards without refitting.
    """

    coef: np.ndarray
    cov_model: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    design_info: tuple[str, ...]
    design: np.ndarray
    weights: np.ndarray | None = None


def _labels(p: int, design_info) -> tuple[str, ...]:
    if design_info is None:
        return tuple(f"c{j}" for j in range(p))
    labels = tuple(str(s) for s in design_info)
    if len(labels) != p:
        raise ValueError("design_info length does not match column count")
    return labels


def _check_full_rank(Xw: np.ndarray, labels: tuple[str, ...]) -> None:
    n, p = Xw.shape
    _, r, piv = scipy.linalg.qr(Xw, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    bad = np.flatnonzero(diag <= tol)
    if diag.size == 0 or diag[0] == 0 or bad.size:
        j = piv[bad[0]] if bad.size else piv[0]
        raise SingularDesignError(
            f"design is rank deficient: column '{labels[j]}' is collinear with the others"
        )


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
    design_info=None,
) -> FitResult:
    """Weighted least squares with model-based covariance.

    The variance estimate uses the weighted residual sum of squares over
    n - p degrees of freedom.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("response length does not match design rows")
    if n < p:
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")
    labels = _labels(p, design_info)
    if weights is None:
        w = None
        Xw, yw = X, y
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,) or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative, one per row")
        sw = np.sqrt(w)
        Xw, yw = X * sw[:, None], y * sw
    _check_full_rank(Xw, labels)
    A = Xw.T @ Xw
    coef = np.linalg.solve(A, Xw.T @ yw)
    fitted = X @ coef
    resid = y - fitted
    wrss = float(resid @ resid) if w is None else float(w @ (resid * resid))
    dof = n - p
    sigma2 = wrss / dof if dof > 0 else 0.0
    cov_model = sigma2 * np.linalg.inv(A)
    return FitResult(
        coef=coef,
        cov_model=cov_model,
        fitted=fitted,
        residuals=resid,
        design_info=labels,
        design=X,
        weights=w,
    )


def _bernoulli_loglik(eta: np.ndarray, t: np.ndarray, w: np.ndarray) -> float:
    # sum of w * (t * eta - log(1 + exp(eta))), stable in both tails
    return float(w @ (t * eta - np.logaddexp(0.0, eta)))


def fit_logistic(X: np.ndarray, t: np.ndarray) -> FitResult:
    """Logistic regression by Newton steps with step halving.

    Convergence is declared when the largest coefficient step falls
    below ``LOGISTIC_TOL``. Separation raises :class:`SeparationError`,
    detected either by the coefficient sup-norm exceeding
    ``LOGISTIC_MAX_COEF`` or by the iteration budget running out while
    every observation is classified perfectly (the likelihood plateaus
    at zero as the slope diverges).
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    n, p = X.shape
    if t.shape != (n,):
        raise ValueError("label length does not match design rows")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("labels must be 0/1")
    w = np.ones(n)
    if not (np.any(t == 1) and np.any(t == 0)):
        raise ValueError("both outcome classes must be present")
    labels = _labels(p, design_info=None)
    _check_full_rank(X * np.sqrt(w)[:, None], labels)

    coef = np.zeros(p)
    ll = _bernoulli_loglik(X @ coef, t, w)
    H = None
    converged = False
    for _ in range(LOGISTIC_MAX_ITER):
        eta = X @ coef
        mu = expit(eta)
        irls_w = np.clip(w * mu * (1.0 - mu), 1e-10, None)
        grad = X.T @ (w * (t - mu))
        H = X.T @ (X * irls_w[:, None])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(f"logistic information matrix is singular: {exc}")
        scale = 1.0
        new_coef = coef + step
        new_ll = _bernoulli_loglik(X @ new_coef, t, w)
        for _ in range(20):
            if new_ll >= ll - 1e-12:
                break
            scale *= 0.5
            new_coef = coef + scale * step
            new_ll = _bernoulli_loglik(X @ new_coef, t, w)
        coef, ll = new_coef, new_ll
        if np.max(np.abs(coef)) > LOGISTIC_MAX_COEF:
            raise SeparationError(
                "logistic fit diverged (coefficient magnitude exceeds "
                f"{LOGISTIC_MAX_COEF:g}); data are likely separated"
            )
        if np.max(np.abs(scale * step)) < LOGISTIC_TOL:
            converged = True
            break
    eta = X @ coef
    mu = expit(eta)
    if not converged:
        if np.all(np.abs(t - mu) < 1e-3):
            raise SeparationError(
                "logistic fit did not converge and classifies every "
                "observation perfectly; data are likely separated"
            )
    irls_w = np.clip(w * mu * (1.0 - mu), 1e-10, None)
    H = X.T @ (X * irls_w[:, None])
    cov_model = np.linalg.inv(H)
    return FitResult(
        coef=coef,
        cov_model=cov_model,
        fitted=mu,
        residuals=t - mu,
        design_info=labels,
        design=X,
    )


def sandwich_cov(fit: FitResult, clusters: np.ndarray | None = None) -> np.ndarray:
    """HC0 sandwich covariance; cluster-robust when ``clusters`` given."""
    X = fit.design
    w = fit.weights if fit.weights is not None else np.ones(X.shape[0])
    scores = X * (w * fit.residuals)[:, None]
    if clusters is None:
        meat = scores.T @ scores
    else:
        clusters = np.asarray(clusters)
        if clusters.shape != (X.shape[0],):
            raise ValueError("clusters must supply one label per row")
        _, inverse = np.unique(clusters, return_inverse=True)
        n_clusters = int(inverse.max()) + 1
        if n_clusters < 2:
            raise ValueError("need at least two clusters for a cluster-robust covariance")
        grouped = np.zeros((n_clusters, X.shape[1]))
        np.add.at(grouped, inverse, scores)
        meat = grouped.T @ grouped
    bread = np.linalg.inv((X * w[:, None]).T @ X)
    cov = bread @ meat @ bread
    return (cov + cov.T) / 2.0


def sandwich_se(
    fit: FitResult, target_index: int, clusters: np.ndarray | None = None
) -> float:
    cov = sandwich_cov(fit, clusters=clusters)
    return float(np.sqrt(cov[target_index, target_index]))

