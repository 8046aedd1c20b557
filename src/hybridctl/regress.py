"""Regression kernels shared by the estimators.

Every linear fit in the package has the design [1, z]: the slope is the
difference of the (weighted) arm means, so :func:`arm_contrast` returns
it with its model-based, HC0 and cluster-robust variances in closed
form. Propensity scores come from :func:`fit_logistic`, Newton steps
with step halving. The Wald test on a standard error is
``metrics.wald_estimate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "SingularDesignError",
    "SeparationError",
    "ArmContrast",
    "arm_contrast",
    "fit_logistic",
]

# Newton budget, step tolerance and divergence bound of fit_logistic.
LOGISTIC_MAX_ITER = 100
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_COEF = 1e3


class SingularDesignError(ValueError):
    """Design matrix is rank deficient."""


class SeparationError(ValueError):
    """Logistic likelihood is degenerate (perfect or quasi-separation)."""


@dataclass(frozen=True)
class ArmContrast:
    """Slope m1 - m0 of the weighted arm means and its variances.

    ``var_clusters`` holds one cluster-robust variance per label array
    passed to :func:`arm_contrast`, in order.
    """

    slope: float
    var_model: float
    var_hc0: float
    var_clusters: tuple[float, ...]


def arm_contrast(y, z, weights=None, clusters=()) -> ArmContrast:
    """Weighted least squares of ``y`` on [1, z], in closed form.

    With arm weight totals W1 and W0, row i has the influence
    w_i r_i (z_i / W1 - (1 - z_i) / W0) on the slope, r_i being its
    residual about its own arm's mean. HC0 sums the squared influences;
    a cluster-robust variance first sums them within each cluster (labels
    are non-negative integers, one per row). The model variance is
    sigma^2 (1/W1 + 1/W0), with the weighted residual sum of squares
    over n - 2 degrees of freedom.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    n = y.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if z.shape != (n,) or not np.all((z == 0) | (z == 1)):
        raise ValueError("treatment indicator must be 0/1, one per row")
    if w.shape != (n,) or not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and non-negative, one per row")
    if n < 3:
        raise SingularDesignError(f"need at least three rows for two arm means, got {n}")
    z = z == 1
    w1, w0 = float(w[z].sum()), float(w[~z].sum())
    if not (w1 > 0 and w0 > 0):
        raise SingularDesignError("design is rank deficient: an arm has no weight")
    m1, m0 = float(w[z] @ y[z]) / w1, float(w[~z] @ y[~z]) / w0
    resid = y - np.where(z, m1, m0)
    wr = w * resid
    influence = wr * np.where(z, 1.0 / w1, -1.0 / w0)
    var_clusters = []
    for labels in clusters:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError("clusters must supply one label per row")
        if labels.min() == labels.max():
            raise ValueError("need at least two clusters for a cluster-robust variance")
        summed = np.bincount(labels, weights=influence)
        var_clusters.append(float(summed @ summed))
    return ArmContrast(
        slope=m1 - m0,
        var_model=float(wr @ resid) / (n - 2) * (1.0 / w1 + 1.0 / w0),
        var_hc0=float(influence @ influence),
        var_clusters=tuple(var_clusters),
    )


def _bernoulli_loglik(eta: np.ndarray, t: np.ndarray) -> float:
    # sum of t * eta - log(1 + exp(eta)), stable in both tails
    return float(np.sum(t * eta - np.logaddexp(0.0, eta)))


def fit_logistic(X: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logistic regression by Newton steps with step halving.

    Convergence is declared when the largest coefficient step falls
    below ``LOGISTIC_TOL``. Separation raises :class:`SeparationError`,
    detected either by the coefficient sup-norm exceeding
    ``LOGISTIC_MAX_COEF`` or by the iteration budget running out while
    every observation is classified perfectly (the likelihood plateaus
    at zero as the slope diverges). Returns the coefficients and the
    fitted probabilities.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    n, p = X.shape
    if t.shape != (n,):
        raise ValueError("label length does not match design rows")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("labels must be 0/1")
    if not (np.any(t == 1) and np.any(t == 0)):
        raise ValueError("both outcome classes must be present")
    if np.linalg.matrix_rank(X) < p:
        raise SingularDesignError("logistic design is rank deficient")

    coef = np.zeros(p)
    ll = _bernoulli_loglik(X @ coef, t)
    for _ in range(LOGISTIC_MAX_ITER):
        eta = X @ coef
        mu = expit(eta)
        irls_w = np.clip(mu * (1.0 - mu), 1e-10, None)
        grad = X.T @ (t - mu)
        H = X.T @ (X * irls_w[:, None])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(f"logistic information matrix is singular: {exc}")
        scale = 1.0
        new_coef = coef + step
        new_ll = _bernoulli_loglik(X @ new_coef, t)
        for _ in range(20):
            if new_ll >= ll - 1e-12:
                break
            scale *= 0.5
            new_coef = coef + scale * step
            new_ll = _bernoulli_loglik(X @ new_coef, t)
        coef, ll = new_coef, new_ll
        if np.max(np.abs(coef)) > LOGISTIC_MAX_COEF:
            raise SeparationError(
                "logistic fit diverged (coefficient magnitude exceeds "
                f"{LOGISTIC_MAX_COEF:g}); data are likely separated"
            )
        if np.max(np.abs(scale * step)) < LOGISTIC_TOL:
            break
    else:
        if np.all(np.abs(t - expit(X @ coef)) < 1e-3):
            raise SeparationError(
                "logistic fit did not converge and classifies every "
                "observation perfectly; data are likely separated"
            )
    return coef, expit(X @ coef)
