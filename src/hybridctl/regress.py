"""Regression kernels shared by the estimators.

Every linear fit in the package has the design [1, z]: the slope is the
difference of the (weighted) arm means, so :func:`arm_contrast` returns
it with its model-based, HC0 and cluster-robust variances in closed
form. Propensity scores come from :func:`fit_logistic`, Newton steps
with step halving on the logistic function, computed in numpy as
scipy.special.expit computes it. The Wald test on a standard error is
``metrics.wald_estimate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularDesignError",
    "ArmContrast",
    "arm_contrast",
    "fit_logistic",
    "mean_sd",
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


def mean_sd(y: np.ndarray) -> tuple[float, float]:
    """Mean and sample SD (ddof=1) of a 1-d float array of two or more
    values, bit-equal to ``y.mean()`` and ``y.std(ddof=1)``: the same
    numpy reductions in the same order, without their wrappers."""
    n = y.size
    mean = np.add.reduce(y) / n
    d = y - mean
    return float(mean), math.sqrt(np.add.reduce(d * d) / (n - 1))


def _expit(eta: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-eta)), as scipy.special.expit
    computes it; below eta of about -709 exp(-eta) overflows to inf and the
    result is 0, with no warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


def _bernoulli_loglik(eta: np.ndarray, t: np.ndarray) -> float:
    # sum of t * eta - log(1 + exp(eta)), stable in both tails: the terms
    # np.logaddexp(0, eta) adds, without its per-element branches
    return float(np.sum(t * eta - (np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))))))


def fit_logistic(X: np.ndarray, t: np.ndarray,
                 check_rank: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Logistic regression by Newton steps with step halving.

    A rank-deficient design raises :class:`SingularDesignError`; a
    caller that knows ``X`` has full column rank (see
    ``propensity.full_rank_design``) passes ``check_rank=False`` and
    skips that SVD.

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
    if check_rank and np.linalg.matrix_rank(X) < p:
        raise SingularDesignError("logistic design is rank deficient")

    XT = np.ascontiguousarray(X.T)  # one copy whose rows are X's columns, for X'r and X'WX
    coef = np.zeros(p)
    eta = X @ coef
    ll = _bernoulli_loglik(eta, t)
    with np.errstate(over="ignore"):  # _expit's, held once for the whole loop
        for _ in range(LOGISTIC_MAX_ITER):
            mu = 1.0 / (1.0 + np.exp(-eta))
            grad = XT @ (t - mu)
            H = (XT * np.maximum(mu * (1.0 - mu), 1e-10)) @ X
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError as exc:
                raise SingularDesignError(f"logistic information matrix is singular: {exc}")
            scale = 1.0
            new_coef = coef + step
            new_eta = X @ new_coef
            new_ll = _bernoulli_loglik(new_eta, t)
            for _ in range(20):
                if new_ll >= ll - 1e-12:
                    break
                scale *= 0.5
                new_coef = coef + scale * step
                new_eta = X @ new_coef
                new_ll = _bernoulli_loglik(new_eta, t)
            coef, eta, ll = new_coef, new_eta, new_ll
            if np.abs(coef).max() > LOGISTIC_MAX_COEF:
                raise SeparationError(
                    "logistic fit diverged (coefficient magnitude exceeds "
                    f"{LOGISTIC_MAX_COEF:g}); data are likely separated"
                )
            if np.abs(scale * step).max() < LOGISTIC_TOL:
                break
        else:
            if np.all(np.abs(t - _expit(eta)) < 1e-3):
                raise SeparationError(
                    "logistic fit did not converge and classifies every "
                    "observation perfectly; data are likely separated"
                )
    return coef, _expit(eta)
