"""Dense weighted-least-squares reference for ``regress.arm_contrast``.

General-design algebra, sharing no code with the closed form: the fit
comes from ``np.linalg.lstsq`` on the sqrt-weighted design, and the
sandwich is bread @ meat @ bread with the cluster scores summed by
``np.add.at``.
"""

import numpy as np


def design(z):
    """The [1, z] design every linear fit in the package uses."""
    return np.column_stack([np.ones(len(z)), np.asarray(z, dtype=float)])


def wls(X, y, w=None):
    """Coefficients and residuals of weighted least squares."""
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    sw = np.sqrt(w)
    coef = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
    return coef, y - X @ coef


def model_cov(X, y, w=None):
    """sigma^2 (X'WX)^-1, the weighted RSS over n - p degrees of freedom."""
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    _, resid = wls(X, y, w)
    n, p = X.shape
    return float(w @ resid**2) / (n - p) * np.linalg.inv((X * w[:, None]).T @ X)


def sandwich(X, y, w=None, clusters=None):
    """HC0 sandwich covariance; cluster-robust when ``clusters`` is given."""
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    _, resid = wls(X, y, w)
    scores = X * (w * resid)[:, None]
    if clusters is not None:
        _, inverse = np.unique(clusters, return_inverse=True)
        grouped = np.zeros((inverse.max() + 1, X.shape[1]))
        np.add.at(grouped, inverse, scores)
        scores = grouped
    bread = np.linalg.inv((X * w[:, None]).T @ X)
    return bread @ (scores.T @ scores) @ bread
