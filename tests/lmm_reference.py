"""Dense-covariance REML reference for ``mixed.fit_lmm``.

General-design algebra, sharing no code with the spectral form: every
quantity comes from ``np.linalg.slogdet`` and ``np.linalg.solve`` on the
n x n covariance over sigma^2, V = I + lambda ZZ', with Z the group
indicator matrix. Stacked over a vector of lambdas, so a fine grid is
one batched call per chunk.
"""

import numpy as np


def _covariances(groups, lams):
    Z = (np.asarray(groups)[:, None] == np.unique(groups)[None, :]).astype(float)
    return np.eye(len(groups)) + np.asarray(lams, dtype=float)[:, None, None] * (Z @ Z.T)


def gls(y, X, groups, lams):
    """GLS at every lambda: coefficients (L, p), covariances (L, p, p),
    residual variances (L,) and the REML criterion (L,).

    The criterion is minus twice the profiled restricted log-likelihood
    up to a constant: (n - p) log(rss / (n - p)) + log|V| + log|X'V^-1 X|,
    with rss the GLS residual sum of squares in the V^-1 metric.
    """
    n, p = X.shape
    V = _covariances(groups, lams)
    rhs = np.broadcast_to(np.column_stack([X, y]), (len(V), n, p + 1))
    solved = np.linalg.solve(V, rhs)
    xtvx = np.einsum("ni,lnj->lij", X, solved[..., :p])
    xtvy = np.einsum("ni,ln->li", X, solved[..., p])
    coef = np.linalg.solve(xtvx, xtvy[..., None])[..., 0]
    resid = y - coef @ X.T
    rss = np.einsum("ln,ln->l", resid, np.linalg.solve(V, resid[..., None])[..., 0])
    sigma2 = rss / (n - p)
    crit = (n - p) * np.log(sigma2) + np.linalg.slogdet(V)[1] + np.linalg.slogdet(xtvx)[1]
    return coef, sigma2[:, None, None] * np.linalg.inv(xtvx), sigma2, crit


def criterion(y, X, groups, lams):
    """The REML criterion at every lambda of a 1-d array."""
    return gls(y, X, groups, lams)[3]


def grid_minimum(y, X, groups, lams, chunk=256):
    """Smallest criterion over a lambda grid, evaluated in chunks."""
    lams = np.asarray(lams, dtype=float)
    return min(criterion(y, X, groups, lams[i:i + chunk]).min()
               for i in range(0, lams.size, chunk))
