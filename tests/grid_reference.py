"""Reference MAP pipeline on a numeric theta grid, kept for tests only.

This is the grid implementation that ``hybridctl.borrow`` used before its
MAP path became an exact normal mixture: the predictive prior, the
robust mixture, the posterior update and the effect posterior all live
as probability mass on a 4001-point theta grid. It uses the same tau
quadrature as the package, so the only difference between the two paths
is the grid's discretisation error. ``tests/test_map_oracle.py`` compares
them; nothing else should import this module.

The functions are unchanged from the grid code except that
``estimate_map`` takes omega, the tau-ladder label and the grid size as
arguments, and a ``support`` factor that stretches the grid about its
centre (1 is the grid as it was). The
grid's support of 10 (se + tau) about each study truncates the widest
tau components of the prior; stretching it shows how much of a
difference from the exact mixture is that truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from hybridctl.borrow import _mean_se, _tau_scales
from hybridctl.metrics import EffectEstimate
from hybridctl.trialdata import TrialDataset

N_THETA = 4001


class GridSupportError(ValueError):
    """A grid density update lost its mass off the ends of the grid."""


# ---------------------------------------------------------------------------
# Grid densities
# ---------------------------------------------------------------------------


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    return w


@dataclass(frozen=True)
class GridDensity:
    """Probability mass on an increasing grid of effect values."""

    theta_grid: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        g, m = self.theta_grid, self.mass
        if g.ndim != 1 or g.shape != m.shape or g.size < 2:
            raise ValueError("grid and mass must be 1-d arrays of equal length >= 2")
        if not np.all(np.diff(g) > 0):
            raise ValueError("theta grid must be strictly increasing")
        if np.any(m < 0) or abs(float(m.sum()) - 1.0) > 1e-10:
            raise ValueError("mass must be non-negative and sum to 1")

    @staticmethod
    def from_density(grid: np.ndarray, density: np.ndarray) -> "GridDensity":
        mass = density * _trapezoid_weights(grid)
        total = mass.sum()
        if not np.isfinite(total) or total <= 0:
            raise GridSupportError("density has no mass on the grid; widen the theta grid")
        return GridDensity(theta_grid=grid, mass=mass / total)

    @staticmethod
    def normal(grid: np.ndarray, mean: float, sd: float) -> "GridDensity":
        if sd <= 0:
            raise ValueError("sd must be positive")
        logd = -0.5 * ((grid - mean) / sd) ** 2
        return GridDensity.from_density(grid, np.exp(logd - logd.max()))

    def mean(self) -> float:
        return float(self.mass @ self.theta_grid)

    def var(self) -> float:
        mu = self.mean()
        return float(self.mass @ (self.theta_grid - mu) ** 2)

    def sd(self) -> float:
        return math.sqrt(max(self.var(), 0.0))


# ---------------------------------------------------------------------------
# MAP prior construction
# ---------------------------------------------------------------------------


def map_prior(
    studies: np.ndarray,
    tau_scale: float,
    theta_grid: np.ndarray | None = None,
    n_theta: int = 4001,
    n_tau: int = 201,
) -> GridDensity:
    """Meta-analytic predictive prior for a new study mean, on a grid.

    For each tau on a grid the location parameter integrates out under a
    flat prior, giving a normal predictive with the profiled marginal
    likelihood of tau; the half-normal(tau_scale) prior then weights the
    tau grid. ``tau_scale = 0`` collapses to fixed-effect pooling.
    """
    if tau_scale < 0 or not np.isfinite(tau_scale):
        raise ValueError("tau_scale must be finite and non-negative")
    means, ses = np.asarray(studies, dtype=float).reshape(-1, 2).T
    if means.size == 0:
        raise ValueError("need at least one study")

    prec0 = 1.0 / ses**2
    pooled = float((means * prec0).sum() / prec0.sum())
    if theta_grid is None:
        half = 10.0 * (float(ses.max()) + tau_scale)
        theta_grid = np.linspace(pooled - half, pooled + half, n_theta)

    if tau_scale == 0.0:
        taus = np.zeros(1)
        log_w = np.zeros(1)
    else:
        taus = np.concatenate(
            [[0.0], np.geomspace(tau_scale * 1e-3, tau_scale * 10.0, n_tau - 1)]
        )
        # half-normal prior density and trapezoid quadrature in tau
        log_w = -0.5 * (taus / tau_scale) ** 2 + np.log(_trapezoid_weights(taus))

    v = ses[None, :] ** 2 + taus[:, None] ** 2  # (n_tau, k)
    prec = 1.0 / v
    pressum = prec.sum(axis=1)
    mu_hat = (means[None, :] * prec).sum(axis=1) / pressum
    v_mu = 1.0 / pressum
    if means.size > 1:
        quad = ((means[None, :] - mu_hat[:, None]) ** 2 * prec).sum(axis=1)
        log_w = log_w - 0.5 * (np.log(v).sum(axis=1) + np.log(pressum) + quad)
    log_w -= log_w.max()
    w_tau = np.exp(log_w)
    w_tau /= w_tau.sum()

    pred_var = v_mu + taus**2
    diff = theta_grid[None, :] - mu_hat[:, None]
    log_comp = -0.5 * (diff * diff) / pred_var[:, None] - 0.5 * np.log(pred_var)[:, None]
    density = np.exp(log_comp - log_comp.max()).T @ w_tau
    return GridDensity.from_density(theta_grid, density)


def robustify(prior: GridDensity, omega: float, vague_mean: float, vague_sd: float) -> GridDensity:
    """Mix a vague normal into the prior with weight ``omega``."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    vague = GridDensity.normal(prior.theta_grid, vague_mean, vague_sd)
    mass = (1.0 - omega) * prior.mass + omega * vague.mass
    return GridDensity(theta_grid=prior.theta_grid, mass=mass / mass.sum())


def posterior_update(prior: GridDensity, data_mean: float, data_se: float) -> GridDensity:
    """Multiply a normal likelihood into a grid prior and renormalize."""
    if not (np.isfinite(data_mean) and np.isfinite(data_se) and data_se > 0):
        raise ValueError("need a finite data mean and positive se")
    with np.errstate(divide="ignore"):
        log_post = np.log(prior.mass) - 0.5 * ((prior.theta_grid - data_mean) / data_se) ** 2
    top = log_post.max()
    if not np.isfinite(top):
        raise GridSupportError(
            "posterior mass underflowed; the likelihood lies outside the grid support, "
            "widen the theta grid"
        )
    mass = np.exp(log_post - top)
    mass /= mass.sum()
    if mass[0] + mass[-1] > 0.5:
        raise GridSupportError(
            "posterior mass concentrates at the grid boundary; widen the theta grid"
        )
    return GridDensity(theta_grid=prior.theta_grid, mass=mass)


def effect_posterior(
    control_posterior: GridDensity,
    treated_mean: float,
    treated_se: float,
    alpha: float = 0.05,
) -> EffectEstimate:
    """Posterior of treated mean minus control mean.

    The treated arm contributes an exact normal, so the difference is a
    normal mixture over the control grid atoms: moments are exact and
    the central credible interval comes from bisecting the mixture CDF.
    Rejection means the interval excludes zero.
    """
    if treated_se <= 0 or not np.isfinite(treated_se):
        raise ValueError("treated se must be positive and finite")
    mean_c = control_posterior.mean()
    var_c = control_posterior.var()
    est = treated_mean - mean_c
    sd = math.sqrt(treated_se**2 + var_c)

    keep = control_posterior.mass > 1e-15
    atoms = control_posterior.theta_grid[keep]
    w = control_posterior.mass[keep]
    shift = treated_mean - atoms

    def cdf(d: float) -> float:
        return float(w @ ndtr((d - shift) / treated_se))

    def invert(q: float) -> float:
        lo, hi = est - 12.0 * sd, est + 12.0 * sd
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-11 * max(sd, 1e-12):
                break
        return 0.5 * (lo + hi)

    lo_q = invert(alpha / 2.0)
    hi_q = invert(1.0 - alpha / 2.0)
    return EffectEstimate(
        estimate=est,
        se=sd,
        reject=bool(lo_q > 0.0 or hi_q < 0.0),
        interval=(lo_q, hi_q),
    )


def _theta_grid_for(
    studies: np.ndarray,
    tau_scale: float,
    data_mean: float,
    data_se: float,
    vague_mean: float,
    vague_sd: float,
    n_theta: int,
) -> np.ndarray:
    lows = [data_mean - 10.0 * data_se, vague_mean - 6.0 * vague_sd]
    highs = [data_mean + 10.0 * data_se, vague_mean + 6.0 * vague_sd]
    for mean, se in studies:
        lows.append(mean - 10.0 * (se + tau_scale))
        highs.append(mean + 10.0 * (se + tau_scale))
    return np.linspace(min(lows), max(highs), n_theta)


def _widen(grid: np.ndarray, support: float) -> np.ndarray:
    """The grid stretched about its centre by ``support``, same point count."""
    if support == 1.0:
        return grid
    centre, half = 0.5 * (grid[0] + grid[-1]), 0.5 * (grid[-1] - grid[0])
    return np.linspace(centre - support * half, centre + support * half, grid.size)


def estimate_map(
    dataset: TrialDataset,
    omega: float,
    tau_label: str | None = None,
    studies: np.ndarray | None = None,
    extra_flags: tuple[str, ...] = (),
    n_theta: int = N_THETA,
    support: float = 1.0,
) -> EffectEstimate:
    """Robust MAP borrowing for the concurrent control arm.

    Historical pools enter as study summaries (mean, sd/sqrt(n)); the
    MAP prior is robustified with weight omega, updated with the reduced
    concurrent control arm, and contrasted against the treated arm.
    Callers may inject their own ``studies``, a (k, 2) array of means and
    SEs (matched or weighted summaries); no studies force omega = 1, i.e.
    no borrowing beyond the vague component.
    """
    red = dataset.reduced_concurrent
    t_mean, t_se = _mean_se(red.y[red.z == 1])
    c_mean, c_se = _mean_se(red.y[red.z == 0])
    unit_sd = float(np.std(dataset.pooled.y[len(red):], ddof=1))

    flags = list(extra_flags)
    if studies is None:
        studies = np.array([_mean_se(pool.y) for pool in dataset.historical])

    if len(studies) == 0:
        omega = 1.0
        flags.append("map:no_studies_forced_omega1")
        vague_mean = c_mean
        vague_sd = unit_sd
        grid = _widen(np.linspace(
            min(c_mean - 10 * c_se, vague_mean - 6 * vague_sd),
            max(c_mean + 10 * c_se, vague_mean + 6 * vague_sd),
            n_theta,
        ), support)
        prior = GridDensity.normal(grid, vague_mean, vague_sd)
        tau_scale = 0.0
        prior_raw_sd = vague_sd
    else:
        tau_scale = _tau_scales([tau_label], studies)[0]
        means, ses = studies.T
        prec = 1.0 / (ses * ses)
        vague_mean = float((means * prec).sum() / prec.sum())
        vague_sd = unit_sd
        grid = _widen(
            _theta_grid_for(studies, tau_scale, c_mean, c_se, vague_mean, vague_sd, n_theta),
            support,
        )
        raw_prior = map_prior(studies, tau_scale, theta_grid=grid, n_tau=201)
        prior_raw_sd = raw_prior.sd()
        prior = robustify(raw_prior, omega, vague_mean, vague_sd)

    posterior = posterior_update(prior, c_mean, c_se)
    est = effect_posterior(posterior, t_mean, t_se, alpha=0.05)
    prior_var = prior.var()
    est.flags = tuple(flags)
    est.diagnostics = {
        "tau_scale": tau_scale,
        "prior_sd": math.sqrt(prior_var),
        "prior_ess": (unit_sd * unit_sd) / prior_var if prior_var > 0 else float("inf"),
        "prior_map_sd": prior_raw_sd,
        "control_post_sd": posterior.sd(),
        "n_studies": float(len(studies)),
    }
    return est
