import numpy as np
import pytest

from hybridctl.mixed import estimate_mm, fit_lmm, group_stats, profiled_criterion
from hybridctl.regress import SingularDesignError
from hybridctl.trialdata import build_replicate, preset


def simulate(n_groups, per_group, sigma_b, sigma, seed, slope=0.7):
    rng = np.random.default_rng(seed)
    n = n_groups * per_group
    groups = np.repeat(np.arange(n_groups), per_group)
    x = rng.standard_normal(n)
    b = rng.normal(0.0, sigma_b, size=n_groups)
    y = 1.0 + slope * x + b[groups] + rng.normal(0.0, sigma, size=n)
    X = np.column_stack([np.ones(n), x])
    return y, X, groups


def dense_criterion(y, X, groups, lam, reml):
    """Profiled criterion from the dense covariance V = I + lambda ZZ'."""
    n, p = X.shape
    Z = (groups[:, None] == np.unique(groups)[None, :]).astype(float)
    V = np.eye(n) + lam * Z @ Z.T
    Vinv_X = np.linalg.solve(V, X)
    Vinv_y = np.linalg.solve(V, y)
    xtvx = X.T @ Vinv_X
    beta = np.linalg.solve(xtvx, X.T @ Vinv_y)
    r = y - X @ beta
    rss = r @ np.linalg.solve(V, r)
    logdet_v = np.linalg.slogdet(V)[1]
    if not reml:
        return n * np.log(rss / n) + logdet_v
    return (n - p) * np.log(rss / (n - p)) + logdet_v + np.linalg.slogdet(xtvx)[1]


class TestProfiledCriterion:
    # C17's design: 15 observations in three groups of five
    rng = np.random.default_rng(20260825 + 17)
    x = rng.normal(size=15)
    groups = np.repeat([0, 1, 2], 5)
    y = 0.5 + 0.7 * x + np.array([0.9, -0.4, 0.6])[groups] + 0.4 * rng.normal(size=15)
    X = np.column_stack([np.ones(15), x])
    lams = [0.0, 1e-4, 0.1, 1.0, 10.0, 1e4]

    @pytest.mark.parametrize("reml", [True, False])
    @pytest.mark.parametrize("lam", lams)
    def test_matches_dense_covariance(self, lam, reml):
        got = profiled_criterion(group_stats(self.X, self.y, self.groups), lam, reml=reml)
        want = dense_criterion(self.y, self.X, self.groups, lam, reml)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("reml", [True, False])
    def test_array_matches_scalar_calls(self, reml):
        stats = group_stats(self.X, self.y, self.groups)
        lams = np.array(self.lams)
        got = profiled_criterion(stats, lams, reml=reml)
        assert got.shape == lams.shape
        want = [profiled_criterion(stats, lam, reml=reml) for lam in lams]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        grid = profiled_criterion(stats, lams.reshape(2, 3), reml=reml)
        np.testing.assert_array_equal(grid.reshape(-1), got)

    def test_any_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            profiled_criterion(group_stats(self.X, self.y, self.groups), np.array([1.0, -0.1]))


class TestFitLmm:
    def test_beats_dense_lambda_scan(self):
        # oracle: brute-force the profiled criterion on a dense grid; the
        # fitted lambda can do no worse than any scanned point
        y, X, groups = simulate(3, 5, 1.0, 0.5, seed=1)
        fit = fit_lmm(y, X, groups)
        stats = group_stats(X, y, groups)
        lams = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 20001)])
        scan = profiled_criterion(stats, lams).min()
        assert fit.criterion_value <= scan + 1e-7

    def test_no_group_effect_collapses_to_ols(self):
        y, X, groups = simulate(20, 500, 0.0, 1.0, seed=2)
        fit = fit_lmm(y, X, groups)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.max(np.abs(fit.coef - ols)) < 1e-3
        assert fit.sigma_b2 < 0.01

    def test_huge_group_variance_approaches_within_estimator(self):
        y, X, groups = simulate(6, 100, 50.0, 1.0, seed=3)
        fit = fit_lmm(y, X, groups)
        dummies = np.column_stack([(groups == g).astype(float) for g in range(6)])
        within = np.linalg.lstsq(np.column_stack([dummies, X[:, 1]]), y, rcond=None)[0]
        assert fit.coef[1] == pytest.approx(float(within[-1]), rel=1e-2)
        assert fit.lambda_hat > 100

    def test_translation_leaves_slope_alone(self):
        y, X, groups = simulate(5, 30, 1.0, 1.0, seed=4)
        a = fit_lmm(y, X, groups)
        b = fit_lmm(y + 5.0, X, groups)
        assert b.coef[0] == pytest.approx(a.coef[0] + 5.0, abs=1e-8)
        assert b.coef[1] == pytest.approx(a.coef[1], abs=1e-8)
        assert b.lambda_hat == pytest.approx(a.lambda_hat, rel=1e-6, abs=1e-12)

    def test_row_permutation_invariance(self):
        y, X, groups = simulate(5, 30, 1.0, 1.0, seed=5)
        perm = np.random.default_rng(6).permutation(y.size)
        a = fit_lmm(y, X, groups)
        b = fit_lmm(y[perm], X[perm], groups[perm])
        np.testing.assert_allclose(a.coef, b.coef, atol=1e-8)
        assert a.lambda_hat == pytest.approx(b.lambda_hat, rel=1e-6, abs=1e-12)

    def test_recovers_variance_components(self):
        y, X, groups = simulate(60, 50, 0.8, 1.2, seed=7)
        fit = fit_lmm(y, X, groups)
        assert fit.sigma2 == pytest.approx(1.2**2, rel=0.2)
        assert fit.sigma_b2 == pytest.approx(0.8**2, rel=0.4)

    def test_reml_and_ml_differ_but_agree_roughly(self):
        y, X, groups = simulate(10, 20, 1.0, 1.0, seed=8)
        a = fit_lmm(y, X, groups, reml=True)
        b = fit_lmm(y, X, groups, reml=False)
        assert a.reml and not b.reml
        assert a.criterion_value != b.criterion_value
        assert a.coef[1] == pytest.approx(b.coef[1], rel=0.05)

    def test_single_group_rejected(self):
        y, X, _ = simulate(2, 10, 1.0, 1.0, seed=9)
        with pytest.raises(ValueError, match="two groups"):
            fit_lmm(y, X, np.zeros(y.size, dtype=int))

    def test_rank_deficient_design_rejected(self):
        y, X, groups = simulate(4, 10, 1.0, 1.0, seed=10)
        X2 = np.column_stack([X, X[:, 1]])
        with pytest.raises(SingularDesignError):
            fit_lmm(y, X2, groups)

    def test_negative_lambda_rejected(self):
        y, X, groups = simulate(3, 10, 1.0, 1.0, seed=11)
        with pytest.raises(ValueError):
            profiled_criterion(group_stats(X, y, groups), -0.1)


class TestEstimateMm:
    def test_with_covariates(self):
        ds = build_replicate(preset("single-moderate"), 1200, np.random.default_rng(20))
        got = estimate_mm(ds, 1)
        assert got.diagnostics["n_groups"] == 2.0
        assert got.diagnostics["lambda_hat"] >= 0.0
        assert np.isfinite(got.se) and got.se > 0

    def test_without_covariates(self):
        ds = build_replicate(preset("multi-moderate"), 1600, np.random.default_rng(21))
        got = estimate_mm(ds, None)
        assert got.diagnostics["n_groups"] == 4.0

    def test_covariate_adjustment_tightens_se(self):
        # outcome covariates are strong in every preset, so adjusting for
        # them must soak up residual variance
        ds = build_replicate(preset("single-severe"), 1200, np.random.default_rng(22))
        adj = estimate_mm(ds, 1)
        raw = estimate_mm(ds, None)
        assert adj.se < raw.se
