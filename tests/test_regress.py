import numpy as np
import pytest
from scipy.special import expit, ndtri

from hybridctl.metrics import wald_estimate
from hybridctl.regress import (
    SeparationError,
    SingularDesignError,
    fit_logistic,
    fit_ols,
    sandwich_cov,
    sandwich_se,
)


def rng_(seed=0):
    return np.random.default_rng(seed)


def design(n, p, seed):
    X = np.column_stack([np.ones(n), rng_(seed).standard_normal((n, p - 1))])
    return X


class TestOls:
    def test_exact_fit_recovers_coefficients(self):
        X = design(30, 3, 1)
        c = np.array([1.5, -2.0, 0.5])
        fit = fit_ols(X, X @ c)
        np.testing.assert_allclose(fit.coef, c, atol=1e-10)

    def test_intercept_only_is_weighted_mean(self):
        y = np.array([1.0, 2.0, 4.0])
        w = np.array([1.0, 1.0, 2.0])
        fit = fit_ols(np.ones((3, 1)), y, weights=w)
        assert fit.coef[0] == pytest.approx(np.average(y, weights=w), abs=1e-12)

    def test_matches_brute_force_normal_equations(self):
        # independent dense-algebra oracle: explicit inverse, no solver
        X = design(50, 3, 2)
        y = rng_(3).standard_normal(50)
        oracle = np.linalg.inv(X.T @ X) @ (X.T @ y)
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.coef, oracle, atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        X = design(200, 4, 4)
        y = rng_(5).standard_normal(200)
        fit = fit_ols(X, y)
        scale = np.abs(X).max() * np.abs(y).max()
        assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8 * scale

    def test_singularity_names_offending_column(self):
        X = design(20, 2, 6)
        X = np.column_stack([X, X[:, 1]])  # duplicate column
        with pytest.raises(SingularDesignError, match="x2"):
            fit_ols(X, np.zeros(20), design_info=("const", "x1", "x2"))

    def test_model_covariance_is_classic_formula(self):
        X = design(80, 2, 7)
        y = rng_(8).standard_normal(80)
        fit = fit_ols(X, y)
        s2 = fit.residuals @ fit.residuals / (80 - 2)
        np.testing.assert_allclose(fit.cov_model, s2 * np.linalg.inv(X.T @ X), rtol=1e-10)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_ols(np.ones((2, 3)), np.zeros(2))


class TestLogistic:
    def test_intercept_only_closed_form(self):
        t = np.array([1.0] * 7 + [0.0] * 13)
        fit = fit_logistic(np.ones((20, 1)), t)
        expected = np.log(0.35 / 0.65)
        assert fit.coef[0] == pytest.approx(expected, abs=1e-6)

    def test_fitted_mean_matches_response_mean(self):
        X = design(300, 3, 9)
        t = (rng_(10).random(300) < expit(X @ np.array([0.2, -0.5, 1.0]))).astype(float)
        fit = fit_logistic(X, t)
        assert fit.fitted.mean() == pytest.approx(t.mean(), abs=1e-8)

    def test_beats_grid_search_oracle(self):
        """IRLS solution dominates a dense coefficient grid in likelihood."""
        X = design(40, 2, 11)
        t = (rng_(12).random(40) < expit(0.3 + 0.8 * X[:, 1])).astype(float)
        fit = fit_logistic(X, t)

        def loglik(b0, b1):
            eta = b0 + b1 * X[:, 1]
            return float(t @ eta - np.logaddexp(0.0, eta).sum())

        best = fit.coef
        ll_fit = loglik(best[0], best[1])
        grid0 = np.linspace(best[0] - 2, best[0] + 2, 200)
        grid1 = np.linspace(best[1] - 2, best[1] + 2, 200)
        ll_grid = max(loglik(b0, b1) for b0 in grid0 for b1 in grid1)
        assert ll_fit >= ll_grid - 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.ones((5, 1)), np.ones(5))

    def test_complete_separation_raises(self):
        x = np.linspace(-2, 2, 30)
        t = (x > 0).astype(float)
        X = np.column_stack([np.ones(30), x])
        with pytest.raises(SeparationError):
            fit_logistic(X, t)


class TestSandwich:
    def test_agrees_with_model_se_when_homoskedastic(self):
        n = 10_000
        z = np.repeat([0.0, 1.0], n // 2)
        y = 0.3 * z + rng_(15).standard_normal(n)
        X = np.column_stack([np.ones(n), z])
        fit = fit_ols(X, y)
        robust = sandwich_se(fit, 1)
        model = np.sqrt(fit.cov_model[1, 1])
        assert abs(robust / model - 1.0) < 0.03

    def test_singleton_clusters_equal_hc0(self):
        X = design(60, 2, 16)
        y = rng_(17).standard_normal(60)
        fit = fit_ols(X, y)
        np.testing.assert_allclose(
            sandwich_cov(fit), sandwich_cov(fit, clusters=np.arange(60)), atol=1e-14
        )

    def test_row_duplication_with_shared_clusters_is_invariant(self):
        X = design(40, 2, 18)
        y = rng_(19).standard_normal(40)
        ids = np.arange(40)
        fit = fit_ols(X, y)
        se1 = sandwich_se(fit, 1, clusters=ids)
        fit2 = fit_ols(np.vstack([X, X]), np.concatenate([y, y]))
        se2 = sandwich_se(fit2, 1, clusters=np.concatenate([ids, ids]))
        assert se1 == pytest.approx(se2, rel=1e-10)

    def test_covariance_symmetric_psd(self):
        X = design(50, 3, 20)
        y = rng_(21).standard_normal(50)
        fit = fit_ols(X, y)
        for clusters in (None, np.arange(50) % 7):
            cov = sandwich_cov(fit, clusters=clusters)
            np.testing.assert_allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_needs_two_clusters(self):
        X = design(10, 2, 22)
        fit = fit_ols(X, np.zeros(10))
        with pytest.raises(ValueError):
            sandwich_cov(fit, clusters=np.zeros(10))


class TestWaldDecision:
    """The two-sided Wald test every frequentist estimator reports, at
    level 0.05, on its estimate and standard error."""

    def test_zero_estimate(self):
        d = wald_estimate(0.0, 1.0)
        assert not d.reject
        assert d.interval == (-float(ndtri(0.975)), float(ndtri(0.975)))

    def test_boundary_is_strict(self):
        crit = float(ndtri(0.975))
        assert not wald_estimate(crit, 1.0).reject
        assert not wald_estimate(-crit, 1.0).reject
        assert wald_estimate(np.nextafter(crit, np.inf), 1.0).reject

    def test_normal_cdf_oracle(self):
        d = wald_estimate(0.5, 0.2)
        assert d.reject
        assert (d.estimate, d.se) == (0.5, 0.2)
        half = 1.959963984540054 * 0.2
        assert d.interval == pytest.approx((0.5 - half, 0.5 + half), rel=1e-15)
        assert not wald_estimate(0.3, 0.2).reject

    def test_bad_se_rejected(self):
        for se in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="standard error"):
                wald_estimate(1.0, se)
