import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtri

import ols_reference as ref
from hybridctl.metrics import wald_estimate
from hybridctl.regress import (
    SeparationError,
    SingularDesignError,
    arm_contrast,
    fit_logistic,
)


def rng_(seed=0):
    return np.random.default_rng(seed)


def design(n, p, seed):
    X = np.column_stack([np.ones(n), rng_(seed).standard_normal((n, p - 1))])
    return X


def arms(n, seed):
    """Outcomes and a 0/1 treatment vector with both arms present."""
    z = (np.arange(n) % 3 == 0).astype(int)
    return rng_(seed).standard_normal(n) + 0.4 * z, z


class TestOls:
    """``arm_contrast`` as the weighted least-squares fit of y on [1, z]."""

    def test_exact_fit_recovers_coefficients(self):
        z = rng_(1).integers(0, 2, 30)
        fit = arm_contrast(1.5 - 2.0 * z, z)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.var_model == pytest.approx(0.0, abs=1e-25)
        assert fit.var_hc0 == pytest.approx(0.0, abs=1e-25)

    def test_slope_is_difference_of_weighted_arm_means(self):
        y = np.array([1.0, 2.0, 4.0, 0.5, 3.0])
        z = np.array([1, 1, 1, 0, 0])
        w = np.array([1.0, 1.0, 2.0, 3.0, 1.0])
        fit = arm_contrast(y, z, weights=w)
        want = np.average(y[:3], weights=w[:3]) - np.average(y[3:], weights=w[3:])
        assert fit.slope == pytest.approx(want, abs=1e-14)

    def test_matches_brute_force_normal_equations(self):
        # independent dense-algebra oracle: explicit inverse, no solver
        y, z = arms(50, 3)
        w = rng_(2).uniform(0.2, 3.0, 50)
        X = ref.design(z)
        XtW = X.T * w
        oracle = np.linalg.inv(XtW @ X) @ (XtW @ y)
        assert arm_contrast(y, z, weights=w).slope == pytest.approx(oracle[1], abs=1e-12)

    def test_residuals_orthogonal_to_design(self):
        # residuals about their own arm's weighted mean sum to zero within
        # each arm, so clustering on the arm leaves no variance at all
        y, z = arms(200, 5)
        w = rng_(4).uniform(0.5, 2.0, 200)
        fit = arm_contrast(y, z, weights=w, clusters=(z,))
        assert fit.var_clusters[0] <= 1e-20 * fit.var_hc0

    def test_empty_or_zero_weight_arm_rejected(self):
        y, z = arms(20, 6)
        with pytest.raises(SingularDesignError, match="arm"):
            arm_contrast(y, np.ones(20))
        with pytest.raises(SingularDesignError, match="arm"):
            arm_contrast(y, np.zeros(20))
        with pytest.raises(SingularDesignError, match="arm"):
            arm_contrast(y, z, weights=np.where(z == 1, 0.0, 1.0))
        assert issubclass(SingularDesignError, ValueError)

    def test_model_covariance_is_classic_formula(self):
        y, z = arms(80, 8)
        X = ref.design(z)
        fit = arm_contrast(y, z)
        assert fit.var_model == pytest.approx(ref.model_cov(X, y)[1, 1], rel=1e-10)
        w = rng_(7).uniform(0.1, 5.0, 80)
        fit = arm_contrast(y, z, weights=w)
        assert fit.var_model == pytest.approx(ref.model_cov(X, y, w)[1, 1], rel=1e-10)

    def test_too_few_rows_rejected(self):
        with pytest.raises(SingularDesignError, match="three rows"):
            arm_contrast([0.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match="0/1"):
            arm_contrast([0.0, 1.0, 2.0], [0, 1])
        with pytest.raises(ValueError, match="weights"):
            arm_contrast([0.0, 1.0, 2.0], [0, 1, 1], weights=[1.0, -1.0, 1.0])


class TestLogistic:
    def test_intercept_only_closed_form(self):
        t = np.array([1.0] * 7 + [0.0] * 13)
        coef, _ = fit_logistic(np.ones((20, 1)), t)
        expected = np.log(0.35 / 0.65)
        assert coef[0] == pytest.approx(expected, abs=1e-6)

    def test_fitted_mean_matches_response_mean(self):
        X = design(300, 3, 9)
        t = (rng_(10).random(300) < expit(X @ np.array([0.2, -0.5, 1.0]))).astype(float)
        _, fitted = fit_logistic(X, t)
        assert fitted.mean() == pytest.approx(t.mean(), abs=1e-8)

    def test_beats_grid_search_oracle(self):
        """IRLS solution dominates a dense coefficient grid in likelihood."""
        X = design(40, 2, 11)
        t = (rng_(12).random(40) < expit(0.3 + 0.8 * X[:, 1])).astype(float)
        best, _ = fit_logistic(X, t)

        def loglik(b0, b1):
            eta = b0 + b1 * X[:, 1]
            return float(t @ eta - np.logaddexp(0.0, eta).sum())

        ll_fit = loglik(best[0], best[1])
        grid0 = np.linspace(best[0] - 2, best[0] + 2, 200)
        grid1 = np.linspace(best[1] - 2, best[1] + 2, 200)
        ll_grid = max(loglik(b0, b1) for b0 in grid0 for b1 in grid1)
        assert ll_fit >= ll_grid - 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.ones((5, 1)), np.ones(5))

    def test_collinear_design_rejected(self):
        X = design(30, 2, 13)
        t = (np.arange(30) % 2).astype(float)
        with pytest.raises(SingularDesignError, match="rank deficient"):
            fit_logistic(np.column_stack([X, 2.0 * X[:, 1]]), t)

    def test_complete_separation_raises(self):
        x = np.linspace(-2, 2, 30)
        t = (x > 0).astype(float)
        X = np.column_stack([np.ones(30), x])
        with pytest.raises(SeparationError):
            fit_logistic(X, t)


class TestSandwich:
    def test_agrees_with_model_se_when_homoskedastic(self):
        n = 10_000
        z = np.repeat([0, 1], n // 2)
        y = 0.3 * z + rng_(15).standard_normal(n)
        fit = arm_contrast(y, z)
        assert abs(np.sqrt(fit.var_hc0 / fit.var_model) - 1.0) < 0.03

    def test_singleton_clusters_equal_hc0(self):
        y, z = arms(60, 17)
        fit = arm_contrast(y, z, clusters=(np.arange(60),))
        assert fit.var_clusters[0] == pytest.approx(fit.var_hc0, rel=1e-13)

    def test_row_duplication_with_shared_clusters_is_invariant(self):
        y, z = arms(40, 19)
        ids = np.arange(40)
        once = arm_contrast(y, z, clusters=(ids,))
        twice = arm_contrast(np.r_[y, y], np.r_[z, z], clusters=(np.r_[ids, ids],))
        assert twice.slope == pytest.approx(once.slope, rel=1e-12)
        assert twice.var_clusters[0] == pytest.approx(once.var_clusters[0], rel=1e-10)

    def test_matches_dense_sandwich(self):
        y, z = arms(50, 21)
        w = rng_(20).uniform(0.1, 4.0, 50)
        labels = np.arange(50) % 7
        X = ref.design(z)
        fit = arm_contrast(y, z, weights=w, clusters=(labels, np.arange(50)))
        assert fit.var_hc0 == pytest.approx(ref.sandwich(X, y, w)[1, 1], rel=1e-10)
        assert fit.var_clusters == pytest.approx(
            (ref.sandwich(X, y, w, labels)[1, 1], ref.sandwich(X, y, w)[1, 1]), rel=1e-10
        )

    def test_needs_two_clusters(self):
        y, z = arms(10, 22)
        with pytest.raises(ValueError, match="two clusters"):
            arm_contrast(y, z, clusters=(np.zeros(10, dtype=int),))
        with pytest.raises(ValueError, match="one label per row"):
            arm_contrast(y, z, clusters=(np.arange(9),))


@st.composite
def contrast_inputs(draw):
    """Outcomes, 0/1 treatment with both arms, positive weights, two label arrays."""
    n = draw(st.integers(3, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    y = rng.normal(0.0, draw(st.floats(0.1, 10.0)), n) + draw(st.floats(-5.0, 5.0)) * z
    w = rng.uniform(0.05, 5.0, n) if draw(st.booleans()) else None
    k = draw(st.integers(2, n))
    labels = (rng.integers(0, k, n), rng.permutation(n) // 2)
    labels[0][:2] = (0, 1)  # at least two clusters
    return y, z, w, labels


@settings(max_examples=200, deadline=None)
@given(contrast_inputs())
def test_arm_contrast_matches_dense_reference(inputs):
    y, z, w, labels = inputs
    fit = arm_contrast(y, z, weights=w, clusters=labels)
    X = ref.design(z)
    n = y.size
    coef, _ = ref.wls(X, y, w)
    scale = np.sqrt(ref.sandwich(X, y, w)[1, 1]) + np.abs(coef[1]) + 1e-300
    assert abs(fit.slope - coef[1]) <= 1e-10 * scale
    assert fit.var_model == pytest.approx(ref.model_cov(X, y, w)[1, 1], rel=1e-10, abs=1e-300)
    assert fit.var_hc0 == pytest.approx(ref.sandwich(X, y, w)[1, 1], rel=1e-10)
    for got, lab in zip(fit.var_clusters, labels):
        # a cluster sum can cancel to rounding noise of the HC0 scale
        assert got == pytest.approx(ref.sandwich(X, y, w, lab)[1, 1],
                                    rel=1e-10, abs=1e-12 * fit.var_hc0)

    perm = np.random.default_rng(n).permutation(n)
    moved = arm_contrast(y[perm], z[perm], weights=None if w is None else w[perm],
                         clusters=tuple(lab[perm] for lab in labels))
    assert moved.slope == pytest.approx(fit.slope, rel=1e-12, abs=1e-12 * scale)
    assert moved.var_model == pytest.approx(fit.var_model, rel=1e-10)
    assert moved.var_hc0 == pytest.approx(fit.var_hc0, rel=1e-10)
    assert moved.var_clusters == pytest.approx(fit.var_clusters, rel=1e-10,
                                               abs=1e-12 * fit.var_hc0)

    singletons = arm_contrast(y, z, weights=w, clusters=(np.arange(n),))
    assert singletons.var_clusters[0] == pytest.approx(fit.var_hc0, rel=1e-12)

    ww = None if w is None else np.r_[w, w]
    doubled = arm_contrast(np.r_[y, y], np.r_[z, z], weights=ww,
                           clusters=tuple(np.r_[lab, lab] for lab in labels))
    assert doubled.var_clusters == pytest.approx(fit.var_clusters, rel=1e-10,
                                                 abs=1e-12 * fit.var_hc0)


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
