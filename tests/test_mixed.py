import math

import lmm_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridctl import mixed
from hybridctl.mixed import estimate_mm, fit_lmm, pooled_stats
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


def design(sizes, p, sigma_b, seed, constant=True):
    """Unequal groups; the covariates drift with the group, and the first
    column is the intercept unless ``constant`` is false."""
    rng = np.random.default_rng(seed)
    groups = np.repeat(np.arange(len(sizes)), sizes)
    n = groups.size
    cols = [np.ones(n)] if constant else []
    cols += [rng.standard_normal(n) + 0.5 * groups for _ in range(p - len(cols))]
    X = np.column_stack(cols)
    b = rng.normal(0.0, sigma_b, size=len(sizes))
    return X @ rng.normal(size=p) + b[groups] + rng.standard_normal(n), X, groups


def spectral_criterion(y, X, groups, lam):
    """The criterion that fit_lmm minimizes, at lambda = ``lam``."""
    stats = mixed.group_stats(np.column_stack([X, y]), groups)
    return mixed._criterion(mixed._spectrum(stats), lam)


class TestProfiledCriterion:
    # C17's design: 15 observations in three groups of five
    rng = np.random.default_rng(20260825 + 17)
    x = rng.normal(size=15)
    groups = np.repeat([0, 1, 2], 5)
    y = 0.5 + 0.7 * x + np.array([0.9, -0.4, 0.6])[groups] + 0.4 * rng.normal(size=15)
    X = np.column_stack([np.ones(15), x])
    lams = [0.0, 1e-4, 0.1, 1.0, 10.0, 1e4]

    @pytest.mark.parametrize("lam", lams)
    def test_matches_dense_covariance(self, lam):
        got = float(spectral_criterion(self.y, self.X, self.groups, lam))
        want = ref.criterion(self.y, self.X, self.groups, [lam])[0]
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_array_matches_scalar_calls(self):
        lams = np.array(self.lams)
        got = spectral_criterion(self.y, self.X, self.groups, lams)
        assert got.shape == lams.shape
        want = [float(spectral_criterion(self.y, self.X, self.groups, lam)) for lam in lams]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        grid = spectral_criterion(self.y, self.X, self.groups, lams.reshape(2, 3))
        np.testing.assert_array_equal(grid.reshape(-1), got)

    def test_fit_reports_the_dense_criterion(self):
        fit = fit_lmm(self.y, self.X, self.groups)
        want = ref.criterion(self.y, self.X, self.groups, [fit.lambda_hat])[0]
        assert fit.criterion_value == pytest.approx(want, rel=1e-10, abs=0.0)


def numpy_slopes(spec, lam):
    """The numpy form of the criterion's first and second derivatives in
    log lambda that the float slopes replaced, kept as their reference."""
    kappa, e2, yqy, dof, _ = spec
    lam = np.asarray(lam, dtype=float)[..., None]
    d = 1.0 + lam * kappa
    rss = yqy - (lam * e2 / d).sum(axis=-1)
    if np.any(rss <= 0):
        raise SingularDesignError("no residual variation left to profile")
    s = lam * kappa / d
    r1 = -(lam * e2 / d**2).sum(axis=-1) / rss
    r2 = r1 + 2.0 * (lam * e2 / d**2 * s).sum(axis=-1) / rss
    return float(dof * r1 + s.sum()), float(dof * (r2 - r1**2) + (s * (1.0 - s)).sum())


def spec_of(sizes, p, sigma_b, seed, constant=True):
    y, X, groups = design(sizes, p, sigma_b, seed, constant)
    return mixed._spectrum(mixed.group_stats(np.column_stack([X, y]), groups))


class TestSlopes:
    """The Newton step's float slopes against the numpy form they replaced
    and against central differences of the criterion, over the log-lambda
    range the fit searches."""

    specs = {
        "G=1": ((40, 25), 3, 0.8, 71, True),
        "G=3": ((60, 15, 30, 45), 4, 0.5, 72, True),
        "G=3 no constant": ((20, 35, 50), 3, 2.0, 73, False),
        "G=3 small effect": ((300, 200, 250, 150), 5, 0.01, 74, True),
    }
    ts = np.linspace(-30.0, 18.0, 97)

    @pytest.mark.parametrize("name", specs)
    def test_equal_the_numpy_form(self, name):
        spec = spec_of(*self.specs[name])
        assert spec[0].size == (1 if name == "G=1" else 3)
        slopes = mixed._slopes(spec)
        for t in self.ts:
            got, want = slopes(t), numpy_slopes(spec, math.exp(t))
            for g, w in zip(got, want):
                assert type(g) is float
                assert g == pytest.approx(w, rel=1e-13, abs=1e-13 * spec[3])

    @pytest.mark.parametrize("name", specs)
    def test_equal_central_differences(self, name):
        spec = spec_of(*self.specs[name])
        slopes = mixed._slopes(spec)
        h = 1e-3
        for t in self.ts:
            f_lo, f_0, f_hi = (float(mixed._criterion(spec, np.exp(t + dt))) for dt in (-h, 0.0, h))
            first, second = slopes(t)
            scale = 1.0 + abs(first) + abs(second)
            assert first == pytest.approx((f_hi - f_lo) / (2 * h), abs=1e-6 * scale)
            assert second == pytest.approx((f_hi - 2 * f_0 + f_lo) / h**2, abs=2e-6 * scale)

    @pytest.mark.parametrize("yqy", [2.0, 1.0])  # rss = 0 and rss < 0 at lambda = 1
    def test_no_residual_variation_raises_the_same_text(self, yqy):
        spec = (np.array([1.0]), np.array([4.0]), yqy, 5, 0.0)
        for evaluate in (lambda: mixed._slopes(spec)(0.0), lambda: mixed._criterion(spec, 1.0),
                         lambda: numpy_slopes(spec, 1.0)):
            with pytest.raises(SingularDesignError) as info:
                evaluate()
            assert str(info.value) == "no residual variation left to profile"
        assert mixed._slopes(spec)(-30.0)[0] < 0  # far below, rss is positive


class TestFitLmm:
    def test_beats_dense_lambda_scan(self):
        # oracle: brute-force the dense-V criterion on a dense grid; the
        # fitted lambda can do no worse than any scanned point
        y, X, groups = simulate(3, 5, 1.0, 0.5, seed=1)
        fit = fit_lmm(y, X, groups)
        lams = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 20001)])
        scan = ref.grid_minimum(y, X, groups, lams)
        assert ref.criterion(y, X, groups, [fit.lambda_hat])[0] <= scan + 1e-7

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

    def test_single_group_rejected(self):
        y, X, _ = simulate(2, 10, 1.0, 1.0, seed=9)
        with pytest.raises(ValueError, match="two groups"):
            fit_lmm(y, X, np.zeros(y.size, dtype=int))

    def test_rank_deficient_design_rejected(self):
        y, X, groups = simulate(4, 10, 1.0, 1.0, seed=10)
        X2 = np.column_stack([X, X[:, 1]])
        with pytest.raises(SingularDesignError):
            fit_lmm(y, X2, groups)

    @pytest.mark.parametrize("where", ["y", "X"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, bad):
        y, X, groups = simulate(3, 10, 1.0, 1.0, seed=12)
        if where == "y":
            y[4] = bad
        else:
            X[7, 1] = bad
        with pytest.raises(ValueError, match=f"^{where} has non-finite"):
            fit_lmm(y, X, groups)

    def test_groups_may_be_a_list(self):
        y, X, groups = simulate(3, 10, 1.0, 1.0, seed=13)
        a = fit_lmm(y, X, groups)
        b = fit_lmm(y, X, groups.tolist())
        np.testing.assert_array_equal(a.coef, b.coef)
        assert a.lambda_hat == b.lambda_hat


# The fine grid the dense reference scans: lambda = 0 and e^-20 .. e^20.
REFERENCE_GRID = np.concatenate([[0.0], np.exp(np.linspace(-20.0, 20.0, 2001))])


class TestDenseReference:
    """fit_lmm against the dense-V REML of tests/lmm_reference.py."""

    # (group sizes, p, sigma_b, seed, intercept column, regime of lambda_hat)
    cases = [
        ((12, 30), 2, 0.0, 3, True, "zero"),
        ((7, 13, 21, 33), 5, 0.0, 2, True, "zero"),
        ((10, 25, 40), 4, 1.0, 2, True, "interior"),
        ((8, 15, 22, 35), 8, 1.0, 3, True, "interior"),
        # lambda_hat is about 3e5 here and 2.4e6 in the last case. The
        # final GLS adds the group terms to the within-group cross products,
        # so it does not cancel in the intercept direction as lambda_hat
        # grows; subtracting them from X'X drifted past 1e-8 from about 1e6 up.
        ((9, 14, 27), 3, 500.0, 2, True, "widened"),
        ((11, 17, 29), 2, 1.0, 5, False, "interior"),
        ((9, 14, 27), 3, 2000.0, 1, True, "widened"),
    ]

    @pytest.mark.parametrize("sizes,p,sigma_b,seed,constant,regime", cases)
    def test_matches_dense_reml(self, sizes, p, sigma_b, seed, constant, regime):
        y, X, groups = design(sizes, p, sigma_b, seed, constant)
        fit = fit_lmm(y, X, groups)
        assert {"zero": fit.lambda_hat == 0.0,
                "interior": 0.0 < fit.lambda_hat < np.exp(12.0) and not fit.flags,
                "widened": fit.flags == ("mm:lambda_span_widened",)}[regime]
        # the fit's lambda is no worse than any point of the fine grid
        coef, cov, _, crit = ref.gls(y, X, groups, [fit.lambda_hat])
        best = ref.grid_minimum(y, X, groups, REFERENCE_GRID)
        assert crit[0] <= best + 1e-9 * abs(best)
        # and the GLS fit at that lambda is the dense one
        np.testing.assert_allclose(fit.coef, coef[0], rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(fit.cov, cov[0], rtol=1e-8, atol=0.0)


def assert_same_fit(a, b, skip_coef=()):
    keep = [i for i in range(a.coef.size) if i not in skip_coef]
    scale = np.abs(a.cov).max()
    np.testing.assert_allclose(b.coef[keep], a.coef[keep], rtol=1e-10, atol=1e-10 * np.sqrt(scale))
    np.testing.assert_allclose(b.cov, a.cov, rtol=1e-10, atol=1e-10 * scale)
    assert b.lambda_hat == pytest.approx(a.lambda_hat, rel=1e-10, abs=0.0)
    assert b.flags == a.flags


@st.composite
def lmm_designs(draw):
    sizes = tuple(draw(st.lists(st.integers(3, 40), min_size=2, max_size=4)))
    p = draw(st.integers(1, 4))
    sigma_b = draw(st.sampled_from([0.0, 0.3, 1.0, 3.0]))
    y, X, groups = design(sizes, p, sigma_b, draw(st.integers(0, 2**32 - 1)))
    return y, X, groups, draw(st.integers(0, 2**32 - 1))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(lmm_designs())
    def test_row_permutation(self, data):
        y, X, groups, seed = data
        perm = np.random.default_rng(seed).permutation(y.size)
        assert_same_fit(fit_lmm(y, X, groups), fit_lmm(y[perm], X[perm], groups[perm]))

    @settings(max_examples=60, deadline=None)
    @given(lmm_designs())
    def test_group_relabelling(self, data):
        y, X, groups, seed = data
        labels = np.random.default_rng(seed).choice(1000, size=4, replace=False)
        assert_same_fit(fit_lmm(y, X, groups), fit_lmm(y, X, labels[groups]))

    @settings(max_examples=60, deadline=None)
    @given(lmm_designs(), st.floats(-5.0, 5.0))
    def test_shifting_y_moves_only_the_intercept(self, data, shift):
        y, X, groups, _ = data
        a, b = fit_lmm(y, X, groups), fit_lmm(y + shift, X, groups)
        assert_same_fit(a, b, skip_coef=(0,))
        assert b.coef[0] == pytest.approx(a.coef[0] + shift, rel=1e-10, abs=1e-10)


class TestEstimateMm:
    def test_with_covariates(self):
        ds = build_replicate(preset("single-moderate"), 1200, np.random.default_rng(20))
        got = estimate_mm(pooled_stats(ds), 1)
        assert got.diagnostics["n_groups"] == 2.0
        assert got.diagnostics["lambda_hat"] >= 0.0
        assert np.isfinite(got.se) and got.se > 0

    def test_without_covariates(self):
        ds = build_replicate(preset("multi-moderate"), 1600, np.random.default_rng(21))
        got = estimate_mm(pooled_stats(ds), None)
        assert got.diagnostics["n_groups"] == 4.0

    def test_covariate_adjustment_tightens_se(self):
        # outcome covariates are strong in every preset, so adjusting for
        # them must soak up residual variance
        ds = build_replicate(preset("single-severe"), 1200, np.random.default_rng(22))
        stats = pooled_stats(ds)
        adj = estimate_mm(stats, 1)
        raw = estimate_mm(stats, None)
        assert adj.se < raw.se


class TestSharedPass:
    """Every MM cell of a replicate slices its design's statistics from one
    pass over the pooled sample; the fit equals fit_lmm on that design."""

    @pytest.mark.parametrize("name", ["single-moderate", "multi-severe"])
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_sliced_designs_equal_their_own_fits(self, name, seed):
        ds = build_replicate(preset(name), 1200, np.random.default_rng(seed))
        pooled = ds.pooled
        data = np.column_stack([np.ones(len(pooled)), pooled.z, pooled.x])
        stats = pooled_stats(ds)
        y_col = data.shape[1]
        # MM.nc, covsets 1-3, and two designs without a constant column
        for cols in ([0, 1], [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 5, 6, 7], [0, 1, 2, 3, 4],
                     [1, 2, 3, 4], [1, 2, 3, 4, 5, 6, 7]):
            got = mixed._fit(stats.select(cols + [y_col]))
            want = fit_lmm(pooled.y, data[:, cols], pooled.trial)
            # relative to each matrix's scale: a near-zero covariance moves more
            np.testing.assert_allclose(got.coef, want.coef, rtol=0.0,
                                       atol=1e-12 * np.abs(want.coef).max())
            np.testing.assert_allclose(got.cov, want.cov, rtol=0.0,
                                       atol=1e-12 * np.abs(want.cov).max())
            np.testing.assert_allclose(np.diag(got.cov), np.diag(want.cov), rtol=1e-12, atol=0.0)
            assert got.lambda_hat == pytest.approx(want.lambda_hat, rel=1e-12, abs=0.0)
            assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-12, abs=0.0)
            assert got.criterion_value == pytest.approx(want.criterion_value, rel=1e-12)
            assert got.flags == want.flags

    def test_column_flags_equal_the_elementwise_checks(self):
        # constant, finite: what np.all(data == data[0], axis=0) & (data[0] != 0)
        # and np.isfinite(data).all(axis=0) give, column by column
        inf, nan = np.inf, np.nan
        rng = np.random.default_rng(5)
        cols = {
            "constant": [2.5] * 6, "zero": [0.0] * 6, "signed zero": [0.0, -0.0] * 3,
            "varying": rng.normal(size=6), "nan": [1.0, nan, 1.0, 1.0, 1.0, 1.0],
            "all nan": [nan] * 6, "+inf": [inf] * 6, "-inf": [-inf] * 6,
            "mixed inf": [inf, -inf] * 3, "inf among finite": [1.0, 2.0, inf, 3.0, 4.0, 5.0],
            "nan and inf": [nan, inf, 1.0, 1.0, 1.0, 1.0], "huge": [1e308, -1e308] * 3,
        }
        data = np.column_stack(list(cols.values()))
        groups = np.array([0, 0, 1, 1, 2, 2])
        with np.errstate(invalid="ignore", over="ignore"):
            stats = mixed.group_stats(data, groups)
            for rows in (data, data[:1]):
                got = mixed.group_stats(rows, groups[:len(rows)])
                want_constant = np.all(rows == rows[0], axis=0) & (rows[0] != 0)
                want_finite = np.isfinite(rows).all(axis=0)
                np.testing.assert_array_equal(got.constant, want_constant)
                np.testing.assert_array_equal(got.finite, want_finite)
        assert dict(zip(cols, stats.constant)) == {
            name: name in ("constant", "+inf", "-inf") for name in cols}
        assert dict(zip(cols, stats.finite)) == {
            name: name in ("constant", "zero", "signed zero", "varying", "huge")
            for name in cols}
