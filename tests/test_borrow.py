import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import norm

from hybridctl.borrow import (
    MapConfig,
    NormalMixture,
    SINGLE_POOL_TAU_MULT,
    StudySummary,
    TAU_LADDER,
    effect_posterior,
    empirical_tau_scale,
    estimate_map,
    estimate_psm_map,
    estimate_psw_map,
    estimate_pss_cl,
    estimate_pss_pp,
    map_prior,
    matched_study_summary,
    posterior_update,
    power_prior_update,
    robustify,
    weighted_study_summary,
)
from hybridctl.propensity import (
    MatchSet, PsFit, estimate_ps, ipw_weights, match_nearest, stratify, unadjusted_effect,
)
from hybridctl.trialdata import SubjectGroup, TrialDataset, build_replicate, preset


def dataset(name="single-moderate", seed=0, n=1200):
    return build_replicate(preset(name), n, np.random.default_rng(seed))


def mixture(weights, means, sds):
    return NormalMixture(np.asarray(weights, dtype=float), np.asarray(means, dtype=float),
                         np.asarray(sds, dtype=float))


def bisect_quantile(mix, q):
    """Plain bisection on the mixture CDF: the slow reference for Newton."""
    lo, hi = mix.mean() - 50.0 * mix.sd(), mix.mean() + 50.0 * mix.sd()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(mix.weights @ norm.cdf(mid, mix.means, mix.sds)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalMixture:
    def test_normal_moments(self):
        d = NormalMixture.normal(1.3, 0.7)
        assert d.mean() == 1.3
        assert d.sd() == pytest.approx(0.7, rel=1e-15)
        assert d.weights.sum() == 1.0

    def test_mixture_moments(self):
        d = mixture([0.7, 0.3], [0.0, 3.0], [0.2, 0.4])
        want_mean = 0.3 * 3.0
        want_var = 0.7 * (0.04 + want_mean**2) + 0.3 * (0.16 + (3.0 - want_mean) ** 2)
        assert d.mean() == pytest.approx(want_mean, abs=1e-15)
        assert d.var() == pytest.approx(want_var, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            mixture([0.5, 0.5], [0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="sum to 1"):
            mixture([0.9, 0.2], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="sum to 1"):
            mixture([1.5, -0.5], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="SDs positive"):
            NormalMixture.normal(0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            NormalMixture.normal(math.nan, 1.0)


class TestMapPrior:
    def test_zero_tau_collapses_to_fixed_effect_pooling(self):
        studies = [
            StudySummary(0.2, 0.10),
            StudySummary(0.5, 0.20),
            StudySummary(-0.1, 0.25),
        ]
        prior = map_prior(studies, 0.0)
        prec = np.array([1 / s.se**2 for s in studies])
        means = np.array([s.mean for s in studies])
        assert prior.mean() == pytest.approx(float(prec @ means / prec.sum()), abs=1e-8)
        assert prior.sd() == pytest.approx(1 / math.sqrt(prec.sum()), rel=1e-6)

    def test_three_equal_studies_pool_as_root_three(self):
        studies = [StudySummary(0.0, 0.2)] * 3
        prior = map_prior(studies, 1e-9)
        assert prior.sd() == pytest.approx(0.2 / math.sqrt(3), rel=5e-3)

    def test_matches_dense_joint_quadrature(self):
        # independent oracle: integrate the (location, tau) joint on a dense
        # 2-d grid and read off the predictive moments directly
        means = np.array([-0.3, 0.1, 0.8])
        se, tau_scale = 0.2, 0.5
        mu = np.linspace(-4.0, 4.0, 1601)
        tau = np.linspace(0.0, 5.0, 1201)
        MU, TAU = np.meshgrid(mu, tau, indexing="ij")
        v = se**2 + TAU**2
        logw = -0.5 * (TAU / tau_scale) ** 2 - 1.5 * np.log(v)
        logw += sum(-0.5 * (m - MU) ** 2 / v for m in means)
        w = np.exp(logw - logw.max())

        def tw(g):
            out = np.zeros(g.size)
            out[:-1] += np.diff(g) / 2
            out[1:] += np.diff(g) / 2
            return out

        w *= tw(mu)[:, None] * tw(tau)[None, :]
        w /= w.sum()
        e_mu = float((w * MU).sum())
        oracle_mean = e_mu
        oracle_var = float((w * TAU**2).sum() + (w * (MU - e_mu) ** 2).sum())

        studies = [StudySummary(float(m), se) for m in means]
        prior = map_prior(studies, tau_scale)
        assert prior.mean() == pytest.approx(oracle_mean, abs=1e-4)
        assert prior.sd() == pytest.approx(math.sqrt(oracle_var), rel=1e-3)

    def test_prior_sd_non_decreasing_in_tau_ladder(self):
        studies = [
            StudySummary(0.0, 0.25),
            StudySummary(0.4, 0.25),
            StudySummary(1.0, 0.25),
        ]
        scale = empirical_tau_scale(studies)
        sds = [map_prior(studies, TAU_LADDER[l] * scale).sd() for l in ("XS", "S", "M", "L")]
        assert all(b >= a - 1e-12 for a, b in zip(sds, sds[1:]))
        assert sds[-1] > sds[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            map_prior([], 1.0)
        with pytest.raises(ValueError):
            map_prior([StudySummary(0.0, 1.0)], -0.5)


class TestEmpiricalTauScale:
    def test_single_study_uses_its_se(self):
        assert empirical_tau_scale([StudySummary(0.3, 0.17)]) == 0.17

    def test_multiple_studies_use_sd_of_means(self):
        studies = [StudySummary(m, 0.5) for m in (0.0, 0.4, 1.0)]
        want = float(np.std([0.0, 0.4, 1.0], ddof=1))
        assert empirical_tau_scale(studies) == pytest.approx(want, rel=1e-12)

    def test_ladder_values(self):
        assert TAU_LADDER == {"L": 10.0, "M": 1.0, "S": 0.1, "XS": 0.01}


class TestRobustify:
    def test_omega_zero_keeps_prior(self):
        prior = mixture([0.6, 0.4], [0.5, 1.0], [0.4, 0.3])
        out = robustify(prior, 0.0, 0.0, 2.0)
        np.testing.assert_array_equal(out.weights, [0.6, 0.4, 0.0])
        assert out.mean() == prior.mean()
        assert out.var() == pytest.approx(prior.var(), rel=1e-15)

    def test_omega_one_is_pure_vague(self):
        prior = NormalMixture.normal(0.5, 0.4)
        out = robustify(prior, 1.0, -1.0, 2.0)
        np.testing.assert_array_equal(out.weights, [0.0, 1.0])
        assert out.mean() == -1.0
        assert out.sd() == 2.0

    def test_mixture_mean_is_linear(self):
        prior = NormalMixture.normal(0.5, 0.4)
        out = robustify(prior, 0.3, -1.0, 2.0)
        want_mean = 0.7 * 0.5 + 0.3 * -1.0
        want_var = 0.7 * (0.16 + 0.25) + 0.3 * (4.0 + 1.0) - want_mean**2
        assert out.mean() == pytest.approx(want_mean, abs=1e-15)
        assert out.var() == pytest.approx(want_var, rel=1e-14)

    def test_bad_omega_rejected(self):
        prior = NormalMixture.normal(0.0, 1.0)
        with pytest.raises(ValueError):
            robustify(prior, 1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            robustify(prior, 0.5, 0.0, 0.0)


class TestPosteriorUpdate:
    def test_conjugate_normal_case(self):
        post = posterior_update(NormalMixture.normal(0.0, 1.0), 1.0, 1.0)
        assert post.mean() == pytest.approx(0.5, abs=1e-12)
        assert post.sd() == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_flat_prior_returns_likelihood(self):
        # a normal prior 3e4 data SEs wide moves the mean by under 1e-9
        post = posterior_update(NormalMixture.normal(0.0, 1e4), 0.8, 0.3)
        assert post.mean() == pytest.approx(0.8, abs=1e-6)
        assert post.sd() == pytest.approx(0.3, rel=1e-6)

    def test_bimodal_prior_reweights_analytically(self):
        # two-component normal prior has a closed-form posterior mixture
        prior = mixture([0.5, 0.5], [0.0, 10.0], [0.5, 0.5])
        post = posterior_update(prior, 0.0, 0.5)
        lw = np.array([norm.logpdf(0.0, 0.0, math.sqrt(0.5)),
                       norm.logpdf(0.0, 10.0, math.sqrt(0.5))])
        wts = np.exp(lw - lw.max())
        wts /= wts.sum()
        assert wts[1] < 1e-3
        np.testing.assert_allclose(post.weights, wts, rtol=1e-12, atol=1e-300)
        # each component shrinks halfway, to the same SD
        np.testing.assert_allclose(post.means, [0.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(post.sds, [math.sqrt(0.125)] * 2, rtol=1e-12)
        assert post.mean() == pytest.approx(float(wts @ [0.0, 5.0]), abs=1e-12)

    def test_zero_weight_component_stays_zero(self):
        prior = robustify(NormalMixture.normal(0.0, 0.5), 1.0, 2.0, 3.0)
        post = posterior_update(prior, 0.4, 0.2)
        assert post.weights[0] == 0.0
        assert post.weights[1] == 1.0

    def test_bad_data_rejected(self):
        prior = NormalMixture.normal(0.0, 1.0)
        with pytest.raises(ValueError):
            posterior_update(prior, 0.0, 0.0)
        with pytest.raises(ValueError):
            posterior_update(prior, math.nan, 1.0)


def bimodal_control():
    return mixture([0.7, 0.3], [0.0, 3.0], [0.2, 0.4])


class TestEffectPosterior:
    def test_normal_control_gives_normal_difference(self):
        got = effect_posterior(NormalMixture.normal(1.0, 0.3), 2.0, 0.4)
        assert got.estimate == pytest.approx(1.0, abs=1e-12)
        assert got.se == pytest.approx(0.5, rel=1e-12)
        half = float(ndtri(0.975)) * 0.5
        assert got.interval[0] == pytest.approx(1.0 - half, abs=1e-11)
        assert got.interval[1] == pytest.approx(1.0 + half, abs=1e-11)
        assert got.reject is True

    def test_point_mass_control_shifts_treated_normal(self):
        got = effect_posterior(NormalMixture.normal(0.5, 1e-9), 1.2, 0.3)
        assert got.estimate == pytest.approx(0.7, abs=1e-12)
        assert got.se == pytest.approx(0.3, rel=1e-12)
        half = float(ndtri(0.975)) * 0.3
        assert got.interval[0] == pytest.approx(0.7 - half, abs=1e-11)

    def test_bimodal_control_matches_analytic_mixture(self):
        got = effect_posterior(bimodal_control(), 1.0, 0.5)
        s1, s2 = math.sqrt(0.25 + 0.04), math.sqrt(0.25 + 0.16)

        def cdf(d):
            return 0.7 * norm.cdf(d, 1.0, s1) + 0.3 * norm.cdf(d, -2.0, s2)

        want_mean = 0.7 * 1.0 + 0.3 * (-2.0)
        want_var = 0.7 * (s1**2 + 1.0) + 0.3 * (s2**2 + 4.0) - want_mean**2
        assert got.estimate == pytest.approx(want_mean, abs=1e-12)
        assert got.se == pytest.approx(math.sqrt(want_var), rel=1e-12)
        lo = brentq(lambda d: cdf(d) - 0.025, -10, 10, xtol=1e-14)
        hi = brentq(lambda d: cdf(d) - 0.975, -10, 10, xtol=1e-14)
        assert got.interval[0] == pytest.approx(lo, abs=1e-10)
        assert got.interval[1] == pytest.approx(hi, abs=1e-10)

    def test_monte_carlo_cross_check(self):
        # same bimodal setup, verified by simulation instead of algebra
        control = bimodal_control()
        got = effect_posterior(control, 1.0, 0.5)
        rng = np.random.default_rng(99)
        comp = rng.choice(2, size=10**6, p=control.weights)
        theta = rng.normal(control.means[comp], control.sds[comp])
        draws = rng.normal(1.0, 0.5, size=10**6) - theta
        assert got.estimate == pytest.approx(float(draws.mean()), abs=0.01)
        assert got.interval[0] == pytest.approx(float(np.quantile(draws, 0.025)), abs=0.02)
        assert got.interval[1] == pytest.approx(float(np.quantile(draws, 0.975)), abs=0.02)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.001])
    @pytest.mark.parametrize(
        "control",
        [
            bimodal_control(),
            # the 97.5 % point of the effect sits in the gap between modes
            mixture([0.97, 0.03], [0.0, 10.0], [0.1, 0.1]),
            mixture([0.02, 0.96, 0.02], [-30.0, 0.0, 30.0], [0.05, 1.0, 0.05]),
            NormalMixture.normal(-2.0, 1e-6),
        ],
    )
    def test_newton_ends_match_plain_bisection(self, control, alpha):
        got = effect_posterior(control, 0.5, 0.3, alpha=alpha)
        effect = mixture(control.weights, 0.5 - control.means,
                         np.sqrt(control.sds**2 + 0.09))
        assert got.interval[0] == pytest.approx(
            bisect_quantile(effect, alpha / 2), abs=1e-10 * got.se)
        assert got.interval[1] == pytest.approx(
            bisect_quantile(effect, 1 - alpha / 2), abs=1e-10 * got.se)

    def test_bad_treated_se_rejected(self):
        control = NormalMixture.normal(0.0, 1.0)
        with pytest.raises(ValueError):
            effect_posterior(control, 1.0, 0.0)


class TestPowerPrior:
    def test_zero_discount_is_identity(self):
        assert power_prior_update(0.3, 0.7, 5.0, 0.1, 0.0) == (0.3, 0.7)
        mean, se = power_prior_update(0.0, math.inf, 5.0, 0.1, 0.0)
        assert mean == 0.0 and math.isinf(se)

    def test_full_discount_is_conjugate_update(self):
        mean, se = power_prior_update(0.0, 1.0, 1.0, 1.0, 1.0)
        assert mean == pytest.approx(0.5, abs=1e-10)
        assert se == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_half_discount_halves_external_precision(self):
        mean, se = power_prior_update(0.0, 1.0, 1.0, 1.0, 0.5)
        assert mean == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert se == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-10)

    def test_flat_prior_full_discount_returns_external(self):
        mean, se = power_prior_update(0.0, math.inf, 1.0, 0.5, 1.0)
        assert mean == pytest.approx(1.0, abs=1e-10)
        assert se == pytest.approx(0.5, rel=1e-10)

    def test_mean_moves_monotonically_with_discount(self):
        alphas = np.linspace(0.0, 1.0, 21)
        means = [power_prior_update(0.0, 1.0, 2.0, 0.7, a)[0] for a in alphas]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            power_prior_update(0.0, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            power_prior_update(0.0, 1.0, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("prior_se", [0.0, -1.0, math.nan, -math.inf])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_degenerate_prior_se_rejected(self, prior_se, alpha):
        with pytest.raises(ValueError, match="prior se"):
            power_prior_update(0.0, prior_se, 1.0, 1.0, alpha)


class TestEstimateMap:
    def test_omega_one_tracks_unadjusted(self):
        ds = dataset(seed=77)
        got = estimate_map(ds, MapConfig(omega=1.0))
        ref = unadjusted_effect(ds.reduced_concurrent)
        assert got.estimate == pytest.approx(ref.estimate, abs=0.02)
        assert got.se == pytest.approx(ref.se, rel=0.05)
        # the vague component carries one unit-information subject
        assert got.diagnostics["prior_ess"] == pytest.approx(1.0, rel=0.01)

    def test_borrowing_tightens_the_posterior(self):
        ds = dataset(seed=77)
        full = estimate_map(ds, MapConfig(omega=0.2))
        none = estimate_map(ds, MapConfig(omega=1.0))
        assert full.se < none.se
        assert full.diagnostics["prior_ess"] > none.diagnostics["prior_ess"]

    def test_default_tau_scale_resolution(self):
        # One pool: the label-less default is a fixed fraction of the
        # pool SE; a ladder label stays a pure multiple of it.
        ds = dataset(seed=77)
        pool = ds.historical[0].y
        pool_se = float(np.std(pool, ddof=1)) / math.sqrt(len(pool))
        got = estimate_map(ds, MapConfig(omega=0.5))
        assert got.diagnostics["tau_scale"] == pytest.approx(
            SINGLE_POOL_TAU_MULT * pool_se, rel=1e-12
        )
        labelled = estimate_map(ds, MapConfig(omega=0.5, tau_ladder_label="M"))
        assert labelled.diagnostics["tau_scale"] == pytest.approx(pool_se, rel=1e-12)

        # Several pools: the default is the SD of the pool means.
        multi = dataset("multi-moderate", seed=78, n=1600)
        means = [float(np.mean(p.y)) for p in multi.historical]
        got = estimate_map(multi, MapConfig(omega=0.5))
        assert got.diagnostics["tau_scale"] == pytest.approx(
            float(np.std(means, ddof=1)), rel=1e-12
        )

    def test_no_studies_forces_vague_only(self):
        ds = dataset(seed=78)
        got = estimate_map(ds, MapConfig(omega=0.2), studies=[])
        assert "map:no_studies_forced_omega1" in got.flags
        assert got.diagnostics["n_studies"] == 0.0
        ref = unadjusted_effect(ds.reduced_concurrent)
        assert got.estimate == pytest.approx(ref.estimate, abs=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MapConfig(omega=-0.1)
        with pytest.raises(ValueError):
            MapConfig(omega=0.5, tau_ladder_label="XL")
        with pytest.raises(ValueError):
            MapConfig(omega=0.5, tau_scale=-1.0)
        with pytest.raises(ValueError):
            StudySummary(0.0, 0.0)


class TestStudySummaries:
    def test_matched_unit_counts_reduce_to_plain_se(self):
        rng = np.random.default_rng(5)
        n = 40
        y = rng.normal(size=n)
        sample = SubjectGroup(
            ids=np.arange(n), x=np.zeros((n, 1)), z=np.zeros(n, dtype=int),
            trial=np.ones(n, dtype=int), y=y,
        )
        fit = PsFit(sample=sample, ps=np.full(n, 0.5), fit=None)
        ms = MatchSet(conc_rows=1000 + np.arange(n), hist_rows=np.arange(n), caliper=0.1)
        got = matched_study_summary(ms, fit)
        assert got.mean == pytest.approx(float(y.mean()), rel=1e-12)
        assert got.se == pytest.approx(float(y.std(ddof=1) / math.sqrt(n)), rel=1e-12)

    def test_matched_duplication_widens_se(self):
        rng = np.random.default_rng(6)
        n = 30
        y = rng.normal(size=n)
        sample = SubjectGroup(
            ids=np.arange(n), x=np.zeros((n, 1)), z=np.zeros(n, dtype=int),
            trial=np.ones(n, dtype=int), y=y,
        )
        fit = PsFit(sample=sample, ps=np.full(n, 0.5), fit=None)
        once = MatchSet(conc_rows=100 + np.arange(n), hist_rows=np.arange(n), caliper=0.1)
        dup = MatchSet(conc_rows=np.r_[once.conc_rows, 200 + np.arange(n)],
                       hist_rows=np.r_[once.hist_rows, np.zeros(n, dtype=int)], caliper=0.1)
        # re-using subject 0 for half the pairs must not shrink the SE the
        # way n independent extra controls would
        assert matched_study_summary(dup, fit).se > matched_study_summary(once, fit).se / math.sqrt(2)

    def test_matched_degenerate_cases_return_none(self):
        sample = SubjectGroup(
            ids=np.arange(3), x=np.zeros((3, 1)), z=np.zeros(3, dtype=int),
            trial=np.ones(3, dtype=int), y=np.array([1.0, 2.0, 3.0]),
        )
        fit = PsFit(sample=sample, ps=np.full(3, 0.5), fit=None)
        none = np.zeros(0, dtype=int)
        assert matched_study_summary(MatchSet(none, none, 0.1), fit) is None
        one = MatchSet(conc_rows=np.array([10, 11]), hist_rows=np.array([0, 0]), caliper=0.1)
        assert matched_study_summary(one, fit) is None

    def test_weighted_unit_weights_reduce_to_plain_se(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=25)
        got = weighted_study_summary(y, np.ones(25))
        assert got.mean == pytest.approx(float(y.mean()), rel=1e-12)
        assert got.se == pytest.approx(float(y.std(ddof=1) / 5.0), rel=1e-12)

    def test_weighted_zero_weights_are_dropped(self):
        y = np.array([1.0, 2.0, 3.0, 100.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        got = weighted_study_summary(y, w)
        assert got.mean == pytest.approx(2.0, rel=1e-12)

    def test_weighted_needs_two_positive_weights(self):
        assert weighted_study_summary(np.array([1.0, 2.0]), np.array([1.0, 0.0])) is None


class TestMapCombinations:
    def test_psm_map_drops_unmatchable_pool(self):
        ds = dataset("multi-moderate", seed=9, n=1600)
        psfit = estimate_ps(ds, 1)
        real = [
            match_nearest(psfit, np.flatnonzero(psfit.sample.trial == j),
                          rng=np.random.default_rng(3))
            for j in range(1, ds.k_historical + 1)
        ]
        none = np.zeros(0, dtype=int)
        real[1] = MatchSet(conc_rows=none, hist_rows=none, caliper=0.0)
        got = estimate_psm_map(ds, MapConfig(omega=0.5), psfit=psfit, matchsets=real)
        assert got.flags == ("psm_map:pool2_unmatched_dropped",)
        assert got.diagnostics["n_studies"] == 2.0

    def test_psw_map_smoke(self):
        ds = dataset(seed=10)
        psfit = estimate_ps(ds, 2)
        got = estimate_psw_map(ds, MapConfig(omega=0.5), psfit, ipw_weights(psfit))
        assert got.diagnostics["n_studies"] == 1.0
        assert np.isfinite(got.se) and got.se > 0


def synthetic_pss_inputs(frac_treated_low=1.0, seed=13):
    """Hand-built strata: 100 concurrent on a ps ladder plus historical."""
    rng = np.random.default_rng(seed)
    ps_c = np.linspace(0.2, 0.8, 100)
    z = np.zeros(100, dtype=int)
    n_low = int(20 * frac_treated_low)
    z[:n_low] = 1
    z[20::2] = 1
    ps_h = rng.uniform(0.25, 0.75, size=60)
    n = 160
    sample = SubjectGroup(
        ids=np.arange(n),
        x=rng.normal(size=(n, 1)),
        z=np.r_[z, np.zeros(60, dtype=int)],
        trial=np.r_[np.zeros(100, dtype=int), np.ones(60, dtype=int)],
        y=rng.normal(size=n),
    )
    ps = np.r_[ps_c, ps_h]
    fit = PsFit(sample=sample, ps=ps, fit=None)
    conc = sample.take(np.arange(100))
    hist = sample.take(np.arange(100, 160))
    ds = TrialDataset(full_concurrent=conc, reduced_concurrent=conc, historical=(hist,))
    return ds, fit


class TestStratifiedBorrowing:
    def test_zero_borrow_equals_stratum_weighted_unadjusted(self):
        ds = dataset(seed=14)
        psfit = estimate_ps(ds, 1)
        pp = estimate_pss_pp(ds, psfit=psfit, total_borrow=0.0)
        cl = estimate_pss_cl(ds, psfit=psfit, total_borrow=0.0)
        assert pp.flags == () and cl.flags == ()

        labels = stratify(psfit)
        sample = psfit.sample
        conc = sample.trial == 0
        effs, sizes = [], []
        for s in range(5):
            m = (labels == s) & conc
            t = sample.y[m & (sample.z == 1)]
            c = sample.y[m & (sample.z == 0)]
            effs.append(t.mean() - c.mean())
            sizes.append(m.sum())
        w = np.asarray(sizes, dtype=float) / sum(sizes)
        oracle = float(w @ np.asarray(effs))
        assert pp.estimate == pytest.approx(oracle, abs=1e-10)
        assert cl.estimate == pytest.approx(oracle, abs=1e-10)
        assert pp.diagnostics["mean_alpha"] == 0.0
        # same per-stratum variances, but linear weighting blows the SE up
        assert cl.se > pp.se

    def test_full_borrow_point_estimates_coincide(self):
        # standardize every control cell to unit variance; with the full
        # historical sample borrowed both rules then produce the same
        # pooled control mean and must agree exactly
        ds = dataset(seed=15)
        psfit = estimate_ps(ds, 1)
        labels = stratify(psfit)
        sample = psfit.sample
        conc = sample.trial == 0
        y = sample.y.copy()
        for s in range(5):
            for mask in ((labels == s) & conc & (sample.z == 0),
                         (labels == s) & ~conc):
                if mask.sum() >= 2 and y[mask].std(ddof=1) > 0:
                    mu = y[mask].mean()
                    y[mask] = (y[mask] - mu) / y[mask].std(ddof=1) + mu
        new_sample = SubjectGroup(ids=sample.ids, x=sample.x, z=sample.z,
                                  trial=sample.trial, y=y)
        nr = len(ds.reduced_concurrent)
        reduced = new_sample.take(np.arange(nr))
        pools = tuple(
            new_sample.take(np.flatnonzero(new_sample.trial == j))
            for j in range(1, ds.k_historical + 1)
        )
        ds2 = TrialDataset(full_concurrent=ds.full_concurrent,
                           reduced_concurrent=reduced, historical=pools)
        psfit2 = PsFit(sample=new_sample, ps=psfit.ps, fit=psfit.fit)
        tb = float(((labels >= 0) & ~conc).sum())
        pp = estimate_pss_pp(ds2, psfit=psfit2, total_borrow=tb)
        cl = estimate_pss_cl(ds2, psfit=psfit2, total_borrow=tb)
        assert pp.flags == () and cl.flags == ()
        assert pp.diagnostics["mean_alpha"] == pytest.approx(1.0, abs=1e-12)
        assert pp.estimate == pytest.approx(cl.estimate, abs=1e-10)

    def test_invalid_stratum_merges_into_neighbor(self):
        ds, fit = synthetic_pss_inputs(frac_treated_low=1.0)
        got = estimate_pss_pp(ds, psfit=fit, total_borrow=10.0)
        assert "pss:merged_stratum_0" in got.flags
        assert got.diagnostics["n_strata_effective"] == 4.0

    def test_borrowing_moves_toward_historical(self):
        ds, fit = synthetic_pss_inputs(frac_treated_low=0.5, seed=16)
        none = estimate_pss_pp(ds, psfit=fit, total_borrow=0.0)
        lots = estimate_pss_pp(ds, psfit=fit, total_borrow=60.0)
        assert lots.se < none.se
        assert lots.diagnostics["mean_alpha"] > 0.5

    def test_negative_borrow_rejected(self):
        ds, fit = synthetic_pss_inputs(frac_treated_low=0.5, seed=17)
        with pytest.raises(ValueError):
            estimate_pss_pp(ds, psfit=fit, total_borrow=-1.0)
        with pytest.raises(ValueError):
            estimate_pss_cl(ds, psfit=fit, total_borrow=-1.0)
