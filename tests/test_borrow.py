import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import strata_reference as sref
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from hybridctl.borrow import (
    SINGLE_POOL_TAU_MULT,
    ArmSummaries,
    TAU_LADDER,
    arm_summaries,
    build_strata,
    _mean_se,
    _moments,
    _ndtr,
    credible_interval,
    effect_posterior,
    estimate_pss_cl,
    estimate_pss_pp,
    map_estimates,
    map_prior,
    matched_studies,
    matched_study_summary,
    pool_studies,
    posterior_update,
    power_prior_update,
    resolve_tau_scale,
    robustify,
    weighted_studies,
    weighted_study_summary,
)
from hybridctl.metrics import ALPHA
from hybridctl.propensity import (
    MatchSet, PsFit, estimate_ps, ipw_weights, match_nearest, stratify, unadjusted_effect,
)
from hybridctl.trialdata import SubjectGroup, build_replicate, preset


def dataset(name="single-moderate", seed=0, n=1200):
    return build_replicate(preset(name), n, np.random.default_rng(seed))


def study_array(*pairs):
    """The (k, 2) study array of (mean, se) pairs."""
    return np.array(pairs, dtype=float).reshape(-1, 2)


NO_STUDIES = study_array()


def mixture(weights, means, sds):
    """A mixture as 1-d weights, means and SDs, as :func:`prior_one` returns it."""
    return tuple(np.asarray(a, dtype=float) for a in (weights, means, sds))


def normal(mean, sd):
    return mixture([1.0], [mean], [sd])


def rows(*mixtures):
    """Mixtures of one size stacked as the (rows, components) weights,
    means and SDs that the kernels take."""
    return tuple(np.stack(a) for a in zip(*mixtures))


def first_row(out):
    """Row 0 of a kernel's ``(arrays, checks)`` output, or the first check
    that row fails, raised as a ``ValueError``."""
    arrays, checks = out
    for message, ok in checks:
        if not ok[0]:
            raise ValueError(message)
    return tuple(a[0] for a in arrays)


def mix_mean(mix):
    return float(_moments(*rows(mix))[0][0])


def mix_var(mix):
    return float(_moments(*rows(mix))[1][0])


def mix_sd(mix):
    return math.sqrt(max(mix_var(mix), 0.0))


def robustify_one(prior, omega, mean, sd):
    return first_row(robustify(*rows(prior), np.array([omega]), mean, sd))


def update_one(prior, data_mean, data_se):
    return first_row(posterior_update(*rows(prior), data_mean, data_se))


def effect_one(control, treated_mean, treated_se, alpha=ALPHA):
    """The one-row :func:`effect_posterior` and :func:`credible_interval` calls."""
    est, sd, _, _ = first_row(effect_posterior(*rows(control), treated_mean, treated_se))
    lo, hi = credible_interval(*rows(control), treated_mean, treated_se, alpha)
    return SimpleNamespace(estimate=float(est), se=float(sd),
                           interval=(float(lo[0]), float(hi[0])))


def exact_repr(arrays, row):
    """Row ``row`` of every array, as the repr of its floats."""
    return [repr(np.atleast_1d(a[row]).tolist()) for a in arrays]


def prior_one(studies, tau_scale):
    """The one-row :func:`map_prior` call: one mixture as 1-d arrays."""
    return first_row(map_prior(studies[None], np.array([tau_scale])))


def map_source(arms, studies, tau_labels, omegas, flags=(), intervals=False):
    """The one-source :func:`map_estimates` call: the source's rows, or
    its error raised."""
    [got] = map_estimates(arms, [(studies, tau_labels, omegas, flags)], intervals)
    if isinstance(got, ValueError):
        raise got
    return got


def map_fit(ds, omega, tau_label=None, studies=None, flags=()):
    """The one-pair :func:`map_estimates` call for ``omega`` and
    ``tau_label``, on the historical pools unless ``studies`` is given."""
    if studies is None:
        studies = pool_studies(ds)
    return map_source(arm_summaries(ds), studies, [tau_label], [omega], flags)[0]


def bisect_quantile(mix, q):
    """Plain bisection on the mixture CDF from a wide bracket: the slow
    reference for :func:`credible_interval`."""
    w, m, s = mix
    lo, hi = mix_mean(mix) - 50.0 * mix_sd(mix), mix_mean(mix) + 50.0 * mix_sd(mix)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(w @ norm.cdf(mid, m, s)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMoments:
    def test_normal_moments(self):
        d = normal(1.3, 0.7)
        assert mix_mean(d) == 1.3
        assert mix_sd(d) == pytest.approx(0.7, rel=1e-15)

    def test_mixture_moments(self):
        d = mixture([0.7, 0.3], [0.0, 3.0], [0.2, 0.4])
        want_mean = 0.3 * 3.0
        want_var = 0.7 * (0.04 + want_mean**2) + 0.3 * (0.16 + (3.0 - want_mean) ** 2)
        assert mix_mean(d) == pytest.approx(want_mean, abs=1e-15)
        assert mix_var(d) == pytest.approx(want_var, rel=1e-14)

    def test_rows_equal_one_row_calls(self):
        mixes = [mixture([0.7, 0.3], [0.0, 3.0], [0.2, 0.4]),
                 mixture([0.1, 0.9], [-2.0, 0.3], [1.5, 0.2])]
        stacked = _moments(*rows(*mixes))
        for i, mix in enumerate(mixes):
            assert exact_repr(stacked, i) == exact_repr(_moments(*rows(mix)), 0)


class TestMapPrior:
    def test_zero_tau_collapses_to_fixed_effect_pooling(self):
        studies = study_array((0.2, 0.10), (0.5, 0.20), (-0.1, 0.25))
        prior = prior_one(studies, 0.0)
        prec = 1 / studies[:, 1] ** 2
        means = studies[:, 0]
        assert mix_mean(prior) == pytest.approx(float(prec @ means / prec.sum()), abs=1e-8)
        assert mix_sd(prior) == pytest.approx(1 / math.sqrt(prec.sum()), rel=1e-6)

    def test_three_equal_studies_pool_as_root_three(self):
        studies = study_array(*[(0.0, 0.2)] * 3)
        prior = prior_one(studies, 1e-9)
        assert mix_sd(prior) == pytest.approx(0.2 / math.sqrt(3), rel=5e-3)

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

        studies = study_array(*[(m, se) for m in means])
        prior = prior_one(studies, tau_scale)
        assert mix_mean(prior) == pytest.approx(oracle_mean, abs=1e-4)
        assert mix_sd(prior) == pytest.approx(math.sqrt(oracle_var), rel=1e-3)

    def test_prior_sd_non_decreasing_in_tau_ladder(self):
        studies = study_array((0.0, 0.25), (0.4, 0.25), (1.0, 0.25))
        sds = [mix_sd(prior_one(studies, resolve_tau_scale(label, studies)))
               for label in ("XS", "S", "M", "L")]
        assert all(b >= a - 1e-12 for a, b in zip(sds, sds[1:]))
        assert sds[-1] > sds[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            prior_one(NO_STUDIES, 1.0)
        with pytest.raises(ValueError):
            prior_one(study_array((0.0, 1.0)), -0.5)

    def test_returns_one_mixture_as_arrays(self):
        studies = study_array((0.2, 0.1), (0.5, 0.2))
        w, m, s = prior_one(studies, 0.3)
        assert w.shape == m.shape == s.shape == (201,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12) and (w >= 0).all()
        assert prior_one(studies, 0.0)[0].tolist() == [1.0]

    @pytest.mark.parametrize("scales", [[0.3, 0.05, 2.0, 0.3], [0.0, 0.0, 0.0, 0.0]],
                             ids=["positive", "zero"])
    def test_rows_equal_one_row_calls(self, scales):
        studies = [study_array((0.2, 0.1), (0.5, 0.2), (-0.4, 0.3)),
                   study_array((1.0, 0.05), (1.1, 0.07), (0.9, 0.06)),
                   study_array((0.0, 0.5), (3.0, 0.5), (-3.0, 0.5)),
                   study_array((0.2, 0.3), (0.2, 0.1), (0.2, 0.2))]
        stacked, _ = map_prior(np.stack(studies), np.array(scales))
        assert stacked[0].shape == (4, 201 if scales[0] else 1)
        for i, (st_i, sc) in enumerate(zip(studies, scales)):
            assert exact_repr(stacked, i) == exact_repr(rows(prior_one(st_i, sc)), 0)

    def test_scales_all_zero_or_all_positive(self):
        studies = np.stack([study_array((0.2, 0.1), (0.5, 0.2))] * 2)
        with pytest.raises(ValueError, match="all zero or all positive"):
            map_prior(studies, np.array([0.0, 0.3]))

    @pytest.mark.parametrize("bad", [(math.nan, 0.1), (math.inf, 0.1), (0.0, 0.0), (0.0, -0.1),
                                     (0.0, math.inf), (0.0, math.nan)])
    def test_study_validation(self, bad):
        with pytest.raises(ValueError, match="^study summary needs a finite mean and positive se$"):
            prior_one(study_array((0.3, 0.2), bad), 0.2)

    def test_component_validation(self):
        # finite studies whose precision-weighted mean overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="component means must be finite"):
            prior_one(study_array((1e308, 1.0), (1e308, 1.0)), 0.0)
        with pytest.raises(ValueError, match="SDs positive"):
            robustify_one(normal(0.0, 1.0), 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            robustify_one(normal(0.0, 1.0), 0.5, math.nan, 1.0)


class TestEmpiricalTauScale:
    # The empirical scale is what ladder label M names; other labels scale it.
    def test_single_study_uses_its_se(self):
        study = study_array((0.3, 0.17))
        assert resolve_tau_scale("M", study) == 0.17
        assert resolve_tau_scale("XS", study) == 0.01 * 0.17
        assert resolve_tau_scale(None, study) == SINGLE_POOL_TAU_MULT * 0.17

    def test_multiple_studies_use_sd_of_means(self):
        studies = study_array(*[(m, 0.5) for m in (0.0, 0.4, 1.0)])
        want = float(np.std([0.0, 0.4, 1.0], ddof=1))
        assert resolve_tau_scale("M", studies) == pytest.approx(want, rel=1e-12)
        assert resolve_tau_scale(None, studies) == resolve_tau_scale("M", studies)
        assert resolve_tau_scale("L", studies) == 10.0 * resolve_tau_scale("M", studies)

    def test_ladder_values(self):
        assert TAU_LADDER == {"L": 10.0, "M": 1.0, "S": 0.1, "XS": 0.01}

    def test_means_too_large_to_square_fail_the_source(self):
        # the spread of (2e154, 0) overflows: the source fails the tau
        # check with its ValueError, and no floating-point warning escapes
        arms = ArmSummaries(1.0, 0.2, 0.5, 0.2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [got] = map_estimates(arms, [(study_array((2e154, 1.0), (0.0, 1e160)), ["M"], [0.5], ())])
        assert isinstance(got, ValueError)
        assert str(got) == "tau_scale must be finite and non-negative"

    def test_no_studies_and_unknown_labels(self):
        assert resolve_tau_scale("S", NO_STUDIES) == resolve_tau_scale(None, NO_STUDIES) == 0.0
        for label in ("XL", "m", ""):
            with pytest.raises(ValueError, match="unknown tau ladder label"):
                resolve_tau_scale(label, study_array((0.3, 0.17)))
            with pytest.raises(ValueError, match="unknown tau ladder label"):
                resolve_tau_scale(label, NO_STUDIES)


class TestRobustify:
    def test_omega_zero_keeps_prior(self):
        prior = mixture([0.6, 0.4], [0.5, 1.0], [0.4, 0.3])
        out = robustify_one(prior, 0.0, 0.0, 2.0)
        np.testing.assert_array_equal(out[0], [0.6, 0.4, 0.0])
        assert mix_mean(out) == mix_mean(prior)
        assert mix_var(out) == pytest.approx(mix_var(prior), rel=1e-15)

    def test_omega_one_is_pure_vague(self):
        prior = normal(0.5, 0.4)
        out = robustify_one(prior, 1.0, -1.0, 2.0)
        np.testing.assert_array_equal(out[0], [0.0, 1.0])
        assert mix_mean(out) == -1.0
        assert mix_sd(out) == 2.0

    def test_mixture_mean_is_linear(self):
        prior = normal(0.5, 0.4)
        out = robustify_one(prior, 0.3, -1.0, 2.0)
        want_mean = 0.7 * 0.5 + 0.3 * -1.0
        want_var = 0.7 * (0.16 + 0.25) + 0.3 * (4.0 + 1.0) - want_mean**2
        assert mix_mean(out) == pytest.approx(want_mean, abs=1e-15)
        assert mix_var(out) == pytest.approx(want_var, rel=1e-14)

    def test_bad_omega_rejected(self):
        # map_estimates checks omega on entry; the kernel checks the component
        ds = dataset(seed=77)
        with pytest.raises(ValueError, match="omega"):
            map_source(arm_summaries(ds), pool_studies(ds), ["M"], [1.5])
        with pytest.raises(ValueError):
            robustify_one(normal(0.0, 1.0), 0.5, 0.0, 0.0)

    def test_rows_equal_one_row_calls(self):
        priors = [mixture([0.6, 0.4], [0.5, 1.0], [0.4, 0.3]),
                  mixture([0.1, 0.9], [-2.0, 0.3], [1.5, 0.2]),
                  mixture([0.5, 0.5], [0.0, 10.0], [0.5, 0.5])]
        omegas = np.array([0.0, 0.3, 1.0])
        stacked, _ = robustify(*rows(*priors), omegas, -1.0, 2.0)
        for i, prior in enumerate(priors):
            one, _ = robustify(*rows(prior), omegas[i:i + 1], -1.0, 2.0)
            assert exact_repr(stacked, i) == exact_repr(one, 0)


class TestPosteriorUpdate:
    def test_conjugate_normal_case(self):
        post = update_one(normal(0.0, 1.0), 1.0, 1.0)
        assert mix_mean(post) == pytest.approx(0.5, abs=1e-12)
        assert mix_sd(post) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_flat_prior_returns_likelihood(self):
        # a normal prior 3e4 data SEs wide moves the mean by under 1e-9
        post = update_one(normal(0.0, 1e4), 0.8, 0.3)
        assert mix_mean(post) == pytest.approx(0.8, abs=1e-6)
        assert mix_sd(post) == pytest.approx(0.3, rel=1e-6)

    def test_bimodal_prior_reweights_analytically(self):
        # two-component normal prior has a closed-form posterior mixture
        prior = mixture([0.5, 0.5], [0.0, 10.0], [0.5, 0.5])
        post = update_one(prior, 0.0, 0.5)
        lw = np.array([norm.logpdf(0.0, 0.0, math.sqrt(0.5)),
                       norm.logpdf(0.0, 10.0, math.sqrt(0.5))])
        wts = np.exp(lw - lw.max())
        wts /= wts.sum()
        assert wts[1] < 1e-3
        post_w, post_m, post_s = post
        np.testing.assert_allclose(post_w, wts, rtol=1e-12, atol=1e-300)
        # each component shrinks halfway, to the same SD
        np.testing.assert_allclose(post_m, [0.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(post_s, [math.sqrt(0.125)] * 2, rtol=1e-12)
        assert mix_mean(post) == pytest.approx(float(wts @ [0.0, 5.0]), abs=1e-12)

    def test_zero_weight_component_stays_zero(self):
        prior = robustify_one(normal(0.0, 0.5), 1.0, 2.0, 3.0)
        post_w = update_one(prior, 0.4, 0.2)[0]
        assert post_w[0] == 0.0
        assert post_w[1] == 1.0

    def test_bad_data_rejected(self):
        prior = normal(0.0, 1.0)
        with pytest.raises(ValueError):
            update_one(prior, 0.0, 0.0)
        with pytest.raises(ValueError):
            update_one(prior, math.nan, 1.0)

    def test_rows_equal_one_row_calls(self):
        priors = [mixture([0.5, 0.5], [0.0, 10.0], [0.5, 0.5]),
                  mixture([0.0, 1.0], [0.3, -1.0], [0.2, 2.0]),
                  mixture([0.9, 0.1], [1.2, 0.4], [0.05, 3.0])]
        stacked, _ = posterior_update(*rows(*priors), 0.4, 0.2)
        for i, prior in enumerate(priors):
            one, _ = posterior_update(*rows(prior), 0.4, 0.2)
            assert exact_repr(stacked, i) == exact_repr(one, 0)


def bimodal_control():
    return mixture([0.7, 0.3], [0.0, 3.0], [0.2, 0.4])


@st.composite
def effect_inputs(draw):
    """A control mixture of 1 to 202 components, and a treated mean and SE."""
    comps = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-5.0, 5.0),
                                    st.floats(1e-3, 5.0)), min_size=1, max_size=202))
    w, m, s = (np.array(a) for a in zip(*comps))
    w[draw(st.integers(0, len(w) - 1))] += 1e-3  # some weight is positive
    return (w / w.sum(), m, s), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 2.0))


class TestEffectPosterior:
    def test_normal_control_gives_normal_difference(self):
        got = effect_one(normal(1.0, 0.3), 2.0, 0.4)
        assert got.estimate == pytest.approx(1.0, abs=1e-12)
        assert got.se == pytest.approx(0.5, rel=1e-12)
        half = float(ndtri(0.975)) * 0.5
        assert got.interval[0] == pytest.approx(1.0 - half, abs=1e-11)
        assert got.interval[1] == pytest.approx(1.0 + half, abs=1e-11)
        assert got.interval[0] > 0.0  # the interval excludes zero: reject

    def test_point_mass_control_shifts_treated_normal(self):
        got = effect_one(normal(0.5, 1e-9), 1.2, 0.3)
        assert got.estimate == pytest.approx(0.7, abs=1e-12)
        assert got.se == pytest.approx(0.3, rel=1e-12)
        half = float(ndtri(0.975)) * 0.3
        assert got.interval[0] == pytest.approx(0.7 - half, abs=1e-11)

    def test_bimodal_control_matches_analytic_mixture(self):
        got = effect_one(bimodal_control(), 1.0, 0.5)
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
        w, m, s = bimodal_control()
        got = effect_one((w, m, s), 1.0, 0.5)
        rng = np.random.default_rng(99)
        comp = rng.choice(2, size=10**6, p=w)
        theta = rng.normal(m[comp], s[comp])
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
            normal(-2.0, 1e-6),
        ],
    )
    def test_newton_ends_match_plain_bisection(self, control, alpha):
        # credible_interval's ends (the test id keeps the name of the Newton
        # solver it replaced) against plain bisection with scipy's CDF
        got = effect_one(control, 0.5, 0.3, alpha=alpha)
        w, m, s = control
        effect = mixture(w, 0.5 - m, np.sqrt(s**2 + 0.09))
        assert got.interval[0] == pytest.approx(
            bisect_quantile(effect, alpha / 2), abs=1e-10 * got.se)
        assert got.interval[1] == pytest.approx(
            bisect_quantile(effect, 1 - alpha / 2), abs=1e-10 * got.se)

    def test_bad_treated_se_rejected(self):
        with pytest.raises(ValueError):
            effect_one(normal(0.0, 1.0), 1.0, 0.0)

    def test_overflowing_control_variance_rejected(self):
        control = mixture([0.5, 0.5], [0.0, 1e200], [1.0, 1.0])
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="^effect posterior must be finite$"):
            effect_one(control, 1.0, 0.5)

    def test_rows_equal_one_row_calls(self):
        controls = [bimodal_control(), mixture([0.97, 0.03], [0.0, 10.0], [0.1, 0.1]),
                    mixture([0.5, 0.5], [-0.4, 0.4], [1e-6, 2.0])]
        for kernel in (lambda *a: effect_posterior(*a)[0], credible_interval):
            stacked = kernel(*rows(*controls), 0.5, 0.3)
            for i, control in enumerate(controls):
                one = kernel(*rows(control), 0.5, 0.3)
                assert exact_repr(stacked, i) == exact_repr(one, 0)

    def test_cdf_at_zero_is_the_effect_mixture_cdf(self):
        w, m, s = bimodal_control()
        [f0] = effect_posterior(*rows((w, m, s)), 1.0, 0.5)[0][2]
        want = (0.7 * norm.cdf(0.0, 1.0, math.sqrt(0.29))
                + 0.3 * norm.cdf(0.0, -2.0, math.sqrt(0.41)))
        assert f0 == pytest.approx(want, rel=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(effect_inputs(), st.sampled_from([0.001, 0.05, 0.2]))
    def test_ends_solve_the_cdf_and_decide_as_the_cdf_at_zero(self, inputs, alpha):
        # Each end lies within 1e-12 total SD of its quantile: the CDF
        # brackets alpha/2 (1 - alpha/2) across 1e-12 SD about it. Where both
        # ends are clear of 0, "the interval excludes 0" and "F(0) lies in
        # an alpha/2 tail" are the same decision.
        control, t_mean, t_se = inputs
        w, m, s = control
        ([est], [sd], [f0], _), _ = effect_posterior(*rows(control), t_mean, t_se)
        [lo], [hi] = credible_interval(*rows(control), t_mean, t_se, alpha)
        mu, comp_sd = t_mean - m, np.sqrt(s**2 + t_se**2)

        def cdf(x):  # F(0) must be this sum to the last bit: the program's Phi
            return float(w @ _ndtr((x - mu) / comp_sd))

        tol = 1e-12 * sd
        for end, q in ((lo, alpha / 2.0), (hi, 1.0 - alpha / 2.0)):
            assert cdf(end - tol) <= q <= cdf(end + tol), (end, q)
        assert cdf(0.0) == f0
        if min(abs(lo), abs(hi)) > 1e-9 * sd:
            assert (lo > 0.0 or hi < 0.0) == (f0 < alpha / 2.0 or f0 > 1.0 - alpha / 2.0)


class TestNormalCdf:
    # borrow._ndtr, the program's Phi, against scipy.special.ndtr
    def test_matches_scipy_ndtr(self):
        rng = np.random.default_rng(2025)
        x = np.concatenate([rng.uniform(-40.0, 40.0, 10**6), rng.normal(0.0, 3.0, 10**6)])
        got, want = _ndtr(x), ndtr(x)
        assert np.abs(got - want).max() <= 2.0**-52
        # the lower tail keeps its relative precision down to the smallest normal double
        tail = (want < 0.5) & (want >= np.finfo(float).tiny)
        assert (np.abs(got - want)[tail] / want[tail]).max() <= 8 * 2.0**-52

    def test_special_values_without_warnings(self):
        x = np.array([[-np.inf, -1e300, -40.0, -8.0, -math.sqrt(2.0), -0.0],
                      [0.0, math.sqrt(2.0), 8.0, 40.0, 1e300, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _ndtr(x)
            nan = _ndtr(np.array([np.nan, 1.0]))
        assert got.shape == x.shape
        assert got[0, :3].tolist() == [0.0] * 3 and got[1, 3:].tolist() == [1.0] * 3
        assert got[0, 5] == got[1, 0] == 0.5
        np.testing.assert_allclose(got, ndtr(x), rtol=8 * 2.0**-52, atol=0.0)
        assert math.isnan(nan[0]) and nan[1] == pytest.approx(ndtr(1.0), rel=8 * 2.0**-52)

    def test_each_element_on_its_own(self):
        # the branches run on subsets; an element's value must not depend on
        # the array it is in
        x = np.random.default_rng(4).normal(0.0, 6.0, 500)
        whole = _ndtr(x)
        assert [float(_ndtr(x[i:i + 1])[0]) for i in range(500)] == whole.tolist()


TAU = "tau_scale must be finite and non-negative"
STUDY = "study summary needs a finite mean and positive se"
COMPONENTS = "component means must be finite and SDs positive"
PRIOR_WEIGHTS = "prior weights must be finite"
DATA = "need a finite data mean and positive se"
POST_WEIGHTS = "posterior weights must be finite"
TREATED = "treated se must be positive and finite"
EFFECT = "effect posterior must be finite"


def failed_checks(checks, row):
    return [message for message, ok in checks if not ok[row]]


class TestCheckMasks:
    """One stacked call of each kernel on good rows and rows that fail its
    checks: the good rows equal their one-row calls bit for bit, and each
    row is marked by the checks that its one-row call marks, no others."""

    @staticmethod
    def check_stack(kernel, row_args, shared, want):
        # row_args[i] holds row i's own arguments; want[i] the checks it fails
        stacked, checks = kernel(*(np.stack(a) for a in zip(*row_args)), *shared)
        assert [failed_checks(checks, i) for i in range(len(row_args))] == want
        for i, args in enumerate(row_args):
            one, one_checks = kernel(*(np.stack([a]) for a in args), *shared)
            assert failed_checks(one_checks, 0) == want[i]
            if not want[i]:
                assert exact_repr(stacked, i) == exact_repr(one, 0)

    def test_map_prior(self):
        good = study_array((0.2, 0.1), (0.5, 0.2))
        self.check_stack(map_prior, [
            (good, 0.3),
            (good, -0.3),
            (study_array((0.2, 0.1), (math.nan, 0.2)), 0.3),
            (study_array((1e308, 1.0), (1e308, 1.0)), 0.3),  # the pooled mean overflows
            (study_array((1e200, 0.1), (-1e200, 0.1)), 0.3),  # so does every tau likelihood
            (good, 1e-322),  # its tau grid would start at 0
            (study_array((1.0, 0.05), (1.1, 0.07)), 0.05),
        ], (), [[], [TAU, PRIOR_WEIGHTS], [STUDY, COMPONENTS, PRIOR_WEIGHTS], [COMPONENTS],
                [PRIOR_WEIGHTS], [COMPONENTS, PRIOR_WEIGHTS], []])

    def test_robustify(self):
        priors = [mixture([0.6, 0.4], [0.5, 1.0], [0.4, 0.3]),
                  mixture([0.1, 0.9], [-2.0, 0.3], [1.5, 0.2]),
                  mixture([0.5, 0.5], [0.0, 10.0], [0.5, 0.5])]
        row_args = [(*p, omega, mean) for p, omega, mean in zip(
            priors, [0.3, 0.5, 1.0], [-1.0, math.nan, 0.0])]
        self.check_stack(robustify, row_args, (2.0,), [[], [COMPONENTS], []])
        self.check_stack(robustify, row_args, (0.0,), [[COMPONENTS]] * 3)

    def test_posterior_update(self):
        row_args = [mixture([0.5, 0.5], [0.0, 10.0], [0.5, 0.5]),
                    mixture([0.5, 0.5], [0.0, math.inf], [1.0, 1.0]),
                    mixture([0.5, 0.5], [1e200, -1e200], [1.0, 1.0]),  # the data rule both out
                    mixture([0.9, 0.1], [1.2, 0.4], [0.05, 3.0])]
        self.check_stack(posterior_update, row_args, (0.4, 0.2),
                         [[], [COMPONENTS], [POST_WEIGHTS], []])
        for data_mean, data_se in ((0.4, 0.0), (math.nan, 0.2)):
            _, [(message, ok), *_] = posterior_update(*rows(*row_args), data_mean, data_se)
            assert message == DATA and not ok.any()

    def test_effect_posterior(self):
        row_args = [bimodal_control(), mixture([0.5, 0.5], [0.0, 1e200], [1.0, 1.0]),
                    mixture([0.97, 0.03], [0.0, 10.0], [0.1, 0.1])]
        self.check_stack(effect_posterior, row_args, (0.5, 0.3), [[], [EFFECT], []])
        for treated_se in (0.0, math.nan, math.inf):
            _, [(message, ok), *_] = effect_posterior(*rows(*row_args), 0.5, treated_se)
            assert message == TREATED and not ok.any()

    def test_source_takes_its_earliest_check(self):
        # the source's XS prior fails only its weights, the L prior its
        # components, an earlier check: whichever pair comes first, the
        # source fails with the components' text
        arms = ArmSummaries(t_mean=0.6, t_se=0.15, c_mean=0.1, c_se=0.14, unit_sd=1.0)
        studies = study_array((1.5e154, 1.0), (0.0, 1e160))
        good = (study_array((0.1, 0.1), (0.3, 0.1)), ["S"], [0.5], ())
        for labels, want in ((["XS"], PRIOR_WEIGHTS), (["L"], COMPONENTS),
                             (["XS", "L"], COMPONENTS), (["L", "XS"], COMPONENTS)):
            got, other = map_estimates(arms, [(studies, labels, [0.5] * len(labels), ()), good])
            assert type(got) is ValueError and str(got) == want
            assert [exact_row(r) for r in other] == [
                exact_row(r) for r in map_estimates(arms, [good])[0]]


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


@st.composite
def permuted_studies(draw):
    """A study array of 2-5 studies and a permutation of its rows."""
    pairs = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 1.0)),
                          min_size=2, max_size=5))
    return study_array(*pairs), np.array(draw(st.permutations(range(len(pairs)))))


class TestEstimateMap:
    def test_omega_one_tracks_unadjusted(self):
        ds = dataset(seed=77)
        got = map_fit(ds, 1.0)
        ref = unadjusted_effect(ds.reduced_concurrent)
        assert got.estimate == pytest.approx(ref.estimate, abs=0.02)
        assert got.se == pytest.approx(ref.se, rel=0.05)
        # the vague component carries one unit-information subject
        assert got.diagnostics["prior_ess"] == pytest.approx(1.0, rel=0.01)

    def test_borrowing_tightens_the_posterior(self):
        ds = dataset(seed=77)
        full = map_fit(ds, 0.2)
        none = map_fit(ds, 1.0)
        assert full.se < none.se
        assert full.diagnostics["prior_ess"] > none.diagnostics["prior_ess"]

    def test_default_tau_scale_resolution(self):
        # One pool: the label-less default is a fixed fraction of the
        # pool SE; a ladder label stays a pure multiple of it.
        ds = dataset(seed=77)
        pool = ds.historical[0].y
        pool_se = float(np.std(pool, ddof=1)) / math.sqrt(len(pool))
        got = map_fit(ds, 0.5)
        assert got.diagnostics["tau_scale"] == pytest.approx(
            SINGLE_POOL_TAU_MULT * pool_se, rel=1e-12
        )
        labelled = map_fit(ds, 0.5, "M")
        assert labelled.diagnostics["tau_scale"] == pytest.approx(pool_se, rel=1e-12)

        # Several pools: the default is the SD of the pool means.
        multi = dataset("multi-moderate", seed=78, n=1600)
        means = [float(np.mean(p.y)) for p in multi.historical]
        got = map_fit(multi, 0.5)
        assert got.diagnostics["tau_scale"] == pytest.approx(
            float(np.std(means, ddof=1)), rel=1e-12
        )

    def test_no_studies_forces_vague_only(self):
        ds = dataset(seed=78)
        got = map_fit(ds, 0.2, studies=NO_STUDIES)
        assert "map:no_studies_forced_omega1" in got.flags
        assert got.diagnostics["n_studies"] == 0.0
        ref = unadjusted_effect(ds.reduced_concurrent)
        assert got.estimate == pytest.approx(ref.estimate, abs=0.05)

    @pytest.mark.parametrize("studies", [NO_STUDIES, study_array((0.1, 0.2))],
                             ids=["none", "one"])
    @pytest.mark.parametrize("tau_label,omega,what", [
        ("S", 1.5, "omega"), ("S", -0.1, "omega"), ("S", math.nan, "omega"),
        ("XL", 0.5, "unknown"), ("m", 0.5, "unknown"), ("", 0.5, "unknown"),
    ])
    def test_inputs_checked_with_or_without_studies(self, studies, tau_label, omega, what):
        arms = arm_summaries(dataset(seed=78))
        with pytest.raises(ValueError, match=what):
            map_source(arms, studies, ["S", tau_label], [0.5, omega])

    @settings(max_examples=60, deadline=None)
    @given(permuted_studies(), st.lists(
        st.tuples(st.sampled_from([None, *TAU_LADDER]), st.sampled_from([0.0, 0.2, 0.5, 1.0])),
        min_size=1, max_size=4))
    def test_rows_do_not_depend_on_study_order(self, studies_perm, pairs):
        studies, perm = studies_perm
        arms = ArmSummaries(t_mean=0.6, t_se=0.15, c_mean=0.1, c_se=0.14, unit_sd=1.0)
        labels, omegas = [t for t, _ in pairs], [o for _, o in pairs]
        got = map_source(arms, studies, labels, omegas, intervals=True)
        permuted = map_source(arms, studies[perm], labels, omegas, intervals=True)
        for a, b in zip(got, permuted):
            assert b.se == pytest.approx(a.se, rel=1e-12, abs=0.0)
            assert b.estimate == pytest.approx(a.estimate, rel=1e-12, abs=1e-12 * a.se)
            if min(abs(a.interval[0]), abs(a.interval[1])) > 1e-9 * a.se:
                assert b.reject == a.reject

    def test_config_validation(self):
        ds = dataset(seed=78)
        with pytest.raises(ValueError, match="omega"):
            map_fit(ds, -0.1)
        with pytest.raises(ValueError, match="unknown tau ladder label"):
            map_fit(ds, 0.5, "XL")
        # a constant-outcome pool has no positive se
        pool = ds.historical[0]
        flat = replace(ds, historical=(replace(pool, y=np.full(len(pool), 1.25)),))
        with pytest.raises(ValueError, match="finite mean and positive se"):
            pool_studies(flat)

    def test_no_pairs_give_no_rows(self):
        arms = arm_summaries(dataset(seed=78))
        got = map_estimates(arms, [(study_array((0.1, 0.2), (0.3, 0.2)), [], [], ()),
                                   (NO_STUDIES, [], [], ())])
        assert got == [[], []]

    def test_posterior_that_rules_out_every_component_fails(self):
        # the control arm rules out both prior components of far-off
        # studies, so no posterior weight is finite: the row must fail,
        # not come back as a NaN estimate
        arms = arm_summaries(dataset(seed=78))
        with pytest.raises(ValueError, match="^posterior weights must be finite$"):
            map_source(arms, study_array((1e200, 0.1), (1e200, 0.1)), ["M"], [0.5])
        # with unequal SEs the tau likelihood itself overflows
        with pytest.raises(ValueError, match="^prior weights must be finite$"):
            map_source(arms, study_array((1e200, 0.1), (1e200, 0.2)), ["M"], [0.5])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="weights must be finite"):
            update_one(mixture([0.5, 0.5], [1e200, -1e200], [1.0, 1.0]), 0.0, 1.0)

    def test_bad_source_leaves_the_others_bit_identical(self):
        ds = dataset("multi-moderate", seed=78, n=1600)
        arms = arm_summaries(ds)
        good = [(pool_studies(ds), ["L", None, "S", "XS"], [0.5, 0.2, 0.5, 1.0], ("a",)),
                (study_array((0.4, 0.2)), ["M", None], [0.0, 0.5], ()),
                (study_array((0.1, 0.1), (0.3, 0.1)), ["S"], [0.5], ()),
                (NO_STUDIES, ["M"], [0.3], ("b",))]
        bad = [(study_array((1e200, 0.1), (1e200, 0.2)), ["M", "S"], [0.5, 0.5], ()),
               (study_array((math.nan, 0.1)), ["M"], [0.5], ()),
               (study_array((0.1, 0.1), (0.2, 0.2)), ["S", "XL"], [0.5, 0.5], ()),
               (NO_STUDIES, ["M"], [1.5], ()),
               (pool_studies(ds), ["M"], [0.5, 0.2], ())]
        alone = [map_estimates(arms, [src], intervals=True)[0] for src in good + bad]
        assert not any(isinstance(a, ValueError) for a in alone[:len(good)])
        assert all(isinstance(a, ValueError) for a in alone[len(good):])
        mixed = [*bad[:2], good[0], *bad[2:], *good[1:]]
        for order in (mixed, mixed[::-1]):
            together = map_estimates(arms, order, intervals=True)
            for src, got in zip(order, together):
                want = alone[[id(x) for x in good + bad].index(id(src))]
                if isinstance(want, ValueError):
                    assert type(got) is ValueError and str(got) == str(want)
                else:
                    assert [exact_row(r) for r in got] == [exact_row(r) for r in want]

    def test_sources_with_and_without_studies_take_the_same_steps(self):
        # a zero unit SD makes every vague component bad and a zero control
        # SE the data: both sources fail robustify's check, the earlier step,
        # whether or not they have studies
        arms = ArmSummaries(1.0, 0.2, 0.5, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = map_estimates(arms, [(study_array((0.4, 0.2), (0.6, 0.2)), ["M"], [0.5], ()),
                                       (NO_STUDIES, ["M"], [0.5], ())])
        assert [(type(g), str(g)) for g in got] == [(ValueError, COMPONENTS)] * 2


def exact_row(est):
    return repr((est.estimate, est.se, est.reject, est.interval, est.flags, est.diagnostics))


class TestMeanSe:
    def test_equals_numpy_mean_and_std(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), rng.integers(2, 401))
            assert _mean_se(y) == (float(y.mean()), float(y.std(ddof=1) / math.sqrt(y.size)))

    @pytest.mark.parametrize("n_hist", [0, 1])
    def test_arm_summaries_need_two_historical_subjects(self, n_hist):
        # the unit SD is a ddof-1 SD of the historical outcomes: under two
        # subjects it fails with _mean_se's text, not a numpy warning
        ds = dataset(seed=78)
        few = replace(ds, historical=(ds.historical[0].take(np.arange(n_hist)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^need at least two observations for a mean and se$"):
                arm_summaries(few)


class TestStudySummaries:
    def test_matched_unit_counts_reduce_to_plain_se(self):
        rng = np.random.default_rng(5)
        n = 40
        y = rng.normal(size=n)
        sample = SubjectGroup(
            ids=np.arange(n), x=np.zeros((n, 1)), z=np.zeros(n, dtype=int),
            trial=np.ones(n, dtype=int), y=y,
        )
        fit = PsFit(sample=sample, ps=np.full(n, 0.5))
        ms = MatchSet(conc_rows=1000 + np.arange(n), hist_rows=np.arange(n), caliper=0.1)
        mean, se = matched_study_summary(ms, fit)
        assert mean == pytest.approx(float(y.mean()), rel=1e-12)
        assert se == pytest.approx(float(y.std(ddof=1) / math.sqrt(n)), rel=1e-12)

    def test_matched_duplication_widens_se(self):
        rng = np.random.default_rng(6)
        n = 30
        y = rng.normal(size=n)
        sample = SubjectGroup(
            ids=np.arange(n), x=np.zeros((n, 1)), z=np.zeros(n, dtype=int),
            trial=np.ones(n, dtype=int), y=y,
        )
        fit = PsFit(sample=sample, ps=np.full(n, 0.5))
        once = MatchSet(conc_rows=100 + np.arange(n), hist_rows=np.arange(n), caliper=0.1)
        dup = MatchSet(conc_rows=np.r_[once.conc_rows, 200 + np.arange(n)],
                       hist_rows=np.r_[once.hist_rows, np.zeros(n, dtype=int)], caliper=0.1)
        # re-using subject 0 for half the pairs must not shrink the SE the
        # way n independent extra controls would
        assert matched_study_summary(dup, fit)[1] > matched_study_summary(once, fit)[1] / math.sqrt(2)

    def test_matched_degenerate_cases_return_none(self):
        sample = SubjectGroup(
            ids=np.arange(3), x=np.zeros((3, 1)), z=np.zeros(3, dtype=int),
            trial=np.ones(3, dtype=int), y=np.array([1.0, 2.0, 3.0]),
        )
        fit = PsFit(sample=sample, ps=np.full(3, 0.5))
        none = np.zeros(0, dtype=int)
        assert matched_study_summary(MatchSet(none, none, 0.1), fit) is None
        one = MatchSet(conc_rows=np.array([10, 11]), hist_rows=np.array([0, 0]), caliper=0.1)
        assert matched_study_summary(one, fit) is None

    def test_weighted_unit_weights_reduce_to_plain_se(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=25)
        mean, se = weighted_study_summary(y, np.ones(25))
        assert mean == pytest.approx(float(y.mean()), rel=1e-12)
        assert se == pytest.approx(float(y.std(ddof=1) / 5.0), rel=1e-12)

    def test_weighted_zero_weights_are_dropped(self):
        y = np.array([1.0, 2.0, 3.0, 100.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        mean, _ = weighted_study_summary(y, w)
        assert mean == pytest.approx(2.0, rel=1e-12)

    def test_constant_outcomes_give_no_study(self):
        # y = 0.1 has no spread, but its weighted mean may round off 0.1,
        # which left an SE of about 1e-18: a study of pure rounding noise
        rng = np.random.default_rng(3)
        y = np.full(40, 0.1)
        for _ in range(200):
            assert weighted_study_summary(y, rng.uniform(0.05, 20.0, 40)) is None
        sample = SubjectGroup(
            ids=np.arange(40), x=np.zeros((40, 1)), z=np.zeros(40, dtype=int),
            trial=np.ones(40, dtype=int), y=y,
        )
        fit = PsFit(sample=sample, ps=np.full(40, 0.5))
        for _ in range(200):
            hist = rng.integers(0, 40, 60)
            ms = MatchSet(conc_rows=1000 + np.arange(60), hist_rows=hist, caliper=0.1)
            assert matched_study_summary(ms, fit) is None

    def test_weighted_needs_two_positive_weights(self):
        assert weighted_study_summary(np.array([1.0, 2.0]), np.array([1.0, 0.0])) is None

    def test_builders_return_k_by_2_arrays(self):
        ds = dataset("multi-moderate", seed=9, n=1600)
        studies = pool_studies(ds)
        assert studies.shape == (3, 2) and studies.dtype == float
        assert studies[:, 0].tolist() == [float(np.mean(p.y)) for p in ds.historical]
        psfit = estimate_ps(ds, 1)
        none = np.zeros(0, dtype=int)
        unmatched = [MatchSet(conc_rows=none, hist_rows=none, caliper=0.0)] * 3
        studies, flags = matched_studies(psfit, unmatched)
        assert studies.shape == (0, 2) and len(flags) == 3


class TestMapCombinations:
    def test_psm_map_drops_unmatchable_pool(self):
        ds = dataset("multi-moderate", seed=9, n=1600)
        psfit = estimate_ps(ds, 1)
        real = [
            match_nearest(psfit, j, rng=lambda: np.random.default_rng(3))
            for j in range(1, ds.k_historical + 1)
        ]
        none = np.zeros(0, dtype=int)
        real[1] = MatchSet(conc_rows=none, hist_rows=none, caliper=0.0)
        got = map_fit(ds, 0.5, None, *matched_studies(psfit, real))
        assert got.flags == ("psm_map:pool2_unmatched_dropped",)
        assert got.diagnostics["n_studies"] == 2.0

    def test_psw_map_smoke(self):
        ds = dataset(seed=10)
        psfit = estimate_ps(ds, 2)
        got = map_fit(ds, 0.5, None, *weighted_studies(ds, psfit, ipw_weights(psfit)))
        assert got.diagnostics["n_studies"] == 1.0
        assert np.isfinite(got.se) and got.se > 0


def synthetic_pss_inputs(frac_treated_low=1.0, seed=13, z=None, ps_h=None):
    """Hand-built strata: 100 concurrent on a ps ladder plus historical.

    The five default strata hold 20 concurrent subjects each; ``z``
    overrides their treatment indicators and ``ps_h`` the scores of the
    60 historical subjects."""
    rng = np.random.default_rng(seed)
    ps_c = np.linspace(0.2, 0.8, 100)
    if z is None:
        z = np.zeros(100, dtype=int)
        z[:int(20 * frac_treated_low)] = 1
        z[20::2] = 1
    drawn = rng.uniform(0.25, 0.75, size=60)
    ps_h = drawn if ps_h is None else np.asarray(ps_h, dtype=float)
    n = 160
    sample = SubjectGroup(
        ids=np.arange(n),
        x=rng.normal(size=(n, 1)),
        z=np.r_[z, np.zeros(60, dtype=int)],
        trial=np.r_[np.zeros(100, dtype=int), np.ones(60, dtype=int)],
        y=rng.normal(size=n),
    )
    return PsFit(sample=sample, ps=np.r_[ps_c, ps_h])


def raw_strata(fit):
    """Unmerged (treated, control, historical) outcomes of each default stratum."""
    labels, s = stratify(fit), fit.sample
    conc = s.trial == 0
    return [(s.y[(labels == k) & conc & (s.z == 1)], s.y[(labels == k) & conc & (s.z == 0)],
             s.y[(labels == k) & ~conc]) for k in range(5)]


def stratum_z(*n_treated):
    """Treatment indicators giving the k-th stratum its first n_treated[k] subjects treated."""
    return np.concatenate([np.arange(20) < k for k in n_treated]).astype(int)


def assert_table(got, want):
    """Two strata tables agree: counts and flags exactly, means and
    sums of squares to rounding."""
    assert got.flags == want.flags
    np.testing.assert_array_equal(got.n, want.n)
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(got.ss, want.ss, rtol=1e-12, atol=1e-15)


def equal_arms(strata):
    """The table with each stratum's larger concurrent arm shrunk to the
    size of the smaller, its mean and SD kept: no treated surplus, so
    nothing is borrowed."""
    m = strata.n[:, :2].min(axis=1)
    n = np.column_stack([m, m, strata.n[:, 2]])
    ss = strata.ss.copy()
    ss[:, :2] *= (m[:, None] - 1) / (strata.n[:, :2] - 1)
    return replace(strata, n=n, ss=ss)


def treated_surplus(strata, at_least):
    """The table with each treated arm repeated (its mean unchanged) until
    the treated arms outnumber the control arms by ``at_least``."""
    n_t, n_c = strata.n[:, 0].sum(), strata.n[:, 1].sum()
    k = np.array([math.ceil((n_c + at_least) / n_t), 1, 1])
    return replace(strata, n=strata.n * k, ss=strata.ss * k)


def without_historical(strata):
    """The table with every historical arm emptied."""
    keep = np.array([1, 1, 0])
    return replace(strata, n=strata.n * keep, mean=strata.mean * keep, ss=strata.ss * keep)


class TestStratifiedBorrowing:
    def test_zero_borrow_equals_stratum_weighted_unadjusted(self):
        ds = dataset(seed=14)
        strata = equal_arms(build_strata(estimate_ps(ds, 1)))
        pp = estimate_pss_pp(strata)
        cl = estimate_pss_cl(strata)
        assert pp.flags == () and cl.flags == ()
        assert pp.diagnostics["total_borrow"] == cl.diagnostics["total_borrow"] == 0.0

        effs = strata.mean[:, 0] - strata.mean[:, 1]
        sizes = strata.n[:, 0] + strata.n[:, 1]
        assert len(sizes) == 5
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
        psfit2 = PsFit(sample=new_sample, ps=psfit.ps)
        n_hist = int(((labels >= 0) & ~conc).sum())
        strata = treated_surplus(build_strata(psfit2), at_least=n_hist)
        pp = estimate_pss_pp(strata)
        cl = estimate_pss_cl(strata)
        assert pp.flags == () and cl.flags == ()
        assert pp.diagnostics["total_borrow"] >= n_hist
        assert pp.diagnostics["mean_alpha"] == pytest.approx(1.0, abs=1e-12)
        assert pp.estimate == pytest.approx(cl.estimate, abs=1e-10)

    def test_invalid_stratum_merges_into_neighbor(self):
        fit = synthetic_pss_inputs(frac_treated_low=1.0)
        got = estimate_pss_pp(build_strata(fit))
        assert "pss:merged_stratum_0" in got.flags
        assert got.diagnostics["n_strata_effective"] == 4.0

    def test_borrowing_moves_toward_historical(self):
        # 80 treated and 20 controls: the surplus of 60 borrows every one of
        # the (at most 60) historical subjects; the same concurrent arms
        # with no historical subjects borrow nothing
        fit = synthetic_pss_inputs(z=stratum_z(16, 16, 16, 16, 16), seed=16)
        strata = build_strata(fit)
        lots = estimate_pss_pp(strata)
        none = estimate_pss_pp(without_historical(strata))
        assert lots.se < none.se
        assert lots.diagnostics["mean_alpha"] > 0.5
        assert none.diagnostics["mean_alpha"] == 0.0


class TestBuildStrata:
    # ``expected``: (estimate, se) of PSS+PP and PSS+CL, pinned to 1e-12
    # (the discount's rounding may move the last bits)
    @pytest.mark.parametrize(
        "n_treated,flags,kept,expected",
        [
            # stratum 0 has no controls, nor does its merge with stratum 1
            ((20, 20, 10, 10, 10), ("pss:merged_stratum_0",) * 2, [(2, 1, 0), (3,), (4,)],
             [(0.009996004153612945, 0.16531147962622034),
              (0.04928749085635367, 0.2881555352273195)]),
            # strata 2 and 3 each have one subject in one arm
            ((10, 10, 19, 1, 10), ("pss:merged_stratum_2",) * 2, [(0,), (1, 2, 3), (4,)],
             [(0.04639182789788973, 0.19797351381932995),
              (0.04639182789788973, 0.3438771305589796)]),
            # the last stratum has no treated subject
            ((10, 10, 10, 10, 0), ("pss:merged_stratum_4",), [(0,), (1,), (2,), (3, 4)],
             [(-0.19762310661781282, 0.20520364720896198),
              (-0.19762310661781282, 0.4250780555782496)]),
        ],
        ids=["leading-twice", "adjacent", "last"],
    )
    def test_merges(self, n_treated, flags, kept, expected):
        fit = synthetic_pss_inputs(z=stratum_z(*n_treated))
        raw = raw_strata(fit)
        arms, ref_flags = sref.gathered_strata(fit)
        assert ref_flags == flags
        assert len(arms) == len(kept)
        for st, parts in zip(arms, kept):
            for got, want in zip(st, zip(*(raw[k] for k in parts))):
                # neighbour first: the merged arrays concatenate in this order
                np.testing.assert_array_equal(got, np.concatenate(want))
        strata = build_strata(fit)
        assert_table(strata, sref.table(arms, flags))
        n_t, n_c = sum(n_treated), 100 - sum(n_treated)
        got = [estimate_pss_pp(strata), estimate_pss_cl(strata)]
        for est, (estimate, se) in zip(got, expected, strict=True):
            assert est.flags == flags
            assert est.estimate == pytest.approx(estimate, rel=1e-12)
            assert est.se == pytest.approx(se, rel=1e-12)
            assert est.diagnostics["total_borrow"] == max(n_t - n_c, 0)

    @pytest.mark.parametrize("name", ["single-moderate", "multi-severe"])
    @pytest.mark.parametrize("covset", [1, 3])
    def test_table_matches_gathered_arms(self, name, covset):
        fit = estimate_ps(dataset(name, seed=17), covset)
        assert_table(build_strata(fit), sref.table(*sref.gathered_strata(fit)))

    def test_historical_arms_of_under_two(self):
        # one historical subject in stratum 0, none in stratum 1: no
        # discount there, and no 0/0 for the empty arm's mean
        ps_h = np.r_[0.25, np.linspace(0.46, 0.75, 59)]
        fit = synthetic_pss_inputs(z=stratum_z(12, 12, 12, 12, 12), ps_h=ps_h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            strata = build_strata(fit)
            got = [estimate_pss_pp(strata), estimate_pss_cl(strata)]
        assert strata.n[:2, 2].tolist() == [1, 0]
        assert strata.mean[1, 2] == strata.ss[1, 2] == strata.ss[0, 2] == 0.0
        assert_table(strata, sref.table(*sref.gathered_strata(fit)))
        assert got[0].diagnostics["total_borrow"] == 20.0
        assert got[0].diagnostics["mean_alpha"] == pytest.approx(0.6 * 20.0 / 60, rel=1e-15)
        for est in got:
            assert np.isfinite(est.estimate) and est.se > 0

    def test_failure_texts(self):
        # the texts that a failed row's flag carries into raw.csv
        strata = build_strata(synthetic_pss_inputs(z=stratum_z(12, 12, 12, 12, 12), seed=16))
        n = strata.n.copy()
        n[2, 0] = 1
        for estimate in (estimate_pss_pp, estimate_pss_cl):
            with pytest.raises(ValueError, match="^need at least two observations for a mean"):
                estimate(replace(strata, n=n))
        ss = strata.ss.copy()
        ss[2, 1] = 0.0
        with pytest.raises(ValueError, match=r"^prior se must be positive \(math.inf"):
            estimate_pss_pp(replace(strata, ss=ss))

    def test_all_strata_invalid(self):
        fit = synthetic_pss_inputs(z=stratum_z(20, 20, 20, 20, 19))
        with pytest.raises(ValueError, match="cannot form any stratum"):
            build_strata(fit)
        with pytest.raises(ValueError, match="cannot form any stratum"):
            sref.gathered_strata(fit)

    def test_one_discount(self):
        # 60 treated and 40 controls: 20 borrowed subjects over every stratum
        fit = synthetic_pss_inputs(z=stratum_z(12, 12, 12, 12, 12), seed=16)
        strata = build_strata(fit)
        n_hist = int(strata.n[:, 2].sum())
        assert n_hist > 20
        got = estimate_pss_pp(strata)
        assert got.diagnostics["total_borrow"] == 20.0
        discounts = [20.0 / n_hist if h >= 2 else 0.0 for h in strata.n[:, 2]]
        assert got.diagnostics["mean_alpha"] == pytest.approx(np.mean(discounts), rel=1e-15)
