import numpy as np
import pytest
from scipy import stats

from hybridctl.trialdata import (
    GenCoefficients,
    N_COVARIATES,
    PRESETS,
    SubjectGroup,
    TrialDataset,
    assign_trials_multi,
    assign_trials_single,
    build_replicate,
    gen_covariates,
    gen_outcomes,
    load_subjects_csv,
    preset,
    preset_n_total,
    trial_probabilities_multi,
    trial_probabilities_single,
)


def rng_(seed=0):
    return np.random.default_rng(seed)


class TestGenCovariates:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_covariates(0, rng_())

    def test_standard_normal_columns(self):
        X = gen_covariates(100_000, rng_(1))
        assert X.shape == (100_000, N_COVARIATES)
        assert np.all(np.abs(X.mean(axis=0)) < 0.02)
        assert np.all(np.abs(X.std(axis=0) - 1.0) < 0.02)

    def test_deterministic_given_seed(self):
        a = gen_covariates(3, rng_(42))
        b = gen_covariates(3, rng_(42))
        np.testing.assert_array_equal(a, b)


class TestTrialAssignment:
    def test_zero_coefficients_give_half(self):
        X = gen_covariates(10, rng_())
        p = trial_probabilities_single(X, 0.0, np.zeros(6))
        np.testing.assert_allclose(p, 0.5)

    def test_severe_single_concurrent_count(self):
        # beta0 = -0.9, beta = 0.5 targets roughly 400 of 1200 concurrent
        X = gen_covariates(1200, rng_(7))
        labels = assign_trials_single(X, -0.9, np.full(6, 0.5), rng_(8))
        assert abs((labels == 0).sum() - 400) < 40

    def test_moderate_single_matches_marginal_oracle(self):
        # Monte Carlo oracle for the marginal inclusion probability,
        # averaged over fresh standard-normal covariates
        oracle_rng = rng_(1234)
        Xo = oracle_rng.standard_normal((1_000_000, 6))
        p_marg = trial_probabilities_single(Xo, -0.78, np.full(6, 0.3)).mean()

        X = gen_covariates(1200, rng_(9))
        labels = assign_trials_single(X, -0.78, np.full(6, 0.3), rng_(10))
        assert abs((labels == 0).mean() - p_marg) < 0.04

    def test_multi_zero_coefficients_symmetric(self):
        X = gen_covariates(8, rng_())
        probs = trial_probabilities_multi(X, np.zeros(3), np.zeros((3, 6)))
        np.testing.assert_allclose(probs, 0.25)

    def test_multi_rows_are_simplex_points(self):
        c = preset("multi-severe")
        X = gen_covariates(500, rng_(3))
        probs = trial_probabilities_multi(X, c.beta0, c.beta)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_multi_severe_concurrent_about_quarter(self):
        c = preset("multi-severe")
        X = gen_covariates(1600, rng_(4))
        labels = assign_trials_multi(X, c.beta0, c.beta, rng_(5))
        assert abs((labels == 0).sum() - 400) < 60

    def test_multi_label_frequencies_match_probabilities(self):
        c = preset("multi-moderate")
        X = gen_covariates(1, rng_(6))
        probs = trial_probabilities_multi(X, c.beta0, c.beta)[0]
        draws = assign_trials_multi(np.repeat(X, 200_000, axis=0), c.beta0, c.beta, rng_(11))
        freq = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freq, probs, atol=0.005)


class TestOutcomes:
    def test_marginal_distribution(self):
        c = GenCoefficients(alpha0=1.0, alpha=np.zeros(6), theta_treat=0.0,
                            beta0=0.0, beta=np.zeros(6))
        X = gen_covariates(100_000, rng_(1))
        y = gen_outcomes(X, np.zeros(100_000, dtype=int), c, rng_(2))
        assert abs(y.mean() - 1.0) < 0.01
        assert abs(y.std() - 1.0) < 0.01

    def test_degenerate_noise_is_exact(self):
        c = GenCoefficients(alpha0=2.0, alpha=np.zeros(6), theta_treat=0.5,
                            beta0=0.0, beta=np.zeros(6), sigma_e=0.0)
        X = gen_covariates(10, rng_())
        z = np.array([0, 1] * 5)
        y = gen_outcomes(X, z, c, rng_())
        np.testing.assert_allclose(y, 2.0 + 0.5 * z)


class TestPresets:
    def test_names(self):
        assert set(PRESETS) == {
            "single-moderate", "single-severe", "multi-moderate", "multi-severe",
        }

    def test_single_moderate_values(self):
        c = preset("single-moderate")
        assert c.alpha0 == 1.0 and c.theta_treat == 0.35
        np.testing.assert_allclose(c.alpha, 0.2)
        assert c.beta0 == -0.78
        np.testing.assert_allclose(c.beta, 0.3)
        assert preset_n_total("single-moderate") == 1200

    def test_single_severe_values(self):
        c = preset("single-severe")
        assert (c.alpha0, c.theta_treat, c.beta0) == (1.0, 0.5, -0.9)
        np.testing.assert_allclose(c.alpha, 0.5)
        np.testing.assert_allclose(c.beta, 0.5)

    def test_multi_presets_shapes(self):
        for name in ("multi-moderate", "multi-severe"):
            c = preset(name)
            assert c.k_historical == 3
            assert c.beta.shape == (3, 6)
            assert preset_n_total(name) == 1600

    def test_multi_severe_values(self):
        c = preset("multi-severe")
        np.testing.assert_allclose(c.beta0, [-1.0, -0.1, 0.2])
        np.testing.assert_allclose(c.beta[0], 0.1)
        np.testing.assert_allclose(c.beta[1], 0.4)
        np.testing.assert_allclose(c.beta[2], -0.2)

    def test_with_theta(self):
        c = preset("single-severe").with_theta(0.0)
        assert c.theta_treat == 0.0
        assert preset("single-severe").theta_treat == 0.5


class TestBuildReplicate:
    def test_single_partition_covers_everyone(self):
        ds = build_replicate(preset("single-moderate"), 1200, rng_(1))
        assert ds.k_historical == 1
        assert len(ds.full_concurrent) + len(ds.historical[0]) == 1200

    def test_multi_partition(self):
        ds = build_replicate(preset("multi-moderate"), 1600, rng_(2))
        assert ds.k_historical == 3
        total = len(ds.full_concurrent) + sum(len(p) for p in ds.historical)
        assert total == 1600

    def test_reduced_controls_are_half(self):
        ds = build_replicate(preset("single-severe").with_theta(0.0), 1200, rng_(3))
        m_full = len(ds.full_concurrent.controls())
        assert len(ds.reduced_concurrent.controls()) == m_full // 2

    def test_treated_sets_identical(self):
        ds = build_replicate(preset("single-moderate"), 1200, rng_(4))
        np.testing.assert_array_equal(
            ds.full_concurrent.treated().ids, ds.reduced_concurrent.treated().ids
        )

    def test_reduced_controls_subset_of_full(self):
        ds = build_replicate(preset("multi-severe"), 1600, rng_(5))
        full = set(ds.full_concurrent.controls().ids.tolist())
        red = set(ds.reduced_concurrent.controls().ids.tolist())
        assert red <= full

    def test_historical_untreated(self):
        ds = build_replicate(preset("multi-severe"), 1600, rng_(6))
        for pool in ds.historical:
            assert np.all(pool.z == 0)

    def test_one_to_one_randomization(self):
        ds = build_replicate(preset("single-moderate"), 1200, rng_(7))
        n = len(ds.full_concurrent)
        n_treat = int(ds.full_concurrent.z.sum())
        assert n_treat == (n + 1) // 2

    def test_bitwise_deterministic(self):
        a = build_replicate(preset("single-moderate"), 1200, rng_(99))
        b = build_replicate(preset("single-moderate"), 1200, rng_(99))
        np.testing.assert_array_equal(a.reduced_concurrent.y, b.reduced_concurrent.y)
        np.testing.assert_array_equal(a.historical[0].ids, b.historical[0].ids)

    def test_unsupported_k_rejected(self):
        c = GenCoefficients(alpha0=1.0, alpha=np.zeros(6), theta_treat=0.0,
                            beta0=np.zeros(2), beta=np.zeros((2, 6)))
        with pytest.raises(ValueError, match="historical pools"):
            build_replicate(c, 1200, rng_())

    def test_null_effect_arms_indistinguishable(self):
        """Under theta = 0 the treated and control outcome laws coincide."""
        c = preset("single-moderate").with_theta(0.0)
        treated, controls = [], []
        r = rng_(11)
        for _ in range(50):
            ds = build_replicate(c, 1200, r)
            treated.append(ds.full_concurrent.treated().y)
            controls.append(ds.full_concurrent.controls().y)
        ks = stats.ks_2samp(np.concatenate(treated), np.concatenate(controls))
        assert ks.pvalue > 0.001


class TestSubjectsCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text(
            "trial,z,y,x1,x2\n"
            "0,1,1.2,0.1,0.2\n0,1,0.8,0.0,0.1\n0,0,0.3,-0.2,0.3\n0,0,0.1,0.4,-0.1\n"
            "1,0,0.2,0.3,0.0\n1,0,0.4,-0.1,0.2\n"
        )
        ds = load_subjects_csv(str(path))
        assert isinstance(ds, TrialDataset)
        assert len(ds.reduced_concurrent) == 4
        assert ds.k_historical == 1
        assert len(ds.historical[0]) == 2

    def test_treated_historical_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,z,y,x1\n0,1,1.0,0.1\n0,0,0.2,0.0\n1,1,0.5,0.2\n")
        with pytest.raises(ValueError):
            load_subjects_csv(str(path))

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,y,x1\n0,1.0,0.1\n")
        with pytest.raises(ValueError):
            load_subjects_csv(str(path))


def test_subject_group_validation():
    with pytest.raises(ValueError):
        SubjectGroup(
            ids=np.arange(3), x=np.zeros((2, 6)), z=np.zeros(3, dtype=int),
            trial=np.zeros(3, dtype=int), y=np.zeros(3),
        )


def test_dataset_rejects_treated_pool():
    g = SubjectGroup(
        ids=np.arange(4), x=np.zeros((4, 6)), z=np.array([1, 1, 0, 0]),
        trial=np.zeros(4, dtype=int), y=np.zeros(4),
    )
    bad_pool = SubjectGroup(
        ids=np.arange(4, 6), x=np.zeros((2, 6)), z=np.array([0, 1]),
        trial=np.ones(2, dtype=int), y=np.zeros(2),
    )
    with pytest.raises(ValueError):
        TrialDataset(full_concurrent=g, reduced_concurrent=g, historical=(bad_pool,))
