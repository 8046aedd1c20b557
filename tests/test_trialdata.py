import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from hybridctl.trialdata import (
    GenCoefficients,
    N_COVARIATES,
    PRESETS,
    SubjectGroup,
    TrialDataset,
    assign_trials,
    build_replicate,
    gen_covariates,
    gen_outcomes,
    load_subjects_csv,
    preset,
    preset_n_total,
    trial_probabilities,
)


def rng_(seed=0):
    return np.random.default_rng(seed)


def single(beta0, beta):
    """The membership model of one pool given in the single-pool form."""
    return GenCoefficients(alpha0=0.0, alpha=np.zeros(6), theta_treat=0.0,
                           beta0=beta0, beta=beta).membership


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
        p = trial_probabilities(X, *single(0.0, np.zeros(6)))[:, 0]
        np.testing.assert_allclose(p, 0.5)

    def test_severe_single_concurrent_count(self):
        # beta0 = -0.9, beta = 0.5 targets roughly 400 of 1200 concurrent
        X = gen_covariates(1200, rng_(7))
        labels = assign_trials(X, *single(-0.9, np.full(6, 0.5)), rng_(8))
        assert abs((labels == 0).sum() - 400) < 40

    def test_moderate_single_matches_marginal_oracle(self):
        # Monte Carlo oracle for the marginal inclusion probability,
        # averaged over fresh standard-normal covariates
        oracle_rng = rng_(1234)
        Xo = oracle_rng.standard_normal((1_000_000, 6))
        p_marg = trial_probabilities(Xo, *single(-0.78, np.full(6, 0.3)))[:, 0].mean()

        X = gen_covariates(1200, rng_(9))
        labels = assign_trials(X, *single(-0.78, np.full(6, 0.3)), rng_(10))
        assert abs((labels == 0).mean() - p_marg) < 0.04

    def test_single_form_models_being_concurrent(self):
        # the scalar beta0 and 6-vector beta give P(concurrent) = expit(beta0 + x . beta),
        # far into both tails
        X = gen_covariates(2000, rng_(12)) * 40.0
        for name in ("single-moderate", "single-severe"):
            c = preset(name)
            beta0, beta = c.membership
            assert beta0.shape == (1,) and beta.shape == (1, 6)
            probs = trial_probabilities(X, beta0, beta)
            np.testing.assert_allclose(probs[:, 0], expit(c.beta0 + X @ c.beta), rtol=0, atol=1e-15)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_pool_form_membership_is_as_given(self):
        c = preset("multi-severe")
        beta0, beta = c.membership
        assert beta0 is c.beta0 and beta is c.beta

    def test_multi_zero_coefficients_symmetric(self):
        X = gen_covariates(8, rng_())
        probs = trial_probabilities(X, np.zeros(3), np.zeros((3, 6)))
        np.testing.assert_allclose(probs, 0.25)

    def test_multi_rows_are_simplex_points(self):
        c = preset("multi-severe")
        X = gen_covariates(500, rng_(3))
        probs = trial_probabilities(X, c.beta0, c.beta)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_multi_severe_concurrent_about_quarter(self):
        c = preset("multi-severe")
        X = gen_covariates(1600, rng_(4))
        labels = assign_trials(X, c.beta0, c.beta, rng_(5))
        assert abs((labels == 0).sum() - 400) < 60

    def test_multi_label_frequencies_match_probabilities(self):
        c = preset("multi-moderate")
        X = gen_covariates(1, rng_(6))
        probs = trial_probabilities(X, c.beta0, c.beta)[0]
        draws = assign_trials(np.repeat(X, 200_000, axis=0), c.beta0, c.beta, rng_(11))
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
        m_full = int((ds.full_concurrent.z == 0).sum())
        assert int((ds.reduced_concurrent.z == 0).sum()) == m_full // 2

    def test_treated_sets_identical(self):
        ds = build_replicate(preset("single-moderate"), 1200, rng_(4))
        full, red = ds.full_concurrent, ds.reduced_concurrent
        np.testing.assert_array_equal(full.ids[full.z == 1], red.ids[red.z == 1])

    def test_reduced_controls_subset_of_full(self):
        ds = build_replicate(preset("multi-severe"), 1600, rng_(5))
        full = set(ds.full_concurrent.ids[ds.full_concurrent.z == 0].tolist())
        red = set(ds.reduced_concurrent.ids[ds.reduced_concurrent.z == 0].tolist())
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
        # k >= 1 pools: zero pools, or a beta0 that is not a vector, is rejected
        with pytest.raises(ValueError, match="non-empty vector"):
            GenCoefficients(alpha0=1.0, alpha=np.zeros(6), theta_treat=0.0,
                            beta0=np.zeros(0), beta=np.zeros((0, 6)))
        with pytest.raises(ValueError, match="non-empty vector"):
            GenCoefficients(alpha0=1.0, alpha=np.zeros(6), theta_treat=0.0,
                            beta0=np.zeros((2, 1)), beta=np.zeros((2, 6)))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_any_number_of_pools(self, k):
        c = GenCoefficients(alpha0=1.0, alpha=np.zeros(6), theta_treat=0.0,
                            beta0=np.full(k, -0.5), beta=np.zeros((k, 6)))
        ds = build_replicate(c, 600, rng_(k))
        assert ds.k_historical == k
        assert len(ds.full_concurrent) + sum(len(p) for p in ds.historical) == 600
        assert all(len(p) > 0 for p in ds.historical)

    def test_one_pool_vector_form_matches_the_scalar_form(self):
        # a one-entry beta0 and (1, 6) beta are the single-pool model with its sign flipped
        s = preset("single-moderate")
        v = GenCoefficients(alpha0=s.alpha0, alpha=s.alpha, theta_treat=s.theta_treat,
                            beta0=np.array([-s.beta0]), beta=-s.beta[None, :])
        a, b = build_replicate(s, 1200, rng_(13)), build_replicate(v, 1200, rng_(13))
        np.testing.assert_array_equal(a.historical[0].ids, b.historical[0].ids)
        np.testing.assert_array_equal(a.reduced_concurrent.y, b.reduced_concurrent.y)

    def test_null_effect_arms_indistinguishable(self):
        """Under theta = 0 the treated and control outcome laws coincide."""
        c = preset("single-moderate").with_theta(0.0)
        treated, controls = [], []
        r = rng_(11)
        for _ in range(50):
            ds = build_replicate(c, 1200, r)
            full = ds.full_concurrent
            treated.append(full.y[full.z == 1])
            controls.append(full.y[full.z == 0])
        ks = stats.ks_2samp(np.concatenate(treated), np.concatenate(controls))
        assert ks.pvalue > 0.001


class TestTrialDataset:
    def test_pooled_stacks_reduced_then_pools(self):
        ds = build_replicate(preset("multi-moderate"), 1600, rng_(8))
        pooled = ds.pooled
        parts = [ds.reduced_concurrent, *ds.historical]
        np.testing.assert_array_equal(pooled.ids, np.concatenate([g.ids for g in parts]))
        np.testing.assert_array_equal(pooled.trial, np.repeat(range(4), [len(g) for g in parts]))
        assert ds.pooled is pooled

    def test_mislabelled_groups_rejected(self):
        ds = build_replicate(preset("multi-moderate"), 1600, rng_(9))

        def relabel(g, label):
            return SubjectGroup(ids=g.ids, x=g.x, z=g.z, trial=np.full(len(g), label), y=g.y)

        pools = list(ds.historical)
        pools[1] = relabel(pools[1], 3)
        with pytest.raises(ValueError, match="historical pool 2 needs trial label 2"):
            TrialDataset(ds.full_concurrent, ds.reduced_concurrent, tuple(pools))
        with pytest.raises(ValueError, match="historical pool 1 needs trial label 1"):
            TrialDataset(ds.full_concurrent, ds.reduced_concurrent, ds.historical[::-1])
        with pytest.raises(ValueError, match="reduced_concurrent needs trial label 0"):
            TrialDataset(ds.full_concurrent, relabel(ds.reduced_concurrent, 1), ds.historical)
        with pytest.raises(ValueError, match="full_concurrent needs trial label 0"):
            TrialDataset(relabel(ds.full_concurrent, 2), ds.reduced_concurrent, ds.historical)


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

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,z,y,x1,y\n0,1,1.0,0.1,0\n0,0,0.2,0.0,0\n1,0,0.5,0.2,0\n")
        with pytest.raises(ValueError, match="^line 1: column 'y' is repeated$"):
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
