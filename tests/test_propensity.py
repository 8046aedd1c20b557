from collections import Counter

import numpy as np
import pytest

import match_reference
import ols_reference as ref
from hybridctl import harness
from hybridctl.harness import evaluate_cells, expand_cells
from hybridctl.propensity import (
    CALIPER_MULT,
    COVSETS,
    N_STRATA,
    MatchSet,
    PsFit,
    covset_columns,
    estimate_ps,
    estimate_psm,
    estimate_psw,
    full_rank_design,
    ipw_weights,
    match_nearest,
    _cut_points,
    stratify,
    unadjusted_effect,
)
from hybridctl.regress import fit_logistic
from hybridctl.trialdata import (
    GenCoefficients,
    SubjectGroup,
    TrialDataset,
    build_replicate,
    preset,
)


def make_psfit(ps_conc, ps_hist):
    """PsFit with prescribed scores; covariates and outcomes are filler."""
    return make_pools_psfit(ps_conc, [ps_hist])


def make_pools_psfit(ps_conc, pools):
    """PsFit with prescribed scores for the concurrent rows, then for
    historical pools 1..k in turn; an empty pool has no rows."""
    scores = [np.asarray(ps, dtype=float) for ps in (ps_conc, *pools)]
    trial = np.repeat(np.arange(len(scores)), [ps.size for ps in scores])
    n = trial.size
    group = SubjectGroup(
        x=np.zeros((n, 1)),
        z=np.zeros(n, dtype=int),
        trial=trial,
        y=np.zeros(n),
    )
    return PsFit(sample=group, ps=np.concatenate(scores))


def hand_built_match(y_conc, z_conc, y_hist):
    """Reduced concurrent trial (rows 0..) and one historical pool
    (continuing after it) with prescribed outcomes, plus a PsFit over
    them; scores and covariates are filler since the match set is
    supplied."""
    n_c, n_h = len(y_conc), len(y_hist)
    conc = SubjectGroup(
        x=np.zeros((n_c, 1)), z=np.asarray(z_conc),
        trial=np.zeros(n_c, dtype=int), y=np.asarray(y_conc, dtype=float),
    )
    hist = SubjectGroup(
        x=np.zeros((n_h, 1)), z=np.zeros(n_h, dtype=int),
        trial=np.ones(n_h, dtype=int), y=np.asarray(y_hist, dtype=float),
    )
    ds = TrialDataset(full_concurrent=conc, reduced_concurrent=conc, historical=(hist,))
    return ds, PsFit(sample=ds.pooled, ps=np.full(n_c + n_h, 0.5))


def dataset(name="single-moderate", seed=0, n=1200):
    return build_replicate(preset(name), n, np.random.default_rng(seed))


def rank_auc(scores, labels):
    order = np.argsort(scores)
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    n1 = labels.sum()
    n0 = labels.size - n1
    return (ranks[labels == 1].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)


class TestCovsetColumns:
    def test_mapping(self):
        assert covset_columns(1, 6) == (0, 1, 2, 3, 4, 5)
        assert covset_columns(2, 6) == (0, 1, 2, 4, 5)
        assert covset_columns(3, 6) == (0, 1, 2)

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError, match="unknown covariate set"):
            covset_columns(4, 6)

    def test_too_few_columns_rejected(self):
        with pytest.raises(ValueError):
            covset_columns(2, 3)
        with pytest.raises(ValueError):
            covset_columns(3, 2)


def membership_logit(ds, cols):
    """Logistic fit of concurrent membership on an intercept and columns ``cols``:
    the design, coefficients and fitted probabilities."""
    pooled = ds.pooled
    X = np.column_stack([np.ones(len(pooled)), pooled.x[:, list(cols)]])
    return (X, *fit_logistic(X, (pooled.trial == 0).astype(float)))


class TestEstimatePs:
    def test_null_selection_scores_carry_little_signal(self):
        # with no covariate effect on membership, in-sample AUC stays near
        # chance (a little above 0.5 from fitting six noise covariates)
        null = GenCoefficients(
            alpha0=1.0, alpha=np.full(6, 0.2), theta_treat=0.35,
            beta0=-0.78, beta=np.zeros(6),
        )
        ds = build_replicate(null, 1200, np.random.default_rng(11))
        fit = estimate_ps(ds, 1)
        assert rank_auc(fit.ps, fit.is_concurrent.astype(float)) < 0.62

    def test_severe_selection_is_detectable(self):
        ds = dataset("single-severe", seed=11)
        fit = estimate_ps(ds, 1)
        assert rank_auc(fit.ps, fit.is_concurrent.astype(float)) > 0.70
        X, coef, fitted = membership_logit(ds, range(6))
        np.testing.assert_array_equal(fitted, fit.ps)
        info = X.T @ (X * (fitted * (1.0 - fitted))[:, None])
        z = coef[1:] / np.sqrt(np.diag(np.linalg.inv(info)))[1:]
        assert np.all(np.abs(z) > 2)

    def test_covset3_uses_three_covariates(self):
        ds = dataset(seed=3)
        _, coef, fitted = membership_logit(ds, range(3))
        assert coef.shape == (4,)  # intercept + x1..x3
        np.testing.assert_array_equal(fitted, estimate_ps(ds, 3).ps)

    def test_sample_stacks_reduced_then_historical(self):
        ds = dataset(seed=4)
        fit = estimate_ps(ds, 1)
        nr = len(ds.reduced_concurrent)
        np.testing.assert_array_equal(fit.sample.x[:nr], ds.reduced_concurrent.x)
        assert np.all(fit.sample.trial[nr:] > 0)
        assert fit.is_concurrent.sum() == nr
        assert fit.sample is ds.pooled


def brute_nearest(ps_c, ps_h, hist_rows, caliper):
    pairs, unmatched = [], []
    for i, p in enumerate(ps_c):
        d = np.abs(ps_h - p)
        j = int(np.argmin(d))
        if d[j] <= caliper:
            pairs.append((i, int(hist_rows[j])))
        else:
            unmatched.append(i)
    return pairs, unmatched


def pairs_of(ms):
    """(concurrent row, historical row) pairs of a match set."""
    return [(int(c), int(h)) for c, h in zip(ms.conc_rows, ms.hist_rows)]


def unmatched_of(ms, fit):
    """Concurrent rows left without a match."""
    return np.setdiff1d(np.flatnonzero(fit.is_concurrent), ms.conc_rows).tolist()


def caliper_of(fit):
    """The caliper in score units: CALIPER_MULT pooled-score SDs."""
    return CALIPER_MULT * float(np.std(fit.ps, ddof=1))


class TestMatchNearest:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        ps_c = rng.uniform(0.1, 0.9, size=20)
        ps_h = rng.uniform(0.05, 0.95, size=40)
        fit = make_psfit(ps_c, ps_h)
        hist_rows = np.arange(20, 60)
        got = match_nearest(fit)
        assert got.caliper == caliper_of(fit)
        want_pairs, want_unmatched = brute_nearest(ps_c, ps_h, hist_rows, caliper_of(fit))
        assert pairs_of(got) == [(c, h) for c, h in want_pairs]
        assert unmatched_of(got, fit) == want_unmatched

    def test_caliper_excludes_far_pairs(self):
        # historical scores crowd the middle, so concurrent scores near
        # either end lie more than the caliper from every candidate
        rng = np.random.default_rng(22)
        ps_c = rng.uniform(0.1, 0.9, size=25)
        ps_h = rng.uniform(0.45, 0.55, size=15)
        fit = make_psfit(ps_c, ps_h)
        hist_rows = np.arange(25, 40)
        got = match_nearest(fit)
        want_pairs, want_unmatched = brute_nearest(ps_c, ps_h, hist_rows, caliper_of(fit))
        assert pairs_of(got) == want_pairs
        assert unmatched_of(got, fit) == want_unmatched
        assert unmatched_of(got, fit)  # the caliper must actually bite

    def test_empty_historical_leaves_all_unmatched(self):
        fit = make_psfit([0.4, 0.5], [])
        got = match_nearest(fit)
        assert pairs_of(got) == []
        assert unmatched_of(got, fit) == [0, 1]

    def test_tie_break_follows_seeded_shuffle(self):
        fit = make_psfit([0.5], [0.5, 0.5, 0.5])
        hist_rows = np.arange(1, 4)
        for seed in range(5):
            expected = hist_rows[np.random.default_rng(seed).permutation(3)][0]
            got = match_nearest(fit, rng=lambda: np.random.default_rng(seed))
            assert pairs_of(got) == [(0, int(expected))]

    def test_ties_across_a_run_boundary_follow_the_shuffle(self):
        # 0.5 lies exactly halfway between a run of three 0.484375 scores and
        # a run of three 0.515625 ones (both binary fractions), so all six
        # candidates tie; 0.484375 ties within its run only
        lo, hi = 0.484375, 0.515625
        ps_c = [0.5, lo, 0.1, 0.9]
        ps_h = [hi, lo, hi, lo, lo, hi]
        fit = make_psfit(ps_c, ps_h)
        hist_rows = np.arange(4, 10)
        runs = set()
        for seed in range(12):
            shuffled = hist_rows[np.random.default_rng(seed).permutation(6)]
            want = []
            for i, p in enumerate(ps_c):
                d = np.abs(fit.ps[shuffled] - p)
                if d.min() <= caliper_of(fit):
                    want.append((i, int(shuffled[np.flatnonzero(d == d.min())[0]])))
            got = match_nearest(fit, rng=lambda: np.random.default_rng(seed))
            assert pairs_of(got) == want
            runs.add(fit.ps[want[0][1]])
        assert runs == {lo, hi}

    def test_without_rng_earliest_candidate_wins_ties(self):
        fit = make_psfit([0.5], [0.5, 0.5, 0.5])
        got = match_nearest(fit)
        assert pairs_of(got) == [(0, 1)]


def counting(calls, label, seed):
    """A generator factory that records ``label`` each time it is called."""
    def make():
        calls.append(label)
        return np.random.default_rng(seed)
    return make


def random_fit(kind, seed):
    """A PsFit over k = 1 or 3 historical pools, some of them empty, with
    seeded scores of one kind:

    - continuous: uniform scores, so no tie can decide a match;
    - equidistant: distinct historical scores on a 1/64 grid and concurrent
      ones on a 1/128 grid, so many lie exactly halfway between two
      candidates (binary fractions), with no exact score tie;
    - tied: historical scores on the 1/64 grid drawn with replacement, so
      scores tie exactly within and across pools;
    - crowded: historical scores crowd the middle, so the caliper excludes
      concurrent rows near either end, and a third of them copy another
      historical score.
    """
    g = np.random.default_rng(seed)
    k = 1 if seed % 2 else 3
    sizes = g.integers(0, 15, size=k)
    n_h = int(sizes.sum())
    n_c = int(g.integers(2, 25))
    if kind == "continuous":
        ps_c, ps_h = g.uniform(0.05, 0.95, n_c), g.uniform(0.05, 0.95, n_h)
    elif kind == "equidistant":
        ps_c = g.integers(8, 120, n_c) / 128
        ps_h = g.choice(np.arange(4, 60), size=n_h, replace=False) / 64
    elif kind == "tied":
        ps_c, ps_h = g.integers(8, 120, n_c) / 128, g.integers(4, 60, n_h) / 64
    else:
        ps_c, ps_h = g.uniform(0.05, 0.95, n_c), g.uniform(0.45, 0.55, n_h)
        if n_h > 1:
            ps_h[g.integers(0, n_h, n_h // 3)] = ps_h[g.integers(0, n_h, n_h // 3)]
    return make_pools_psfit(ps_c, np.split(ps_h, np.cumsum(sizes)[:-1])), k


class TestMatchReference:
    """The one-pass matcher against the shuffle-first one it replaced
    (tests/match_reference.py), on seeded random score sets: the same
    pairs and caliper for every candidate set, with and without a
    shuffle, drawing a generator only when a tie can decide a match."""

    @pytest.mark.parametrize("kind", ["continuous", "equidistant", "tied", "crowded"])
    def test_equals_the_reference(self, kind):
        seen = Counter()
        for seed in range(80):
            fit, k = random_fit(kind, seed)
            seen[f"k={k}"] += 1
            for pool in (None, *range(1, k + 1)):
                rows = np.flatnonzero(fit.sample.trial > 0 if pool is None
                                      else fit.sample.trial == pool)
                seen["empty"] += rows.size == 0
                for shuffle_seed in (None, seed):
                    calls = []
                    got = match_nearest(fit, pool, rng=None if shuffle_seed is None
                                        else counting(calls, pool, shuffle_seed))
                    want = match_reference.match_nearest(
                        fit, rows, rng=None if shuffle_seed is None
                        else np.random.default_rng(shuffle_seed))
                    np.testing.assert_array_equal(got.conc_rows, want.conc_rows)
                    np.testing.assert_array_equal(got.hist_rows, want.hist_rows)
                    assert got.caliper == want.caliper
                    assert len(calls) <= 1
                    seen["draws"] += len(calls)
                    seen["unmatched"] += int(fit.is_concurrent.sum()) - got.conc_rows.size
        assert seen["k=1"] and seen["k=3"] and seen["empty"] and seen["unmatched"]
        assert (seen["draws"] == 0) == (kind == "continuous")


class TestMatchStreams:
    """The tie-break generator is made only for a set in which a tie can
    decide a match, once, from that set's own factory."""

    def test_tie_free_set_makes_no_generator(self):
        fit, k = random_fit("continuous", 4)
        calls = []
        for pool in (None, *range(1, k + 1)):
            match_nearest(fit, pool, rng=counting(calls, pool, 0))
        assert calls == []

    def test_tied_sets_each_make_one_generator(self):
        # pool 2 holds an exact tie; pool 1 and pool 3 are tie-free, but a
        # concurrent score lies halfway between two of pool 3's candidates
        fit = make_pools_psfit([0.3, 0.5, 0.7], [[0.2, 0.61], [0.4, 0.4, 0.9], [0.25, 0.75]])
        calls = []
        for pool in (None, 1, 2, 3):
            match_nearest(fit, pool, rng=counting(calls, pool, 0))
        assert calls == [None, 2, 3]

    def test_single_pool_sets_share_one_computation(self):
        fit, k = random_fit("continuous", 5)
        assert k == 1
        calls = []
        every = match_nearest(fit, rng=counting(calls, None, 0))
        assert match_nearest(fit, 1, rng=counting(calls, 1, 0)) is every
        assert calls == []

    def test_single_pool_tied_sets_keep_their_own_streams(self):
        fit = make_psfit([0.5], [0.5] * 8)
        calls = []
        every = match_nearest(fit, rng=counting(calls, None, 1))
        pool = match_nearest(fit, 1, rng=counting(calls, 1, 2))
        assert calls == [None, 1]
        assert pairs_of(every) != pairs_of(pool)  # the two streams pick different rows


def trimmed_rows(fit, w):
    return np.flatnonzero(~fit.is_concurrent & (w == 0)).tolist()


class TestIpwWeights:
    def test_odds_values(self):
        fit = make_psfit([0.9, 0.1], [0.5, 2.0 / 3.0, 0.2])
        w = ipw_weights(fit)
        np.testing.assert_allclose(w[:2], 1.0)  # concurrent stay 1
        assert w[2] == pytest.approx(1.0, abs=1e-12)
        assert w[3] == pytest.approx(2.0, rel=1e-12)
        assert w[4] == pytest.approx(0.25, rel=1e-12)
        assert trimmed_rows(fit, w) == []

    def test_bounds_trim_historical_only(self):
        # odds: 0.05 (on the bound, kept), 0.04 (below, dropped),
        # 20 (on the bound, kept), 25 (above, dropped)
        ps = [0.05 / 1.05, 0.04 / 1.04, 20.0 / 21.0, 25.0 / 26.0]
        fit = make_psfit([0.01], ps)
        w = ipw_weights(fit)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.05, rel=1e-9)
        assert w[2] == 0.0
        assert w[3] == pytest.approx(20.0, rel=1e-9)
        assert w[4] == 0.0
        assert trimmed_rows(fit, w) == [2, 4]

    def test_degenerate_score_one_is_trimmed(self):
        fit = make_psfit([0.5], [1.0])
        w = ipw_weights(fit)
        assert w[1] == 0.0
        assert trimmed_rows(fit, w) == [1]


class TestStratify:
    def test_concurrent_split_evenly(self):
        rng = np.random.default_rng(31)
        ps_c = rng.uniform(0.1, 0.9, size=100)
        fit = make_psfit(ps_c, [])
        labels = stratify(fit)
        counts = np.bincount(labels, minlength=N_STRATA)
        np.testing.assert_array_equal(counts, [20, 20, 20, 20, 20])

    def test_matches_sort_and_cut_oracle(self):
        # strata must be exactly consecutive blocks of the sorted scores
        rng = np.random.default_rng(32)
        ps_c = rng.uniform(0.1, 0.9, size=100)
        fit = make_psfit(ps_c, [])
        labels = stratify(fit)
        in_order = labels[np.argsort(ps_c)]
        np.testing.assert_array_equal(in_order, np.repeat(np.arange(N_STRATA), 100 // N_STRATA))

    def test_historical_outside_concurrent_range_excluded(self):
        ps_c = np.linspace(0.3, 0.7, 50)
        ps_h = np.array([0.1, 0.31, 0.69, 0.9])
        fit = make_psfit(ps_c, ps_h)
        labels = stratify(fit)
        hist = labels[50:]
        assert hist[0] == -1 and hist[3] == -1
        assert hist[1] == 0 and hist[2] == 4

    def test_too_few_distinct_scores_raise(self):
        fit = make_psfit(np.full(40, 0.5), [])
        with pytest.raises(ValueError, match="distinct concurrent scores"):
            stratify(fit)

    @pytest.mark.parametrize("scores, n_distinct", [
        (np.array([]), 0),
        (np.full(40, 0.5), 1),
        (np.repeat([0.2, 0.4, 0.6, 0.8], [1, 7, 3, 9]), 4),
        (np.array([0.3, 0.1, 0.3, 0.2]), 3),
    ])
    def test_failure_text_counts_distinct_scores(self, scores, n_distinct):
        fit = make_psfit(scores, [0.5])
        with pytest.raises(ValueError) as info:
            stratify(fit)
        assert str(info.value) == (f"only {n_distinct} distinct concurrent scores "
                                   f"for {N_STRATA} strata")

    def test_cut_points_equal_numpy_quantile(self):
        # numpy's linear rule, bit for bit: continuous scores of many sizes,
        # scores on a 1/64 grid with exact ties, and exactly N_STRATA scores
        g = np.random.default_rng(29)
        sets = [g.uniform(0.0, 1.0, int(g.integers(N_STRATA, 2000))) for _ in range(150)]
        sets += [g.integers(0, 65, int(g.integers(N_STRATA, 400))) / 64 for _ in range(150)]
        sets += [g.uniform(0.0, 1.0, N_STRATA) for _ in range(50)]
        sets += [np.arange(N_STRATA) / 64, g.lognormal(-8.0, 3.0, 999)]
        for scores in sets:
            want = np.quantile(scores, np.arange(1, N_STRATA) / N_STRATA)
            np.testing.assert_array_equal(_cut_points(np.sort(scores)), want)

    def test_labels_equal_the_quantile_rule(self):
        def reference(fit):
            conc = fit.is_concurrent
            conc_ps = fit.ps[conc]
            cuts = np.quantile(conc_ps, np.arange(1, N_STRATA) / N_STRATA)
            labels = np.searchsorted(cuts, fit.ps, side="left")
            labels[~conc & ((fit.ps < conc_ps.min()) | (fit.ps > conc_ps.max()))] = -1
            return labels

        for seed in range(60):
            fit, _ = random_fit("tied" if seed % 2 else "continuous", seed)
            if np.unique(fit.ps[fit.is_concurrent]).size >= N_STRATA:
                np.testing.assert_array_equal(stratify(fit), reference(fit))


def with_x4_equal_x1(ds):
    """``ds`` with every subject's x4 replaced by its x1."""
    def copy_x1(g):
        x = g.x.copy()
        x[:, 3] = x[:, 0]
        return SubjectGroup(x=x, z=g.z, trial=g.trial, y=g.y)

    return TrialDataset(copy_x1(ds.full_concurrent), copy_x1(ds.reduced_concurrent),
                        tuple(copy_x1(p) for p in ds.historical))


class TestFullRankDesign:
    """A replicate checks the rank of the full design [1, x] once; its
    covariate sets' designs, column subsets of it, then skip their own
    check. Only when the full design is deficient does each fit check its
    own design, as a fit alone would."""

    @staticmethod
    def rank_calls(monkeypatch):
        calls = []
        rank = np.linalg.matrix_rank

        def counting(X, *args, **kwargs):
            calls.append(X.shape[1])
            return rank(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counting)
        return calls

    def test_full_rank_fits_skip_their_check_and_agree(self, monkeypatch):
        ds = dataset(seed=5)
        assert full_rank_design(ds)
        for covset in COVSETS:
            np.testing.assert_array_equal(estimate_ps(ds, covset, full_rank=True).ps,
                                          estimate_ps(ds, covset).ps)
        calls = self.rank_calls(monkeypatch)
        cells = expand_cells(["PSM", "PSW"], COVSETS)
        rows = evaluate_cells(ds, cells, "full-rank", 5, 0)
        assert not any(r.failed for r in rows)
        assert calls == [7]  # the full design, once

    def test_deficient_full_design_checks_each_fit(self, monkeypatch):
        ds = with_x4_equal_x1(dataset(seed=5))
        assert not full_rank_design(ds)
        calls = self.rank_calls(monkeypatch)
        cells = expand_cells(["PSM"], COVSETS)
        caches = harness._ReplicateCaches(ds, "x4=x1", 5, 0)
        rows = evaluate_cells(ds, cells, "x4=x1", 5, 0)
        assert calls == [7, 7, 6, 4]  # the full design, then each fit's own
        psm = {c.covset: r for c, r in zip(cells, rows) if c.method_id == "PSM"}
        assert psm[1].failed
        assert psm[1].flags == ("error:SingularDesignError:logistic design is rank deficient",)
        for covset in (2, 3):
            assert not psm[covset].failed
            _, _, fitted = membership_logit(ds, covset_columns(covset, 6))
            np.testing.assert_array_equal(caches.psfit(covset).ps, fitted)


class TestByScore:
    """The fit's one sort of the historical scores is the stable order
    (equal scores by row), whether or not the scores tie."""

    @staticmethod
    def stable(fit):
        hist = np.flatnonzero(~fit.is_concurrent)
        return hist[np.argsort(fit.ps[hist], kind="stable")]

    def test_caliper_is_numpy_sd(self):
        fit = estimate_ps(dataset(seed=6), 1)
        assert fit._by_score.caliper == CALIPER_MULT * float(np.std(fit.ps, ddof=1))

    def test_tie_free_scores_take_the_stable_order(self):
        g = np.random.default_rng(30)
        fit = make_pools_psfit(g.uniform(0, 1, 60), [g.uniform(0, 1, n) for n in (500, 400, 306)])
        np.testing.assert_array_equal(fit._by_score.rows, self.stable(fit))
        np.testing.assert_array_equal(fit._by_score.ps, np.sort(fit.ps[~fit.is_concurrent]))

    def test_tied_scores_take_the_stable_order(self):
        g = np.random.default_rng(31)
        fit = make_pools_psfit(g.uniform(0, 1, 60), [g.integers(0, 65, n) / 64 for n in (500, 706)])
        np.testing.assert_array_equal(fit._by_score.rows, self.stable(fit))


def psm_inputs(ds, covset, seed):
    """Propensity fit and a default-caliper match against all pooled controls."""
    psfit = estimate_ps(ds, covset)
    matchset = match_nearest(psfit, rng=lambda: np.random.default_rng(seed))
    return psfit, matchset


def match_set(pairs):
    """MatchSet of (concurrent row, historical row) pairs."""
    conc, hist = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return MatchSet(conc, hist, 0.1)


class TestEstimatePsm:
    def test_empty_matchset_falls_back_to_unadjusted(self):
        ds = dataset(seed=41)
        empty = match_set(())
        psfit = estimate_ps(ds, 1)
        got = estimate_psm(ds, psfit=psfit, matchset=empty)
        ref = unadjusted_effect(ds.reduced_concurrent)
        assert got.flags == ("psm:no_matches_concurrent_only",)
        assert got.estimate == ref.estimate
        assert got.se == ref.se

    def test_twoway_variance_over_pairs_and_subjects(self):
        # four treated and two concurrent controls (rows 0-5), each
        # matched to one of historical rows 6-10; row 9 is re-used by rows 3 and 4
        y_conc = [1.2, -0.3, 0.8, 2.1, 0.4, -1.0]
        y_hist = [0.5, 1.7, -0.6, 0.9, 0.1]
        pairs = ((0, 6), (1, 7), (2, 8), (3, 9), (4, 9), (5, 10))
        ds, psfit = hand_built_match(y_conc, [1, 1, 1, 1, 0, 0], y_hist)
        got = estimate_psm(ds, psfit=psfit, matchset=match_set(pairs))

        y = np.r_[y_conc, [y_hist[h - 6] for _, h in pairs]]
        X = ref.design(np.r_[1, 1, 1, 1, 0, 0, np.zeros(6)])
        pair_cl = np.r_[np.arange(6), np.arange(6)]
        subject_cl = np.r_[np.arange(6), [h for _, h in pairs]]
        want = (
            ref.sandwich(X, y, clusters=pair_cl)[1, 1]
            + ref.sandwich(X, y, clusters=subject_cl)[1, 1]
            - ref.sandwich(X, y)[1, 1]
        )
        assert got.estimate == pytest.approx(ref.wls(X, y)[0][1])
        assert got.se**2 == pytest.approx(want, rel=1e-12)
        assert got.se != pytest.approx(np.sqrt(ref.sandwich(X, y, clusters=subject_cl)[1, 1]))
        assert got.flags == ()

    def test_nonpositive_twoway_variance_falls_back_to_subject_clusters(self):
        # Four treated subjects, each matched to a historical control with
        # the same residual: every pair's influence on the effect cancels
        # (V_pair = 0) and no control is re-used (V_subject = V_HC0). With
        # 4 + 4 rows all of it is exact in floating point, so the two-way
        # variance is exactly zero.
        y = [1.0, -1.0, 2.0, -2.0]
        pairs = ((0, 4), (1, 5), (2, 6), (3, 7))
        ds, psfit = hand_built_match(y, [1, 1, 1, 1], y)
        got = estimate_psm(ds, psfit=psfit, matchset=match_set(pairs))

        X = ref.design([1, 1, 1, 1, 0, 0, 0, 0])
        subject = ref.sandwich(X, np.r_[y, y], clusters=np.arange(8))[1, 1]
        assert got.flags == ("psm:twoway_var_nonpositive",)
        assert got.se == pytest.approx(np.sqrt(subject))
        assert got.se > 0

    def test_reused_controls_shrink_cluster_count(self):
        ds = dataset("single-severe", seed=43)
        got = estimate_psm(ds, *psm_inputs(ds, 1, 1))
        assert got.diagnostics["n_unique_matched"] <= got.diagnostics["n_pairs"]
        assert got.diagnostics["n_pairs"] > 0
        assert np.isfinite(got.se) and got.se > 0

    def test_matched_sample_moves_estimate_from_unadjusted(self):
        # severe selection biases the historical controls; matching keeps
        # the estimate finite and produces a denser control arm
        ds = dataset("single-severe", seed=44)
        got = estimate_psm(ds, *psm_inputs(ds, 1, 2))
        n_treated = int(ds.reduced_concurrent.z.sum())
        assert got.diagnostics["n_pairs"] <= len(ds.reduced_concurrent)
        assert got.reject in (True, False)
        assert n_treated > 0


class TestEstimatePsw:
    def test_unit_weights_reduce_to_pooled_ols(self):
        ds = dataset(seed=51)
        psfit = estimate_ps(ds, 1)
        n = len(psfit.sample)
        got = estimate_psw(ds, psfit=psfit, weights=np.ones(n))
        X = ref.design(psfit.sample.z)
        y = psfit.sample.y
        assert got.estimate == pytest.approx(ref.wls(X, y)[0][1], abs=1e-12)
        assert got.se == pytest.approx(np.sqrt(ref.sandwich(X, y)[1, 1]), rel=1e-9)

    def test_all_trimmed_falls_back_to_unadjusted(self):
        ds = dataset(seed=52)
        psfit = estimate_ps(ds, 1)
        w = np.where(psfit.is_concurrent, 1.0, 0.0)
        got = estimate_psw(ds, psfit=psfit, weights=w)
        ref = unadjusted_effect(ds.reduced_concurrent)
        assert got.flags == ("psw:all_historical_trimmed_concurrent_only",)
        assert got.estimate == ref.estimate
        assert got.se == ref.se

    def test_weighting_restores_covariate_balance(self):
        ds = dataset("single-severe", seed=53)
        psfit = estimate_ps(ds, 1)
        w = ipw_weights(psfit)
        conc = psfit.is_concurrent
        x1 = psfit.sample.x[:, 0]
        before = x1[conc].mean() - x1[~conc].mean()
        after = x1[conc].mean() - np.average(x1[~conc], weights=w[~conc])
        assert abs(before) > 0.3
        assert abs(after) < 0.1
        assert abs(after) < abs(before) / 3

    def test_diagnostics_report_trimming(self):
        ds = dataset("single-severe", seed=54)
        psfit = estimate_ps(ds, 1)
        got = estimate_psw(ds, psfit, ipw_weights(psfit))
        assert got.diagnostics["n_hist_kept"] > 0
        assert got.diagnostics["n_hist_kept"] + got.diagnostics["n_trimmed"] == sum(
            len(pool) for pool in ds.historical
        )
