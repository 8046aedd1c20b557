import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import output_reference

from hybridctl.metrics import (
    EffectEstimate,
    ReplicateColumns,
    UNADJ_RC_KEY,
    essr,
    failed_estimate,
    rel_bias_pct,
    row_essr,
    summarize,
    wald_estimate,
)
from hybridctl.regress import SeparationError


M = ("m", None, "")


def summarize_rows(keys, reps, *args, **kwargs):
    """summarize on the columns of ``reps[r][i]``, cell ``keys[i]`` on replicate r."""
    return summarize(keys, ReplicateColumns.from_rows(reps, len(keys), len(reps)), *args, **kwargs)


def est(estimate=0.5, se=0.1, reject=False, failed=False):
    return EffectEstimate(
        estimate=estimate,
        se=se,
        reject=reject,
        interval=(estimate - 0.2, estimate + 0.2),
        failed=failed,
    )


def column(cell):
    """The rows of one cell as replicates of a one-cell scenario."""
    return [[row] for row in cell]


class TestScalars:
    def test_bias_hand_value(self):
        assert summarize_rows([M], column([est(0.2), est(0.2)]), 0.1, "s")[0].bias == \
            pytest.approx(0.1, abs=1e-15)
        assert summarize_rows([M], column([est(1.0), est(2.0), est(3.0)]), 2.0, "s")[0].bias == \
            pytest.approx(0.0, abs=1e-15)

    def test_rel_bias_hand_value(self):
        assert rel_bias_pct(0.1, 0.1) == pytest.approx(100.0)
        assert rel_bias_pct(-0.05, 0.5) == pytest.approx(-10.0)
        assert rel_bias_pct(0.3, 0.0) is None

    def test_reject_rate(self):
        rows = column([est(reject=r) for r in (True, False, False, True)])
        assert summarize_rows([M], rows, 0.0, "s")[0].reject_rate == 0.5
        # no used row, no rate
        failed = column([est(math.nan, reject=True, failed=True)])
        assert math.isnan(summarize_rows([M], failed, 0.0, "s")[0].reject_rate)

    def test_essr_hand_values(self):
        assert essr(2.0, 1.0) == pytest.approx(100.0)
        assert essr(1.0, 1.0) == pytest.approx(0.0)
        assert essr(1.0, 2.0) == pytest.approx(-50.0)
        with pytest.raises(ValueError):
            essr(0.0, 1.0)
        # elementwise on arrays, each element as the scalar gives it, NaN
        # where a variance is NaN
        got = essr(np.array([2.0, 1.0, 0.3, math.nan]), np.array([1.0, 2.0, 0.7, 1.0]))
        assert got[:3].tolist() == [essr(2.0, 1.0), essr(1.0, 2.0), essr(0.3, 0.7)]
        assert math.isnan(got[3]) and math.isnan(essr(1.0, math.nan))
        with pytest.raises(ValueError):
            essr(np.array([1.0, 1.0]), np.array([1.0, -0.0]))

    def test_empty_estimates_rejected(self):
        # a scenario's columns take exactly their replicates' rows
        with pytest.raises(ValueError, match="0 replicates for 1 columns"):
            ReplicateColumns.from_rows([], 1, 1)


class TestWaldEstimate:
    def test_interval_decision_and_essr_variance(self):
        e = wald_estimate(0.5, 0.2, flags=("f",), diagnostics={"d": 1.0})
        z = 1.959963984540054
        assert e.interval == pytest.approx((0.5 - z * 0.2, 0.5 + z * 0.2), rel=1e-14)
        assert e.reject  # |0.5 / 0.2| = 2.5 > z
        assert e.se * e.se == 0.2 * 0.2
        assert (e.flags, e.diagnostics) == (("f",), {"d": 1.0})
        assert not wald_estimate(0.39, 0.2).reject  # 1.95 < z


class TestFailedEstimate:
    def test_row(self):
        e = failed_estimate(ValueError("need at least two observations"))
        assert math.isnan(e.estimate) and math.isnan(e.se)
        assert e.reject is False and e.failed is True and e.diagnostics == {}
        assert len(e.interval) == 2 and all(math.isnan(end) for end in e.interval)
        assert e.flags == ("error:ValueError:need at least two observations",)

    def test_subclass_name_and_cut_message(self):
        assert failed_estimate(SeparationError("complete separation")).flags == (
            "error:SeparationError:complete separation",)
        message = "".join(chr(ord("a") + i % 26) for i in range(200))
        (flag,) = failed_estimate(ValueError(message)).flags
        assert flag == "error:ValueError:" + message[:120]


class TestSummarize:
    def test_single_cell_fields(self):
        # the benchmark's SEs give the cell an ESSR of 50 % and 30 %
        reps = [
            [est(estimate=0.6, se=0.10, reject=True), est(se=math.sqrt(1.5 * 0.10 ** 2))],
            [est(estimate=0.4, se=0.20, reject=False), est(se=math.sqrt(1.3 * 0.20 ** 2))],
        ]
        rows = summarize_rows([M, UNADJ_RC_KEY], reps, theta_true=0.45, scenario_id="s")
        assert len(rows) == 2 and rows[1].essr_pct is None
        r = rows[0]
        assert (r.scenario_id, r.key) == ("s", M)
        assert r.bias == pytest.approx(0.05, abs=1e-15)
        assert r.rel_bias_pct == pytest.approx(100 * 0.05 / 0.45)
        assert r.reject_rate == 0.5
        assert r.mean_se == pytest.approx(0.15, abs=1e-15)
        assert r.essr_pct == pytest.approx(40.0)
        assert r.n_used == 2 and r.n_failed == 0
        assert summarize_rows([M], [row[:1] for row in reps], 0.45, "s")[0].essr_pct is None

    def test_rows_follow_keys(self):
        keys = [("b", 1, "x"), ("a", None, ""), ("b", 1, "")]
        reps = [[est(0.1), est(0.2), est(0.3)], [est(0.1), est(0.2), est(0.3)]]
        rows = summarize_rows(keys, reps, 0.0, "s")
        assert [(r.key, r.bias) for r in rows] == list(zip(keys, [0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="2 rows for 3 cells"):
            summarize_rows(keys, [[est(), est()]], 0.0, "s")
        with pytest.raises(ValueError, match="columns hold 2 cells for 3 keys"):
            summarize(keys, ReplicateColumns.from_rows([[est(), est()]], 2, 1), 0.0, "s")

    def test_replicate_order_does_not_change_results(self):
        rng = np.random.default_rng(0)
        reps = [
            [est(estimate=float(v), se=float(s), reject=bool(v > 0.5)),
             est(estimate=float(v + 0.1))]
            for v, s in zip(rng.normal(0.5, 0.2, 40), rng.uniform(0.05, 0.3, 40))
        ]
        a = summarize_rows([M, UNADJ_RC_KEY], reps, 0.5, "s")
        b = summarize_rows([M, UNADJ_RC_KEY], list(reversed(reps)), 0.5, "s")
        for ra, rb in zip(a, b):
            assert ra.key == rb.key
            assert ra.bias == pytest.approx(rb.bias, abs=1e-14)
            assert ra.mean_se == pytest.approx(rb.mean_se, abs=1e-14)
            assert ra.reject_rate == rb.reject_rate
            assert ra.essr_pct == pytest.approx(rb.essr_pct, rel=1e-12)
            assert ra.essr_empirical_pct == pytest.approx(rb.essr_empirical_pct, rel=1e-12)

    def test_failed_rows_counted_not_averaged(self):
        reps = [
            [est(estimate=0.5)],
            [est(estimate=float("nan"), failed=True)],
            [est(estimate=0.7)],
        ]
        r = summarize_rows([M], reps, 0.0, "s")[0]
        assert r.n_used == 2 and r.n_failed == 1
        assert r.bias == pytest.approx(0.6, abs=1e-15)

    def test_all_failed_cell_keeps_nan_row(self):
        reps = [[est(estimate=float("nan"), failed=True)] for _ in range(3)]
        r = summarize_rows([M], reps, 0.0, "s")[0]
        assert r.n_used == 0 and r.n_failed == 3
        assert math.isnan(r.bias) and math.isnan(r.reject_rate)
        assert r.essr_pct is None and r.essr_empirical_pct is None

    def test_empirical_essr_uses_unadjusted_benchmark(self):
        rng = np.random.default_rng(1)
        rc_vals = rng.normal(0.5, 0.3, 50)
        m_vals = rng.normal(0.5, 0.2, 50)
        reps = [[est(estimate=float(a)), est(estimate=float(b))] for a, b in zip(rc_vals, m_vals)]
        rows = summarize_rows([UNADJ_RC_KEY, M], reps, 0.5, "s")
        want = (np.var(rc_vals, ddof=1) / np.var(m_vals, ddof=1) - 1.0) * 100.0
        by_key = {r.key: r for r in rows}
        assert by_key[M].essr_empirical_pct == pytest.approx(want, rel=1e-10)
        assert by_key[UNADJ_RC_KEY].essr_empirical_pct == pytest.approx(0.0, abs=1e-9)

    def test_no_benchmark_leaves_empirical_essr_unset(self):
        reps = [[est(estimate=0.4)], [est(estimate=0.6)]]
        assert summarize_rows([M], reps, 0.5, "s")[0].essr_empirical_pct is None

    def test_single_replicate_has_no_empirical_variance(self):
        reps = [[est(), est()]]
        rows = summarize_rows([UNADJ_RC_KEY, M], reps, 0.5, "s")
        assert all(r.essr_empirical_pct is None for r in rows)


# -- the columnar summary against the per-object reference ------------------

def summary_reprs(rows):
    """Every field of every row at repr precision: NaN-aware, and a float
    must stay a float."""
    return [repr(dataclasses.astuple(r)) for r in rows]


# An SE for the ESSR rule: positive, or one whose square is not positive
# (zero, NaN, or so small that it underflows), or negative.
SE = st.floats(1e-3, 10.0) | st.sampled_from([0.0, math.nan, 1e-170, -0.5])


@st.composite
def scenario_rows(draw):
    """Keys and per-replicate rows covering failed rows (some with a
    finite SE), unfailed rows with a non-finite estimate, rows whose SE
    gives no ESSR, cells every replicate of which failed, constant
    (zero-variance) cells, one-cell scenarios and unadj.rc absent, failed
    or constant."""
    n_reps = draw(st.integers(1, 9))
    with_benchmark = draw(st.booleans())
    n_other = draw(st.integers(0 if with_benchmark else 1, 4))
    keys = [("m", i, "omega=0.5") for i in range(n_other)]
    if with_benchmark:
        keys.insert(draw(st.integers(0, n_other)), UNADJ_RC_KEY)
    value = st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False)
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["mixed", "constant", "all_failed", "clean"]))
        constant = draw(value)
        cells = []
        for _ in range(n_reps):
            fate = "ok" if kind in ("clean", "constant") else draw(
                st.sampled_from(["ok", "ok", "failed", "nan", "inf"]))
            if kind == "all_failed":
                fate = "failed"
            if fate == "failed":
                cells.append(EffectEstimate(math.nan, draw(st.just(math.nan) | SE), False, None,
                                            flags=("error:ValueError:x",), failed=True))
                continue
            estimate = {"ok": constant if kind == "constant" else draw(value),
                        "nan": math.nan, "inf": draw(st.sampled_from([math.inf, -math.inf]))}[fate]
            cells.append(EffectEstimate(estimate, draw(SE), draw(st.booleans()), None))
        columns.append(cells)
    per_replicate = [list(rows) for rows in zip(*columns)]
    return keys, per_replicate


@settings(max_examples=400, deadline=None)
@given(scenario_rows(), st.sampled_from([0.0, 0.35, -1.5]))
def test_columnar_summary_equals_the_per_object_reference(case, theta_true):
    keys, per_replicate = case
    want = output_reference.summarize(keys, per_replicate, theta_true, "s")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = summarize_rows(keys, per_replicate, theta_true, "s")
    assert summary_reprs(got) == summary_reprs(want)


def essr_reprs(keys, per_replicate):
    """The reference's ESSR of every row, cell by cell, NaN for None."""
    per_row = [output_reference.essr_rows(keys, rows) for rows in per_replicate]
    return [[repr(math.nan if v is None else v) for v in cell] for cell in zip(*per_row)]


@settings(max_examples=400, deadline=None)
@given(scenario_rows())
def test_derived_essr_equals_the_per_row_reference(case):
    keys, per_replicate = case
    columns = ReplicateColumns.from_rows(per_replicate, len(keys), len(per_replicate))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = row_essr(keys, columns)
    assert got.shape == (len(keys), len(per_replicate))
    assert [[repr(v) for v in cell] for cell in got.tolist()] == essr_reprs(keys, per_replicate)


class TestRowEssr:
    """Where a row has no ESSR, by the rule ``row_essr`` documents."""

    KEYS = [UNADJ_RC_KEY, M, ("n", 1, "")]

    def essr_of(self, per_replicate, keys=KEYS):
        return row_essr(keys, ReplicateColumns.from_rows(per_replicate, len(keys),
                                                         len(per_replicate)))

    def test_rows_against_their_own_replicates_benchmark(self):
        got = self.essr_of([[est(se=0.2), est(se=0.1), est(se=0.4)],
                            [est(se=0.3), est(se=0.3), est(se=0.1)]])
        assert np.isnan(got[0]).all()  # the benchmark's own row
        sq = {se: se * se for se in (0.1, 0.2, 0.3, 0.4)}
        assert got[1:].tolist() == [[essr(sq[0.2], sq[0.1]), essr(sq[0.3], sq[0.3])],
                                    [essr(sq[0.2], sq[0.4]), essr(sq[0.3], sq[0.1])]]

    def test_a_failed_benchmark_leaves_its_replicate_without(self):
        got = self.essr_of([[est(math.nan, se=0.2, failed=True), est(se=0.1), est(se=0.4)],
                            [est(se=0.3), est(se=0.3), est(se=0.1)]])
        assert np.isnan(got[:, 0]).all() and not np.isnan(got[1:, 1]).any()

    def test_failed_rows_and_rows_without_a_positive_square_have_none(self):
        got = self.essr_of([[est(se=0.2), est(math.nan, se=0.1, failed=True), est(se=1e-170)],
                            [est(se=0.2), est(se=math.nan), est(se=0.0)],
                            [est(se=0.0), est(se=0.1), est(se=0.1)]])
        assert np.isnan(got).all()

    def test_no_benchmark_and_one_cell_scenarios_have_none(self):
        rows = [[est(se=0.2), est(se=0.1)], [est(se=0.3), est(se=0.1)]]
        assert np.isnan(self.essr_of(rows, keys=[M, ("n", 1, "")])).all()
        for keys in ([M], [UNADJ_RC_KEY]):
            assert np.isnan(self.essr_of([row[:1] for row in rows], keys=keys)).all()


@pytest.mark.parametrize("n_reps", [2, 3, 8, 9, 16, 127, 128, 129, 255, 256, 257, 1000, 2001])
def test_one_variance_call_equals_one_per_cell(n_reps):
    # np.var over axis 1 of the cells every replicate of which is used is
    # bit-equal to np.var of each cell alone, past numpy's blocks of 8 and
    # 128 pairwise-summed values; the last cell has a failed row, so it is
    # compressed and takes its own call
    rng = np.random.default_rng(n_reps)
    keys = [UNADJ_RC_KEY] + [("m", i, "") for i in range(5)]
    scale = [1e-3, 1.0, 30.0, 1e4, 1.0, 1.0]
    per_replicate = [[est(float(rng.normal(0.3, s)), se=float(rng.uniform(0.1, 1.0)))
                      for s in scale] for _ in range(n_reps)]
    per_replicate[0][-1] = est(float("nan"), failed=True)
    want = output_reference.summarize(keys, per_replicate, 0.3, "s")
    assert summary_reprs(summarize_rows(keys, per_replicate, 0.3, "s")) == summary_reprs(want)
