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
    bias,
    essr,
    reject_rate,
    rel_bias_pct,
    summarize,
    wald_estimate,
)


M = ("m", None, "")


def summarize_rows(keys, reps, *args, **kwargs):
    """summarize on the columns of ``reps[r][i]``, cell ``keys[i]`` on replicate r."""
    return summarize(keys, ReplicateColumns.from_rows(reps, len(keys), len(reps)), *args, **kwargs)


def est(estimate=0.5, se=0.1, reject=False, essr_pct=None, failed=False):
    return EffectEstimate(
        estimate=estimate,
        se=se,
        reject=reject,
        interval=(estimate - 0.2, estimate + 0.2),
        essr_pct=essr_pct,
        failed=failed,
    )


class TestScalars:
    def test_bias_hand_value(self):
        assert bias([0.2, 0.2], 0.1) == pytest.approx(0.1, abs=1e-15)
        assert bias([1.0, 2.0, 3.0], 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_rel_bias_hand_value(self):
        assert rel_bias_pct(0.1, 0.1) == pytest.approx(100.0)
        assert rel_bias_pct(-0.05, 0.5) == pytest.approx(-10.0)
        assert rel_bias_pct(0.3, 0.0) is None

    def test_reject_rate(self):
        assert reject_rate([True, False, False, True]) == 0.5
        with pytest.raises(ValueError):
            reject_rate([])

    def test_essr_hand_values(self):
        assert essr(2.0, 1.0) == pytest.approx(100.0)
        assert essr(1.0, 1.0) == pytest.approx(0.0)
        assert essr(1.0, 2.0) == pytest.approx(-50.0)
        with pytest.raises(ValueError):
            essr(0.0, 1.0)

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            bias([], 0.0)


class TestWaldEstimate:
    def test_interval_decision_and_essr_variance(self):
        e = wald_estimate(0.5, 0.2, flags=("f",), diagnostics={"d": 1.0})
        z = 1.959963984540054
        assert e.interval == pytest.approx((0.5 - z * 0.2, 0.5 + z * 0.2), rel=1e-14)
        assert e.reject  # |0.5 / 0.2| = 2.5 > z
        assert e.se * e.se == 0.2 * 0.2
        assert (e.flags, e.diagnostics) == (("f",), {"d": 1.0})
        assert not wald_estimate(0.39, 0.2).reject  # 1.95 < z


class TestSummarize:
    def test_single_cell_fields(self):
        reps = [
            [est(estimate=0.6, se=0.10, reject=True, essr_pct=50.0)],
            [est(estimate=0.4, se=0.20, reject=False, essr_pct=30.0)],
        ]
        rows = summarize_rows([M], reps, theta_true=0.45, scenario_id="s")
        assert len(rows) == 1
        r = rows[0]
        assert (r.scenario_id, r.key) == ("s", M)
        assert r.bias == pytest.approx(0.05, abs=1e-15)
        assert r.rel_bias_pct == pytest.approx(100 * 0.05 / 0.45)
        assert r.reject_rate == 0.5
        assert r.mean_se == pytest.approx(0.15, abs=1e-15)
        assert r.essr_pct == pytest.approx(40.0)
        assert r.n_used == 2 and r.n_failed == 0

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
            [est(estimate=float(v), se=float(s), reject=bool(v > 0.5), essr_pct=float(10 * v)),
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


@st.composite
def scenario_rows(draw):
    """Keys and per-replicate rows covering failed rows, unfailed rows with
    a non-finite estimate, rows without an ESSR, cells every replicate of
    which failed, constant (zero-variance) cells and unadj.rc absent,
    failed or constant."""
    n_reps = draw(st.integers(1, 9))
    n_other = draw(st.integers(1, 4))
    keys = [("m", i, "omega=0.5") for i in range(n_other)]
    if draw(st.booleans()):
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
                cells.append(EffectEstimate(math.nan, math.nan, False, None,
                                            flags=("error:ValueError:x",), failed=True))
                continue
            estimate = {"ok": constant if kind == "constant" else draw(value),
                        "nan": math.nan, "inf": draw(st.sampled_from([math.inf, -math.inf]))}[fate]
            cells.append(EffectEstimate(
                estimate, draw(st.floats(1e-3, 10.0)), draw(st.booleans()), None,
                essr_pct=draw(st.none() | value)))
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


@pytest.mark.parametrize("n_reps", [2, 3, 8, 9, 16, 127, 128, 129, 255, 256, 257, 1000, 2001])
def test_one_variance_call_equals_one_per_cell(n_reps):
    # np.var over axis 1 of the cells every replicate of which is used is
    # bit-equal to np.var of each cell alone, past numpy's blocks of 8 and
    # 128 pairwise-summed values; the last cell has a failed row, so it is
    # compressed and takes its own call
    rng = np.random.default_rng(n_reps)
    keys = [UNADJ_RC_KEY] + [("m", i, "") for i in range(5)]
    scale = [1e-3, 1.0, 30.0, 1e4, 1.0, 1.0]
    per_replicate = [[est(float(rng.normal(0.3, s)), se=float(rng.uniform(0.1, 1.0)),
                          essr_pct=float(rng.normal(20, 5)) if i else None)
                      for i, s in enumerate(scale)] for _ in range(n_reps)]
    per_replicate[0][-1] = est(float("nan"), failed=True)
    want = output_reference.summarize(keys, per_replicate, 0.3, "s")
    assert summary_reprs(summarize_rows(keys, per_replicate, 0.3, "s")) == summary_reprs(want)
