"""Each output check accepts real `hybridctl run` output and rejects a
deliberately corrupted copy of it.

Run from the root of a checkout: python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import sys

import pytest
from scipy.special import ndtri

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402

CONFIG = os.path.join(BENCH, "configs", "grid-single.yaml")
SEED = 5


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from hybridctl import cli

    out = str(tmp_path_factory.mktemp("run"))
    assert cli.main(["run", "--config", CONFIG, "--reps", "2", "--seed", str(SEED),
                     "--out", out]) == 0
    return out


@pytest.fixture
def copy(outputs, tmp_path):
    for name in ("raw.csv", "summary.csv"):
        shutil.copy(os.path.join(outputs, name), tmp_path / name)
    return tmp_path


def rewrite(path, edit):
    """Apply ``edit`` to the first row it returns True for."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    assert any(edit(row) for row in rows), "no row was edited"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def shift(row, key, delta):
    row[key] = "%.10g" % (float(row[key]) + delta)
    return True


def run_checks(d):
    raw = checks.read_csv(str(d / "raw.csv"))[1]
    summary = checks.read_csv(str(d / "summary.csv"))[1]
    scenarios = checks.load_scenarios(CONFIG)
    datasets = checks.Datasets(scenarios, SEED)
    thetas = {sid: s["theta"] for sid, s in scenarios.items()}
    return {
        "a": checks.check_summary(raw, summary, thetas),
        "b": checks.check_unadjusted(raw, datasets),
        "c": checks.check_essr(raw),
        "d": checks.check_wald(raw),
        "map": checks.check_map_reference(raw, datasets)[0],
    }


def test_real_outputs_pass_every_check(outputs):
    problems, report = checks.check_outputs(outputs, CONFIG, SEED, map_check=True)
    assert problems == []
    assert report["rows"] == 2 * 2 * 46 and report["failed_rows"] == 0
    assert report["map_reference"]["rows"] == 2 * 2 * 4


def test_summary_check_rejects_a_changed_bias(copy):
    rewrite(copy / "summary.csv", lambda r: r["method_id"] == "PSW" and shift(r, "bias", 1e-5))
    assert run_checks(copy)["a"]


def test_summary_check_rejects_a_changed_count(copy):
    def edit(r):
        r["n_used"] = str(int(r["n_used"]) - 1)
        return True
    rewrite(copy / "summary.csv", edit)
    assert run_checks(copy)["a"]


def test_summary_check_rejects_a_changed_raw_row(copy):
    rewrite(copy / "raw.csv", lambda r: r["method_id"] == "MM" and shift(r, "se", 1e-4))
    assert run_checks(copy)["a"]


def test_unadjusted_check_rejects_a_changed_estimate(copy):
    rewrite(copy / "raw.csv", lambda r: r["method_id"] == "unadj.fc" and shift(r, "estimate", 1e-6))
    assert run_checks(copy)["b"]


def test_unadjusted_check_rejects_a_changed_se(copy):
    rewrite(copy / "raw.csv", lambda r: r["method_id"] == "unadj.rc" and shift(r, "se", 1e-6))
    assert run_checks(copy)["b"]


def test_essr_check_rejects_a_changed_essr(copy):
    rewrite(copy / "raw.csv", lambda r: r["method_id"] == "PSM" and shift(r, "essr_pct", 1e-3))
    assert run_checks(copy)["c"]


def test_wald_check_rejects_a_flipped_decision(copy):
    def edit(r):
        if r["method_id"] != "PSS+CL":
            return False
        r["reject"] = str(1 - int(r["reject"]))
        return True
    rewrite(copy / "raw.csv", edit)
    assert run_checks(copy)["d"]


def test_identity_check_rejects_one_changed_byte(outputs, copy):
    assert checks.check_identical(str(copy / "raw.csv"), os.path.join(outputs, "raw.csv"), "") == []
    data = bytearray((copy / "raw.csv").read_bytes())
    i = data.index(b"0.", len(data) // 2) + 2
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    (copy / "raw.csv").write_bytes(bytes(data))
    assert checks.check_identical(str(copy / "raw.csv"), os.path.join(outputs, "raw.csv"), "")


def test_map_reference_rejects_a_shifted_map_estimate(copy):
    def edit(r):
        if r["method_id"] != "MAP":
            return False
        return shift(r, "estimate", 0.01 * float(r["se"]))
    rewrite(copy / "raw.csv", edit)
    assert run_checks(copy)["map"]


def test_map_reference_rejects_a_flipped_map_decision(copy):
    def edit(r):
        if r["method_id"] != "MAP" or abs(float(r["estimate"]) / float(r["se"])) > 1.5:
            return False
        r["reject"] = str(1 - int(r["reject"]))  # far from the boundary
        return True
    rewrite(copy / "raw.csv", edit)
    assert run_checks(copy)["map"]


def test_map_reference_is_conjugate_when_only_the_vague_component_is_left():
    vague_mean, vague_sd, c_mean, c_se, t_mean, t_se = 1.1, 0.9, 1.3, 0.2, 1.7, 0.15
    est, sd, lower, upper = checks.map_reference(
        [0.4, 2.0, 1.0], [0.1, 0.2, 0.1], 0.5, 1.0, vague_mean, vague_sd,
        c_mean, c_se, t_mean, t_se)
    post_var = 1.0 / (1.0 / vague_sd**2 + 1.0 / c_se**2)
    post_mean = post_var * (vague_mean / vague_sd**2 + c_mean / c_se**2)
    exp_sd = math.sqrt(post_var + t_se**2)
    half = float(ndtri(0.975)) * exp_sd
    assert est == pytest.approx(t_mean - post_mean, abs=1e-12)
    assert sd == pytest.approx(exp_sd, abs=1e-12)
    assert lower == pytest.approx(est - half, abs=1e-9)
    assert upper == pytest.approx(est + half, abs=1e-9)
