import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hybridctl import borrow, cli, harness
from hybridctl.harness import (
    METHODS,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    cell_label,
    evaluate_cells,
    expand_cells,
    load_config,
    read_summary_csv,
    render_summary_table,
    replicate_rng,
    run_replicate,
    run_scenario,
    write_diagnostics,
    write_raw_csv,
    write_summary_csv,
)
from hybridctl.metrics import SummaryRow
from hybridctl.propensity import estimate_ps, stratify
from hybridctl.trialdata import SubjectGroup, TrialDataset, build_replicate, preset

RAW_HEADER = "scenario_id,replicate,method_id,covset,hyperparam,estimate,se,reject,essr_pct,flags"
SUMMARY_HEADER = (
    "scenario_id,method_id,covset,hyperparam,bias,rel_bias_pct,type1_or_power,"
    "mean_se,essr_pct,essr_empirical_pct,n_used,n_failed"
)


def small_scenario(methods, reps=4, n_total=400, seed=11, covsets=(1,), name="small"):
    coeffs = preset("single-moderate")
    return ScenarioConfig(
        scenario_id=name,
        coeffs=coeffs,
        n_total=n_total,
        theta_true=coeffs.theta_treat,
        replicates=reps,
        master_seed=seed,
        covsets=covsets,
        cells=expand_cells(methods, covsets),
    )


def by_key(cells, rows):
    """A replicate's rows keyed by their cells' labels."""
    return {c.key: r for c, r in zip(cells, rows, strict=True)}


def test_scipy_optimize_stays_unloaded():
    # scipy.optimize adds about a quarter second to every start of the
    # program; neither the import nor a MAP fit may reach for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, hybridctl.harness\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "import numpy as np\n"
        "from hybridctl.borrow import MapConfig, estimate_map\n"
        "from hybridctl.trialdata import build_replicate, preset\n"
        "ds = build_replicate(preset('single-moderate'), 400, np.random.default_rng(0))\n"
        "estimate_map(ds, MapConfig(omega=0.5))\n"
        "print(before, 'scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from hybridctl import *`
    import importlib
    import pkgutil

    import hybridctl

    modules = [hybridctl] + [
        importlib.import_module(f"hybridctl.{m.name}") for m in pkgutil.iter_modules(hybridctl.__path__)
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 8
    for mod in exporting:
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__


class TestExpandCells:
    def test_benchmarks_always_lead(self):
        cells = expand_cells(["PSM"], (1, 2))
        assert cells[0].method_id == "unadj.rc" and cells[1].method_id == "unadj.fc"
        assert [(c.method_id, c.covset) for c in cells[2:]] == [("PSM", 1), ("PSM", 2)]

    def test_explicit_benchmarks_not_duplicated(self):
        cells = expand_cells(["unadj.rc", "unadj.fc", "PSM"], (1,))
        assert sum(c.method_id == "unadj.rc" for c in cells) == 1

    def test_map_omega_sweep_labels(self):
        cells = expand_cells([{"method_id": "MAP", "omegas": [0.2, 1.0]}], (1,))
        labels = [c.hyperparam for c in cells if c.method_id == "MAP"]
        assert labels == ["omega=0.2", "omega=1"]
        assert all(c.covset is None for c in cells if c.method_id == "MAP")

    def test_tau_ladder_label(self):
        cells = expand_cells(
            [{"method_id": "PSM+MAP", "omega": 0.5, "tau_ladder": ["XS"]}], (2,)
        )
        (cell,) = [c for c in cells if c.method_id == "PSM+MAP"]
        assert cell.hyperparam == "omega=0.5,tau=XS"
        assert cell.covset == 2
        assert cell.opt("map").tau_ladder_label == "XS"

    def test_tau_scale_label(self):
        cells = expand_cells([{"method_id": "MAP", "tau_scale": 0.3}], (1,))
        (cell,) = [c for c in cells if c.method_id == "MAP"]
        assert cell.hyperparam == "omega=0.5,tau=0.3"

    def test_pss_labels(self):
        cells = expand_cells(
            [{"method_id": "PSS+PP", "n_strata": 4, "total_borrow": 400}], (3,)
        )
        (cell,) = [c for c in cells if c.method_id == "PSS+PP"]
        assert cell.hyperparam == "strata=4,borrow=400"
        assert cell.opt("total_borrow") == 400.0

    def test_psm_caliper_label(self):
        cells = expand_cells(
            [{"method_id": "PSM", "caliper_mult": 0.1, "caliper_units": "raw"}], (1,)
        )
        (cell,) = [c for c in cells if c.method_id == "PSM"]
        assert cell.hyperparam == "caliper=0.1:raw"

    def test_psw_bounds_label(self):
        cells = expand_cells([{"method_id": "PSW", "weight_bounds": [0.1, 10]}], (1,))
        (cell,) = [c for c in cells if c.method_id == "PSW"]
        assert cell.hyperparam == "bounds=0.1:10"

    def test_mm_ml_label(self):
        cells = expand_cells([{"method_id": "MM.nc", "reml": False}], (1,))
        (cell,) = [c for c in cells if c.method_id == "MM.nc"]
        assert cell.hyperparam == "ml"

    def test_default_labels_are_empty(self):
        cells = expand_cells(["PSM", "PSW", "MM"], (1,))
        assert all(c.hyperparam == "" for c in cells)

    def test_map_family_caliper_gets_its_own_cell(self):
        sc = small_scenario([
            {"method_id": "PSM+MAP", "omega": 0.5, "caliper_mult": 0.05},
            {"method_id": "PSM+MAP", "omega": 0.5, "caliper_mult": 0.5},
        ], reps=2, n_total=300)
        by_key = {r.key: r for r in run_scenario(sc).summary}
        for hyper in ("omega=0.5,caliper=0.05:sd", "omega=0.5,caliper=0.5:sd"):
            assert by_key[("PSM+MAP", 1, hyper)].n_used == 2

    def test_map_family_weight_bounds_validated_and_labelled(self):
        with pytest.raises(ConfigError, match="weight_bounds"):
            expand_cells([{"method_id": "PSW+MAP", "weight_bounds": [20, 0.05]}], (1,))
        cells = expand_cells([{"method_id": "PSW+MAP", "weight_bounds": [0.1, 10]}], (1,))
        assert cells[-1].hyperparam == "omega=0.5,bounds=0.1:10"

    def test_map_family_caliper_units_validated(self):
        with pytest.raises(ConfigError, match="caliper_units"):
            expand_cells([{"method_id": "PSM+MAP", "caliper_units": "bogus"}], (1,))

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ConfigError, match=r"methods\[1\].*duplicate cell"):
            expand_cells(["PSM", {"method_id": "PSM", "caliper_mult": 0.2}], (1,))
        with pytest.raises(ConfigError, match="duplicate cell"):
            expand_cells([{"method_id": "MAP", "omegas": [0.5, 0.5]}], (1,))
        # listing a benchmark that is always injected is not a duplicate
        assert len(expand_cells(["unadj.rc", "unadj.fc", "unadj.rc"], (1,))) == 2

    def test_readme_lists_every_methods_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for method_id, spec in METHODS.items():
            keys = sorted(spec.keys | ({"covsets"} if spec.covset else set()))
            row = f"| `{method_id}` | " + (", ".join(f"`{k}`" for k in keys) or "none") + " |"
            assert row in readme

    def test_errors_name_the_entry(self):
        with pytest.raises(ConfigError, match=r"methods\[0\].*unknown method"):
            expand_cells(["PSX"], (1,))
        with pytest.raises(ConfigError, match=r"methods\[1\].*unknown key"):
            expand_cells(["PSM", {"method_id": "PSM", "omega": 0.5}], (1,))
        with pytest.raises(ConfigError, match="omega or omegas"):
            expand_cells([{"method_id": "MAP", "omega": 0.5, "omegas": [0.2]}], (1,))
        with pytest.raises(ConfigError, match="tau_ladder"):
            expand_cells([{"method_id": "MAP", "tau_ladder": ["XL"]}], (1,))
        with pytest.raises(ConfigError, match="missing method_id"):
            expand_cells([{"omega": 0.5}], (1,))
        with pytest.raises(ConfigError, match="covsets"):
            expand_cells([{"method_id": "PSM", "covsets": [7]}], (1,))
        with pytest.raises(ConfigError, match="n_strata"):
            expand_cells([{"method_id": "PSS+PP", "n_strata": 1}], (1,))
        with pytest.raises(ConfigError, match="outside"):
            expand_cells([{"method_id": "MAP", "omega": 1.2}], (1,))
        with pytest.raises(ConfigError, match="outside"):
            expand_cells([{"method_id": "MAP", "omega": True}], (1,))


GOOD_CONFIG = """
master_seed: 5
replicates: 3
scenarios:
  - scenario_id: demo
    preset: single-moderate
    n_total: 300
    covsets: [1]
    methods: [PSM]
"""


def write_demo_config(tmp_path, top, scenario):
    """A one-scenario config with ``top`` and ``scenario`` overriding its
    entries; ``scenario["coefficients"]`` overrides explicit coefficients."""
    scen = {"scenario_id": "demo", "preset": "single-moderate", "covsets": [1],
            "methods": ["PSM"]}
    if "coefficients" in scenario:
        coeffs = {"alpha0": 1.0, "alpha": [0.2] * 6, "theta_treat": 0.3,
                  "beta0": -0.7, "beta": [0.3] * 6}
        del scen["preset"]
        scen.update(n_total=300, coefficients=dict(coeffs, **scenario["coefficients"]))
    else:
        scen.update(scenario)
    p = tmp_path / "demo.yaml"
    p.write_text(yaml.safe_dump(dict({"master_seed": 5, "scenarios": [scen]}, **top)))
    return str(p)


class TestLoadConfig:
    def test_shipped_quick_config(self):
        cfg = load_config("configs/quick.yaml")
        ids = [s.scenario_id for s in cfg.scenarios]
        assert ids == ["quick-null", "quick-alt"]
        assert all(s.replicates == 20 for s in cfg.scenarios)
        assert cfg.scenarios[0].master_seed == 7
        assert cfg.scenarios[0].theta_true == 0.0

    def test_shipped_full_grid_config(self):
        cfg = load_config("configs/full_grid.yaml")
        assert len(cfg.scenarios) == 8
        assert all(s.replicates == 2000 for s in cfg.scenarios)

    def test_minimal_config_defaults(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(GOOD_CONFIG)
        cfg = load_config(str(p))
        (sc,) = cfg.scenarios
        assert sc.n_total == 300
        assert sc.replicates == 3
        assert sc.theta_true == preset("single-moderate").theta_treat
        assert cfg.failure_threshold == 0.05

    @pytest.mark.parametrize(
        "mutation,message",
        [
            ("master_seed: 5\n", "scenarios"),
            ("scenarios: []\nmaster_seed: 5\n", "scenarios"),
            ("bogus: 1\nmaster_seed: 5\nscenarios: [{}]\n", "unknown top-level"),
            ("replicates: 0\nmaster_seed: 5\nscenarios: [{}]\n", "replicates"),
        ],
    )
    def test_top_level_errors(self, tmp_path, mutation, message):
        p = tmp_path / "bad.yaml"
        p.write_text(mutation)
        with pytest.raises(ConfigError, match=message):
            load_config(str(p))

    @pytest.mark.parametrize(
        "top,scenario,field",
        [
            ({"master_seed": True}, {}, ": master_seed"),
            ({"replicates": True}, {}, ": replicates"),
            ({"failure_threshold": True}, {}, ": failure_threshold"),
            ({}, {"master_seed": True}, r"scenarios\[0\]\.master_seed"),
            ({}, {"replicates": True}, r"scenarios\[0\]\.replicates"),
            ({}, {"theta_treat": True}, r"scenarios\[0\]\.theta_treat"),
            ({}, {"covsets": [True]}, r"scenarios\[0\]\.covsets"),
            ({}, {"coefficients": {"beta0": True}}, r"coefficients\.beta0"),
            ({}, {"coefficients": {"alpha": [0.2] * 5 + [True]}}, r"coefficients\.alpha"),
        ],
        ids=["master_seed", "replicates", "failure_threshold", "scenario.master_seed",
             "scenario.replicates", "theta_treat", "covsets", "beta0", "alpha"],
    )
    def test_booleans_rejected(self, tmp_path, top, scenario, field):
        # YAML true loads as a bool, which Python counts as the integer 1
        with pytest.raises(ConfigError, match=field):
            load_config(write_demo_config(tmp_path, top, scenario))

    @pytest.mark.parametrize(
        "top,scenario,field",
        [
            ({"failure_threshold": math.nan}, {}, ": failure_threshold"),
            ({}, {"theta_treat": math.nan}, r"scenarios\[0\]\.theta_treat"),
            ({}, {"methods": [{"method_id": "MAP", "tau_scale": math.nan}]},
             r"methods\[0\]\.tau_scale"),
            ({}, {"methods": [{"method_id": "MAP", "omega": math.nan}]}, r"methods\[0\].*omega"),
            ({}, {"methods": [{"method_id": "PSM", "caliper_mult": math.nan}]},
             r"methods\[0\]\.caliper_mult"),
            ({}, {"methods": [{"method_id": "PSW", "weight_bounds": [0.05, math.inf]}]},
             r"methods\[0\]\.weight_bounds"),
            ({}, {"methods": [{"method_id": "PSS+PP", "total_borrow": math.inf}]},
             r"methods\[0\]\.total_borrow"),
            ({}, {"methods": [{"method_id": "PSS+PP", "total_borrow": 10**400}]},
             r"methods\[0\]\.total_borrow"),
            ({}, {"coefficients": {"sigma_e": math.nan}}, r"coefficients\.sigma_e"),
            ({}, {"coefficients": {"theta_treat": -math.inf}}, r"coefficients\.theta_treat"),
            ({}, {"coefficients": {"beta0": math.nan}}, r"coefficients\.beta0"),
            ({}, {"coefficients": {"alpha": [0.2] * 5 + [math.nan]}}, r"coefficients\.alpha"),
            ({}, {"coefficients": {"beta": [0.3] * 5 + [math.inf]}}, r"coefficients\.beta"),
        ],
        ids=["failure_threshold", "theta_treat", "tau_scale", "omega", "caliper_mult",
             "weight_bounds", "total_borrow", "total_borrow_int", "sigma_e",
             "coefficients.theta_treat", "beta0", "alpha", "beta"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, top, scenario, field):
        # YAML .nan and .inf load as floats; an integer past the float range
        # cannot become one
        with pytest.raises(ConfigError, match=field):
            load_config(write_demo_config(tmp_path, top, scenario))

    def test_missing_master_seed(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("scenarios: [{scenario_id: a, preset: single-moderate, methods: [PSM]}]\n")
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(str(p))

    def test_preset_and_coefficients_conflict(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "master_seed: 1\nscenarios:\n"
            "  - scenario_id: a\n    preset: single-moderate\n"
            "    coefficients: {}\n    methods: [PSM]\n"
        )
        with pytest.raises(ConfigError, match="exactly one of preset or coefficients"):
            load_config(str(p))

    def test_unknown_preset(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "master_seed: 1\nscenarios:\n"
            "  - scenario_id: a\n    preset: nope\n    methods: [PSM]\n"
        )
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(str(p))

    def test_duplicate_scenario_ids(self, tmp_path):
        p = tmp_path / "bad.yaml"
        block = "  - scenario_id: a\n    preset: single-moderate\n    methods: [PSM]\n"
        p.write_text("master_seed: 1\nscenarios:\n" + block + block)
        with pytest.raises(ConfigError, match="duplicate scenario_id"):
            load_config(str(p))

    def test_coefficients_requires_n_total(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "master_seed: 1\nscenarios:\n"
            "  - scenario_id: a\n    methods: [PSM]\n"
            "    coefficients:\n"
            "      alpha0: 1.0\n      alpha: [0.2, 0.2, 0.2, 0.2, 0.2, 0.2]\n"
            "      theta_treat: 0.3\n      beta0: -0.7\n"
            "      beta: [0.3, 0.3, 0.3, 0.3, 0.3, 0.3]\n"
        )
        with pytest.raises(ConfigError, match="n_total"):
            load_config(str(p))

    def test_apply_overrides(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(GOOD_CONFIG)
        cfg = load_config(str(p))
        out = apply_overrides(cfg, scenario_id="demo", replicates=7, master_seed=99)
        assert out.scenarios[0].replicates == 7
        assert out.scenarios[0].master_seed == 99
        with pytest.raises(ConfigError, match="unknown scenario"):
            apply_overrides(cfg, scenario_id="missing")


class TestReplicateRng:
    def test_same_coordinates_same_stream(self):
        a = replicate_rng(1, "s", 3, "data").random(4)
        b = replicate_rng(1, "s", 3, "data").random(4)
        np.testing.assert_array_equal(a, b)

    def test_coordinates_separate_streams(self):
        base = replicate_rng(1, "s", 3, "data").random(4)
        for args in ((2, "s", 3, "data"), (1, "t", 3, "data"),
                     (1, "s", 4, "data"), (1, "s", 3, "match:c1")):
            assert not np.array_equal(replicate_rng(*args).random(4), base)


class TestRunReplicate:
    def test_bitwise_deterministic(self):
        sc = small_scenario(["PSM", "MAP", "PSS+PP"], n_total=300)
        a = run_replicate(sc, 2)
        b = run_replicate(sc, 2)
        assert len(a) == len(sc.cells)
        assert [(r.estimate, r.se) for r in a] == [(r.estimate, r.se) for r in b]

    def test_benchmark_rows_do_not_depend_on_method_list(self):
        sa = small_scenario(["PSM"], n_total=300)
        sb = small_scenario(["PSM", "MAP", "PSW", "MM"], n_total=300)
        a = by_key(sa.cells, run_replicate(sa, 0))
        b = by_key(sb.cells, run_replicate(sb, 0))
        for key in (("unadj.rc", None, ""), ("unadj.fc", None, ""), ("PSM", 1, "")):
            assert (a[key].estimate, a[key].se) == (b[key].estimate, b[key].se)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(harness, "estimate_psm", broken)
        sc = small_scenario(["PSM"], n_total=300)
        with pytest.raises(TypeError, match="bug"):
            run_replicate(sc, 0)

    def test_strata_built_once_per_covset(self, monkeypatch):
        calls = []

        def counting(psfit, n_strata):
            calls.append(n_strata)
            return stratify(psfit, n_strata)

        monkeypatch.setattr(borrow, "stratify", counting)
        sc = small_scenario(["PSS+PP", "PSS+CL"], covsets=(1, 3))
        for replicate in range(2):
            calls.clear()
            rows = run_replicate(sc, replicate)
            assert not any(r.failed for r in rows)
            assert calls == [5, 5]

    def test_failed_shared_input_is_not_rebuilt(self, monkeypatch):
        # historical x1 lies entirely below the concurrent x1, so the
        # covset-1 propensity fit separates; the six cells that need it
        # fail with that one error, and the fit is attempted once
        ds = build_replicate(preset("single-moderate"), 400, np.random.default_rng(3))

        def shift(g, sign):
            x = g.x.copy()
            x[:, 0] = sign * (np.abs(x[:, 0]) + 0.5)
            return SubjectGroup(ids=g.ids, x=x, z=g.z, trial=g.trial, y=g.y)

        ds = TrialDataset(shift(ds.full_concurrent, 1), shift(ds.reduced_concurrent, 1),
                          (shift(ds.historical[0], -1),))
        calls = []

        def counting(dataset, covset):
            calls.append(covset)
            return estimate_ps(dataset, covset)

        monkeypatch.setattr(harness, "estimate_ps", counting)
        methods = ["PSM", "PSW", "PSS+PP", "PSS+CL", {"method_id": "PSM+MAP", "omega": 0.5},
                   {"method_id": "PSW+MAP", "omega": 0.5}]
        cells = expand_cells(methods, (1,))
        rows = evaluate_cells(ds, cells, "sep", 5, 0)
        assert calls == [1]
        borrowers = rows[2:]  # after unadj.rc and unadj.fc
        assert len(borrowers) == len(methods)
        assert all(r.failed for r in borrowers)
        assert len({r.flags for r in borrowers}) == 1
        assert borrowers[0].flags[0].startswith("error:SeparationError:")

    def test_essr_filled_against_benchmark(self):
        sc = small_scenario(["PSM", "MAP"], n_total=300)
        rows = run_replicate(sc, 1)
        assert by_key(sc.cells, rows)[("unadj.rc", None, "")].essr_pct is None
        for c, r in zip(sc.cells, rows):
            if c.method_id in ("PSM", "MAP") and not r.failed:
                assert r.essr_pct is not None


# Methods with non-default options too, so the shared propensity, match,
# weight and strata caches hold several entries per covariate set.
INDEPENDENCE_METHODS = [
    "PSM", {"method_id": "PSM", "caliper_mult": 0.1},
    "PSW", {"method_id": "PSW", "weight_bounds": [0.1, 10]},
    {"method_id": "MAP", "omegas": [0.2, 1.0]},
    {"method_id": "PSM+MAP", "omega": 0.5},
    {"method_id": "PSM+MAP", "omega": 0.5, "caliper_mult": 0.1},
    {"method_id": "PSW+MAP", "omega": 0.5},
    "PSS+PP", "PSS+CL", {"method_id": "PSS+PP", "n_strata": 4},
    {"method_id": "PSS+CL", "n_strata": 4, "total_borrow": 50}, "MM", "MM.nc",
]


@functools.cache
def independence_reference():
    ds = build_replicate(preset("multi-moderate"), 800, np.random.default_rng(21))
    cells = expand_cells(INDEPENDENCE_METHODS, (1, 3))
    return ds, cells, evaluate_cells(ds, cells, "indep", 5, 0)


def row_signature(est):
    return repr((est.estimate, est.se, est.reject, est.interval, est.flags,
                 est.diagnostics, est.failed))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_cell_rows_do_not_depend_on_the_other_cells(data):
    ds, cells, want = independence_reference()
    picked = data.draw(st.lists(st.sampled_from(range(len(cells))), unique=True, min_size=1))
    rows = evaluate_cells(ds, tuple(cells[i] for i in picked), "indep", 5, 0)
    with_benchmark = 0 in picked  # unadj.rc leads the cell list
    for i, row in zip(picked, rows):
        assert row_signature(row) == row_signature(want[i])
        assert row.essr_pct == (want[i].essr_pct if with_benchmark else None)


def test_rows_do_not_depend_on_subject_id_order():
    # Reversing the ids (id -> n - 1 - id) keeps every row where it is;
    # estimators address subjects by row, so only the order of PSM's
    # cluster sums may move the last bits.
    n = 800
    ds = build_replicate(preset("multi-moderate"), n, np.random.default_rng(22))

    def reverse(g):
        return SubjectGroup(ids=n - 1 - g.ids, x=g.x, z=g.z, trial=g.trial, y=g.y)

    rev = TrialDataset(reverse(ds.full_concurrent), reverse(ds.reduced_concurrent),
                       tuple(reverse(p) for p in ds.historical))
    cells = expand_cells(sorted(METHODS), (1, 3))
    want = evaluate_cells(ds, cells, "order", 5, 0)
    got = evaluate_cells(rev, cells, "order", 5, 0)
    assert {c.method_id for c in cells} == set(METHODS) and len(METHODS) == 11
    for a, b in zip(want, got, strict=True):
        assert not a.failed, a.flags
        assert b.estimate == pytest.approx(a.estimate, rel=1e-12, abs=0)
        assert b.se == pytest.approx(a.se, rel=1e-12, abs=0)
        assert (b.reject, b.flags) == (a.reject, a.flags)


class TestRunScenario:
    def test_worker_count_does_not_change_results(self):
        sc = small_scenario(["PSM", "MAP"], reps=6, n_total=300)
        a = run_scenario(sc, workers=1)
        b = run_scenario(sc, workers=2)
        assert a.summary == b.summary
        assert a.failure_fraction == b.failure_fraction
        assert a.flag_counts == b.flag_counts

    def test_zero_variance_outcomes_fail_borrowers(self):
        # constant outcomes make the historical pool summary degenerate
        # (zero standard error), which MAP must refuse rather than use
        from dataclasses import replace

        coeffs = replace(preset("single-moderate"), alpha=np.zeros(6), sigma_e=0.0)
        sc = ScenarioConfig(
            scenario_id="flat-outcomes",
            coeffs=coeffs,
            n_total=120,
            theta_true=coeffs.theta_treat,
            replicates=3,
            master_seed=4,
            covsets=(1,),
            cells=expand_cells(["MAP"], (1,)),
        )
        res = run_scenario(sc)
        assert res.failure_fraction >= 1 / 3
        by_key = {r.key: r for r in res.summary}
        map_row = by_key[("MAP", None, "omega=0.5")]
        assert map_row.n_used == 0 and map_row.n_failed == 3
        assert math.isnan(map_row.bias)
        assert any(k.startswith("MAP|error:") for k in res.flag_counts)

    def test_full_concurrent_benchmark_is_tighter(self):
        sc = small_scenario([], reps=30, n_total=300)
        res = run_scenario(sc)
        wins = 0
        for rows in res.replicate_rows:
            row = by_key(sc.cells, rows)
            wins += row[("unadj.fc", None, "")].se < row[("unadj.rc", None, "")].se
        assert wins >= 28


@pytest.fixture(scope="module")
def results():
    return [run_scenario(small_scenario(["PSM"], reps=3, n_total=300))]


class TestCsvIo:
    def test_raw_header_and_shape(self, tmp_path, results):
        path = tmp_path / "raw.csv"
        write_raw_csv(str(path), results)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == RAW_HEADER
        assert len(lines) == 1 + 3 * len(results[0].scenario.cells)

    def test_summary_roundtrip(self, tmp_path, results):
        # an alternative and a null (theta = 0) scenario: together their rows
        # hold every field both set and None
        sc = small_scenario(["PSM"], reps=3, n_total=300, name="null")
        null = run_scenario(dataclasses.replace(sc, coeffs=sc.coeffs.with_theta(0.0),
                                                theta_true=0.0))
        both = results + [null]
        path = tmp_path / "summary.csv"
        write_summary_csv(str(path), both)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == SUMMARY_HEADER
        back = read_summary_csv(str(path))
        want = [row for r in both for row in r.summary]
        assert len(back) == len(want)
        for rb, rw in zip(back, want):
            for f in dataclasses.fields(SummaryRow):
                v = getattr(rw, f.name)
                # floats are written to 10 significant digits
                assert getattr(rb, f.name) == (float("%.10g" % v) if isinstance(v, float) else v)
        rows = {(r.scenario_id, r.key): r for r in back}
        assert rows[("small", ("unadj.rc", None, ""))].essr_pct is None
        assert rows[("null", ("PSM", 1, ""))].rel_bias_pct is None
        assert rows[("small", ("PSM", 1, ""))].rel_bias_pct is not None

        again = tmp_path / "again.csv"
        write_summary_csv(str(again), [dataclasses.replace(null, summary=back)])
        assert again.read_bytes() == path.read_bytes()

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_summary_csv(str(path))

    def test_diagnostics_payload(self, tmp_path, results):
        path = tmp_path / "diag.json"
        write_diagnostics(str(path), results, 0.05)
        payload = json.loads(path.read_text())
        assert payload["se_convention"] == "HC0"
        assert payload["failure_threshold"] == 0.05
        (entry,) = payload["scenarios"]
        assert entry["scenario_id"] == "small"
        assert entry["replicates"] == 3
        assert "flag_counts" in entry


def summary_row(scenario_id, method="MAP", hyper="omega=0.5", covset=None,
                reject=0.05, bias=0.01):
    return SummaryRow(
        scenario_id=scenario_id, method_id=method, covset_id=covset,
        hyperparam=hyper, bias=bias, rel_bias_pct=2.0, reject_rate=reject,
        mean_se=0.1, essr_pct=40.0, essr_empirical_pct=35.0, n_used=100, n_failed=0,
    )


class TestRendering:
    def test_cell_label_variants(self):
        assert cell_label(("MAP", None, "omega=0.2")) == "MAP(omega=0.2)"
        assert cell_label(("PSM", 3, "")) == "PSM [c3]"
        assert cell_label(("PSM+MAP", 1, "omega=0.5")) == "PSM+MAP(omega=0.5) [c1]"

    def test_plain_table(self):
        text = render_summary_table([summary_row("demo")], style="plain")
        assert "MAP(omega=0.5)" in text
        assert "demo" in text
        assert "essr%" in text

    def test_paper_table_pairs_arms(self):
        rows = [
            summary_row("demo-null", reject=0.05),
            summary_row("demo-alt", reject=0.80),
        ]
        text = render_summary_table(rows, style="paper")
        assert "== demo ==" in text
        assert "type1" in text and "power" in text
        assert text.count("MAP(omega=0.5)") == 1

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown table style"):
            render_summary_table([], style="fancy")


CLI_CONFIG = """
master_seed: 5
replicates: 2
scenarios:
  - scenario_id: demo
    preset: single-moderate
    n_total: 300
    covsets: [1]
    methods: [PSM]
"""

FAILING_CONFIG = """
master_seed: 6
replicates: 2
scenarios:
  - scenario_id: flat-outcomes
    n_total: 120
    covsets: [1]
    methods: [MAP]
    coefficients:
      alpha0: 1.0
      alpha: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
      theta_treat: 0.35
      beta0: -0.78
      beta: [0.3, 0.3, 0.3, 0.3, 0.3, 0.3]
      sigma_e: 0.0
"""


class TestCli:
    def test_presets_list(self, capsys):
        assert cli.main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "single-moderate" in out and "multi-severe" in out

    def test_run_then_table(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CLI_CONFIG)
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("raw.csv", "summary.csv", "diagnostics.json"):
            assert (out / name).exists()
        capsys.readouterr()
        assert cli.main(["table", "--in", str(out), "--style", "plain"]) == 0
        assert "PSM [c1]" in capsys.readouterr().out

    def test_two_pool_coefficients_run_every_method(self, tmp_path, capsys):
        beta = "[" + ", ".join(["[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]", "[0, 0, 0, 0, 0, 0]"]) + "]"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "master_seed: 8\nreplicates: 2\nscenarios:\n"
            "  - scenario_id: two-pools\n    n_total: 800\n    covsets: [1, 3]\n"
            f"    methods: {sorted(METHODS)}\n"
            "    coefficients:\n      alpha0: 1.0\n      alpha: [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]\n"
            f"      theta_treat: 0.5\n      beta0: [0.1, -0.2]\n      beta: {beta}\n"
        )
        (scenario,) = load_config(str(cfg)).scenarios
        assert scenario.coeffs.k_historical == 2
        assert {c.method_id for c in scenario.cells} == set(METHODS)
        out = tmp_path / "r"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        raw = (out / "raw.csv").read_text().splitlines()
        assert len(raw) == 1 + 2 * len(scenario.cells)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["scenarios"][0]["failure_fraction"] == 0.0

    def test_run_unknown_scenario_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CLI_CONFIG)
        code = cli.main(["run", "--config", str(cfg), "--scenario", "nope",
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_run_invalid_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("scenarios: []\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    def test_run_flags_failure_fraction(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(FAILING_CONFIG)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "exceeds threshold" in capsys.readouterr().err

    def test_failure_threshold_applies_per_scenario(self, tmp_path, capsys):
        # flat-outcomes fails a third of its rows; the clean scenario's 22
        # cells would dilute a fraction pooled over both below 0.05
        clean = (
            "  - scenario_id: clean\n    preset: single-moderate\n    covsets: [1, 2, 3]\n"
            "    methods: [{method_id: MAP, omegas: [0.2, 0.5, 0.8, 1.0]}, PSM, PSW,\n"
            "              PSS+PP, PSS+CL, MM, MM.nc]\n"
        )
        cfg = tmp_path / "c.yaml"
        cfg.write_text(FAILING_CONFIG + clean)
        out = tmp_path / "r"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "scenario flat-outcomes: method failure fraction" in capsys.readouterr().err
        diag = json.loads((out / "diagnostics.json").read_text())
        fractions = {s["scenario_id"]: s["failure_fraction"] for s in diag["scenarios"]}
        assert fractions["clean"] == 0.0 and fractions["flat-outcomes"] > 0.05

    def test_table_missing_summary_is_config_error(self, tmp_path, capsys):
        assert cli.main(["table", "--in", str(tmp_path)]) == 2

    def test_analyze_subjects_csv(self, tmp_path, capsys):
        ds = build_replicate(preset("single-moderate"), 300, np.random.default_rng(8))
        path = tmp_path / "subjects.csv"
        with open(path, "w") as fh:
            fh.write("id,trial,z,y," + ",".join(f"x{j+1}" for j in range(6)) + "\n")
            for group in (ds.full_concurrent, *ds.historical):
                for i, x, z, t, y in zip(group.ids, group.x, group.z, group.trial, group.y):
                    xs = ",".join("%.10g" % v for v in x)
                    fh.write(f"{i},{t},{z},{y:.10g},{xs}\n")
        code = cli.main(["analyze", "--data", str(path),
                         "--methods", "unadj.rc,PSM,MAP", "--covset", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "unadj.rc" in out and "PSM [c1]" in out and "MAP(omega=0.5)" in out
        assert "estimate=" in out and "reject=" in out

    def test_analyze_binary_outcomes_reports_failed_cell(self, tmp_path, capsys):
        # every concurrent control has y = 0, so each propensity stratum's
        # control mean has SE 0 and the power-prior update must refuse it
        rng = np.random.default_rng(9)
        path = tmp_path / "binary.csv"
        with open(path, "w") as fh:
            fh.write("trial,z,y,x1,x2\n")
            for i in range(150):
                trial, z = (0, 1) if i < 50 else (0, 0) if i < 75 else (1, 0)
                y = 0 if (trial, z) == (0, 0) else int(rng.integers(2))
                fh.write(f"{trial},{z},{y},{rng.normal():.6f},{rng.normal():.6f}\n")
        code = cli.main(["analyze", "--data", str(path),
                         "--methods", "PSS+PP,PSS+CL,MAP,MM"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        pss_pp = [line for line in lines if line.startswith("PSS+PP [c1]")]
        assert len(pss_pp) == 1
        assert pss_pp[0].split(maxsplit=2)[2].startswith("failed: error:ValueError:")

    @pytest.mark.parametrize("column,value", [("y", "nan"), ("x2", "inf"), ("x1", "-inf")])
    def test_analyze_rejects_non_finite_values(self, tmp_path, capsys, column, value):
        rng = np.random.default_rng(10)
        path = tmp_path / "subjects.csv"
        with open(path, "w") as fh:
            fh.write("trial,z,y,x1,x2\n")
            for i in range(120):
                trial, z = (0, i % 2) if i < 60 else (1, 0)
                row = {c: f"{rng.normal():.6f}" for c in ("y", "x1", "x2")}
                if i in (70, 90):
                    row[column] = value
                fh.write(f"{trial},{z},{row['y']},{row['x1']},{row['x2']}\n")
        assert cli.main(["analyze", "--data", str(path), "--methods", "PSM"]) == 2
        err = capsys.readouterr().err
        assert f"line 72: column '{column}' is not finite" in err
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("row,message", [
        ("0,0,0.2", "line 3: column 'x1' is missing"),
        ("0,0,abc,0.2", "line 3: column 'y' is not a number: 'abc'"),
    ], ids=["short-row", "not-a-number"])
    def test_analyze_rejects_unreadable_fields(self, tmp_path, capsys, row, message):
        path = tmp_path / "subjects.csv"
        path.write_text(f"trial,z,y,x1\n0,1,0.5,0.1\n{row}\n1,0,0.3,0.2\n")
        assert cli.main(["analyze", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("columns,gap", [
        (["x1", "x2", "x7", "x4", "x5", "x6"], "x3"),
        (["x1", "x2", "x3", "x4", "x5", "x0"], "x6"),
    ])
    def test_analyze_rejects_covariate_numbering_gap(self, tmp_path, capsys, columns, gap):
        ds = build_replicate(preset("single-severe"), 300, np.random.default_rng(8))
        path = tmp_path / "subjects.csv"
        with open(path, "w") as fh:
            fh.write("trial,z,y," + ",".join(columns) + "\n")
            for group in (ds.full_concurrent, *ds.historical):
                for x, z, t, y in zip(group.x, group.z, group.trial, group.y):
                    fh.write(f"{t},{z},{y:.10g}," + ",".join("%.10g" % v for v in x) + "\n")
        assert cli.main(["analyze", "--data", str(path), "--covset", "1"]) == 2
        err = capsys.readouterr().err
        assert f"'{gap}' is missing" in err
        assert err.count(str(path)) == 1

    def test_analyze_missing_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert cli.main(["analyze", "--data", str(path)]) == 2
        assert capsys.readouterr().err.count(str(path)) == 1
