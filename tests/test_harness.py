import dataclasses
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import output_reference

from hybridctl import borrow, cli, harness
from hybridctl.harness import (
    METHODS,
    Cell,
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
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
from hybridctl.metrics import EffectEstimate, ReplicateColumns, SummaryRow, summarize
from hybridctl.propensity import estimate_ps, stratify
from hybridctl.trialdata import SubjectGroup, TrialDataset, build_replicate, preset

RAW_HEADER = "scenario_id,replicate,method_id,covset,hyperparam,estimate,se,reject,essr_pct,flags"
SUMMARY_HEADER = (
    "scenario_id,method_id,covset,hyperparam,bias,rel_bias_pct,type1_or_power,"
    "mean_se,essr_pct,essr_empirical_pct,n_used,n_failed"
)
README = Path(__file__).resolve().parents[1] / "README.md"


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


ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra):
    """The environment with this checkout's ``src`` leading PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@functools.cache
def replicate_imports():
    """The modules of a fresh process after ``import hybridctl.cli`` and
    loading tests/data/golden.yaml, and those that one replicate of each of
    its scenarios (every method id, one and three pools) imports besides."""
    probe = (
        "import json, sys\n"
        "from hybridctl import cli, harness\n"
        f"cfg = harness.load_config({str(ROOT / 'tests' / 'data' / 'golden.yaml')!r})\n"
        "assert {c.method_id for s in cfg.scenarios for c in s.cells} == set(harness.METHODS)\n"
        "before = set(sys.modules)\n"
        "for scenario in cfg.scenarios:\n"
        "    harness.run_replicate(scenario, 0)\n"
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_scipy_stays_unloaded():
    # scipy.special alone was about half of every start of the program, and
    # scipy.optimize a quarter second more; scipy is a test dependency only
    loaded, new = replicate_imports()
    assert [m for m in loaded + new if m.split(".")[0] == "scipy"] == []


def test_a_replicate_imports_no_module():
    # Whatever a replicate needs is imported with the program, so no import
    # falls inside the timed loop. numpy loads numpy.random and numpy.ma on
    # first use; the harness imports both.
    _, new = replicate_imports()
    assert new == []


def test_run_and_analyze_with_scipy_blocked(tmp_path):
    # With ``import scipy`` failing, configs/quick.yaml runs and `analyze`
    # with all 11 method ids prints its pinned text, warnings as errors.
    ds = build_replicate(preset("multi-moderate"), 800, np.random.default_rng(12))
    data = write_subjects_csv(tmp_path / "subjects.csv", ds)
    blocked = "import sys; sys.modules['scipy'] = None; from hybridctl.cli import entry; entry()"
    env = src_env(PYTHONWARNINGS="error::RuntimeWarning")

    def hybridctl(*args):
        return subprocess.run([sys.executable, "-c", blocked, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300)

    run = hybridctl("run", "--config", "configs/quick.yaml", "--out", str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert all((tmp_path / "out" / f).is_file() for f in OUTPUT_FILES)
    out = hybridctl("analyze", "--data", str(data), "--methods", ",".join(METHODS))
    assert out.returncode == 0, out.stderr
    assert out.stdout == (ROOT / "tests" / "data" / "analyze_multi-moderate.txt").read_text()
    assert run.stderr == out.stderr == ""


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from hybridctl.<module> import *`
    import importlib
    import pkgutil

    import hybridctl

    modules = [hybridctl] + [
        importlib.import_module(f"hybridctl.{m.name}") for m in pkgutil.iter_modules(hybridctl.__path__)
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert [mod.__name__ for mod in exporting] == [
        f"hybridctl.{m}" for m in
        ("borrow", "harness", "metrics", "mixed", "propensity", "regress", "trialdata")]
    for mod in exporting:
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__


def test_every_exported_name_is_imported_or_documented():
    # __all__ holds what another module imports (``from .mod import name``
    # or ``mod.name`` after ``from . import mod``) or README.md names; a
    # name that only tests use stays defined, but not exported
    import ast
    import importlib
    import re

    src = ROOT / "src" / "hybridctl"
    used = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        used.add((node.module, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        used.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    readme = (ROOT / "README.md").read_text()
    for path in sorted(src.glob("*.py")):
        mod = importlib.import_module(f"hybridctl.{path.stem}")
        assert [name for name in getattr(mod, "__all__", ())
                if (path.stem, name) not in used
                and not re.search(rf"\b{re.escape(name)}\b", readme)] == [], mod.__name__


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
        assert (cell.omega, cell.tau_label) == (0.5, "XS")

    def test_default_labels_are_empty(self):
        cells = expand_cells(["PSM", "PSW", "PSS+PP", "PSS+CL", "MM", "MM.nc"], (1,))
        assert all(c.hyperparam == "" and c.omega is c.tau_label is None for c in cells)

    def test_map_cells_carry_their_settings_and_labels(self):
        cells = expand_cells([{"method_id": "MAP", "omegas": [0, 0.25, 1]},
                              {"method_id": "PSW+MAP", "omega": 0.5, "tau_ladder": ["L", "XS"]}],
                             (1,))
        got = [(c.method_id, c.covset, c.omega, c.tau_label, c.hyperparam) for c in cells[2:]]
        assert got == [
            ("MAP", None, 0.0, None, "omega=0"),
            ("MAP", None, 0.25, None, "omega=0.25"),
            ("MAP", None, 1.0, None, "omega=1"),
            ("PSW+MAP", 1, 0.5, "L", "omega=0.5,tau=L"),
            ("PSW+MAP", 1, 0.5, "XS", "omega=0.5,tau=XS"),
        ]
        assert all(type(c.omega) is float for c in cells[2:])
        assert [c.key for c in cells[2:4]] == [("MAP", None, "omega=0"),
                                               ("MAP", None, "omega=0.25")]

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ConfigError, match=r"methods\[1\].*duplicate cell"):
            expand_cells(["PSM", {"method_id": "PSM", "covsets": [1]}], (1,))
        with pytest.raises(ConfigError, match="duplicate cell"):
            expand_cells([{"method_id": "MAP", "omegas": [0.5, 0.5]}], (1,))
        # listing a benchmark that is always injected is not a duplicate
        assert len(expand_cells(["unadj.rc", "unadj.fc", "unadj.rc"], (1,))) == 2

    def test_readme_lists_every_methods_keys(self):
        readme = README.read_text()
        for method_id, spec in METHODS.items():
            keys = sorted(spec.keys)
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


# Per-method options whose settings are now fixed, each at a value that the
# methods which took it used to accept.
REMOVED_KEYS = [
    (key, value, method_id)
    for key, value, methods in [
        ("caliper_mult", 0.2, ("PSM", "PSM+MAP")),
        ("caliper_units", "sd", ("PSM", "PSM+MAP")),
        ("weight_bounds", [0.05, 20], ("PSW", "PSW+MAP")),
        ("tau_scale", 0.3, ("MAP", "PSM+MAP", "PSW+MAP")),
        ("n_strata", 5, ("PSS+PP", "PSS+CL")),
        ("total_borrow", 10, ("PSS+PP", "PSS+CL")),
        ("reml", True, ("MM", "MM.nc")),
    ]
    for method_id in methods
]


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
             r"methods\[0\]: unknown key\(s\) \['tau_scale'\]"),
            ({}, {"methods": [{"method_id": "MAP", "omega": math.nan}]}, r"methods\[0\].*omega"),
            ({}, {"methods": [{"method_id": "PSM", "caliper_mult": math.nan}]},
             r"methods\[0\]: unknown key\(s\) \['caliper_mult'\]"),
            ({}, {"methods": [{"method_id": "PSW", "weight_bounds": [0.05, math.inf]}]},
             r"methods\[0\]: unknown key\(s\) \['weight_bounds'\]"),
            ({}, {"methods": [{"method_id": "PSS+PP", "total_borrow": math.inf}]},
             r"methods\[0\]: unknown key\(s\) \['total_borrow'\]"),
            ({}, {"methods": [{"method_id": "PSS+PP", "total_borrow": 10**400}]},
             r"methods\[0\]: unknown key\(s\) \['total_borrow'\]"),
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
        # cannot become one. The removed option keys stay rejected whatever
        # their value, as unknown keys.
        with pytest.raises(ConfigError, match=field):
            load_config(write_demo_config(tmp_path, top, scenario))

    @pytest.mark.parametrize(
        "key,value,method_id", REMOVED_KEYS, ids=[f"{k}-{m}" for k, _, m in REMOVED_KEYS]
    )
    def test_removed_option_keys_rejected(self, tmp_path, capsys, key, value, method_id):
        path = write_demo_config(tmp_path, {"replicates": 1},
                                 {"methods": [{"method_id": method_id, key: value}]})
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"methods[0]: unknown key(s) ['{key}'] for method {method_id}" in err

    @pytest.mark.parametrize("scenario,message", [
        ({"methods": [{"method_id": ["PSM"]}]},
         "scenarios[0].methods[0].method_id: unknown method ['PSM']"),
        ({"methods": [{"method_id": "MAP", "tau_ladder": [["M"]]}]},
         "scenarios[0].methods[0].tau_ladder: unknown label ['M']"),
        ({"preset": ["single-moderate"]}, "scenarios[0].preset: unknown preset ['single-moderate']"),
        ({"methods": [["PSM"]]}, "scenarios[0].methods[0]: expected a method id or a mapping"),
        ({"methods": [5]}, "scenarios[0].methods[0]: expected a method id or a mapping, not 5"),
    ], ids=["method_id", "tau_ladder", "preset", "method-entry-list", "method-entry-int"])
    def test_lists_where_a_name_belongs_rejected(self, tmp_path, capsys, scenario, message):
        # YAML loads [x] as a list, which no dict lookup accepts as a key
        path = write_demo_config(tmp_path, {"replicates": 1}, scenario)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("coefficients", ["[[1.0]]", "5"], ids=["list", "number"])
    def test_coefficients_must_be_a_mapping(self, tmp_path, capsys, coefficients):
        p = tmp_path / "bad.yaml"
        p.write_text("master_seed: 1\nscenarios:\n  - scenario_id: a\n    n_total: 300\n"
                     f"    coefficients: {coefficients}\n    methods: [PSM]\n")
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "r")]) == 2
        assert "scenarios[0].coefficients: expected a mapping" in capsys.readouterr().err

    def test_readme_run_config_example_loads(self, tmp_path):
        section = README.read_text().split("## Run configs", 1)[1]
        p = tmp_path / "example.yaml"
        p.write_text(section.split("```yaml\n", 1)[1].split("```", 1)[0])
        (scenario,) = load_config(str(p)).scenarios
        assert scenario.scenario_id == "demo-null"
        assert {c.method_id for c in scenario.cells} >= {"MAP", "PSM", "PSW", "PSS+PP", "MM"}

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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64) + 1])
    def test_seeds_outside_64_bits_rejected(self, tmp_path, seed):
        # replicate_rng takes the seed as 64 bits of entropy, so a seed
        # outside them would give the streams of one inside
        with pytest.raises(ConfigError,
                           match=r": master_seed: expected an integer in \[0, 2\*\*64\)"):
            load_config(write_demo_config(tmp_path, {"master_seed": seed}, {}))
        with pytest.raises(ConfigError, match=r"scenarios\[0\]\.master_seed: expected an integer"):
            load_config(write_demo_config(tmp_path, {}, {"master_seed": seed}))
        cfg = load_config(write_demo_config(tmp_path, {}, {}))
        with pytest.raises(ConfigError, match="seed override"):
            apply_overrides(cfg, master_seed=seed)

    def test_seed_range_ends_accepted(self, tmp_path):
        for seed in (0, 2**64 - 1):
            cfg = load_config(write_demo_config(tmp_path, {"master_seed": seed}, {}))
            assert cfg.scenarios[0].master_seed == seed


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

        def counting(psfit):
            calls.append(psfit)
            return stratify(psfit)

        monkeypatch.setattr(borrow, "stratify", counting)
        sc = small_scenario(["PSS+PP", "PSS+CL"], covsets=(1, 3))
        for replicate in range(2):
            calls.clear()
            rows = run_replicate(sc, replicate)
            assert not any(r.failed for r in rows)
            assert len(calls) == 2 and calls[0] is not calls[1]  # one per covset

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

        def counting(dataset, covset, full_rank=False):
            calls.append(covset)
            return estimate_ps(dataset, covset, full_rank)

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

    def test_map_family_inputs_built_once_per_source(self, monkeypatch):
        counts = Counter()
        priors = []

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        for name in ("arm_summaries", "pool_studies", "matched_studies", "weighted_studies"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        map_prior = borrow.map_prior
        stacked_calls = []

        def counting_prior(studies, tau_scales):
            stacked_calls.append(studies.shape[1])
            priors.extend(zip((s.tobytes() for s in studies), tau_scales.tolist()))
            return map_prior(studies, tau_scales)

        monkeypatch.setattr(borrow, "map_prior", counting_prior)
        sc = small_scenario(MAP_FAMILY_METHODS, covsets=(1, 3))
        assert len(sc.cells) == 2 + 5 * 20
        for replicate in range(2):
            counts.clear()
            priors.clear()
            stacked_calls.clear()
            rows = run_replicate(sc, replicate)
            assert not any(r.failed for r in rows)
            # sources: the plain pools, and matched and weighted pools per covset
            assert counts == {"arm_summaries": 1, "pool_studies": 1, "matched_studies": 2,
                              "weighted_studies": 2}
            # one prior per (source, tau scale): five sources, five tau labels,
            # as the rows of one stacked call per study count
            assert len(priors) == len(set(priors)) == 25
            assert sorted(stacked_calls) == sorted(set(stacked_calls))

    def test_essr_filled_against_benchmark(self):
        sc = small_scenario(["PSM", "MAP"], n_total=300)
        rows = run_replicate(sc, 1)
        assert by_key(sc.cells, rows)[("unadj.rc", None, "")].essr_pct is None
        for c, r in zip(sc.cells, rows):
            if c.method_id in ("PSM", "MAP") and not r.failed:
                assert r.essr_pct is not None


# Every MAP-family method with omegas 0, 0.2, 0.5 and 1, each without a
# tau ladder label and with each of L, M, S and XS: 20 cells per source.
MAP_FAMILY_METHODS = [
    {"method_id": method_id, "omegas": [0.0, 0.2, 0.5, 1.0], **tau}
    for method_id in ("MAP", "PSM+MAP", "PSW+MAP")
    for tau in ({}, {"tau_ladder": ["L", "M", "S", "XS"]})
]


def rounded_covariates(ds):
    """``ds`` with every covariate rounded to an integer: subjects that share
    x1..x3 share their covariate-set-3 score exactly."""
    def rounded(group):
        return dataclasses.replace(group, x=np.round(group.x))
    return TrialDataset(rounded(ds.full_concurrent), rounded(ds.reduced_concurrent),
                        tuple(rounded(p) for p in ds.historical))


def match_streams(monkeypatch):
    """A Counter of the ``match:*`` labels whose generator the harness makes."""
    labels = Counter()
    make = harness.replicate_rng

    def counting(seed, sid, replicate, label):
        if label.startswith("match:"):
            labels[label] += 1
        return make(seed, sid, replicate, label)

    monkeypatch.setattr(harness, "replicate_rng", counting)
    return labels


class TestMatchPass:
    """A replicate's match sets come from one pass per propensity fit; a set
    draws its seeded tie-break stream only when a tie can decide a match."""

    @pytest.mark.parametrize("name", ["single-moderate", "multi-moderate"])
    def test_continuous_scores_draw_no_stream(self, monkeypatch, name):
        labels = match_streams(monkeypatch)
        ds = build_replicate(preset(name), 800, np.random.default_rng(14))
        caches = harness._ReplicateCaches(ds, (), "s", 1, 0)
        for covset in (1, 2, 3):
            every, pools = caches.matchset(covset), caches.trial_matchsets(covset)
            assert len(pools) == ds.k_historical
            if ds.k_historical == 1:  # one computation serves both labels
                assert pools[0] is every
        assert labels == Counter()

    @pytest.mark.parametrize("name", ["single-moderate", "multi-moderate"])
    def test_tied_scores_draw_each_sets_own_stream(self, monkeypatch, name):
        labels = match_streams(monkeypatch)
        ds = rounded_covariates(build_replicate(preset(name), 800, np.random.default_rng(12)))
        caches = harness._ReplicateCaches(ds, (), "s", 1, 0)
        every, pools = caches.matchset(3), caches.trial_matchsets(3)
        assert all(p is not every for p in pools)
        want = ["match:c3"] + [f"match:c3:trial{j}" for j in range(1, ds.k_historical + 1)]
        assert labels == Counter(want)


def flat_pools(ds):
    """``ds`` with every historical outcome set to its pool number: no pool
    summary has a positive SE, so the plain source fails and the matched
    and weighted sources keep no study."""
    pools = tuple(dataclasses.replace(p, y=np.full(len(p.y), float(j)))
                  for j, p in enumerate(ds.historical, start=1))
    return TrialDataset(ds.full_concurrent, ds.reduced_concurrent, pools)


def source_studies(ds, method_id, covset, caches):
    """A MAP-family source's (studies, flags), built with the library
    calls on the replicate's own propensity fit, match sets and weights."""
    if method_id == "MAP":
        return borrow.pool_studies(ds), ()
    if method_id == "PSM+MAP":
        return borrow.matched_studies(caches.psfit(covset), caches.trial_matchsets(covset))
    return borrow.weighted_studies(ds, caches.psfit(covset), caches.weightset(covset))


def one_pair_call(ds, cell, caches):
    """A MAP-family cell's one-pair :func:`borrow.map_estimates` call."""
    try:
        studies, flags = source_studies(ds, cell.method_id, cell.covset, caches)
        [got] = borrow.map_estimates(borrow.arm_summaries(ds),
                                     [(studies, [cell.tau_label], [cell.omega], flags)])
    except ValueError as exc:
        got = exc
    return harness._failed_estimate(got) if isinstance(got, ValueError) else got[0]


@pytest.mark.parametrize("name,n_total,flat", [
    ("single-moderate", 400, False), ("multi-moderate", 800, False), ("multi-moderate", 800, True),
], ids=["single-pool", "three-pool", "three-flat-pools"])
def test_map_family_rows_equal_one_cell_calls(name, n_total, flat):
    ds = build_replicate(preset(name), n_total, np.random.default_rng(23))
    if flat:
        ds = flat_pools(ds)
    cells = expand_cells(MAP_FAMILY_METHODS, (1, 3))
    rows = evaluate_cells(ds, cells, "map-family", 5, 0)
    caches = harness._ReplicateCaches(ds, cells, "map-family", 5, 0)
    family = [(c, r) for c, r in zip(cells, rows) if METHODS[c.method_id].map]
    assert len(family) == 100
    for cell, row in family:
        assert row_signature(row) == row_signature(one_pair_call(ds, cell, caches)), cell.key
        if not row.failed:
            numbers = [row.estimate, row.se, *row.diagnostics.values()]
            assert all(type(v) is float for v in numbers) and type(row.reject) is bool
            assert row.interval is None  # no ends were asked for
    forced = {c.method_id for c, r in family if "map:no_studies_forced_omega1" in r.flags}
    failed = {c.method_id for c, r in family if r.failed}
    if flat:  # the failed plain source fails its own cells only
        assert forced == {"PSM+MAP", "PSW+MAP"} and failed == {"MAP"}
        assert not any(r.failed for r in rows[:2])  # unadj.rc and unadj.fc
        assert {r.flags for c, r in family if r.failed} == {
            ("error:ValueError:study summary needs a finite mean and positive se",)}
    else:
        assert not forced and not failed


@pytest.mark.parametrize("config,scenario_id,reps", [
    ("tests/data/golden.yaml", "single-moderate-alt", 3),
    ("tests/data/golden.yaml", "multi-severe-null", 3),
    ("configs/full_grid.yaml", "multi-moderate-null", 1),
])
def test_replicate_wide_pass_equals_one_source_calls(config, scenario_id, reps):
    # The harness evaluates every MAP-family source of a replicate in one
    # core call; each row must equal, to the last bit, the call with its
    # source alone, whichever order the sources come in.
    root = Path(__file__).resolve().parents[1]
    sc = next(s for s in load_config(str(root / config)).scenarios
              if s.scenario_id == scenario_id)
    for replicate in range(reps):
        rng = replicate_rng(sc.master_seed, sc.scenario_id, replicate, "data")
        ds = build_replicate(sc.coeffs, sc.n_total, rng)
        caches = harness._ReplicateCaches(ds, sc.cells, sc.scenario_id, sc.master_seed, replicate)
        by_source: dict = {}
        for c in sc.cells:
            if METHODS[c.method_id].map:
                by_source.setdefault((c.method_id, c.covset), []).append(c)
        sources = [(*source_studies(ds, *source, caches), cells)
                   for source, cells in by_source.items()]
        inputs = [(studies, [c.tau_label for c in cells], [c.omega for c in cells], flags)
                  for studies, flags, cells in sources]
        arms = borrow.arm_summaries(ds)
        alone = [borrow.map_estimates(arms, [src])[0] for src in inputs]
        want = {c: row_signature(r) for (*_, cells), got in zip(sources, alone)
                for c, r in zip(cells, got, strict=True)}
        assert len(want) == sum(METHODS[c.method_id].map for c in sc.cells) >= 10
        for order in (list(range(len(inputs))), list(range(len(inputs)))[::-1]):
            together = borrow.map_estimates(arms, [inputs[i] for i in order])
            for i, got in zip(order, together, strict=True):
                assert [row_signature(r) for r in got] == \
                    [want[c] for c in sources[i][2]], sources[i][2][0].key
        rows = run_replicate(sc, replicate)
        for cell, row in zip(sc.cells, rows):
            if cell in want:
                assert row_signature(row) == want[cell], cell.key


@pytest.mark.parametrize("config,scenario_ids,reps,n_map_rows", [
    ("tests/data/golden.yaml", None, 3, 60),
    ("configs/full_grid.yaml", ("multi-moderate-null",), 1, 28),
], ids=["golden", "tau-ladder"])
def test_cdf_at_zero_decides_as_the_interval_ends(config, scenario_ids, reps, n_map_rows):
    # A MAP-family row rejects from F(0), the posterior CDF of the effect
    # at 0. Asking for the credible-interval ends adds them and moves
    # nothing else, and the interval excludes 0 exactly when the row
    # rejects, wherever an end is not within 1e-9 SD of 0.
    root = Path(__file__).resolve().parents[1]
    scenarios = [s for s in load_config(str(root / config)).scenarios
                 if scenario_ids is None or s.scenario_id in scenario_ids]
    n_rows = n_near = 0
    for sc in scenarios:
        for replicate in range(reps):
            rng = replicate_rng(sc.master_seed, sc.scenario_id, replicate, "data")
            ds = build_replicate(sc.coeffs, sc.n_total, rng)
            args = (ds, sc.cells, sc.scenario_id, sc.master_seed, replicate)
            plain, with_ends = evaluate_cells(*args), evaluate_cells(*args, intervals=True)
            for cell, a, b in zip(sc.cells, plain, with_ends, strict=True):
                if not METHODS[cell.method_id].map or a.failed:
                    assert row_signature(a) == row_signature(b), cell.key
                    continue
                assert a.interval is None and b.interval is not None
                assert row_signature(dataclasses.replace(a, interval=b.interval)) == \
                    row_signature(b)
                lo, hi = b.interval
                n_rows += 1
                if min(abs(lo), abs(hi)) <= 1e-9 * b.se:
                    n_near += 1
                else:
                    assert b.reject == (lo > 0.0 or hi < 0.0), (cell.key, b)
    print(f"\n{n_rows} MAP-family rows, {n_near} with an interval end within 1e-9 SD of 0")
    assert n_rows == n_map_rows and n_near == 0


# Every method, with several MAP-family cells per covariate set, so each
# shared propensity fit, match set, weight set and strata serve many cells.
INDEPENDENCE_METHODS = [
    "PSM", "PSW", {"method_id": "MAP", "omegas": [0.2, 1.0]},
    {"method_id": "PSM+MAP", "omegas": [0.2, 0.5]},
    {"method_id": "PSW+MAP", "omega": 0.5, "tau_ladder": ["S", "L"]},
    "PSS+PP", "PSS+CL", "MM", "MM.nc",
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


def row_reprs(result):
    """Every replicate row to the last bit, from the columns: estimate,
    se, essr and its mask, reject, the failed mark, flags and diagnostics."""
    c = result.columns
    return ([a.tobytes() for a in (c.estimate, c.se, c.essr, c.has_essr, c.reject, c.failed)],
            c.flags, [{name: col.tobytes() for name, col in c.diagnostics(i).items()}
                      for i in range(c.n_cells)])


class TestRunScenario:
    def test_worker_count_does_not_change_results(self):
        # 6 replicates: one, two and three chunks
        sc = small_scenario(["PSM", "MAP"], reps=6, n_total=300)
        a = run_scenario(sc, workers=1)
        for workers in (2, 3):
            b = run_scenario(sc, workers=workers)
            assert row_reprs(b) == row_reprs(a)
            assert a.summary == b.summary
            assert a.failure_fraction == b.failure_fraction
            assert a.flag_counts == b.flag_counts

    def test_shared_pool_equals_a_pool_per_scenario(self):
        # long-lived workers carry nothing from one scenario into the next
        scenarios = [small_scenario(["PSM", "MAP"], reps=6, n_total=300),
                     small_scenario(["PSW", "MAP"], reps=5, n_total=400, seed=12, name="next")]
        fresh = [run_scenario(sc, workers=2) for sc in scenarios]
        with ProcessPoolExecutor(2) as pool:
            shared = [run_scenario(sc, workers=2, pool=pool) for sc in scenarios]
        for a, b in zip(fresh, shared):
            assert row_reprs(b) == row_reprs(a)
            assert (b.summary, b.flag_counts) == (a.summary, a.flag_counts)

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

    def test_degenerate_replicate_fails_its_cells(self):
        # replicate 11 draws 2 concurrent subjects out of 24, too few to
        # randomise: every cell of that replicate fails, and the run goes on
        sc = small_scenario(["PSM", "MAP"], reps=12, n_total=24)
        res = run_scenario(sc)
        assert res.columns.failed.shape == (len(sc.cells), 12)
        assert res.columns.failed[:, 11].all()
        assert {res.columns.flags[i, 11] for i in range(len(sc.cells))} == {
            ("error:ValueError:degenerate replicate: 2 concurrent subjects out of 24",)}
        assert res.flag_counts["MAP|error:ValueError:degenerate replicate: 2 concurrent "
                               "subjects out of 24"] == 1
        assert res.failure_fraction >= 1 / 12
        assert all(r.n_failed >= 1 for r in res.summary)
        # the failed replicate lies in the second of two chunks
        split = run_scenario(sc, workers=2)
        assert row_reprs(split) == row_reprs(res) and split.flag_counts == res.flag_counts

    def test_full_concurrent_benchmark_is_tighter(self):
        sc = small_scenario([], reps=30, n_total=300)
        res = run_scenario(sc)
        se = by_key(sc.cells, res.columns.se)
        assert np.count_nonzero(se[("unadj.fc", None, "")] < se[("unadj.rc", None, "")]) >= 28


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


# Label and flag text with every character csv.writer quotes for, and "%".
LABEL_TEXT = st.text(alphabet=st.sampled_from(list('ab,"%; =\r\n0.')), max_size=8)


def synthetic_rows(cells, n_reps, flag, rng):
    """Rows of ``cells`` on ``n_reps`` replicates: a failed row carrying
    ``flag`` in its error text, flagged rows, rows with and without an
    ESSR."""
    per_replicate = []
    for _ in range(n_reps):
        rows = []
        for i in range(len(cells)):
            kind = rng.integers(4)
            if kind == 0:
                rows.append(harness._failed_estimate(ValueError(flag)))
                continue
            est = float(rng.normal(0.3, 0.2)) * 10.0 ** int(rng.integers(-6, 6))
            rows.append(EffectEstimate(
                est, float(rng.uniform(0.01, 2.0)), bool(rng.integers(2)), None,
                flags=(flag, "map:no_studies_forced_omega1") if kind == 1 else (),
                essr_pct=None if i == 0 or kind == 2 else float(rng.normal(20.0, 30.0))))
        per_replicate.append(rows)
    return per_replicate


@settings(max_examples=60, deadline=None)
@given(sid=LABEL_TEXT, tau=LABEL_TEXT, flag=LABEL_TEXT, seed=st.integers(0, 2**32 - 1))
@example(sid='multi,"severe" 5%', tau="L,caliper=0.2", flag='psm:dropped, "k=3"', seed=0)
def test_writers_equal_the_per_object_writers(sid, tau, flag, seed):
    # raw.csv and summary.csv, formatted from the columns, equal the files
    # the per-object writers make, byte for byte, whatever the labels and
    # flags hold; the second scenario spans three raw.csv batches
    rng = np.random.default_rng(seed)
    cells = (Cell("unadj.rc", None), Cell("PSM+MAP", 1, 0.5, tau), Cell("PSW", 2))
    results, reference = [], []
    for scenario_id, n_reps in ((sid, 3), (sid + ",2", 2 * harness._RAW_BATCH + 1)):
        sc = dataclasses.replace(small_scenario([], reps=n_reps), scenario_id=scenario_id,
                                 cells=cells)
        per_replicate = synthetic_rows(cells, n_reps, flag, rng)
        columns = ReplicateColumns.from_rows(per_replicate, len(cells), n_reps)
        summary = summarize([c.key for c in cells], columns, sc.theta_true, scenario_id)
        results.append(ScenarioResult(sc, summary, columns, {}, 0.0))
        reference.append((sc, per_replicate, summary))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a", "b", "c", "d")]
        write_raw_csv(paths[0], results)
        output_reference.write_raw_csv(paths[1], [(sc, rows) for sc, rows, _ in reference])
        write_summary_csv(paths[2], results)
        output_reference.write_summary_csv(paths[3], [summary for *_, summary in reference])
        raw, raw_want, summ, summ_want = (Path(p).read_bytes() for p in paths)
    assert raw == raw_want
    assert summ == summ_want


# A parent that holds next to nothing spawns `hybridctl run` (its output to
# /dev/null) and prints the run's peak RSS in KiB from wait4. A child's
# ru_maxrss starts from what its parent held when it was spawned, so the
# parent must be bare for the figure to be the run's own.
BARE_PARENT = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "hybridctl.cli", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def test_peak_memory_grows_by_under_150_bytes_a_raw_row(tmp_path):
    # One single-pool scenario of 46 cheap MAP-family cells: a second run
    # with 450 more replicates writes 20 700 more raw rows. Both runs fill
    # a whole raw.csv batch, so only the held rows differ. Each row is
    # held as per-cell columns: 27 bytes and 8 per diagnostic (7 for MAP).
    config = tmp_path / "mem.yaml"
    config.write_text(yaml.safe_dump({"master_seed": 3, "scenarios": [{
        "scenario_id": "mem", "preset": "single-moderate", "n_total": 120, "covsets": [1],
        "methods": [{"method_id": "MAP", "omegas": [i / 10 for i in range(11)],
                     "tau_ladder": ["L", "M", "S", "XS"]}]}]}))
    peak = {}
    for reps in (70, 520):
        out = subprocess.run(
            [sys.executable, "-S", "-c", BARE_PARENT, "run", "--config", str(config),
             "--reps", str(reps), "--out", str(tmp_path / f"out{reps}")],
            env=src_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=60)
        kib, rc = map(int, out.stdout.split())
        assert rc == 0, out.stderr
        peak[reps] = kib * 1024
    rows = (520 - 70) * 46
    assert len((tmp_path / "out520" / "raw.csv").read_text().splitlines()) == 1 + 520 * 46
    per_row = (peak[520] - peak[70]) / rows
    print(f"\npeak RSS {peak[70] / 2**20:.1f} -> {peak[520] / 2**20:.1f} MiB, "
          f"{per_row:.0f} B per raw row")
    assert per_row < 150


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


TWO_SCENARIO_CONFIG = """
master_seed: 12
replicates: 4
scenarios:
  - scenario_id: first
    preset: single-moderate
    n_total: 300
    covsets: [1]
    methods: [PSM, MAP]
  - scenario_id: second
    preset: multi-moderate
    n_total: 400
    covsets: [1]
    methods: [PSW, MAP]
"""

OUTPUT_FILES = ("raw.csv", "summary.csv", "diagnostics.json")


def write_subjects_csv(path, ds):
    """``ds`` as a subjects CSV with ids, its concurrent trial first."""
    with open(path, "w") as fh:
        fh.write("id,trial,z,y," + ",".join(f"x{j+1}" for j in range(ds.full_concurrent.x.shape[1]))
                 + "\n")
        for group in (ds.full_concurrent, *ds.historical):
            for i, x, z, t, y in zip(group.ids, group.x, group.z, group.trial, group.y):
                xs = ",".join("%.10g" % v for v in x)
                fh.write(f"{i},{t},{z},{y:.10g},{xs}\n")
    return path


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

    def test_run_survives_degenerate_replicates(self, tmp_path, capsys):
        # 100 replicates of 24 subjects: several draw under 4 concurrent
        # subjects. Their rows fail, count toward the failure fraction and
        # come out the same with one and two workers.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("master_seed: 11\nreplicates: 100\nscenarios:\n"
                       "  - scenario_id: small\n    preset: single-moderate\n"
                       "    n_total: 24\n    covsets: [1]\n    methods: [PSM]\n")
        files = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            code = cli.main(["run", "--config", str(cfg), "--threads", str(threads),
                             "--out", str(out)])
            assert code == 3
            assert "exceeds threshold" in capsys.readouterr().err
            files[threads] = [(out / f).read_bytes()
                              for f in ("raw.csv", "summary.csv", "diagnostics.json")]
        assert files[1] == files[2]
        raw = files[1][0].decode().splitlines()
        assert len(raw) == 1 + 100 * 3
        degenerate = [line for line in raw if "degenerate replicate" in line]
        assert len(degenerate) == 3 * 5  # replicates 11, 16, 21, 29 and 63

    def test_one_pool_per_run(self, tmp_path, monkeypatch, capsys):
        opened = []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Counting)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", Counting)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(TWO_SCENARIO_CONFIG)
        out = tmp_path / "r"
        assert cli.main(["run", "--config", str(cfg), "--reps", "4", "--threads", "2",
                         "--out", str(out)]) == 0
        assert len(opened) == 1
        assert multiprocessing.active_children() == []
        assert all((out / name).exists() for name in OUTPUT_FILES)

    def test_worker_bug_fails_loudly_and_cleans_up(self, tmp_path, monkeypatch, capsys):
        # the workers fork after the patch, so they inherit it
        real = harness.run_replicate

        def buggy(scenario, replicate):
            if (scenario.scenario_id, replicate) == ("second", 3):
                raise RuntimeError("bug in replicate 3")
            return real(scenario, replicate)

        monkeypatch.setattr(harness, "run_replicate", buggy)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(TWO_SCENARIO_CONFIG)
        out = tmp_path / "r"
        with pytest.raises(RuntimeError, match="bug in replicate 3"):
            cli.main(["run", "--config", str(cfg), "--threads", "2", "--out", str(out)])
        assert capsys.readouterr().out.count("running ") == 2
        assert not any((out / name).exists() for name in OUTPUT_FILES)
        assert multiprocessing.active_children() == []

    def test_closed_stdout_ends_the_run_quietly(self, tmp_path):
        # as under `hybridctl run ... | head -1`: the second progress line
        # meets a closed pipe once the first scenario's workers are forked
        cfg = tmp_path / "c.yaml"
        cfg.write_text(TWO_SCENARIO_CONFIG)
        with subprocess.Popen(
                [sys.executable, "-m", "hybridctl.cli", "run", "--config", str(cfg),
                 "--threads", "2", "--out", str(tmp_path / "r")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
                start_new_session=True) as proc:
            assert proc.stdout.readline().startswith(b"running first:")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode != 0
        assert b"Traceback" not in err
        with pytest.raises(ProcessLookupError):  # no process is left in its group
            os.killpg(proc.pid, 0)

    @pytest.mark.parametrize("argv", [["run", "--config", "CFG", "--seed", "-1"],
                                      ["run", "--config", "CFG", "--seed", str(2**64)],
                                      ["analyze", "--data", "DATA", "--seed", "-1"],
                                      ["analyze", "--data", "DATA", "--seed", str(2**64)]])
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys, argv):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CLI_CONFIG)
        ds = build_replicate(preset("single-moderate"), 300, np.random.default_rng(8))
        data = write_subjects_csv(tmp_path / "subjects.csv", ds)
        argv = [{"CFG": str(cfg), "DATA": str(data)}.get(a, a) for a in argv]
        assert cli.main(argv + (["--out", str(tmp_path / "r")] if argv[0] == "run" else [])) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_table_missing_summary_is_config_error(self, tmp_path, capsys):
        assert cli.main(["table", "--in", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row,message", [
        ("quick-null,MAP", "line 3: column 'covset' is missing"),
        ("quick-null,MAP,,omega=0.5,abc,,0.05,0.2,,,20,0", "line 3: column 'bias' is not a number"),
        ("quick-null,MAP,1.5,omega=0.5,0.1,,0.05,0.2,,,20,0",
         "line 3: column 'covset' is not an integer: '1.5'"),
        ("quick-null," + "M" * 200_000, "line 3: field larger than field limit"),
        ("quick-null,PSM,1,,0.1,,0.05,0.2,50.5,49.1,20,0,7,8",
         "line 3: 2 field(s) beyond the header"),
    ], ids=["short-row", "not-a-number", "not-an-integer", "oversized-field", "long-row"])
    def test_table_rejects_unreadable_rows(self, tmp_path, capsys, row, message):
        good = "quick-null,PSM,1,,0.1,,0.05,0.2,50.5,49.1,20,0"
        (tmp_path / "summary.csv").write_text(f"{SUMMARY_HEADER}\n{good}\n{row}\n")
        assert cli.main(["table", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count(str(tmp_path / "summary.csv")) == 1

    def test_analyze_subjects_csv(self, tmp_path, capsys):
        ds = build_replicate(preset("single-moderate"), 300, np.random.default_rng(8))
        path = write_subjects_csv(tmp_path / "subjects.csv", ds)
        code = cli.main(["analyze", "--data", str(path),
                         "--methods", "unadj.rc,PSM,MAP", "--covset", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "unadj.rc" in out and "PSM [c1]" in out and "MAP(omega=0.5)" in out
        assert "estimate=" in out and "reject=" in out

    def test_analyze_every_method_id(self, tmp_path, capsys):
        ds = build_replicate(preset("multi-moderate"), 800, np.random.default_rng(12))
        path = write_subjects_csv(tmp_path / "subjects.csv", ds)
        assert cli.main(["analyze", "--data", str(path), "--methods", ",".join(METHODS)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(METHODS) == 11
        assert all(line.startswith(m) for line, m in zip(lines, METHODS)), lines
        assert all("estimate=" in line and "failed" not in line for line in lines), lines

    @pytest.mark.parametrize("name,n_total,seed", [
        ("multi-moderate", 800, 12), ("single-moderate", 400, 8),
    ], ids=["three-pool", "single-pool"])
    def test_analyze_text_is_pinned(self, tmp_path, capsys, name, n_total, seed):
        # tests/data/analyze_<name>.txt is the text of `analyze` with all 11
        # method ids when the MAP-family interval ends were solved by
        # Newton's method; the bisection that solves them now prints it
        # byte for byte. The file name seeds the match tie-breaking.
        ds = build_replicate(preset(name), n_total, np.random.default_rng(seed))
        path = write_subjects_csv(tmp_path / "subjects.csv", ds)
        code = cli.main(["analyze", "--data", str(path), "--methods", ",".join(METHODS)])
        assert code == 0
        want = (Path(__file__).parent / "data" / f"analyze_{name}.txt").read_text()
        assert capsys.readouterr().out == want

    def test_analyze_tied_scores_text_is_pinned(self, tmp_path, capsys, monkeypatch):
        # Covariates rounded to integers make the covariate-set-3 scores tie
        # exactly, so every match set takes the tie step and draws its stream.
        # tests/data/analyze_ties.txt is the text of the matcher that shuffled
        # every set, whether or not a tie could decide a match.
        ds = build_replicate(preset("multi-moderate"), 800, np.random.default_rng(12))
        path = write_subjects_csv(tmp_path / "subjects.csv", rounded_covariates(ds))
        labels = match_streams(monkeypatch)
        code = cli.main(["analyze", "--data", str(path), "--covset", "3",
                         "--methods", "unadj.rc,PSM,PSM+MAP,PSW"])
        assert code == 0
        want = (Path(__file__).parent / "data" / "analyze_ties.txt").read_text()
        assert capsys.readouterr().out == want
        assert labels == Counter(["match:c3", "match:c3:trial1", "match:c3:trial2",
                                  "match:c3:trial3"])

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

    def test_analyze_one_historical_subject_fails_the_map_family(self, tmp_path):
        # the unit SD needs two historical subjects: with one, the three
        # MAP-family rows fail with that reason, and no numpy warning
        # reaches stderr or, as an error, ends the run
        path = tmp_path / "one.csv"
        path.write_text("trial,z,y,x1\n0,1,1.2,0.3\n0,1,0.7,-0.4\n0,1,1.9,1.1\n"
                        "0,0,0.1,0.5\n0,0,-0.3,-1.2\n0,0,0.4,0.2\n1,0,0.2,0.1\n")
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hybridctl.cli", "analyze",
             "--data", str(path), "--methods", "unadj.rc,MAP,PSM+MAP,PSW+MAP"],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert out.returncode == 0 and out.stderr == ""
        failed = [line.split()[0] for line in out.stdout.splitlines()
                  if "failed: error:ValueError:need at least two observations" in line]
        assert failed == ["MAP(omega=0.5)", "PSM+MAP(omega=0.5)", "PSW+MAP(omega=0.5)"]

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
        ("0,0,0.2," + "1" * 200_000, "line 3: field larger than field limit"),
        ("0,0,0.2,0.1,0.3", "line 3: 1 field(s) beyond the header"),
    ], ids=["short-row", "not-a-number", "oversized-field", "long-row"])
    def test_analyze_rejects_unreadable_fields(self, tmp_path, capsys, row, message):
        path = tmp_path / "subjects.csv"
        path.write_text(f"trial,z,y,x1\n0,1,0.5,0.1\n{row}\n1,0,0.3,0.2\n")
        assert cli.main(["analyze", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("row,message", [
        ("0,0,abc,0.2", "line 4: column 'y' is not a number: 'abc'"),
        ("0,0,0.4,inf", "line 4: column 'x1' is not finite"),
    ], ids=["not-a-number", "not-finite"])
    def test_analyze_errors_name_physical_lines(self, tmp_path, capsys, row, message):
        # the quoted y of the first record spans lines 2 and 3
        path = tmp_path / "subjects.csv"
        path.write_text(f'trial,z,y,x1\n0,1,"0.5\n",0.1\n{row}\n1,0,0.3,0.2\n')
        assert cli.main(["analyze", "--data", str(path)]) == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("column", ["y", "x1", "trial"])
    def test_analyze_rejects_repeated_column(self, tmp_path, capsys, column):
        # a trailing copy of a column would otherwise shadow the first one
        ds = build_replicate(preset("multi-moderate"), 800, np.random.default_rng(12))
        path = write_subjects_csv(tmp_path / "subjects.csv", ds)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([f"{header},{column}"] + [f"{r},0" for r in rows]) + "\n")
        assert cli.main(["analyze", "--data", str(path),
                         "--methods", "unadj.rc,PSM,MAP,MM"]) == 2
        err = capsys.readouterr().err
        assert f"line 1: column '{column}' is repeated" in err
        assert err.count(str(path)) == 1

    def test_run_out_that_cannot_be_created_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CLI_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        for out in (taken, taken / "sub"):
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: --out: ")
            assert str(taken) in captured.err
            assert "running" not in captured.out
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("name", ["raw.csv", "summary.csv", "diagnostics.json"])
    def test_run_output_path_that_is_a_directory_is_config_error(
            self, tmp_path, capsys, monkeypatch, name):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CLI_CONFIG)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        earlier = {other: f"earlier {other}\n" for other in ("raw.csv", "summary.csv",
                                                             "diagnostics.json") if other != name}
        for other, text in earlier.items():
            (out / other).write_text(text)

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran before the output paths were checked")

        monkeypatch.setattr(harness, "run_scenario", no_replicates)
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out: {out / name} is a directory\n"
        assert "running" not in captured.out
        assert {p.name: p.read_text() for p in out.iterdir() if p.is_file()} == earlier

    def test_analyze_missing_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert cli.main(["analyze", "--data", str(path)]) == 2
        assert capsys.readouterr().err.count(str(path)) == 1
