"""Golden output: every method id on a fixed config reproduces a stored raw.csv.

``data/golden.yaml`` runs all eleven method ids on a single-pool and a
three-pool scenario (covariate sets 1 and 3, three replicates), and
``data/golden_raw.csv`` is that config's ``raw.csv``. A refactor must
reproduce it: labels, flags and reject decisions exactly, numbers to a
relative 1e-9.
"""

import csv
import math
from pathlib import Path

from hybridctl.harness import load_config, run_scenario, write_raw_csv

DATA = Path(__file__).resolve().parent / "data"
NUMERIC = ("estimate", "se", "essr_pct")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def same_number(a: str, b: str) -> bool:
    if a == b:
        return True
    if "" in (a, b) or "nan" in (a, b):
        return False
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=0.0)


def test_raw_csv_matches_golden(tmp_path):
    cfg = load_config(str(DATA / "golden.yaml"))
    out = tmp_path / "raw.csv"
    write_raw_csv(str(out), [run_scenario(s) for s in cfg.scenarios])

    got = read_rows(out)
    want = read_rows(DATA / "golden_raw.csv")
    assert len({r["method_id"] for r in want}) == 11
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys()
        for col in w:
            if col in NUMERIC:
                assert same_number(g[col], w[col]), (i, col, g[col], w[col])
            else:
                assert g[col] == w[col], (i, col, g[col], w[col])
