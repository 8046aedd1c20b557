"""Tolerance oracle: the exact normal-mixture MAP path against the grid.

``grid_reference`` keeps the MAP pipeline as it was computed on a
4001-point theta grid, with the same tau quadrature. Every MAP-family
estimator runs once through the package and once with
``borrow.estimate_map`` swapped for the grid version (the matched and
weighted variants look it up by name), over single- and multi-pool data,
every omega in OMEGAS, every tau ladder label and the label-less default.

The grid as it was spans 10 (se + tau) about each study, which cuts off
the tails of the widest tau components: on single-pool matched and
weighted summaries with tau label L that moves the estimate by up to
about 5e-6 posterior SD. On a grid stretched to twice that span the two
paths agree to about 2e-9 SD, so the tolerance is checked there; on the
grid as it was every reject decision must still agree.
"""

import functools

import numpy as np
import pytest

import grid_reference
from hybridctl import borrow
from hybridctl.borrow import MapConfig
from hybridctl.propensity import estimate_ps, ipw_weights, match_nearest
from hybridctl.trialdata import build_replicate, preset, preset_n_total

OMEGAS = (0.0, 0.2, 0.5, 1.0)
TAU_LABELS = (None, "L", "M", "S", "XS")
DATASETS = (("single-moderate", 1), ("single-severe", 2), ("multi-severe", 3))
TOL_SD = 1e-6


def all_fits(ds, psfit, matchsets, weights):
    """Every MAP-family fit of one dataset, through ``borrow.estimate_map``."""
    out = [borrow.estimate_map(ds, MapConfig(omega=0.5), studies=[])]
    for omega in OMEGAS:
        for label in TAU_LABELS:
            cfg = MapConfig(omega=omega, tau_ladder_label=label)
            out.append(borrow.estimate_map(ds, cfg))
            out.append(borrow.estimate_psm_map(ds, cfg, psfit=psfit, matchsets=matchsets))
            out.append(borrow.estimate_psw_map(ds, cfg, psfit=psfit, weights=weights))
    return out


@pytest.fixture(scope="module")
def fit_inputs():
    inputs = []
    for i, (name, covset) in enumerate(DATASETS):
        ds = build_replicate(preset(name), preset_n_total(name), np.random.default_rng(40 + i))
        psfit = estimate_ps(ds, covset)
        matchsets = [
            match_nearest(psfit, np.flatnonzero(psfit.sample.trial == j),
                          rng=np.random.default_rng(50 + i))
            for j in range(1, ds.k_historical + 1)
        ]
        inputs.append((ds, psfit, matchsets, ipw_weights(psfit)))
    return inputs


def paired_fits(fit_inputs, monkeypatch, support):
    pairs = []
    for args in fit_inputs:
        exact = all_fits(*args)
        with monkeypatch.context() as m:
            m.setattr(borrow, "estimate_map",
                      functools.partial(grid_reference.estimate_map, support=support))
            grid = all_fits(*args)
        pairs += zip(exact, grid)
    assert len(pairs) >= 150
    return pairs


def check_decisions(pairs):
    """Equal reject decisions wherever every interval end is clear of 0."""
    decided = 0
    for a, b in pairs:
        assert a.flags == b.flags
        if min(abs(e) for e in (*a.interval, *b.interval)) > TOL_SD * a.se:
            decided += 1
            assert a.reject == b.reject, (a, b)
    assert decided > 0.9 * len(pairs)


def worst_deviation(pairs):
    """Largest |difference| of estimate, se and interval ends, in posterior SDs."""
    worst = {"estimate": 0.0, "se": 0.0, "interval": 0.0}
    for a, b in pairs:
        worst["estimate"] = max(worst["estimate"], abs(a.estimate - b.estimate) / a.se)
        worst["se"] = max(worst["se"], abs(a.se - b.se) / a.se)
        worst["interval"] = max(
            worst["interval"], *(abs(x - y) / a.se for x, y in zip(a.interval, b.interval))
        )
    return worst


def test_mixture_path_within_tolerance_of_wide_grid(fit_inputs, monkeypatch):
    pairs = paired_fits(fit_inputs, monkeypatch, support=2.0)
    check_decisions(pairs)
    worst = worst_deviation(pairs)
    print(f"\n{len(pairs)} fits against the wide grid, worst |diff| in SD: {worst}")
    for what, value in worst.items():
        assert value <= TOL_SD, f"{what} differs by {value:.2e} SD"


def test_mixture_path_keeps_grid_decisions(fit_inputs, monkeypatch):
    pairs = paired_fits(fit_inputs, monkeypatch, support=1.0)
    check_decisions(pairs)
    print(f"\n{len(pairs)} fits against the grid as it was, worst |diff| in SD: "
          f"{worst_deviation(pairs)}")
