"""Tolerance oracle: the exact normal-mixture MAP path against the grid.

``grid_reference`` keeps the MAP pipeline as it was computed on a
4001-point theta grid, with the same tau quadrature. Every MAP-family
study source (the plain pools, and the matched and the weighted pools)
of a dataset goes through one ``borrow.map_estimates`` call, with all of
its (tau-ladder label, omega) pairs and their credible-interval ends
(``borrow.credible_interval``), and once through ``grid_reference.estimate_map``
per pair, fed the same study array and flags. That covers single- and
multi-pool data, every omega in OMEGAS, every tau ladder label and the
label-less default, plus one fit with no studies.

The grid as it was spans 10 (se + tau) about each study, which cuts off
the tails of the widest tau components: on single-pool matched and
weighted summaries with tau label L that moves the estimate by up to
about 5e-6 posterior SD. On a grid stretched to twice that span the two
paths agree to about 2e-9 SD, so the tolerance is checked there; on the
grid as it was every reject decision must still agree.
"""

import numpy as np
import pytest

import grid_reference
from hybridctl.borrow import (
    arm_summaries, map_estimates, matched_studies, pool_studies, weighted_studies,
)
from hybridctl.propensity import estimate_ps, ipw_weights, match_nearest
from hybridctl.trialdata import build_replicate, preset, preset_n_total

OMEGAS = (0.0, 0.2, 0.5, 1.0)
TAU_LABELS = (None, "L", "M", "S", "XS")
DATASETS = (("single-moderate", 1), ("single-severe", 2), ("multi-severe", 3))
TOL_SD = 1e-6
CONFIGS = [(omega, label) for omega in OMEGAS for label in TAU_LABELS]


@pytest.fixture(scope="module")
def fit_inputs():
    inputs = []
    for i, (name, covset) in enumerate(DATASETS):
        ds = build_replicate(preset(name), preset_n_total(name), np.random.default_rng(40 + i))
        psfit = estimate_ps(ds, covset)
        matchsets = [
            match_nearest(psfit, j, rng=lambda: np.random.default_rng(50 + i))
            for j in range(1, ds.k_historical + 1)
        ]
        inputs.append((ds, psfit, matchsets, ipw_weights(psfit)))
    return inputs


def paired_fits(fit_inputs, support):
    """(map_estimates row, grid fit) pairs over every source of every dataset."""
    pairs = []
    for ds, psfit, matchsets, weights in fit_inputs:
        arms = arm_summaries(ds)
        sources = [((np.empty((0, 2)), ()), [(0.5, None)]), ((pool_studies(ds), ()), CONFIGS),
                   (matched_studies(psfit, matchsets), CONFIGS),
                   (weighted_studies(ds, psfit, weights), CONFIGS)]
        batch = map_estimates(arms, [(studies, [t for _, t in cfgs],
                                      [omega for omega, _ in cfgs], flags)
                                     for (studies, flags), cfgs in sources], intervals=True)
        for ((studies, flags), cfgs), exact in zip(sources, batch, strict=True):
            grid = [grid_reference.estimate_map(ds, omega, label, studies=studies,
                                                extra_flags=flags, support=support)
                    for omega, label in cfgs]
            pairs += zip(exact, grid, strict=True)
    assert len(pairs) == 183
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


def test_mixture_path_within_tolerance_of_wide_grid(fit_inputs):
    pairs = paired_fits(fit_inputs, support=2.0)
    check_decisions(pairs)
    worst = worst_deviation(pairs)
    print(f"\n{len(pairs)} fits against the wide grid, worst |diff| in SD: {worst}")
    for what, value in worst.items():
        assert value <= TOL_SD, f"{what} differs by {value:.2e} SD"


def test_mixture_path_keeps_grid_decisions(fit_inputs):
    pairs = paired_fits(fit_inputs, support=1.0)
    check_decisions(pairs)
    print(f"\n{len(pairs)} fits against the grid as it was, worst |diff| in SD: "
          f"{worst_deviation(pairs)}")
