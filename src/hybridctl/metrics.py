"""Per-replicate estimate records and operating-characteristic summaries.

An ``EffectEstimate`` is what an estimator computes on one replicate;
it carries no method label. The harness fixes each cell's label
(method id, covariate set, hyperparameter label) and lines estimates
up with it, so ``summarize`` takes the labels as its ``keys``.

Bias, rejection rate, and the effective sample size ratio (ESSR). The
primary ESSR is computed per replicate from the squared standard errors
of a method and of the unadjusted reduced-concurrent benchmark on the
same data, then averaged; an across-replicate empirical-variance
variant is reported alongside it.

The Wald test (:func:`wald_estimate`) compares |estimate / se| with
``Z_CRIT``, the normal quantile at 1 - ``ALPHA``/2, held as a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ALPHA",
    "EffectEstimate",
    "SummaryRow",
    "wald_estimate",
    "rel_bias_pct",
    "reject_rate",
    "essr",
    "summarize",
]

# Two-sided level of every test and credible interval the estimators report
# (a MAP-family row decides from F(0): see borrow.effect_posterior).
ALPHA = 0.05

# The normal quantile at 1 - ALPHA/2, as the double that scipy.special.ndtri
# returns for 0.975 (statistics.NormalDist gives one ulp less).
Z_CRIT = 1.959963984540054

UNADJ_RC_KEY = ("unadj.rc", None, "")


@dataclass
class EffectEstimate:
    """One method's result on one replicate, without its cell label.

    ``essr_pct`` is filled in by the harness from the squared standard
    errors once the replicate's no-borrowing benchmark is known. Failed
    evaluations keep a row (``failed=True``) with NaN numerics and an
    explanatory flag. A MAP-family row's ``interval`` is None unless its
    ends were asked for (``harness.evaluate_cells``).
    """

    estimate: float
    se: float
    reject: bool
    interval: tuple[float, float] | None
    flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    essr_pct: float | None = None
    failed: bool = False


def wald_estimate(
    est: float,
    se: float,
    flags: tuple[str, ...] = (),
    diagnostics: dict | None = None,
) -> EffectEstimate:
    """Normal-reference result: two-sided Wald test and central interval at
    level ``ALPHA``. The test is strict: ``|est / se|`` equal to the
    critical value ``Z_CRIT`` does not reject."""
    if not np.isfinite(se) or se <= 0:
        raise ValueError("standard error must be positive and finite")
    half = Z_CRIT * se
    return EffectEstimate(
        estimate=est,
        se=se,
        reject=bool(abs(est / se) > Z_CRIT),
        interval=(est - half, est + half),
        flags=flags,
        diagnostics=diagnostics or {},
    )


@dataclass(frozen=True)
class SummaryRow:
    scenario_id: str
    method_id: str
    covset_id: int | None
    hyperparam: str
    bias: float
    rel_bias_pct: float | None
    reject_rate: float
    mean_se: float
    essr_pct: float | None
    essr_empirical_pct: float | None
    n_used: int
    n_failed: int

    @property
    def key(self) -> tuple[str, int | None, str]:
        return (self.method_id, self.covset_id, self.hyperparam)


def bias(estimates: Iterable[float], theta_true: float) -> float:
    vals = [float(e) for e in estimates]
    if not vals:
        raise ValueError("need at least one estimate")
    return math.fsum(v - theta_true for v in vals) / len(vals)


def rel_bias_pct(bias_value: float, theta_true: float) -> float | None:
    """Relative bias in percent; undefined (None) when the true effect is zero."""
    if theta_true == 0:
        return None
    return 100.0 * bias_value / theta_true


def reject_rate(rejections: Iterable[bool]) -> float:
    flags = [bool(r) for r in rejections]
    if not flags:
        raise ValueError("need at least one decision")
    return sum(flags) / len(flags)


def essr(var_no_borrow: float, var_borrow: float) -> float:
    """Effective sample size ratio in percent: (var_nb / var_b - 1) * 100."""
    if not (var_no_borrow > 0 and var_borrow > 0):
        raise ValueError("variances must be positive")
    return (var_no_borrow / var_borrow - 1.0) * 100.0


def _empirical_var(vals: Sequence[float]) -> float | None:
    if len(vals) < 2:
        return None
    return float(np.var(np.asarray(vals), ddof=1))


def summarize(
    keys: Sequence[tuple[str, int | None, str]],
    per_replicate: Sequence[Sequence[EffectEstimate]],
    theta_true: float,
    scenario_id: str,
) -> list[SummaryRow]:
    """Aggregate replicate-level rows into one summary row per method cell.

    ``keys`` are the cells' (method_id, covset_id, hyperparam) labels;
    ``per_replicate[r][i]`` is cell ``keys[i]`` on replicate r, and the
    rows come out in ``keys`` order. Sums use ``math.fsum`` so the result
    does not depend on replicate ordering. The empirical ESSR compares
    across-replicate estimate variances against the unadjusted
    reduced-concurrent cell (``UNADJ_RC_KEY``), each over its own
    non-failed replicates.
    """
    used: list[list[EffectEstimate]] = [[] for _ in keys]
    n_failed = [0] * len(keys)
    for rows in per_replicate:
        if len(rows) != len(keys):
            raise ValueError(f"replicate has {len(rows)} rows for {len(keys)} cells")
        for i, est in enumerate(rows):
            if est.failed or not np.isfinite(est.estimate):
                n_failed[i] += 1
            else:
                used[i].append(est)

    rc_var = None
    if UNADJ_RC_KEY in keys:
        rc_var = _empirical_var([e.estimate for e in used[keys.index(UNADJ_RC_KEY)]])

    out = []
    for (method_id, covset, hyperparam), cell_used, cell_failed in zip(keys, used, n_failed):
        row = SummaryRow(
            scenario_id=scenario_id,
            method_id=method_id,
            covset_id=covset,
            hyperparam=hyperparam,
            bias=float("nan"),
            rel_bias_pct=None,
            reject_rate=float("nan"),
            mean_se=float("nan"),
            essr_pct=None,
            essr_empirical_pct=None,
            n_used=len(cell_used),
            n_failed=cell_failed,
        )
        if cell_used:
            b = bias([e.estimate for e in cell_used], theta_true)
            essr_vals = [e.essr_pct for e in cell_used if e.essr_pct is not None]
            own_var = _empirical_var([e.estimate for e in cell_used])
            emp = None
            if rc_var is not None and own_var is not None and own_var > 0:
                emp = (rc_var / own_var - 1.0) * 100.0
            row = replace(
                row,
                bias=b,
                rel_bias_pct=rel_bias_pct(b, theta_true),
                reject_rate=reject_rate([e.reject for e in cell_used]),
                mean_se=math.fsum(e.se for e in cell_used) / len(cell_used),
                essr_pct=(math.fsum(essr_vals) / len(essr_vals)) if essr_vals else None,
                essr_empirical_pct=emp,
            )
        out.append(row)
    return out
