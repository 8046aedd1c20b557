"""Per-replicate estimate records and operating-characteristic summaries.

An ``EffectEstimate`` is what an estimator computes on one replicate;
it carries no method label. The harness fixes each cell's label
(method id, covariate set, hyperparameter label) and lines estimates
up with it, then folds each replicate's estimates into a scenario's
``ReplicateColumns``, one row of each array per cell; ``summarize``
takes the labels as its ``keys`` and reads those columns.

Bias, rejection rate, and the effective sample size ratio (ESSR). A
row's ESSR is not stored: :func:`row_essr` derives it from the squared
standard errors of the row and of the unadjusted reduced-concurrent
benchmark on the same replicate, and ``summarize`` averages it over the
replicates; an across-replicate empirical-variance variant is reported
alongside it.

The Wald test (:func:`wald_estimate`) compares |estimate / se| with
``Z_CRIT``, the normal quantile at 1 - ``ALPHA``/2, held as a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ALPHA",
    "EffectEstimate",
    "ReplicateColumns",
    "SummaryRow",
    "wald_estimate",
    "failed_estimate",
    "rel_bias_pct",
    "essr",
    "row_essr",
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

    Its ESSR depends on the replicate's benchmark row, so it is derived
    from the columns (:func:`row_essr`), not kept here. A failed
    evaluation keeps a row, which :func:`failed_estimate` builds. A
    MAP-family row's ``interval`` is None unless its ends were asked for
    (``harness.evaluate_cells``).
    """

    estimate: float
    se: float
    reject: bool
    interval: tuple[float, float] | None
    flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)
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


def failed_estimate(exc: Exception) -> EffectEstimate:
    """The row of an evaluation that raised ``exc``: NaN estimate and SE,
    no rejection, a NaN interval, ``failed`` set and the one flag
    ``error:<exception type>:<first 120 characters of the message>``."""
    nan = float("nan")
    return EffectEstimate(estimate=nan, se=nan, reject=False, interval=(nan, nan),
                          flags=(f"error:{type(exc).__name__}:{str(exc)[:120]}",), failed=True)


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


def rel_bias_pct(bias_value: float, theta_true: float) -> float | None:
    """Relative bias in percent; undefined (None) when the true effect is zero."""
    if theta_true == 0:
        return None
    return 100.0 * bias_value / theta_true


def essr(var_no_borrow: float | np.ndarray, var_borrow: float | np.ndarray) -> float | np.ndarray:
    """Effective sample size ratio in percent: (var_nb / var_b - 1) * 100,
    elementwise for arrays; NaN where a variance is NaN."""
    if np.any(var_no_borrow <= 0) or np.any(var_borrow <= 0):
        raise ValueError("variances must be positive")
    return (var_no_borrow / var_borrow - 1.0) * 100.0


class ReplicateColumns:
    """One scenario's replicate rows, folded into per-cell columns.

    Every array is C-ordered, replicates along its second axis:
    ``estimate[i, r]`` is cell i on replicate r, and so are ``se``,
    ``reject`` and ``failed``. A failed row keeps its NaN estimate and
    SE. ``flags`` holds only the rows that have flags, by (cell,
    replicate). Each diagnostic a cell reported is one float64 row of
    ``diag_values``, ``diag_slots[cell, name]`` its index, NaN where a
    row lacks it (see :meth:`diagnostics`). A row takes 18 bytes, plus 8
    for each diagnostic of its cell and a dict entry when it has flags;
    its ESSR is derived from ``se`` and ``failed`` (:func:`row_essr`).
    A new instance holds ``n_reps`` replicates of ``n_cells`` cells,
    every one NaN and unflagged until it is put.
    """

    def __init__(self, n_cells: int, n_reps: int):
        shape = (n_cells, n_reps)
        self.estimate, self.se = np.full(shape, np.nan), np.full(shape, np.nan)
        self.reject, self.failed = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        self.flags: dict[tuple[int, int], tuple[str, ...]] = {}
        self.diag_slots: dict[tuple[int, str], int] = {}
        self.diag_values = np.empty((0, n_reps))
        # the diagnostic names of each row of the last replicate put, and
        # the diag_values row of each of its values in that order
        self._layout: list[tuple[str, ...]] | None = None
        self._index = np.empty(0, dtype=np.intp)

    @classmethod
    def from_rows(cls, per_replicate: Iterable[Sequence[EffectEstimate]], n_cells: int,
                  n_reps: int) -> ReplicateColumns:
        """Fold ``per_replicate[r][i]``, cell i on replicate r, replicate
        by replicate, so a generator's rows are dropped as they are folded."""
        columns = cls(n_cells, n_reps)
        count = 0
        for count, rows in enumerate(per_replicate, 1):
            if count > n_reps:
                raise ValueError(f"more than {n_reps} replicates")
            columns.put(count - 1, rows)
        if count != n_reps:
            raise ValueError(f"{count} replicates for {n_reps} columns")
        return columns

    @property
    def n_cells(self) -> int:
        return self.estimate.shape[0]

    @property
    def n_reps(self) -> int:
        return self.estimate.shape[1]

    def diagnostics(self, cell: int) -> dict[str, np.ndarray]:
        """Each diagnostic of ``cell``, by name: its column over the
        replicates, NaN where a row lacks it."""
        return {name: self.diag_values[slot]
                for (i, name), slot in self.diag_slots.items() if i == cell}

    def _slots(self, keys: list[tuple[int, str]]) -> np.ndarray:
        """The diag_values row of each (cell, name), a new one added as NaN."""
        new = [key for key in keys if key not in self.diag_slots]
        if new:
            for key in new:
                self.diag_slots[key] = len(self.diag_slots)
            self.diag_values = np.vstack([self.diag_values,
                                          np.full((len(new), self.n_reps), np.nan)])
        return np.array([self.diag_slots[key] for key in keys], dtype=np.intp)

    def put(self, r: int, rows: Sequence[EffectEstimate]) -> None:
        """Fold one replicate's rows, ``rows[i]`` being cell i, into column r."""
        if len(rows) != self.n_cells:
            raise ValueError(f"replicate has {len(rows)} rows for {self.n_cells} cells")
        self.estimate[:, r] = [e.estimate for e in rows]
        self.se[:, r] = [e.se for e in rows]
        self.reject[:, r] = [e.reject for e in rows]
        self.failed[:, r] = [e.failed for e in rows]
        for i, e in enumerate(rows):
            if e.flags:
                self.flags[i, r] = e.flags
        # Rows keep their diagnostic names from one replicate to the next,
        # so the slots are looked up only when the names change.
        layout = [tuple(e.diagnostics) for e in rows]
        if layout != self._layout:
            self._index = self._slots([(i, name) for i, names in enumerate(layout)
                                       for name in names])
            self._layout = layout
        self.diag_values[self._index, r] = [v for e in rows for v in e.diagnostics.values()]

    def put_block(self, lo: int, block: ReplicateColumns) -> None:
        """Copy ``block``'s replicates into columns ``lo`` onwards."""
        hi = lo + block.n_reps
        for name in ("estimate", "se", "reject", "failed"):
            getattr(self, name)[:, lo:hi] = getattr(block, name)
        self.flags.update(((i, lo + r), f) for (i, r), f in block.flags.items())
        slots = self._slots(list(block.diag_slots))  # may grow diag_values
        self.diag_values[slots, lo:hi] = block.diag_values[list(block.diag_slots.values())]


def row_essr(keys: Sequence[tuple[str, int | None, str]], columns: ReplicateColumns) -> np.ndarray:
    """Every row's ESSR, ``essr(se_rc^2, se^2)`` against the replicate's
    unadjusted reduced-concurrent row (``UNADJ_RC_KEY`` of ``keys``), as
    an array shaped like the columns. It is NaN on the benchmark's own
    row, on failed rows, on rows whose SE^2 is not positive (NaN
    included), and on every row of a replicate whose benchmark failed or
    has no positive SE^2, or of a scenario without the benchmark.
    """
    if UNADJ_RC_KEY not in keys:
        return np.full(columns.se.shape, np.nan)
    rc = keys.index(UNADJ_RC_KEY)
    var = columns.se * columns.se
    var[columns.failed | ~(var > 0)] = np.nan  # the rows that have no ESSR
    rc_var = var[rc].copy()
    var[rc] = np.nan
    return essr(rc_var, var)


def _empirical_var(vals: np.ndarray) -> float | None:
    if vals.size < 2:
        return None
    return float(np.var(vals, ddof=1))


def summarize(
    keys: Sequence[tuple[str, int | None, str]],
    columns: ReplicateColumns,
    theta_true: float,
    scenario_id: str,
) -> list[SummaryRow]:
    """Aggregate a scenario's columns into one summary row per method cell.

    ``keys`` are the cells' (method_id, covset_id, hyperparam) labels;
    row i of every column is cell ``keys[i]``, and the summary rows come
    out in ``keys`` order. A row is used when it did not fail and its
    estimate is finite; the others count in ``n_failed``. Sums use
    ``math.fsum`` so the result does not depend on replicate ordering.
    The empirical ESSR compares across-replicate estimate variances
    (``ddof=1``) against the unadjusted reduced-concurrent cell
    (``UNADJ_RC_KEY``), each over its own used replicates: one
    ``np.var`` call takes every cell whose replicates are all used, and
    each other cell is compressed to its used replicates first. The mean
    ESSR of a cell is over its used rows that have one (:func:`row_essr`).
    """
    est = columns.estimate
    n_cells, n_reps = columns.n_cells, columns.n_reps
    if n_cells != len(keys):
        raise ValueError(f"columns hold {n_cells} cells for {len(keys)} keys")
    used = ~columns.failed & np.isfinite(est)
    n_used = np.count_nonzero(used, axis=1).tolist()
    whole = [n == n_reps for n in n_used]
    var: list[float | None] = [None] * n_cells
    if n_reps >= 2 and any(whole):
        rows = [i for i in range(n_cells) if whole[i]]
        block = est if len(rows) == n_cells else est[rows]
        for i, v in zip(rows, np.var(block, axis=1, ddof=1).tolist()):
            var[i] = v
    for i in range(n_cells):
        if not whole[i]:
            var[i] = _empirical_var(est[i, used[i]])
    rc_var = var[keys.index(UNADJ_RC_KEY)] if UNADJ_RC_KEY in keys else None

    n_reject = np.count_nonzero(columns.reject & used, axis=1).tolist()
    essr_rows = row_essr(keys, columns)
    with_essr = ~np.isnan(essr_rows) & used
    n_essr = np.count_nonzero(with_essr, axis=1).tolist()
    nan = float("nan")
    out = []
    for i, (method_id, covset, hyperparam) in enumerate(keys):
        n = n_used[i]
        if not n:
            out.append(SummaryRow(scenario_id, method_id, covset, hyperparam, bias=nan,
                                  rel_bias_pct=None, reject_rate=nan, mean_se=nan,
                                  essr_pct=None, essr_empirical_pct=None, n_used=0,
                                  n_failed=n_reps))
            continue
        m = slice(None) if whole[i] else used[i]
        b = math.fsum((est[i, m] - theta_true).tolist()) / n
        essr_pct = None
        if n_essr[i]:
            vals = essr_rows[i, slice(None) if n_essr[i] == n_reps else with_essr[i]]
            essr_pct = math.fsum(vals.tolist()) / n_essr[i]
        own_var = var[i]
        emp = None
        if rc_var is not None and own_var is not None and own_var > 0:
            emp = (rc_var / own_var - 1.0) * 100.0
        out.append(SummaryRow(
            scenario_id=scenario_id,
            method_id=method_id,
            covset_id=covset,
            hyperparam=hyperparam,
            bias=b,
            rel_bias_pct=rel_bias_pct(b, theta_true),
            reject_rate=n_reject[i] / n,
            mean_se=math.fsum(columns.se[i, m].tolist()) / n,
            essr_pct=essr_pct,
            essr_empirical_pct=emp,
            n_used=n,
            n_failed=n_reps - n,
        ))
    return out
