"""Per-object summary and CSV writers, the reference for the columnar ones.

Verbatim copies of ``metrics.summarize``, ``harness.write_raw_csv`` and
``harness.write_summary_csv`` as they were when a scenario kept every
replicate row as an ``EffectEstimate``: ``per_replicate[r][i]`` is cell i
on replicate r. The summary walks the objects cell by cell and takes one
``np.var`` per cell; the writers format each field with ``_num`` and let
``csv.writer`` quote every row. The columnar code must give equal
``SummaryRow``s and byte-identical files.
"""

import csv
import math
from dataclasses import replace

import numpy as np

from hybridctl.harness import _SUMMARY_COLUMNS, RAW_HEADER, SUMMARY_HEADER
from hybridctl.metrics import UNADJ_RC_KEY, SummaryRow, bias, rel_bias_pct, reject_rate


def _empirical_var(vals):
    if len(vals) < 2:
        return None
    return float(np.var(np.asarray(vals), ddof=1))


def summarize(keys, per_replicate, theta_true, scenario_id):
    used = [[] for _ in keys]
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


def _num(x):
    if x is None:
        return ""
    return "%.10g" % x


def write_raw_csv(path, results):
    """``results``: (scenario, per_replicate) pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER.split(","))
        for scenario, per_replicate in results:
            sid = scenario.scenario_id
            for r, rows in enumerate(per_replicate):
                for cell, est in zip(scenario.cells, rows):
                    writer.writerow([
                        sid,
                        r,
                        cell.method_id,
                        "" if cell.covset is None else cell.covset,
                        cell.hyperparam,
                        _num(est.estimate),
                        _num(est.se),
                        int(est.reject),
                        _num(est.essr_pct),
                        ";".join(est.flags),
                    ])


def write_summary_csv(path, summaries):
    """``summaries``: one list of ``SummaryRow``s per scenario."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER.split(","))
        for summary in summaries:
            for row in summary:
                values = (getattr(row, field) for _, field, *_ in _SUMMARY_COLUMNS)
                writer.writerow([_num(v) if v is None or isinstance(v, float) else v
                                 for v in values])
