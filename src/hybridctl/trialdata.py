"""Subject-level data for hybrid controlled trials.

A replicate starts from ``n`` subjects with six independent standard
normal covariates. Trial membership (one concurrent randomized trial
plus k >= 1 historical control pools) follows one multinomial-logit
selection model on the covariates, of which the single pool's logistic
model is the k = 1 case. The concurrent trial is randomized 1:1 by
exact permutation, and outcomes follow a linear model with an additive
treatment effect and unit-variance noise.
The reduced (2:1) concurrent design drops a uniform random half of the
concurrent controls; the dropped information is what borrowing methods
try to recover from the historical pools.

External subject-level data enters through a CSV reader.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

N_COVARIATES = 6

__all__ = [
    "SubjectGroup",
    "TrialDataset",
    "GenCoefficients",
    "PRESETS",
    "preset",
    "preset_n_total",
    "build_replicate",
    "load_subjects_csv",
]


# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubjectGroup:
    """Column-oriented collection of subjects, one row per subject.
    Subjects carry no ids: a subject is its row.

    Attributes
    ----------
    x : (n, p) float array of covariates.
    z : (n,) int array, 1 = treated, 0 = control.
    trial : (n,) int array, 0 = concurrent, 1..k = historical pool.
    y : (n,) float array of outcomes.
    """

    x: np.ndarray
    z: np.ndarray
    trial: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        n = self.y.shape[0]
        if self.x.ndim != 2 or self.x.shape[0] != n:
            raise ValueError("covariate matrix does not match subject count")
        for name in ("z", "trial", "y"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column '{name}' does not match subject count")

    def __len__(self) -> int:
        return int(self.y.shape[0])

    def take(self, index: np.ndarray) -> "SubjectGroup":
        return SubjectGroup(
            x=self.x[index],
            z=self.z[index],
            trial=self.trial[index],
            y=self.y[index],
        )

    @staticmethod
    def concat(groups: "list[SubjectGroup] | tuple[SubjectGroup, ...]") -> "SubjectGroup":
        if not groups:
            raise ValueError("cannot concatenate zero subject groups")
        return SubjectGroup(
            x=np.vstack([g.x for g in groups]),
            z=np.concatenate([g.z for g in groups]),
            trial=np.concatenate([g.trial for g in groups]),
            y=np.concatenate([g.y for g in groups]),
        )


@dataclass(frozen=True)
class TrialDataset:
    """One replicate partitioned the way the estimators consume it.

    ``full_concurrent`` is the 1:1 randomized concurrent trial,
    ``reduced_concurrent`` the same trial after dropping half of its
    controls (the 2:1 hybrid design), and ``historical`` the k control
    pools (all subjects untreated). Concurrent subjects carry trial
    label 0 and pool j's subjects label j.

    ``pooled`` is the analysis sample every borrowing estimator works
    on: the reduced concurrent trial followed by pools 1..k. Estimators
    address subjects by their row in it.
    """

    full_concurrent: SubjectGroup
    reduced_concurrent: SubjectGroup
    historical: tuple[SubjectGroup, ...]

    def __post_init__(self) -> None:
        if len(self.historical) == 0:
            raise ValueError("dataset needs at least one historical pool")
        for name in ("full_concurrent", "reduced_concurrent"):
            if not np.all(getattr(self, name).trial == 0):
                raise ValueError(f"{name} needs trial label 0 on every subject")
        for j, pool in enumerate(self.historical, start=1):
            if not np.all(pool.trial == j):
                raise ValueError(f"historical pool {j} needs trial label {j} on every subject")
            if len(pool) and not np.all(pool.z == 0):
                raise ValueError(f"historical pool {j} contains treated subjects")

    @property
    def k_historical(self) -> int:
        return len(self.historical)

    @cached_property
    def pooled(self) -> SubjectGroup:
        return SubjectGroup.concat([self.reduced_concurrent, *self.historical])


# ---------------------------------------------------------------------------
# Generating coefficients and presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenCoefficients:
    """Coefficients of the outcome and trial-membership models.

    ``beta0`` (k,) and ``beta`` (k, 6) are the selection model: row j is
    historical pool j's log-odds against the concurrent trial, for k >= 1
    pools. The single-pool spelling, a scalar ``beta0`` and a (6,)
    ``beta``, is the logistic model of being concurrent, P(concurrent) =
    expit(beta0 + x . beta); it is stored in the first form, k = 1, by
    exact negation.
    """

    alpha0: float
    alpha: np.ndarray
    theta_treat: float
    beta0: np.ndarray
    beta: np.ndarray
    sigma_e: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        scalar = np.ndim(self.beta0) == 0
        if not scalar:
            object.__setattr__(self, "beta0", np.asarray(self.beta0, dtype=float))
        if self.alpha.shape != (N_COVARIATES,):
            raise ValueError("alpha must have one entry per covariate")
        if self.sigma_e < 0:
            raise ValueError("sigma_e must be non-negative")
        if scalar:
            if self.beta.shape != (N_COVARIATES,):
                raise ValueError("beta must be a 6-vector when beta0 is scalar")
            object.__setattr__(self, "beta0", -np.array([self.beta0], dtype=float))
            object.__setattr__(self, "beta", -self.beta[None, :])
        elif self.beta0.ndim != 1 or self.k_historical < 1:
            raise ValueError("beta0 must be a scalar or a non-empty vector")
        elif self.beta.shape != (self.k_historical, N_COVARIATES):
            raise ValueError("beta must be (k, 6) when beta0 is a k-vector")

    @property
    def k_historical(self) -> int:
        return self.beta0.size

    def with_theta(self, theta: float) -> "GenCoefficients":
        return replace(self, theta_treat=float(theta))


PRESETS: dict[str, GenCoefficients] = {
    # Single historical pool, moderate covariate imbalance.
    "single-moderate": GenCoefficients(
        alpha0=1.0,
        alpha=np.full(N_COVARIATES, 0.2),
        theta_treat=0.35,
        beta0=-0.78,
        beta=np.full(N_COVARIATES, 0.3),
    ),
    # Single historical pool, severe covariate imbalance.
    "single-severe": GenCoefficients(
        alpha0=1.0,
        alpha=np.full(N_COVARIATES, 0.5),
        theta_treat=0.5,
        beta0=-0.9,
        beta=np.full(N_COVARIATES, 0.5),
    ),
    # Three historical pools, moderate between-trial heterogeneity.
    "multi-moderate": GenCoefficients(
        alpha0=1.2,
        alpha=np.full(N_COVARIATES, 0.5),
        theta_treat=0.5,
        beta0=np.array([0.8, -1.0, -0.7]),
        beta=np.array(
            [
                np.full(N_COVARIATES, 0.1),
                np.full(N_COVARIATES, 0.0),
                np.full(N_COVARIATES, -0.1),
            ]
        ),
    ),
    # Three historical pools, severe between-trial heterogeneity.
    "multi-severe": GenCoefficients(
        alpha0=1.0,
        alpha=np.full(N_COVARIATES, 0.5),
        theta_treat=0.5,
        beta0=np.array([-1.0, -0.1, 0.2]),
        beta=np.array(
            [
                np.full(N_COVARIATES, 0.1),
                np.full(N_COVARIATES, 0.4),
                np.full(N_COVARIATES, -0.2),
            ]
        ),
    ),
}


def preset(name: str) -> GenCoefficients:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset '{name}' (known presets: {known})") from None


def preset_n_total(name: str) -> int:
    """Default total subject count paired with a preset."""
    return 1200 if preset(name).k_historical == 1 else 1600


# ---------------------------------------------------------------------------
# Generation steps
# ---------------------------------------------------------------------------


def gen_covariates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, 6) matrix of independent standard normal covariates."""
    if n < 1:
        raise ValueError("need at least one subject")
    return rng.standard_normal((n, N_COVARIATES))


def trial_probabilities(
    X: np.ndarray, beta0: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Membership probabilities (n, k+1); column 0 is the concurrent trial.

    Each historical pool j gets odds exp(beta0_j + beta_j . x) relative
    to the concurrent trial, so p_concurrent = 1 / (1 + sum_j exp(...)).
    """
    lin = np.asarray(beta0, dtype=float)[None, :] + X @ np.asarray(beta, dtype=float).T
    # subtract the rowwise max (including the implicit 0 for concurrent)
    top = np.maximum(lin.max(axis=1), 0.0)
    num = np.exp(lin - top[:, None])
    base = np.exp(-top)
    denom = base + num.sum(axis=1)
    probs = np.empty((X.shape[0], lin.shape[1] + 1))
    probs[:, 0] = base / denom
    probs[:, 1:] = num / denom[:, None]
    return probs


def assign_trials(
    X: np.ndarray, beta0: np.ndarray, beta: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample trial labels 0..k from the multinomial-logit model."""
    probs = trial_probabilities(X, beta0, beta)
    cum = np.cumsum(probs, axis=1)
    u = rng.random(X.shape[0])
    labels = (u[:, None] >= cum).sum(axis=1)
    return np.minimum(labels, probs.shape[1] - 1)


def gen_outcomes(
    X: np.ndarray, z: np.ndarray, coeffs: GenCoefficients, rng: np.random.Generator
) -> np.ndarray:
    """Linear outcomes y = alpha0 + theta z + x . alpha + e, e ~ N(0, sigma_e^2)."""
    if X.shape[0] != z.shape[0]:
        raise ValueError("covariates and treatment vector disagree on n")
    noise = coeffs.sigma_e * rng.standard_normal(X.shape[0])
    return coeffs.alpha0 + coeffs.theta_treat * z + X @ coeffs.alpha + noise


def build_replicate(
    coeffs: GenCoefficients, n_total: int, rng: np.random.Generator
) -> TrialDataset:
    """Generate one full replicate.

    Steps, in fixed RNG order: draw covariates, assign trial labels,
    randomize the concurrent trial 1:1 by exact permutation (odd counts
    give one extra treated subject), draw outcomes, then drop a uniform
    half of the concurrent controls to form the reduced design.
    Historical subjects are always untreated.
    """
    k = coeffs.k_historical
    X = gen_covariates(n_total, rng)
    labels = assign_trials(X, coeffs.beta0, coeffs.beta, rng)

    conc_idx = np.flatnonzero(labels == 0)
    n_conc = conc_idx.size
    if n_conc < 4 or n_conc > n_total - 2:
        raise ValueError(
            f"degenerate replicate: {n_conc} concurrent subjects out of {n_total}"
        )
    z = np.zeros(n_total, dtype=int)
    n_treat = (n_conc + 1) // 2
    perm = rng.permutation(conc_idx)
    z[perm[:n_treat]] = 1

    y = gen_outcomes(X, z, coeffs, rng)
    everyone = SubjectGroup(x=X, z=z, trial=labels, y=y)

    full_concurrent = everyone.take(conc_idx)
    ctrl_idx = conc_idx[z[conc_idx] == 0]
    m = ctrl_idx.size
    kept = np.sort(rng.choice(ctrl_idx, size=m // 2, replace=False))
    reduced_idx = np.sort(np.concatenate([conc_idx[z[conc_idx] == 1], kept]))
    reduced_concurrent = everyone.take(reduced_idx)

    pools = tuple(everyone.take(np.flatnonzero(labels == j)) for j in range(1, k + 1))
    return TrialDataset(
        full_concurrent=full_concurrent,
        reduced_concurrent=reduced_concurrent,
        historical=pools,
    )


# ---------------------------------------------------------------------------
# External data ingestion
# ---------------------------------------------------------------------------


def _field(line: int, row: dict, col: str, parse):
    """One CSV field parsed, or a ValueError naming its line and column; a
    row longer than the header is a ValueError naming its line."""
    if None in row:  # csv.DictReader files the fields beyond the header under None
        raise ValueError(f"line {line}: {len(row[None])} field(s) beyond the header")
    value = row[col]
    if value is None:  # csv.DictReader's filler for the fields a short row lacks
        raise ValueError(f"line {line}: column '{col}' is missing")
    try:
        return parse(value)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"line {line}: column '{col}' is not {kind}: {value!r}") from None


def _record(cols: list[str], fields: list[str]) -> dict:
    """``fields`` keyed as ``csv.DictReader`` keys them: fields beyond the
    header under None, and None for the columns a short row lacks."""
    row = dict(zip(cols, fields + [None] * (len(cols) - len(fields))))
    if len(fields) > len(cols):
        row[None] = fields[len(cols):]
    return row


def load_subjects_csv(path: str) -> TrialDataset:
    """Read subject-level data from a CSV file.

    Expected columns: ``trial`` (0 = concurrent, 1..k = historical pool),
    ``z`` (0/1; must be 0 for historical subjects), ``y``, covariates
    ``x1..xp`` (p >= 1), and optionally ``id``: integers that must be
    unique (a blank id stands for the row's index), checked and then not
    kept. The ``x<k>`` columns must be exactly x1..xp; a gap or a stray
    number is an error naming the missing column. A column name that the header repeats is an error
    naming it.
    A field that is missing (a short row) or does not parse, and a
    non-finite ``y`` or covariate (nan, inf), is an error naming the
    first line and column that hold one; a row with more fields than the
    header is an error naming its line; a line the CSV reader rejects
    (such as a field over its size limit) is an error naming the line.
    Error messages leave the file name to the caller.
    The concurrent trial is analyzed as-is, so the full and reduced
    designs coincide for external data.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        records = []  # (first physical line, row): a quoted field may span lines
        try:
            cols = next(reader, None)
            end = reader.line_num
            for fields in reader:
                if fields:  # a blank line holds no record
                    records.append((end + 1, _record(cols, fields)))
                end = reader.line_num
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    if cols is None:
        raise ValueError("empty file")
    repeated = [c for c, n in Counter(cols).items() if n > 1]
    if repeated:
        raise ValueError(f"line 1: column '{repeated[0]}' is repeated")
    for required in ("trial", "z", "y"):
        if required not in cols:
            raise ValueError(f"missing required column '{required}'")
    found = [c for c in cols if re.fullmatch(r"x\d+", c)]
    if not found:
        raise ValueError("no covariate columns x1..xp found")
    xcols = [f"x{j}" for j in range(1, len(found) + 1)]
    gap = next((c for c in xcols if c not in found), None)
    if gap is not None:
        raise ValueError(f"covariates must be x1..{xcols[-1]}; '{gap}' is missing")
    if not records:
        raise ValueError("no subject rows")

    ids = {i if row.get("id", "") == "" else _field(line, row, "id", int)
           for i, (line, row) in enumerate(records)}
    if len(ids) != len(records):
        raise ValueError("subject ids are not unique")
    trial = np.array([_field(line, row, "trial", int) for line, row in records])
    z = np.array([_field(line, row, "z", int) for line, row in records])
    y = np.array([_field(line, row, "y", float) for line, row in records])
    x = np.array([[_field(line, row, c, float) for c in xcols] for line, row in records])
    bad = np.argwhere(~np.isfinite(np.column_stack([y, x])))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"line {records[i][0]}: column '{(['y'] + xcols)[j]}' is not finite")

    if np.any((z != 0) & (z != 1)):
        raise ValueError("column 'z' must be 0/1")
    k = int(trial.max())
    if trial.min() < 0 or k < 1:
        raise ValueError("need trial labels 0 (concurrent) and 1..k (historical)")
    everyone = SubjectGroup(x=x, z=z, trial=trial, y=y)
    conc = everyone.take(np.flatnonzero(trial == 0))
    if len(conc) == 0 or not (np.any(conc.z == 1) and np.any(conc.z == 0)):
        raise ValueError("concurrent trial needs both treated and control subjects")
    pools = []
    for j in range(1, k + 1):
        pool = everyone.take(np.flatnonzero(trial == j))
        if len(pool) == 0:
            raise ValueError(f"historical pool {j} is empty")
        pools.append(pool)
    return TrialDataset(
        full_concurrent=conc, reduced_concurrent=conc, historical=tuple(pools)
    )
