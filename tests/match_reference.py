"""Shuffle-first nearest-neighbour matching, the reference for
``propensity.match_nearest``.

A verbatim copy of the matcher that shuffled every candidate set: it
permutes the candidates with ``rng`` whether or not a tie can decide a
match, sorts the shuffled rows by score, and breaks distance ties by
shuffle position. The one-pass matcher must give the same pairs and
caliper on every input, drawing the same stream when it draws one.
"""

import numpy as np

from hybridctl.propensity import CALIPER_MULT, MatchSet, PsFit


def match_nearest(
    psfit: PsFit, historical_rows: np.ndarray, rng: np.random.Generator | None = None
) -> MatchSet:
    """1:1 nearest-neighbor matching with replacement under a caliper.

    Every concurrent row of the sample is matched to the candidate among
    ``historical_rows`` with the closest propensity score; pairs farther
    apart than the caliper (``CALIPER_MULT`` times the pooled-score SD)
    are discarded and the subject left unmatched. Distance ties go to the
    candidate drawn earliest in a seeded shuffle, which makes reruns
    reproducible.
    """
    caliper = CALIPER_MULT * float(np.std(psfit.ps, ddof=1))

    c_rows = np.flatnonzero(psfit.is_concurrent)
    h_rows = np.asarray(historical_rows, dtype=np.intp)
    if h_rows.size == 0:
        return MatchSet(c_rows[:0], h_rows, caliper)
    ps_c = psfit.ps[c_rows]

    shuffled = h_rows[rng.permutation(h_rows.size)] if rng is not None else h_rows
    sort_in_shuffled = np.argsort(psfit.ps[shuffled], kind="stable")
    sorted_rows = shuffled[sort_in_shuffled]
    sorted_ps = psfit.ps[sorted_rows]
    priority = sort_in_shuffled  # position in the shuffle; lower wins ties

    m = sorted_ps.size
    j = np.searchsorted(sorted_ps, ps_c)
    left = np.clip(j - 1, 0, m - 1)
    right = np.clip(j, 0, m - 1)
    dist_left = np.where(j > 0, np.abs(ps_c - sorted_ps[left]), np.inf)
    dist_right = np.where(j < m, np.abs(sorted_ps[right] - ps_c), np.inf)

    # each neighbour's run of equal scores is represented by its head, the
    # first of the run in the stable sort and so the best priority; the
    # right neighbour, the first score >= ps_c, is one already
    rep_left = np.searchsorted(sorted_ps, sorted_ps[left])
    rep_right = right
    take_right = (dist_right < dist_left) | (
        (dist_right == dist_left) & (priority[rep_right] < priority[rep_left])
    )
    chosen = np.where(take_right, rep_right, rep_left)
    within = np.where(take_right, dist_right, dist_left) <= caliper
    return MatchSet(c_rows[within], sorted_rows[chosen[within]], caliper)

