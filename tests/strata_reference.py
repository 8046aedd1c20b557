"""Array reference for ``borrow.build_strata``.

Gathers each stratum's outcomes with boolean masks, merges the strata by
concatenating arrays (an invalid stratum into its left neighbour, the
invalid leading ones into the first valid stratum), and takes every
table entry from the gathered array: its size, ``np.mean`` and the
ddof-1 SD, squared and times n - 1 for the centred sum of squares. It
shares no code with the program's bincount table but ``stratify``.
"""

import numpy as np

from hybridctl.borrow import Strata
from hybridctl.propensity import N_STRATA, stratify


def gathered_strata(psfit):
    """Each merged stratum's (treated, control, historical) outcomes, the
    neighbour's first, and the merge flags."""
    labels, s = stratify(psfit), psfit.sample
    conc = s.trial == 0
    arms, flags, leading = [], [], None
    for k in range(N_STRATA):
        at = labels == k
        st = (s.y[at & conc & (s.z == 1)], s.y[at & conc & (s.z == 0)], s.y[at & ~conc])
        if leading is not None:
            st, leading = tuple(map(np.concatenate, zip(st, leading))), None
        if st[0].size >= 2 and st[1].size >= 2:
            arms.append(st)
        elif arms:
            flags.append(f"pss:merged_stratum_{len(arms)}")
            arms[-1] = tuple(map(np.concatenate, zip(arms[-1], st)))
        elif k < N_STRATA - 1:
            flags.append("pss:merged_stratum_0")
            leading = st
        else:
            raise ValueError("cannot form any stratum with both concurrent arms populated")
    return arms, tuple(flags)


def table(arms, flags):
    """The Strata table of gathered arms."""
    def entry(y):
        if y.size == 0:
            return 0, 0.0, 0.0
        sd = y.std(ddof=1) if y.size > 1 else 0.0
        return y.size, y.mean(), sd * sd * (y.size - 1)

    cells = np.array([[entry(y) for y in st] for st in arms], dtype=float).reshape(-1, 3, 3)
    return Strata(n=cells[..., 0].astype(int), mean=cells[..., 1], ss=cells[..., 2],
                  flags=tuple(flags))
