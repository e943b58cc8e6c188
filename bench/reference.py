"""Host speed reference for the ldpcsim benchmark.

The benchmark host is shared: its speed moves by 30% or more within
seconds, and every operation moves with it.  This kernel does the same
kinds of work as the operations (numpy gathers and segmented reductions on
a 252x504 graph, and a scalar two-minimum loop over Python floats) but calls
nothing of the package, so no change to ldpcsim can change its time.  The
benchmark times it between operations and scales each operation's sample by
REF_SECONDS over the reference times taken around it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Nominal time of one `reference_seconds()` call; scaled figures read as on
# a host where the kernel takes this long.
REF_SECONDS = 0.0013

_rng = np.random.default_rng(7)
_EDGE_VAR = _rng.permutation(np.repeat(np.arange(504), 3))
_STARTS = np.arange(0, 1512, 6)
_DEGS = np.full(252, 6)
_PRIOR = _rng.normal(2.0, 1.5, 504)


def reference_seconds() -> float:
    """One timed pass of the kernel."""
    t0 = perf_counter()
    total = _PRIOR.copy()
    msg = np.zeros(len(_EDGE_VAR))
    for _ in range(4):
        d = total[_EDGE_VAR] - msg
        sign = np.where(d < 0.0, -1.0, 1.0)
        row_min = np.minimum.reduceat(np.abs(d), _STARTS)
        row_sign = np.multiply.reduceat(sign, _STARTS)
        msg = np.repeat(row_sign * row_min, _DEGS) * sign
        total = _PRIOR + np.bincount(_EDGE_VAR, weights=msg, minlength=len(_PRIOR))
    values = d.tolist()
    out = []
    for lo in range(0, len(values), 6):
        seg = values[lo : lo + 6]
        min1 = min2 = float("inf")
        argmin = -1
        sign_all = 1.0
        for i, x in enumerate(seg):
            sign_all *= -1.0 if x < 0 else 1.0
            a = -x if x < 0 else x
            if a < min1:
                min2, min1, argmin = min1, a, i
            elif a < min2:
                min2 = a
        for i, x in enumerate(seg):
            out.append(sign_all * (min2 if i == argmin else min1))
    acc = 0.0
    for i in range(8000):
        acc += -i * 0.5 if i & 1 else i * 0.25
    return perf_counter() - t0

