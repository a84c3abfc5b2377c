"""A fixed reference kernel that measures how fast the machine is right now.

Wall times on a shared host drift by tens of percent over minutes as other
tenants load it, far more than a change to graphnls needs to show.  The
worker runs this kernel before every pass, in the same thread, and reports
the median pass time in units of the median kernel time as well as in
seconds.  The kernel uses numpy and scipy only, never graphnls, so a change
to the package moves the pass time and leaves the kernel alone.

The kernel mixes the three kinds of work the workloads do: a sparse LU
factorization whose dense border row causes fill (memory traffic, as in the
bordered Newton solves), short elementwise numpy expressions on a few
thousand values (as in ``nonlinear_term``), and interpreter-bound loops.
One run takes about 0.5 s and holds tens of MB, so the worker reads its
peak RSS before the first kernel run.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

N = 3000
REPS = 2
LOOP_N = 2_500_000


class Calibration:
    def __init__(self) -> None:
        tri = sp.diags([-np.ones(N - 1), 2.5 * np.ones(N), -np.ones(N - 1)], [-1, 0, 1],
                       format="csc")
        border = np.random.default_rng(0).standard_normal(N)
        self.matrix = sp.bmat([[tri, border[:, None]], [border[None, :], None]], format="csc")
        self.x0 = np.linspace(0.0, 1.0, N)

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            splu(self.matrix)
            x = self.x0.copy()
            for _ in range(150):
                m = 0.5 * (x[:-1] + x[1:])
                x[1:] = 0.999 * x[1:] + 1e-3 * np.abs(m) ** 2.0 * m
            s = 0
            for i in range(30000):
                s += i & 7
        return time.perf_counter() - t0


def loop_seconds() -> float:
    """Wall time of a short pure-interpreter loop (about 0.1 s).

    Set-up is mostly importing modules, which is interpreter work; each
    fresh set-up process runs this loop right after its set-up, and the set-up
    time is reported in units of it (see ``run.py``)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i & 7
    return time.perf_counter() - t0
