"""Host-speed calibration for the end-to-end times.

The speed of a shared host drifts: a fixed CPU loop on a 2-vCPU Intel Xeon
KVM guest took 0.30–0.70 s over minutes, in user time as much as in wall
time, so no statistic taken inside one 30-s run removes it. The benchmark
therefore times a fixed kernel right before and after every command run
and scales that run's times by REFERENCE_S / (mean of the two kernel
times): a time in "reference seconds", the time the run would take on a
host where the kernel takes REFERENCE_S. The kernel uses only numpy and
scipy, never femupdate, so a change to the program cannot move it.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Median kernel time on the host the benchmark was built on; any fixed
# value works, this one keeps reference seconds close to seconds there.
REFERENCE_S = 0.5
_LOOP = 1_200_000
_FACTORIZATIONS = 10


class Calibrator:
    """The fixed kernel: a Python loop plus sparse LU of a 3D Laplacian,
    like femupdate's mix of interpreter work and factorization."""

    def __init__(self, n: int = 14):
        eye = sp.identity(n)
        lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._matrix = (
            sp.kron(sp.kron(lap1, eye), eye) + sp.kron(sp.kron(eye, lap1), eye) + sp.kron(sp.kron(eye, eye), lap1)
        ).tocsc()
        self._rhs = np.ones(self._matrix.shape[0])

    def time_kernel(self) -> float:
        start = time.monotonic()
        total = 0
        for i in range(_LOOP):
            total += i * i
        for _ in range(_FACTORIZATIONS):
            splu(self._matrix).solve(self._rhs)
        return time.monotonic() - start
