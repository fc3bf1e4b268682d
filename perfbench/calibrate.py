"""Host-speed calibration for the blockpd benchmark.

The host this benchmark was tuned on (a 2-vCPU Intel Xeon virtual machine)
runs the same code at speeds up to 2x apart, in phases lasting from a
fraction of a second to minutes, with the process on-CPU the whole time
(CPU time equals wall time, steal stays near zero).  A fixed kernel timed next to the work slows by the same factor,
so every time the benchmark reports is rescaled to a host on which the
kernel takes its ``reference`` time:

    reported = wall * reference / kernel time measured beside it

The kernels mix interpreted Python with NumPy products, like the work they
stand beside, and touch nothing of ``blockpd``, so a change to the library
cannot move them.  Measured on the tuning host: raw step times of four runs
varied 1.7x while their ratio to the kernel varied 4% (m=1000 steps) and
1.3% (m=40 steps).
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Kernel:
    """Deterministic calibration work of about 3 ms in two parts: small
    products under a Python loop (like the m=40 steps) and length-1000/1500
    vector work (like the m=1000 steps).  Over four runs either part alone
    left the step-to-kernel ratio of one step size varying by 7-10%; their
    sum kept both within 4%."""

    reference = 3.0e-3

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((60, 40))
        self.x = rng.standard_normal(40)
        self.b = rng.standard_normal((1500, 4))
        self.v = rng.standard_normal(1000)
        self.u = rng.standard_normal(1500)

    def __call__(self) -> float:
        y = self.x.copy()
        acc = 0.0
        for i in range(300):
            y = self.a.T @ (self.a @ y) * 1e-3 + self.x
            acc += float(y[i % 40]) * 0.5 + i
            row = {"i": i, "acc": acc}
            acc -= row["i"]
        w, z = self.v.copy(), self.u.copy()
        for i in range(60):
            z = z * 0.5 + self.b @ w[:4]
            w = w * 0.999 + 0.001 * self.v
            acc += float(self.b.T @ z @ w[4:8]) + i
        return acc

    def seconds(self, repeats: int = 1) -> float:
        """Median wall time of ``repeats`` kernel runs."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class DenseKernel(Kernel):
    """Calibration for set-ups made of dense linear algebra (eigenvalue
    tests, blockwise Gram products, least squares), which the host's slow
    phases barely touch.  Over four runs the m=1000 set-up varied 6% raw,
    18% rescaled by ``Kernel`` and 5% rescaled by this one."""

    reference = 4.0e-3

    def __init__(self):
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((250, 250))
        self.gram = m @ m.T
        self.blocks = [rng.standard_normal((1500, 4)) for _ in range(8)]

    def __call__(self) -> float:
        acc = float(np.linalg.eigvalsh(self.gram)[0])
        for i in range(60):
            acc += float((self.blocks[i % 8].T @ self.blocks[(i + 1) % 8])[0, 0])
        return acc
