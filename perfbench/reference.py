"""Fixed reference kernel, and a timer that samples it during a solve.

The kernel imports nothing from ``bdcopt``.  It mixes the kinds of work the
solvers do: small dense products and elementwise maps, a Python loop over
matrix columns with a stable argsort in each, a dense three-way outer
product, and a batched two-layer ReLU pass over a few thousand rows.

On a shared host the speed of a core switches between states (on the
reference host by a factor of about 1.6, in blocks of 0.5 s to 3 s), so a
kernel run before and after a one-second solve says little about the speed
during it.  ``Timer`` therefore also runs the kernel from a SIGALRM
handler every ``INTERVAL_S`` seconds while the solve runs, takes the kernel's
time out of the solve's time, and scales the solve by the mean kernel speed
it sampled.
"""

import signal
import time

import numpy as np

# Median kernel time on the reference host (2-core Xeon KVM guest, one BLAS
# thread).  Normalised times are reported in seconds at this speed.
NOMINAL_S = 0.003
INTERVAL_S = 0.02


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(20260417)
        self.D = rng.standard_normal((10, 32))
        self.X = rng.standard_normal((32, 100))
        self.Y = rng.standard_normal((10, 100))
        self.F = [rng.standard_normal((m, 5)) for m in (20, 30, 40)]
        self.rows = rng.standard_normal((3000, 2))
        self.W1 = rng.standard_normal((16, 2))
        self.W2 = rng.standard_normal((8, 16))

    def run(self):
        D, X = self.D, self.X
        R = D @ X - self.Y
        G = D.T @ R + 0.1 * np.sign(X)
        Xn = np.sign(X) * np.maximum(np.abs(X - 0.01 * G) - 0.001, 0.0)
        acc = float(np.sum(R * R))
        for j in range(Xn.shape[1]):
            col = Xn[:, j]
            idx = np.argsort(-np.abs(col), kind="stable")[:5]
            acc += float(np.sum(np.abs(col[idx])))
        T = np.einsum("ir,jr,kr->ijk", *self.F)
        acc += float(np.sum(T * T))
        H = np.maximum(self.rows @ self.W1.T, 0.0)
        H = np.maximum(H @ self.W2.T, 0.0)
        return acc + float(np.sum(np.exp(-H)))

    def time(self):
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class Timer:
    """Times calls while sampling the kernel before, during and after each."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.last = kernel.time()
        self.pauses = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel.run()
        self.pauses.append((t0, time.perf_counter()))

    def call(self, fn, *args):
        """Run ``fn(*args)``; return its result, its time without the kernel
        runs inside it, and the harmonic mean of the kernel times sampled
        (one before, those inside, one after).  Exceptions from ``fn``
        propagate after the timer is stopped."""
        self.pauses = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self.pauses = [p for p in self.pauses if p[1] <= t1]
        after = self.kernel.time()
        samples = [self.last] + [e - s for s, e in self.pauses] + [after]
        self.last = after
        elapsed = t1 - t0 - sum(e - s for s, e in self.pauses)
        return result, elapsed, len(samples) / sum(1.0 / k for k in samples)

