"""Toy network-training tasks wired into the block DC interface.

One block per layer; the blockwise-convex loss split comes from the split
forward recursion.  Scalar oracles report dataset means (the per-sample sums
divided by the evaluated set size), and minibatch handles replay exactly:
a handle is just a recorded index tuple, drawn i.i.d. with replacement.
"""

from dataclasses import dataclass, field

import numpy as np

from ..model import BdcProblem, SampleHandle
from .. import relu

__all__ = [
    "sine_regression",
    "gaussian_blobs",
    "MlpTask",
    "MlpTaskProblem",
]


def sine_regression(n, seed=0, noise=0.05):
    """1-D regression on an offset sine wave; labels are naturally >= 0."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 1))
    y = 1.5 + np.sin(np.pi * x[:, 0]) + noise * rng.standard_normal(n)
    return x, y


def gaussian_blobs(n, n_classes=3, seed=0, radius=2.0, spread=0.5):
    """Gaussian clusters with centers on a circle; returns (x, labels)."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    labels = rng.integers(0, n_classes, size=n)
    x = centers[labels] + spread * rng.standard_normal((n, 2))
    return x, labels


@dataclass
class MlpTask:
    """Dataset plus network plus loss kind.

    For regression, labels are shifted by ``label_shift = max(0, -min y)`` so
    the squared-error split applies; report predictions minus the shift.
    """

    inputs: np.ndarray
    labels: np.ndarray
    net: relu.MlpParams
    loss: str = "mse"
    label_shift: float = field(default=0.0)

    def __post_init__(self):
        if self.loss not in ("mse", "ce"):
            raise ValueError("loss must be 'mse' or 'ce'")
        if self.loss == "mse":
            shift = max(0.0, -float(np.min(self.labels)))
            if shift > 0:
                self.labels = np.asarray(self.labels, dtype=float) + shift
                self.label_shift = shift


class _Point:
    """One evaluated point: its parameters and split forward pass, plus its
    loss parts and each part's block gradients once asked for."""

    __slots__ = ("key", "X", "y", "count", "params", "state", "parts", "grads")

    def __init__(self, key, X, y, count, params, state):
        self.key, self.X, self.y, self.count = key, X, y, count
        self.params, self.state = params, state
        self.parts = None
        self.grads = {}


class MlpTaskProblem(BdcProblem):
    """Block DC problem of one task; the oracles share one evaluation per
    point ``(theta, minibatch)``.

    The last point evaluated is kept: its split forward pass and, once asked
    for, its loss parts and each part's block gradients.  A call at the same
    ``theta`` bytes and minibatch indices reads them instead of recomputing.
    A gradient of block 0 needs a reverse sweep through every layer; on the
    full data that sweep keeps every layer's gradient (the per-iteration
    records then pay one sweep per part), while a minibatch gradient, like a
    gradient of a higher block, sweeps only down to the block it asks for.
    The task's ``inputs`` and ``labels`` are made read-only here, so an
    in-place edit raises instead of leaving stale values behind, and the
    problem keeps those arrays: assigning new ones to the task later changes
    nothing here.
    """

    def __init__(self, task):
        for name in ("inputs", "labels"):
            data = np.asarray(getattr(task, name))
            data.flags.writeable = False
            setattr(task, name, data)
        self.task = task
        self.inputs, self.labels = task.inputs, task.labels
        self.template = task.net
        self.partition = task.net.partition()
        self.n_data = len(self.labels)
        self._last = None

    def initial_point(self):
        return self.template.to_vector()

    def params(self, theta):
        return self.template.with_vector(theta)

    def _subset(self, sample):
        if sample is None:
            return self.inputs, self.labels, self.n_data
        idx = list(sample.indices)
        return self.inputs[idx], self.labels[idx], len(idx)

    def sample(self, rng, batch_size=None):
        # key drawn from the caller's generator: replayable, no shared state
        if batch_size is None:
            batch_size = 1
        elif batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %r" % (batch_size,))
        idx = rng.integers(0, self.n_data, size=batch_size)  # i.i.d. draws
        return SampleHandle(key=int(rng.integers(2 ** 31)), indices=idx)

    # -- oracles -------------------------------------------------------------
    def _point(self, theta, sample):
        theta = np.asarray(theta, dtype=float)
        key = (theta.tobytes(), None if sample is None else sample.indices)
        point = self._last
        if point is None or point.key != key:
            X, y, count = self._subset(sample)
            # a private copy: callers mutate their theta (the inner solver's
            # trial vector), and the parameters are views into it
            params = self.params(theta.copy())
            point = _Point(key, X, y, count, params, relu.forward_split(params, X))
            self._last = point
        return point

    def _split(self, theta, sample):
        point = self._point(theta, sample)
        if point.parts is None:
            split = relu.mse_bdc if self.task.loss == "mse" else relu.ce_bdc
            g, h = split(point.params, point.X, point.y, state=point.state)
            point.parts = (g / point.count, h / point.count)
        return point.parts

    def _block_gradient(self, part, i, theta, sample):
        if not 0 <= i < self.n_blocks:
            raise IndexError("block %d out of range for %d layers" % (i, self.n_blocks))
        point = self._point(theta, sample)
        pairs = point.grads.setdefault(part, {})
        if i not in pairs:
            sweep = relu.block_grad_g if part == "g" else relu.block_grad_h
            args = (point.params, point.X, point.y, self.task.loss)
            if i == 0 and sample is None:  # the records ask for every block
                pairs.update(enumerate(sweep(*args, None, state=point.state)))
            else:
                pairs[i] = sweep(*args, i, state=point.state)
        dW, db = pairs[i]
        return np.concatenate([dW.ravel(), db]) / point.count

    def eval_f(self, theta):
        g, h = self._split(theta, None)
        return g - h

    def eval_g(self, i, theta, sample=None):
        return self._split(theta, sample)[0]

    def eval_h(self, i, theta, sample=None):
        return self._split(theta, sample)[1]

    def grad_g_block(self, i, theta, sample=None):
        return self._block_gradient("g", i, theta, sample)

    def subgrad_h_block(self, i, theta, sample=None):
        return self._block_gradient("h", i, theta, sample)

    # -- inner solver ----------------------------------------------------------
    def minimize_block_surrogate(self, i, theta, u, rho, budget, tol, sample=None):
        """Descent on the block surrogate, robust to the split's convex kinks.

        The surrogate is convex but only piecewise smooth, so the fixed
        subgradient selection at a kink may not be a descent direction.  Each
        of the ``budget`` gradients gets one backtracking line search along
        its negative, skipped once the gradient is below the tolerance.  When
        no step descends, the loop probes the coordinates sitting exactly at
        zero, where relu terms put kinks, one at a time and both ways.  If
        none descends either, it stops when stationary and otherwise hops
        non-monotonically along the negative gradient with a step that halves
        on every hop.  The best visited point is returned, so the surrogate
        never increases.  Returns ``(x, gradients taken)``.
        """
        theta = np.asarray(theta, dtype=float)
        sl = self.partition.slice_of(i)
        x0 = theta[sl].copy()
        trial = theta.copy()

        def value(x):
            trial[sl] = x
            val = self.eval_g(i, trial, sample=sample) - float(np.dot(u, x))
            if rho:
                val += 0.5 * rho * float(np.sum((x - x0) ** 2))
            return val

        def gradient(x):
            trial[sl] = x
            grad = self.grad_g_block(i, trial, sample=sample) - u
            if rho:
                grad = grad + rho * (x - x0)
            return grad

        x = x0.copy()
        val = value(x)
        best_x, best_val = x.copy(), val
        tol_eff = tol * (1.0 + abs(val))
        step = 1.0 / (1.0 + rho)
        escape = step
        evals = 0
        def probe_kinks(x, val):
            # coordinates sitting exactly on a kink have selected slope 0 but
            # may still admit one-sided descent
            for j in np.flatnonzero(x == 0.0):
                for direction in (1.0, -1.0):
                    probe = step
                    for _ in range(8):
                        cand = x.copy()
                        cand[j] = direction * probe
                        cand_val = value(cand)
                        if cand_val <= val - 1e-12 * (1 + abs(val)):
                            return cand, cand_val
                        probe *= 0.25
            return None

        while evals < budget:
            grad = gradient(x)
            evals += 1
            gnorm = float(np.linalg.norm(grad))
            s = step
            # no line search once stationary; the else branch still probes
            for _ in range(20 if gnorm > tol_eff else 0):
                cand = x - s * grad
                cand_val = value(cand)
                if cand_val <= val - 1e-12 * (1 + abs(val)):
                    x, val, step = cand, cand_val, s * 1.5
                    break
                s *= 0.5
            else:
                hit = probe_kinks(x, val)
                if hit is not None:
                    x, val = hit
                elif gnorm <= tol_eff:
                    break  # approximately stationary, kinks probed
                elif escape * gnorm <= 1e-14 * (1.0 + float(np.linalg.norm(x))):
                    break
                else:
                    # cross the kink: shrinking non-monotone hop along -grad
                    x = x - escape * grad
                    val = value(x)
                    escape *= 0.5
            if val < best_val:
                best_x, best_val = x.copy(), val
        return best_x, evals
