"""Toy network-training tasks wired into the block DC interface.

One block per layer; the blockwise-convex loss split comes from the split
forward recursion.  Scalar oracles report dataset means (the per-sample sums
divided by the evaluated set size), and minibatch handles replay exactly:
a handle is just a recorded index tuple, drawn i.i.d. with replacement, and
``problem.on(handle)`` is the same problem on those rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import at_least
from ..model import BdcProblem, InnerSolverDivergence, SampleHandle
from .. import relu

__all__ = [
    "sine_regression",
    "gaussian_blobs",
    "MlpTask",
    "MlpTaskProblem",
]


def sine_regression(n, seed=0):
    """1-D regression on an offset sine wave with noise of standard deviation
    0.05; labels are naturally >= 0."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 1))
    y = 1.5 + np.sin(np.pi * x[:, 0]) + 0.05 * rng.standard_normal(n)
    return x, y


def gaussian_blobs(n, n_classes=3, seed=0):
    """Gaussian clusters of standard deviation 0.5 with centers spaced evenly
    on the circle ``||c|| = 2``; returns (x, labels)."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    labels = rng.integers(0, n_classes, size=n)
    x = centers[labels] + 0.5 * rng.standard_normal((n, 2))
    return x, labels


@dataclass
class MlpTask:
    """Dataset plus network plus loss kind, ``"mse"`` or ``"ce"``; the
    :class:`MlpTaskProblem` built on it checks it.  Squared-error labels
    must be ``>= 0``: shift negative ones and the outputs by a common
    constant first."""

    inputs: np.ndarray
    labels: np.ndarray
    net: relu.MlpParams
    loss: str = "mse"


class _Point:
    """One evaluated point: its parameters and split forward pass, plus its
    loss parts, each part's block gradients and the stationarity vectors
    once asked for."""

    __slots__ = ("key", "params", "state", "parts", "grads", "residual")

    def __init__(self, key, params, state):
        self.key, self.params, self.state = key, params, state
        self.parts = None
        self.grads = {}
        self.residual = None


class MlpTaskProblem(BdcProblem):
    """Block DC problem of one task; the oracles share one evaluation per
    point ``theta``.

    The last point evaluated is kept: its split forward pass and, once asked
    for, its loss parts, each part's block gradients and the stationarity
    vectors.  A call at the same ``theta`` bytes reads them instead of
    recomputing.  A minibatch is the problem on its rows,
    ``problem.on(handle)``, with a memo of its own, so a stochastic step
    leaves the full-data point of the records in place: there are two memo
    points, the full data's and the current minibatch's.  A block gradient
    sweeps only down to the block it asks for.  The stationarity vectors
    ``grad g_i - grad h_i`` of the per-iteration records come from one plain
    reverse sweep (:func:`relu.residual_grads`): the two parts' output
    adjoints differ by ``(d, -d)``, so the difference needs no split sweep of
    either part, and it equals the oracle pairs' difference up to rounding.
    The block solver evaluates its trial points on the block's tail and
    leaves the kept point as it found it (see
    :meth:`minimize_block_surrogate`).  The kept points' parameters are
    views into private read-only copies of their vectors, so the split
    weights cached on them cannot go stale.

    The task is checked once, here: the inputs, the labels and the output
    width must fit the loss, so no oracle checks them again.  Once they pass,
    the task's ``inputs`` and ``labels`` are made read-only (a task that
    fails leaves the caller's arrays as they were), so an in-place edit raises
    instead of leaving stale values behind, and the problem keeps those
    arrays: assigning new ones to the task later changes nothing here.
    """

    def __init__(self, task):
        net = task.net
        inputs, labels = np.asarray(task.inputs), np.asarray(task.labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D, got shape %r" % (labels.shape,))
        if inputs.shape != (len(labels), net.input_dim):
            raise ValueError("inputs must have shape (labels, input dim) = "
                             "(%d, %d), got %r"
                             % (len(labels), net.input_dim, inputs.shape))
        # the labels as the loss parts read them (floats for mse)
        checked = relu.loss_labels(net, labels, task.loss)
        for data in (inputs, labels, checked):
            data.flags.writeable = False
        task.inputs, task.labels = inputs, labels
        self.task = task
        self.inputs = inputs
        self.labels = checked
        self.template = net
        self.partition = net.partition()
        self.n_data = len(self.labels)
        self._last = None

    def on(self, handle):
        """The problem on the rows ``handle.indices`` (repeats kept), with
        an empty memo of its own."""
        idx = list(handle.indices)
        return MlpTaskProblem(MlpTask(inputs=self.inputs[idx],
                                      labels=self.labels[idx],
                                      net=self.template, loss=self.task.loss))

    def initial_point(self):
        return self.template.to_vector()

    def params(self, theta):
        return self.template.with_vector(theta)

    def sample(self, rng, batch_size):
        # key drawn from the caller's generator: replayable, no shared state
        at_least("batch_size", batch_size, 1)
        idx = rng.integers(0, self.n_data, size=batch_size)  # i.i.d. draws
        return SampleHandle(key=int(rng.integers(2 ** 31)), indices=idx)

    # -- oracles -------------------------------------------------------------
    def _point(self, theta):
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        point = self._last
        if point is None or point.key != key:
            self._last = point = None  # free the old point before the new one
            # a private copy: callers mutate their theta (the inner solver's
            # trial vector), and the parameters are views into it; read-only,
            # so the split weights kept on the parameters cannot go stale
            theta = theta.copy()
            theta.flags.writeable = False
            params = self.params(theta)
            point = _Point(key, params, relu.forward_split(params, self.inputs))
            self._last = point
        return point

    def _split(self, theta):
        point = self._point(theta)
        if point.parts is None:
            point.parts = (self._part(point, "g"), self._part(point, "h"))
        return point.parts

    def _part(self, point, part):
        """Dataset mean of one loss part at ``point``."""
        return (relu.loss_part(point.state, self.labels, self.task.loss, part)
                / self.n_data)

    def _gradient_at(self, point, part, i):
        """Block ``i``'s gradient of one loss part at ``point``, kept on the
        point."""
        pairs = point.grads.setdefault(part, {})
        if i not in pairs:
            sweep = relu.block_grad_g if part == "g" else relu.block_grad_h
            pairs[i] = sweep(point.params, self.inputs, self.labels,
                             self.task.loss, i, state=point.state)
        dW, db = pairs[i]
        return np.concatenate([dW.ravel(), db]) / self.n_data

    def eval_f(self, theta):
        g, h = self._split(theta)
        return g - h

    def eval_g(self, i, theta):
        return self._split(theta)[0]

    def eval_h(self, i, theta):
        return self._split(theta)[1]

    def grad_g_block(self, i, theta):
        return self._gradient_at(self._point(theta), "g", i)

    def subgrad_h_block(self, i, theta):
        return self._gradient_at(self._point(theta), "h", i)

    def residual_blocks(self, theta):
        """Every block's ``grad g_i - grad h_i`` from one reverse sweep of
        the difference, kept on the point; fresh arrays on every call."""
        point = self._point(theta)
        if point.residual is None:
            point.residual = relu.residual_grads(point.params, self.inputs,
                                                 self.labels, self.task.loss,
                                                 state=point.state)
        return [np.concatenate([dW.ravel(), db]) / self.n_data
                for dW, db in point.residual]

    # -- inner solver ----------------------------------------------------------
    def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
        """A two-cut proximal bundle method on the block surrogate ``phi =
        g_i - <u, .> + rho/2 ||. - x0||^2`` (Kiwiel, "Proximity control in
        bundle methods for convex nondifferentiable minimization", Math.
        Program. 46, 1990).  Returns ``(x, iterations)``.

        ``phi`` is convex but only piecewise smooth, so at a relu kink the
        fixed subgradient selection may not be a descent direction.  A trial
        point that fails to descend is not thrown away: its subgradient,
        from the other side of the kink, becomes a cutting plane.  The
        bundle keeps two cuts, the aggregate and the newest, each as a
        subgradient and its linearization error at the center ``x_c``.  An
        iteration takes the convex combination ``(s, e)`` of the two that
        solves the two-cut dual in closed form, evaluates ``y = x_c - t s``
        and predicts the decrease ``v = -(t ||s||^2 + e)``.  The step is
        serious when ``phi(y) <= phi(x_c) + 0.1 v``: ``y`` becomes the
        center and ``t`` grows by half.  Otherwise it is a null step, and
        when the new cut's error exceeds ``-10 v``, ``t`` shrinks by
        Kiwiel's interpolation, to no less than ``t / 100``.  It starts
        from ``x0`` with ``t = 1 / (1 + rho)`` and stops once ``-v <= tol
        (1 + |phi(x0)|)``, or after ``budget`` iterations, the start's
        gradient counting as one.  The center is returned, so the surrogate
        never increases.  A non-finite value or subgradient raises
        ``InnerSolverDivergence`` naming the block, the iteration and the
        value.

        Each iteration is one value and one gradient at one trial point,
        evaluated on the block's tail.  The memo point at ``theta`` is the
        anchor: it gives the split state of the layers below ``i``, and it
        serves the start itself.  A trial point gets its parameters built
        once (:meth:`relu.MlpParams.with_block`: the frozen layers' arrays
        and split weights are the anchor's) and one forward pass from layer
        ``i``, which its value (the ``g`` part alone) and its gradient
        share, with the output's ``exp`` computed once.  Between iterations
        the solver keeps the center's vector and value and no evaluated
        point.  No public oracle is called, so the anchor stays the memo's
        point for the step's descent check.
        """
        theta = np.asarray(theta, dtype=float)
        anchor = self._point(theta)
        sl = self.partition.slice_of(i)
        x0 = theta[sl].copy()
        shape = anchor.params.layers[i][0].shape
        n_w = anchor.params.layers[i][0].size

        def at(x):
            x = x.copy()  # the parameters are views into it
            x.flags.writeable = False
            params = anchor.params.with_block(i, x[:n_w].reshape(shape), x[n_w:])
            return _Point(None, params,
                          relu.forward_split(params, self.inputs, i, anchor.state))

        def oracle(x, point, k):
            val = self._part(point, "g") - float(np.dot(u, x))
            grad = self._gradient_at(point, "g", i) - u
            if rho:
                val += 0.5 * rho * float(((x - x0) ** 2).sum())
                grad = grad + rho * (x - x0)
            if not (math.isfinite(val) and np.isfinite(grad).all()):
                raise InnerSolverDivergence(
                    "non-finite surrogate on block %d at bundle iteration %d: "
                    "value %r, subgradient norm %r"
                    % (i, k, val, float(np.linalg.norm(grad))))
            return val, grad

        xc = x0
        fc, grad = oracle(x0, anchor, 1)
        stop = tol * (1.0 + abs(fc))
        t = 1.0 / (1.0 + rho)
        (sa, ea), (sn, en) = (grad, 0.0), (grad, 0.0)
        k = 1
        while k < budget:
            # the two-cut dual: min over lam in [0, 1] of
            # t/2 ||lam sa + (1 - lam) sn||^2 + lam ea + (1 - lam) en
            d = sa - sn
            dd = float(np.dot(d, d))
            if dd > 0.0:
                lam = -(t * float(np.dot(sn, d)) + ea - en) / (t * dd)
                lam = min(1.0, max(0.0, lam))
            else:
                lam = 1.0 if ea <= en else 0.0
            s = lam * sa + (1.0 - lam) * sn
            e = lam * ea + (1.0 - lam) * en
            v = -(t * float(np.dot(s, s)) + e)
            if -v <= stop:
                break
            y = xc - t * s
            k += 1
            fy, grad = oracle(y, at(y), k)
            # linearization errors are >= 0 by convexity; rounding below
            # zero reads as zero
            if fy <= fc + 0.1 * v:
                # serious step: both errors move to the new center
                (sa, ea), (sn, en) = (s, max(0.0, fy - fc - v)), (grad, 0.0)
                xc, fc = y, fy
                t *= 1.5
            else:
                ey = max(0.0, fc - fy - t * float(np.dot(grad, s)))
                (sa, ea), (sn, en) = (s, e), (grad, ey)
                if ey > -10.0 * v:
                    t = max(t / 100.0,
                            min(t, t / (2.0 * (1.0 - (fy - fc) / v))))
        return xc, k
