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

from ..blocks import count
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
    """One evaluated point: its parameters and split forward pass, plus each
    loss part and each part's block gradients once asked for."""

    __slots__ = ("key", "params", "state", "parts", "grads")

    def __init__(self, key, params, state):
        self.key, self.params, self.state = key, params, state
        self.parts = {}
        self.grads = {}


class MlpTaskProblem(BdcProblem):
    """Block DC problem of one task; the oracles share one evaluation per
    point ``theta``.

    The last point evaluated is kept: its split forward pass and, once asked
    for, its loss parts and each part's block gradients.  A call at the
    same ``theta`` bytes reads them instead of recomputing.  A minibatch is
    the problem on its rows, ``problem.on(handle)``, with a memo of its
    own, so a stochastic step leaves the full-data point of the records in
    place: there are two memo points, the full data's and the current
    minibatch's.  It is sliced from rows already checked here, so it
    checks nothing again.  A block gradient sweeps only down to the block
    it asks for.  The stationarity vectors ``grad g_i - grad h_i`` of the
    per-iteration records come from one plain reverse sweep
    (:func:`relu.residual_grads`) over the kept pass, run at every call and
    not kept: in a run, each record and the final residual ask at a point
    of their own.  The two parts' output adjoints differ by ``(d, -d)``, so
    the difference needs no split sweep of either part, and it equals the
    oracle pairs' difference up to rounding.  Each loss part is formed once
    asked for, so a minibatch step, whose descent check reads ``g`` alone,
    never forms ``h``.  The block solver evaluates its trial points on the
    block's tail and leaves the kept point as it found it (see
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
        an empty memo of its own.  The rows are sliced from this problem's
        checked, read-only inputs and labels and made read-only in turn,
        and the network template and partition are shared, so nothing is
        checked again; an index numpy cannot take raises as numpy raises
        it."""
        idx = list(handle.indices)
        inputs, labels = self.inputs[idx], self.labels[idx]
        inputs.flags.writeable = labels.flags.writeable = False
        rows = object.__new__(MlpTaskProblem)
        rows.task = MlpTask(inputs=inputs, labels=labels, net=self.template,
                            loss=self.task.loss)
        rows.inputs, rows.labels, rows.n_data = inputs, labels, len(labels)
        rows.template, rows.partition = self.template, self.partition
        rows._last = None
        return rows

    def initial_point(self):
        return self.template.to_vector()

    def params(self, theta):
        return self.template.with_vector(theta)

    def sample(self, rng, batch_size):
        # key drawn from the caller's generator: replayable, no shared state
        count("batch_size", batch_size, 1)
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

    def _part(self, point, part):
        """Dataset mean of one loss part at ``point``, kept on the point."""
        value = point.parts.get(part)
        if value is None:
            value = point.parts[part] = relu.loss_part(
                point.state, self.labels, self.task.loss, part) / self.n_data
        return value

    def _gradient_at(self, point, part, i):
        """Block ``i``'s gradient of one loss part at ``point``, kept on the
        point."""
        pairs = point.grads.setdefault(part, {})
        if i not in pairs:
            sweep = relu.block_grad_g if part == "g" else relu.block_grad_h
            pairs[i] = sweep(point.params, self.inputs, self.labels,
                             self.task.loss, i, state=point.state)
        return self._mean(*pairs[i])

    def _mean(self, dW, db):
        """A block's batch-summed gradient as a flat dataset mean."""
        return np.concatenate([dW.ravel(), db]) / self.n_data

    def eval_f(self, theta):
        point = self._point(theta)
        return self._part(point, "g") - self._part(point, "h")

    def eval_g(self, i, theta):
        return self._part(self._point(theta), "g")

    def eval_h(self, i, theta):
        return self._part(self._point(theta), "h")

    def grad_g_block(self, i, theta):
        return self._gradient_at(self._point(theta), "g", i)

    def subgrad_h_block(self, i, theta):
        return self._gradient_at(self._point(theta), "h", i)

    def residual_blocks(self, theta):
        """Every block's ``grad g_i - grad h_i`` from one reverse sweep of
        the difference over the point's kept pass; fresh arrays on every
        call."""
        point = self._point(theta)
        grads = relu.residual_grads(point.params, self.inputs, self.labels,
                                    self.task.loss, point.state)
        return [self._mean(dW, db) for dW, db in grads]

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
        anchor: it serves the start itself, from the memo, and it gives the
        trial points everything but layer ``i``.  A :class:`relu.BlockTail`
        binds that once per solve, checked once, as plain per-layer lists:
        the rows and labels, their indices, the layers' weights, the frozen
        layers' split weights and the anchor's pass below layer ``i``.  A
        trial point is then one straight-line call on layer ``i``'s
        weights: one forward pass from layer ``i``, whose output ``exp``
        the ``g`` value and the sweep to layer ``i`` share.  It gives the
        bits of :func:`relu.forward_split`, :func:`relu.loss_part` and
        :func:`relu.block_grad_g` on the trial point, and it keeps
        nothing.  Between iterations the solver keeps the center's vector
        and value and no evaluated point.  No public oracle is called, so
        the anchor stays the memo's point for the step's descent check,
        which reads the start's ``g`` value kept on it.
        """
        theta = np.asarray(theta, dtype=float)
        anchor = self._point(theta)
        sl = self.partition.slice_of(i)
        x0 = theta[sl].copy()
        shape = anchor.params.layers[i][0].shape
        n_w = anchor.params.layers[i][0].size
        tail = relu.BlockTail(anchor.params, self.inputs, self.labels,
                              self.task.loss, i, anchor.state)

        def at(x):
            g, dW, db = tail(x[:n_w].reshape(shape), x[n_w:])
            return g / self.n_data, self._mean(dW, db)

        def oracle(x, g, grad_g, k):
            # ufunc reductions, not the ndarray methods, and the ndarray
            # dot, not np.dot: the same loops without a Python wrapper (the
            # methods' or np.dot's dispatcher; see relu's docstring)
            val = g - float(u.dot(x))
            grad = grad_g - u
            if rho:
                dx = x - x0
                val += 0.5 * rho * float(np.add.reduce(dx ** 2))
                grad = grad + rho * dx
            if not (math.isfinite(val) and np.logical_and.reduce(np.isfinite(grad))):
                raise InnerSolverDivergence(
                    "non-finite surrogate on block %d at bundle iteration %d: "
                    "value %r, subgradient norm %r"
                    % (i, k, val, float(np.linalg.norm(grad))))
            return val, grad

        xc = x0
        fc, grad = oracle(x0, self._part(anchor, "g"),
                          self._gradient_at(anchor, "g", i), 1)
        stop = tol * (1.0 + abs(fc))
        t = 1.0 / (1.0 + rho)
        (sa, ea), (sn, en) = (grad, 0.0), (grad, 0.0)
        k = 1
        while k < budget:
            # the two-cut dual: min over lam in [0, 1] of
            # t/2 ||lam sa + (1 - lam) sn||^2 + lam ea + (1 - lam) en
            d = sa - sn
            dd = float(d.dot(d))
            if dd > 0.0:
                lam = -(t * float(sn.dot(d)) + ea - en) / (t * dd)
                lam = min(1.0, max(0.0, lam))
            else:
                lam = 1.0 if ea <= en else 0.0
            s = lam * sa + (1.0 - lam) * sn
            e = lam * ea + (1.0 - lam) * en
            v = -(t * float(s.dot(s)) + e)
            if -v <= stop:
                break
            y = xc - t * s
            k += 1
            fy, grad = oracle(y, *at(y), k)
            # linearization errors are >= 0 by convexity; rounding below
            # zero reads as zero
            if fy <= fc + 0.1 * v:
                # serious step: both errors move to the new center
                (sa, ea), (sn, en) = (s, max(0.0, fy - fc - v)), (grad, 0.0)
                xc, fc = y, fy
                t *= 1.5
            else:
                ey = max(0.0, fc - fy - t * float(grad.dot(s)))
                (sa, ea), (sn, en) = (s, e), (grad, ey)
                if ey > -10.0 * v:
                    t = max(t / 100.0,
                            min(t, t / (2.0 * (1.0 - (fy - fc) / v))))
        return xc, k
