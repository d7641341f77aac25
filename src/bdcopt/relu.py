"""Split formulation of ReLU multilayer perceptrons.

The forward pass tracks, per hidden layer, a pair of nonnegative vectors
``(Z+, Z-)`` whose difference equals the usual ReLU activation and whose
coordinates are each convex in any single layer's parameters when the other
layers are frozen.  The network output splits the same way into ``A - B``,
which is what makes squared-error and cross-entropy objectives decompose
into differences of blockwise-convex parts:

* squared error (scalar output, label ``y >= 0``):
  ``(F - y)^2 = 2 (A^2 + (B + y)^2) - (A + B + y)^2``
* cross-entropy (logits ``F``, class ``y``):
  ``LSE(F) - F_y = [LSE(F) + 1'B + B_y] - [A_y + 1'B]``

Gradients are hand-rolled reverse mode over this fixed graph.  Kink
selections are deterministic: entrywise ``relu'(0) := 0``, and ties in
``max(p, Z-)`` take the ``p`` branch.  For a block ``l`` only layers ``>= l``
are traversed; one sweep to layer 0 gives every block's gradient at once.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition, vector_from_csv_row, write_csv

__all__ = [
    "MlpParams",
    "SplitState",
    "random_params",
    "forward_split",
    "forward_standard",
    "mse_bdc",
    "ce_bdc",
    "loss_labels",
    "loss_part",
    "block_grad_g",
    "block_grad_h",
    "log_sum_exp",
    "save_params_csv",
    "load_params_csv",
]


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_deriv(x):
    # relu'(0) := 0
    return (x > 0).astype(float)


@dataclass
class MlpParams:
    """Fully-connected ReLU network parameters; one block per layer.

    ``layers[l] = (W, b)`` with ``W`` of shape ``(d_out, d_in)``.  The last
    layer is linear with ``class_count`` outputs (1 for regression).
    """

    layers: list

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("need at least two layers")
        self.layers = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                       for W, b in self.layers]
        for l, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError("layer %d has inconsistent shapes" % l)
            if l > 0 and W.shape[1] != self.layers[l - 1][0].shape[0]:
                raise ValueError("layer %d input dim does not chain" % l)

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def input_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def class_count(self):
        return self.layers[-1][0].shape[0]

    def partition(self):
        return BlockPartition([W.size + b.size for W, b in self.layers])

    def to_vector(self):
        return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in self.layers])

    def with_vector(self, theta):
        """New parameter set with values taken from a flat vector."""
        theta = np.asarray(theta, dtype=float)
        layers = []
        pos = 0
        for W, b in self.layers:
            w_new = theta[pos:pos + W.size].reshape(W.shape)
            pos += W.size
            b_new = theta[pos:pos + b.size].copy()
            pos += b.size
            layers.append((w_new, b_new))
        if pos != theta.size:
            raise ValueError("vector length does not match parameter count")
        return MlpParams(layers)

def random_params(layer_dims, rng, scale=None):
    """Random network with the given neuron counts, e.g. ``(2, 8, 8, 3)``."""
    layers = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        s = scale if scale is not None else 1.0 / np.sqrt(d_in)
        layers.append((s * rng.standard_normal((d_out, d_in)),
                       s * rng.standard_normal(d_out)))
    return MlpParams(layers)


@dataclass
class SplitState:
    """Per-layer split activations of one (batched) forward pass.

    Lists are indexed by hidden layer; arrays carry a leading batch axis.
    ``z_plus - z_minus`` equals the standard ReLU activations, both parts are
    entrywise nonnegative, and ``a_out - b_out`` is the network output.
    """

    pre: list
    z_plus: list
    z_minus: list
    a_out: np.ndarray
    b_out: np.ndarray

    @property
    def output(self):
        return self.a_out - self.b_out


def _as_batch(x, input_dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError("input shape %r does not match input dim %d" % (x.shape, input_dim))
    return x


def forward_split(params, x, start=0, lower=None):
    """Run the split forward recursion; returns the full :class:`SplitState`.

    ``start = l > 0`` runs only the tail from layer ``l``: the hidden layers
    below ``l`` are taken from ``lower``, a pass on the same ``x`` of a
    network whose layers below ``l`` equal these.  Their arrays are shared,
    not copied, and every layer the tail computes has the full pass's bits.
    """
    if not 0 <= start < params.n_layers:
        raise IndexError("start layer %d out of range for %d layers"
                         % (start, params.n_layers))
    X = _as_batch(x, params.input_dim)
    if start == 0:
        W0, b0 = params.layers[0]
        pre = [X @ W0.T + b0]
        z_plus = [_relu(pre[0])]
        z_minus = [np.zeros_like(pre[0])]
    else:
        pre, z_plus, z_minus = (lower.pre[:start], lower.z_plus[:start],
                                lower.z_minus[:start])
    for l in range(max(start, 1), params.n_layers - 1):
        W, b = params.layers[l]
        Wp, Wm = _relu(W), _relu(-W)
        p = z_plus[-1] @ Wp.T + z_minus[-1] @ Wm.T + b
        zm = z_minus[-1] @ Wp.T + z_plus[-1] @ Wm.T
        pre.append(p)
        z_minus.append(zm)
        z_plus.append(np.maximum(p, zm))
    WL, bL = params.layers[-1]
    WLp, WLm = _relu(WL), _relu(-WL)
    a_out = z_plus[-1] @ WLp.T + z_minus[-1] @ WLm.T + _relu(bL)
    b_out = z_minus[-1] @ WLp.T + z_plus[-1] @ WLm.T + _relu(-bL)
    return SplitState(pre=pre, z_plus=z_plus, z_minus=z_minus, a_out=a_out, b_out=b_out)


def forward_standard(params, x):
    """Reference forward pass ``W_L a_{L-1} + b_L`` with ReLU activations."""
    X = _as_batch(x, params.input_dim)
    a = X
    for W, b in params.layers[:-1]:
        a = _relu(a @ W.T + b)
    WL, bL = params.layers[-1]
    return a @ WL.T + bL


def log_sum_exp(t):
    """Rowwise stable log-sum-exp."""
    t = np.asarray(t, dtype=float)
    m = np.max(t, axis=-1, keepdims=True)
    return (m + np.log(np.sum(np.exp(t - m), axis=-1, keepdims=True)))[..., 0]


def loss_labels(params, y, loss):
    """Labels checked against ``loss`` and the network's output width, in the
    form :func:`loss_part` reads them: floats ``>= 0`` for ``"mse"`` (scalar
    output), integer class indices in ``[0, C)`` for ``"ce"`` (``C >= 2``
    outputs)."""
    C = params.class_count
    if loss == "mse":
        if C != 1:
            raise ValueError("squared-error split expects a scalar output, "
                             "got %d outputs" % C)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        bad = np.flatnonzero(~(y >= 0))
        if bad.size:
            raise ValueError("labels must be >= 0; shift labels and outputs by a "
                             "common constant first (row %d holds %r)"
                             % (bad[0], float(y.flat[bad[0]])))
        return y
    if loss == "ce":
        if C < 2:
            raise ValueError("classification split expects >= 2 outputs, got %d" % C)
        y = np.atleast_1d(np.asarray(y))
        if y.dtype.kind not in "iu":
            raise ValueError("labels must be integer class indices in [0, %d), "
                             "got dtype %s" % (C, y.dtype))
        bad = np.flatnonzero((y < 0) | (y >= C))
        if bad.size:
            raise ValueError("labels must be integer class indices in [0, %d) "
                             "(row %d holds %d)" % (C, bad[0], y.flat[bad[0]]))
        return y
    raise ValueError("loss must be 'mse' or 'ce'")


def loss_part(state, y, loss, part):
    """Batch-summed convex (``part="g"``) or concave-side (``"h"``) part of
    ``loss`` from a forward pass, without checks: ``y`` as returned by
    :func:`loss_labels`."""
    A, B = state.a_out, state.b_out
    if loss == "mse":
        A, B = A[:, 0], B[:, 0]
        if part == "g":
            return float(np.sum(2.0 * (A ** 2 + (B + y) ** 2)))
        return float(np.sum((A + B + y) ** 2))
    rows = np.arange(A.shape[0])
    sum_b = np.sum(B, axis=1)
    if part == "g":
        return float(np.sum(log_sum_exp(state.output) + sum_b + B[rows, y]))
    return float(np.sum(A[rows, y] + sum_b))


def mse_bdc(params, x, y, state=None):
    """Blockwise-convex split of the batch-summed squared error.

    Labels must be nonnegative; shift labels (and un-shift reported outputs)
    by a recorded constant when they are not.  Returns ``(g, h)`` with
    ``g - h == sum (F - y)^2`` exactly.
    """
    y = loss_labels(params, y, "mse")
    st = state if state is not None else forward_split(params, x)
    return loss_part(st, y, "mse", "g"), loss_part(st, y, "mse", "h")


def ce_bdc(params, x, y, state=None):
    """Blockwise-convex split of the batch-summed cross-entropy.

    ``y`` holds integer class indices.  Returns ``(g, h)`` with
    ``g - h == sum LSE(F) - F_y`` exactly.
    """
    y = loss_labels(params, y, "ce")
    st = state if state is not None else forward_split(params, x)
    return loss_part(st, y, "ce", "g"), loss_part(st, y, "ce", "h")


def _softmax(t):
    e = np.exp(t - np.max(t, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def _output_adjoints(state, y, loss, part):
    """d(part)/dA and d(part)/dB per sample; both entrywise nonnegative, so
    the chain rule below stays inside the convex subdifferential calculus."""
    A, B = state.a_out, state.b_out
    N = A.shape[0]
    if loss == "mse":
        y = np.asarray(y, dtype=float).reshape(N, 1)
        if part == "g":
            return 4.0 * A, 4.0 * (B + y)
        s = 2.0 * (A + B + y)
        return s, s.copy()
    if loss == "ce":
        rows = np.arange(N)
        if part == "g":
            S = _softmax(state.output)
            dB = 1.0 - S
            dB[rows, y] += 1.0
            return S, dB
        dA = np.zeros_like(A)
        dA[rows, y] = 1.0
        return dA, np.ones_like(B)
    raise ValueError("loss must be 'mse' or 'ce'")


def _loss_block_gradient(params, x, y, loss, part, block, state):
    """One top-down reverse sweep: every layer's ``(dW, db)`` when ``block``
    is None, else only layer ``block``'s, stopping there.  Layers above the
    lowest one needed are unwound the same way in both cases, so the pair
    for a block is the same bits either way."""
    L = params.n_layers
    if block is not None and not 0 <= block < L:
        raise IndexError("block %d out of range for %d layers" % (block, L))
    X = _as_batch(x, params.input_dim)
    if state is None:
        state = forward_split(params, X)
    # the output pair (A, B) enters the sweep as a layer's (p, z-) pair
    dp, dzm = _output_adjoints(state, np.atleast_1d(np.asarray(y)), loss, part)
    lowest = 0 if block is None else block
    grads = [None] * L
    # layers top-down, output first; only layers >= lowest are touched
    for l in range(L - 1, max(lowest, 1) - 1, -1):
        W, b = params.layers[l]
        if l < L - 1:  # a hidden layer's z+ = max(p, z-)
            mask = (state.pre[l] >= state.z_minus[l]).astype(float)
            dp, dzm = mask * dZp, dZm + (1.0 - mask) * dZp
        if block is None or block == l:
            Zp_in, Zm_in = state.z_plus[l - 1], state.z_minus[l - 1]
            dW = (_relu_deriv(W) * (dp.T @ Zp_in + dzm.T @ Zm_in)
                  - _relu_deriv(-W) * (dp.T @ Zm_in + dzm.T @ Zp_in))
            db = dp.sum(axis=0)
            if l == L - 1:  # the output bias is split as relu(b) - relu(-b)
                db = _relu_deriv(b) * db - _relu_deriv(-b) * dzm.sum(axis=0)
            grads[l] = (dW, db)
        if l > lowest:
            Wp, Wm = _relu(W), _relu(-W)
            dZp = dp @ Wp + dzm @ Wm
            dZm = dp @ Wm + dzm @ Wp
    if lowest == 0:
        dp = _relu_deriv(state.pre[0]) * dZp  # z_minus[0] is constant zero
        grads[0] = (dp.T @ X, dp.sum(axis=0))
    return grads if block is None else grads[block]


def block_grad_g(params, x, y, loss, block, state=None):
    """Subgradient of the batch-summed convex part w.r.t. layer ``block``,
    shaped like ``(W, b)``.  Matches central finite differences on smooth
    regions.  ``block=None`` returns every layer's pair from one sweep;
    ``state`` reuses a forward pass of ``params`` on ``x``."""
    return _loss_block_gradient(params, x, y, loss, "g", block, state)


def block_grad_h(params, x, y, loss, block, state=None):
    """Subgradient of the batch-summed concave-side part w.r.t. layer
    ``block``; ``block`` and ``state`` as in :func:`block_grad_g`."""
    return _loss_block_gradient(params, x, y, loss, "h", block, state)


def save_params_csv(params, path):
    """Checkpoint: header naming shapes, then one row of all values flat in
    block order (each layer's weights row-major, then its bias)."""
    names = []
    for l, (W, b) in enumerate(params.layers, start=1):
        names.append("W%d:%dx%d" % (l, W.shape[0], W.shape[1]))
        names.append("b%d:%d" % (l, b.shape[0]))
    write_csv(path, names, [params.to_vector()])


def load_params_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        values = vector_from_csv_row(fh.readline())
    layers = []
    pos = 0
    pending_w = None
    for name in header:
        tag, shape = name.split(":")
        if tag.startswith("W"):
            r, c = (int(v) for v in shape.split("x"))
            pending_w = values[pos:pos + r * c].reshape(r, c)
            pos += r * c
        else:
            d = int(shape)
            layers.append((pending_w, values[pos:pos + d]))
            pos += d
    return MlpParams(layers)
