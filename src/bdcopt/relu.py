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
``max(p, Z-)`` take the ``p`` branch.  Each selection is a subgradient of the
convex part along the block, so ``g(x + t d) >= g(x) + t <grad, d>``; the
cutting planes of the MLP block solver's bundle rest on this subgradient
inequality, and
``tests/test_mlp_block_step.py::test_block_gradient_is_a_subgradient_of_g``
checks it at kinks and ties.  A block ``l``'s sweep traverses only layers
``>= l`` and stops at layer ``l``.

A block solve evaluates many trial points that differ in one layer only,
so the pass pays only for what moves.  :class:`MlpParams` keeps each
layer's split weights ``(relu(W), relu(-W))`` once computed; a
:class:`SplitState` keeps the rowwise ``exp`` of its output that the
cross-entropy value, its adjoint and :func:`residual_grads` share; and a
:class:`BlockTail` binds, checked once, what one block solve holds fixed
as plain per-layer lists: the weights and biases, the frozen layers' split
weights, a kept pass's layers below the block (for block 0, layer 0's zero
view) and the labels' flat indices.  A trial point is then one
straight-line call on the block's ``(W, b)``: the pass from the block,
the ``g`` value, the output adjoints and the sweep back to the block,
with no parameter set or :class:`SplitState` built.  Each reuse gives the
bits of the computation it replaces.  The public :func:`forward_split`,
:func:`loss_part` and :func:`block_grad_g` run the same unchecked list
kernels: the pass (``_forward``), the value (``_value``), the adjoints
(``_adjoints``) and the sweep (``_sweep``).  On a trial point's few rows
a numpy call costs more than its arithmetic, so these kernels call the
ufunc reductions (``np.add.reduce``) that the ndarray methods (``sum``)
wrap in Python, and reach each row's label entry by its flat index
(``take``, ``put``) rather than by a pair of index arrays: the same loops
and the same entries, so the same bits.

Layer 0 reads the raw inputs, so its ``Z-`` is zero by construction: the
pass keeps it as a read-only zero view (zero strides over one read-only
``0.0``, no allocation), and no product is formed with it.  Layer 1's
forward products (the output's, in a net with one hidden layer), block 1's
weight gradient and :func:`residual_grads` read layer 0's ``Z+`` alone, and
a sweep down to layer 0 forms no ``Z-`` adjoint at layer 1.  Each dropped
term would add an exact ``+0.0`` to a BLAS product, which starts from a
``+0.0`` accumulator and so is never ``-0.0``: the bits are those of the
full products.

The stationarity vectors ``grad g - grad h`` need no split sweep: the two
parts' output adjoints differ by ``(d, -d)``, and the split sweep keeps such
a pair antisymmetric, so :func:`residual_grads` gets every block's
difference from one plain backprop through ``W`` with the same kink
selections.
"""

from dataclasses import dataclass, field

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
    "BlockTail",
    "residual_grads",
    "log_sum_exp",
    "save_params_csv",
    "load_params_csv",
]


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False  # so is every view of it


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_deriv(x):
    # relu'(0) := 0
    return (x > 0).astype(float)


def _split_pair(x):
    """``(relu(x), relu(-x))``: the nonnegative parts of a weight array."""
    return _relu(x), _relu(-x)


def _split_layer(W, b, last):
    """A layer's ``(relu(W), relu(-W))``, followed for the output layer
    (``last``) by ``(relu(b), relu(-b))``."""
    pairs = _split_pair(W)
    return pairs + _split_pair(b) if last else pairs


@dataclass
class MlpParams:
    """Fully-connected ReLU network parameters; one block per layer.

    ``layers[l] = (W, b)`` with ``W`` of shape ``(d_out, d_in)``.  The last
    layer is linear with ``class_count`` outputs (1 for regression).

    A layer's split weights are computed on first use and kept (see
    :meth:`split`), so the arrays must not be edited once a pass has read
    them; build new parameters instead.
    """

    layers: list
    _split: list = field(default=None, init=False, repr=False, compare=False)

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
        self._split = [None] * len(self.layers)

    def split(self, l):
        """Layer ``l``'s ``(relu(W), relu(-W))``, computed on first use and
        kept; the output layer's pair is followed by ``(relu(b), relu(-b))``."""
        pairs = self._split[l]
        if pairs is None:
            pairs = self._split[l] = _split_layer(*self.layers[l],
                                                  l == len(self.layers) - 1)
        return pairs

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
        """New parameter set with values taken from a flat vector of the
        parameter count (else ``ValueError``); its arrays are views into it."""
        theta = np.asarray(theta, dtype=float)
        n_params = sum(W.size + b.size for W, b in self.layers)
        if theta.size != n_params:
            raise ValueError("vector length does not match parameter count: "
                             "got %d, need %d" % (theta.size, n_params))
        layers = []
        pos = 0
        for W, b in self.layers:
            w_new = theta[pos:pos + W.size].reshape(W.shape)
            pos += W.size
            b_new = theta[pos:pos + b.size]
            pos += b.size
            layers.append((w_new, b_new))
        return MlpParams(layers)

def random_params(layer_dims, rng):
    """Random network with the given neuron counts, e.g. ``(2, 8, 8, 3)``:
    standard normal weights and biases scaled by ``1/sqrt(fan-in)``."""
    for k, d in enumerate(layer_dims):
        if d < 1:
            raise ValueError("layer %d has width %r; widths must be positive"
                             % (k, d))
    layers = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        s = 1.0 / np.sqrt(d_in)
        layers.append((s * rng.standard_normal((d_out, d_in)),
                       s * rng.standard_normal(d_out)))
    return MlpParams(layers)


@dataclass
class SplitState:
    """Per-layer split activations of one (batched) forward pass.

    Lists are indexed by hidden layer; arrays carry a leading batch axis.
    ``z_plus - z_minus`` equals the standard ReLU activations, both parts are
    entrywise nonnegative, and ``a_out - b_out`` is the network output.
    ``z_minus[0]`` is a read-only zero view of ``pre[0]``'s shape, with zero
    strides: no product is formed with it.
    """

    pre: list
    z_plus: list
    z_minus: list
    a_out: np.ndarray
    b_out: np.ndarray
    _exp: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def output(self):
        return self.a_out - self.b_out

    def exp_rows(self):
        """``(m, E, s)`` of the output ``F``: the rowwise max ``m``, ``E =
        exp(F - m)`` and its row sums ``s``, each with a trailing axis;
        computed on first use and kept."""
        if self._exp is None:
            self._exp = _exp_rows(self.output)
        return self._exp


def _exp_rows(F):
    """:meth:`SplitState.exp_rows` of an output ``F``, computed afresh."""
    m = np.maximum.reduce(F, axis=-1, keepdims=True)
    E = np.exp(F - m)
    return m, E, np.add.reduce(E, axis=-1, keepdims=True)


def _as_batch(x, input_dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError("input shape %r does not match input dim %d" % (x.shape, input_dim))
    return x


def forward_split(params, x):
    """Run the split forward recursion; returns the full :class:`SplitState`.

    Layer 0's ``z-`` is a read-only zero view, and the first split layer
    (the output layer, in a net with one hidden layer) forms only its two
    products with layer 0's ``z+``.
    """
    return _pass(params, _as_batch(x, params.input_dim), 0, None)


def _check_block(params, block):
    if not 0 <= block < params.n_layers:
        raise IndexError("block %d out of range for %d layers"
                         % (block, params.n_layers))


def _pass(params, X, start, lower):
    """The split pass of ``params`` on ``X``, a float batch, without checks.
    ``start = l > 0`` runs only the tail from layer ``l``: the hidden layers
    below ``l`` are those of ``lower``, a pass on ``X`` of a network whose
    layers below ``l`` equal these.  Their arrays are shared, not copied,
    and every layer the tail computes has the full pass's bits."""
    lists = _below(X, params.layers, start, lower)
    a_out, b_out = _forward(params.layers, _splits(params, start), X, start,
                            *lists)
    return SplitState(*lists, a_out, b_out)


def _below(X, layers, start, lower):
    """The ``(pre, z_plus, z_minus)`` lists a pass on ``X`` from layer
    ``start`` starts from: ``lower``'s layers below ``start``, shared, or
    for ``start = 0`` only layer 0's ``z-``, a read-only zero view (zero
    strides over ``_ZERO``)."""
    if start == 0:
        return [], [], [np.ndarray((X.shape[0], layers[0][0].shape[0]), float,
                                   _ZERO, 0, (0, 0))]
    return lower.pre[:start], lower.z_plus[:start], lower.z_minus[:start]


def _splits(params, start):
    """``params``'s kept split weights as a list indexed by layer, with
    every layer from ``max(start, 1)`` up computed."""
    for l in range(max(start, 1), params.n_layers):
        params.split(l)
    return params._split


def _forward(layers, splits, X, start, pre, z_plus, z_minus):
    """The pass of :func:`_pass` over plain lists: the network ``layers``,
    ``splits[l]`` as :meth:`MlpParams.split` gives it for every layer ``l
    >= max(start, 1)``, and the per-layer lists of the hidden layers below
    ``start``, to which it appends the rest; ``z_minus`` starts with layer
    0's zero view.  Returns the output pair ``(a_out, b_out)``.

    Layer ``l``'s split products are ``(zp Wp' + zm Wm', zm Wp' + zp Wm')``
    of its input pair; at layer 1, ``zm`` is layer 0's zero view and only
    the ``zp`` products are formed."""
    L = len(layers) - 1  # the output layer
    if start == 0:
        W0, b0 = layers[0]
        pre.append(X @ W0.T + b0)
        z_plus.append(_relu(pre[0]))
    zp, zm = z_plus[-1], z_minus[-1]
    for l in range(max(start, 1), L + 1):
        Wp, Wm = splits[l][:2]
        P, M = zp @ Wp.T, zp @ Wm.T
        if l > 1:
            P, M = P + zm @ Wm.T, zm @ Wp.T + M
        if l == L:
            return P + splits[L][2], M + splits[L][3]
        P = P + layers[l][1]
        zp, zm = np.maximum(P, M), M
        pre.append(P)
        z_plus.append(zp)
        z_minus.append(zm)


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


def loss_part(state, y, loss, part, picks=None):
    """Batch-summed convex (``part="g"``) or concave-side (``"h"``) part of
    ``loss`` from a forward pass, without checks: ``y`` as returned by
    :func:`loss_labels`.  For ``"ce"``, ``picks`` may give the flat index
    of each row's label entry, ``rows * C + y``, kept by a caller that
    evaluates many passes on the same rows."""
    ce = loss != "mse"
    if ce and picks is None:
        picks = _label_picks(y, state.a_out.shape[1])
    return _value(state.a_out, state.b_out, y, loss, part, picks,
                  state.exp_rows() if ce and part == "g" else None)


def _value(A, B, y, loss, part, picks, exp):
    """:func:`loss_part` on the output pair ``(A, B)``, with ``"ce"``'s
    ``picks`` given and, for its ``g`` part, ``exp``, the output's
    :meth:`SplitState.exp_rows`."""
    if loss == "mse":
        A, B = A[:, 0], B[:, 0]
        if part == "g":
            return float(np.add.reduce(2.0 * (A ** 2 + (B + y) ** 2)))
        return float(np.add.reduce((A + B + y) ** 2))
    sum_b = np.add.reduce(B, axis=1)
    if part == "g":
        m, _, s = exp
        lse = (m + np.log(s))[:, 0]  # log_sum_exp of the output
        return float(np.add.reduce(lse + sum_b + B.take(picks)))
    return float(np.add.reduce(A.take(picks) + sum_b))


def _label_picks(y, n_classes):
    """Flat (C-order) indices of each row's label entry in an ``(N,
    n_classes)`` output: ``B.take(picks)`` is ``B[np.arange(N), y]``, and
    ``put`` writes those entries, whatever the array's memory order.  A
    label outside ``[0, n_classes)`` raises ``ValueError``."""
    return np.ravel_multi_index((np.arange(len(y)), y), (len(y), n_classes))


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


def _output_adjoints(state, y, loss, part, picks=None):
    """d(part)/dA and d(part)/dB per sample; both entrywise nonnegative, so
    the chain rule below stays inside the convex subdifferential calculus.
    ``picks`` as in :func:`loss_part`."""
    A, exp = state.a_out, None
    if loss == "mse":
        y = np.asarray(y, dtype=float).reshape(A.shape[0], 1)
    elif loss != "ce":
        raise ValueError("loss must be 'mse' or 'ce'")
    else:
        if picks is None:
            picks = _label_picks(y, A.shape[1])
        if part == "g":
            exp = state.exp_rows()
    return _adjoints(A, state.b_out, y, loss, part, picks, exp)


def _adjoints(A, B, y, loss, part, picks, exp):
    """:func:`_output_adjoints` on the output pair ``(A, B)``: ``"mse"``
    reads ``y`` as a float column, ``"ce"`` reads ``picks`` and, for its
    ``g`` part, ``exp`` as in :func:`_value`."""
    if loss == "mse":
        if part == "g":
            return 4.0 * A, 4.0 * (B + y)
        s = 2.0 * (A + B + y)
        return s, s.copy()
    if part == "g":
        S = exp[1] / exp[2]  # softmax of the output
        dB = 1.0 - S
        dB.put(picks, dB.take(picks) + 1.0)
        return S, dB
    dA = np.zeros_like(A)
    dA.put(picks, 1.0)
    return dA, np.ones_like(B)


def _loss_block_gradient(params, x, y, loss, part, block, state):
    """One top-down reverse sweep to layer ``block``: its ``(dW, db)``,
    returned as soon as the sweep forms it."""
    _check_block(params, block)
    X = _as_batch(x, params.input_dim)
    if state is None:
        state = forward_split(params, X)
    dp, dzm = _output_adjoints(state, np.atleast_1d(np.asarray(y)), loss, part)
    return _sweep(params.layers, _splits(params, block + 1), X, state.pre,
                  state.z_plus, state.z_minus, dp, dzm, block)


def _sweep(layers, splits, X, pre, z_plus, z_minus, dp, dzm, block):
    """:func:`_loss_block_gradient`'s sweep without its checks, over plain
    lists as :func:`_forward` reads and fills them (``splits[l]`` for every
    layer ``l > block``), from the output adjoints ``(dp, dzm)`` of that
    pass on ``X``; the output pair (A, B) enters it as a layer's (p, z-)
    pair."""
    L = len(layers) - 1  # the output layer
    # top-down: layer l's input adjoints, then layer l - 1's z+ = max(p, z-)
    for l in range(L, block, -1):
        Wp, Wm = splits[l][:2]
        dZp = dp @ Wp + dzm @ Wm
        if l == 1:  # layer 0's z- is constant zero: its adjoint goes unread
            dp = _relu_deriv(pre[0]) * dZp
            return dp.T @ X, np.add.reduce(dp, axis=0)
        dZm = dp @ Wm + dzm @ Wp
        mask = (pre[l - 1] >= z_minus[l - 1]).astype(float)
        dp, dzm = mask * dZp, dZm + (1.0 - mask) * dZp
    W, b = layers[block]
    Zp_in = z_plus[block - 1]
    Gp, Gm = dp.T @ Zp_in, dzm.T @ Zp_in
    if block > 1:  # layer 1's input z- is layer 0's zero view
        Zm_in = z_minus[block - 1]
        Gp, Gm = Gp + dzm.T @ Zm_in, dp.T @ Zm_in + Gm
    dW = _relu_deriv(W) * Gp - _relu_deriv(-W) * Gm
    db = np.add.reduce(dp, axis=0)
    if block == L:  # the output bias is split as relu(b) - relu(-b)
        db = (_relu_deriv(b) * db
              - _relu_deriv(-b) * np.add.reduce(dzm, axis=0))
    return dW, db


def residual_grads(params, x, y, loss, state):
    """Every layer's ``(dW, db)`` of ``g - h`` from one plain reverse sweep:
    the difference of :func:`block_grad_g` and :func:`block_grad_h` up to
    rounding.

    The two parts' output adjoints differ by ``(d, -d)``, with ``d =
    softmax(F) - e_y`` for ``"ce"`` and ``d = 2 (F - y)`` for ``"mse"``, and
    the split sweep maps an antisymmetric pair ``(e, -e)`` to another one.
    So the sweep of the difference is backprop through ``W`` with the
    split's kink selections: the factor ``[W != 0]`` on the weights of
    layers >= 1, ``[b != 0]`` on the output bias, the hidden mask ``pre >=
    z-``, ``relu'(0) = 0`` at layer 0, and input activations ``z+ - z-``;
    layer 0's ``z-`` is a read-only zero view, so layer 1 reads layer 0's
    ``z+`` directly and subtracts nothing.  ``state`` is the forward pass
    of ``params`` on ``x`` (:func:`forward_split`) that the sweep reads.
    The label entries are read by flat index, as
    in :func:`loss_part`, so a cross-entropy label outside ``[0, C)``
    raises ``ValueError``.
    """
    X = _as_batch(x, params.input_dim)
    y = np.atleast_1d(np.asarray(y))
    F = state.output
    if loss == "mse":
        d = 2.0 * (F - y.reshape(-1, 1))
    elif loss == "ce":
        _, E, s = state.exp_rows()
        d = E / s
        picks = _label_picks(y, d.shape[1])
        d.put(picks, d.take(picks) - 1.0)
    else:
        raise ValueError("loss must be 'mse' or 'ce'")
    L = params.n_layers
    grads = [None] * L
    for l in range(L - 1, 0, -1):
        W, b = params.layers[l]
        if l < L - 1:  # z+ = max(p, z-), ties to p, as in the split sweep
            d = (state.pre[l] >= state.z_minus[l]) * e
        a_in = state.z_plus[l - 1]  # layer 0's z- is zero: z+ is the activation
        if l > 1:
            a_in = a_in - state.z_minus[l - 1]
        dW = (W != 0.0) * (d.T @ a_in)
        db = d.sum(axis=0)
        if l == L - 1:
            db = (b != 0.0) * db
        grads[l] = (dW, db)
        e = d @ W
    d = _relu_deriv(state.pre[0]) * e
    grads[0] = (d.T @ X, d.sum(axis=0))
    return grads


def block_grad_g(params, x, y, loss, block, state=None):
    """Subgradient of the batch-summed convex part w.r.t. layer ``block``,
    shaped like ``(W, b)``.  Matches central finite differences on smooth
    regions.  ``state`` reuses a forward pass of ``params`` on ``x``."""
    return _loss_block_gradient(params, x, y, loss, "g", block, state)


def block_grad_h(params, x, y, loss, block, state=None):
    """Subgradient of the batch-summed concave-side part w.r.t. layer
    ``block``; ``block`` and ``state`` as in :func:`block_grad_g`."""
    return _loss_block_gradient(params, x, y, loss, "h", block, state)


class BlockTail:
    """The batch-summed ``g`` part and its gradient along layer ``block``,
    as a function of that layer's ``(W, b)`` alone, every other layer held
    at ``params``: one call per trial point of a block solve.

    What stays fixed is checked and bound once, here, as plain per-layer
    lists: the rows ``x``; the labels ``y`` (checked by
    :func:`loss_labels`), as the loss's value and adjoints read them (their
    flat indices for ``"ce"``, a float column for the ``"mse"`` adjoints);
    every layer's weights and biases; the split weights of the layers above
    ``block``; and the ``pre``, ``z+`` and ``z-`` of ``lower``, a pass of
    ``params`` on ``x``, below ``block`` (for block 0, which needs no
    ``lower``, layer 0's zero view).  A call is one straight-line function
    of those lists: the unchecked pass from layer ``block``, the ``g``
    value, the output adjoints and the sweep to layer ``block``, the
    kernels that :func:`forward_split`, :func:`loss_part` and
    :func:`block_grad_g` run, with no parameter set or
    :class:`SplitState` built.  So it returns the bits that those three
    give on the trial point's parameters, and it keeps nothing.  ``W`` and
    ``b`` are float arrays of the layer's shapes, and are not checked.
    """

    def __init__(self, params, x, y, loss, block, lower=None):
        _check_block(params, block)
        X = _as_batch(x, params.input_dim)
        if block > 0 and (lower is None or lower.pre[0].shape[0] != X.shape[0]):
            raise ValueError(
                "a tail pass from layer %d needs the lower layers of a pass on "
                "the same rows: x has %d rows, the lower pass %s"
                % (block, X.shape[0], "is missing" if lower is None
                   else "has %d" % lower.pre[0].shape[0]))
        y = loss_labels(params, y, loss)
        if y.shape != (X.shape[0],):
            raise ValueError("%d labels for %d rows" % (y.size, X.shape[0]))
        self.X, self.loss, self.block = X, loss, block
        self.last = block == params.n_layers - 1
        self.layers = list(params.layers)
        self.splits = list(_splits(params, block + 1))
        self.lower = _below(X, self.layers, block, lower)
        if loss == "mse":  # the value reads y, the adjoints a float column
            self.y, self.y_adj, self.picks = y, y.reshape(-1, 1), None
        else:
            self.y = self.y_adj = y
            self.picks = _label_picks(y, params.class_count)

    def __call__(self, W, b):
        """``(g, dW, db)`` with layer ``block`` set to ``(W, b)``."""
        block, X, loss, picks = self.block, self.X, self.loss, self.picks
        layers, splits = self.layers.copy(), self.splits.copy()
        layers[block] = (W, b)
        if block:  # layer 0's pass reads W itself
            splits[block] = _split_layer(W, b, self.last)
        pre, z_plus, z_minus = self.lower
        pre, z_plus, z_minus = pre.copy(), z_plus.copy(), z_minus.copy()
        A, B = _forward(layers, splits, X, block, pre, z_plus, z_minus)
        exp = None if picks is None else _exp_rows(A - B)
        g = _value(A, B, self.y, loss, "g", picks, exp)
        dp, dzm = _adjoints(A, B, self.y_adj, loss, "g", picks, exp)
        return (g, *_sweep(layers, splits, X, pre, z_plus, z_minus, dp, dzm,
                           block))


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
    arrays, pos = [], 0
    for name in header:  # W1:16x2, b1:16, W2:..., in block order
        shape = tuple(int(v) for v in name.split(":")[1].split("x"))
        size = int(np.prod(shape))
        arrays.append(values[pos:pos + size].reshape(shape))
        pos += size
    return MlpParams(list(zip(arrays[::2], arrays[1::2])))
