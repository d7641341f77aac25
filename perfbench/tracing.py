"""In-memory spans around the public layer boundaries of ``bdcopt``.

``instrument(tracer)`` swaps wrapped versions of the public functions and
problem methods into their modules and classes, and puts the originals back
on exit.  A span is a list ``[name, start, end, parent, note]``: ``parent``
is the index of the enclosing span (-1 at top level) and ``note`` is a
count the wrapper took from the call (GD steps, inner iterations, rows).
``layer_metrics(spans)`` reduces one traced solve to the per-layer metrics.
"""

import bisect
import contextlib
import functools
import itertools
import time

from bdcopt import experiments, model, relu, solvers
from bdcopt.problems import cp, mlp, sdl

ORACLES = ("eval_f", "eval_g", "eval_h", "grad_g_block", "subgrad_h_block")

# an oracle called straight from one of these keeps records; it does not
# move the iterate (a step, inner solve or GD step is never among them)
_RECORDERS = ("experiments", "solvers.run", "callback")
_DIAG = ("diag.residual_blocks", "diag.smoothness")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return traced


def _rows(args, result):
    x = args[1]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


@contextlib.contextmanager
def instrument(tracer):
    """Route the layer boundaries of ``bdcopt`` through ``tracer``."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, note=None):
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], note))

    try:
        for attr in ("run_sdl_experiment", "run_sdl_gd_comparison",
                     "run_relu_experiment", "run_tensor_experiment"):
            span(experiments, attr, "experiments")
        for owner, attr in ((experiments, "sdl_synthetic"),
                            (experiments, "gaussian_blobs"),
                            (experiments, "cp_reconstruct"),
                            (relu, "random_params")):
            span(owner, attr, "experiments.inputs")
        span(experiments, "gd_baseline_sdl", "gd", note=lambda a, r: a[1])
        span(experiments, "bdca_step", "step")
        span(experiments, "smoothness_estimate", "diag.smoothness")
        span(solvers, "residual_blocks", "diag.residual_blocks")
        span(model, "residual_blocks", "diag.residual_blocks")
        for cls in (sdl.SdlProblem, mlp.MlpTaskProblem, cp.CpProblem):
            for attr in ORACLES:
                span(cls, attr, "oracle." + attr)
            span(cls, "minimize_block_surrogate", "inner", note=lambda a, r: r[1])
        span(sdl, "lq_norm", "sdl.lq_norm")
        span(sdl, "lq_subgrad", "sdl.lq_subgrad")
        span(sdl, "inner_frank_wolfe_ball_product", "inner.frank_wolfe")
        span(relu, "forward_split", "relu.forward_split", note=_rows)
        span(relu, "block_grad_g", "relu.block_grad")
        span(relu, "block_grad_h", "relu.block_grad")

        prox = tracer.wrap("inner.prox_gradient", sdl.inner_prox_gradient)
        patch(sdl, "inner_prox_gradient", lambda value_grad, *a, **k: prox(
            tracer.wrap("inner.value_grad", value_grad), *a, **k))
        run = tracer.wrap("solvers.run", experiments.run)
        patch(experiments, "run", lambda problem, config, theta0=None, callback=None: run(
            problem, config, theta0=theta0,
            callback=None if callback is None else tracer.wrap("callback", callback)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- reduction ------------------------------------------------------------------

def remove_pauses(spans, pauses):
    """Spans on a clock that stands still during ``pauses``, the sorted,
    disjoint ``(start, end)`` intervals in which the reference kernel ran."""
    ends = [e for _, e in pauses]
    before = list(itertools.accumulate((e - s for s, e in pauses), initial=0.0))

    def shift(t):
        return t - before[bisect.bisect_right(ends, t)]

    return [[n, shift(s), shift(e), p, note] for n, s, e, p, note in spans]


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children[k]) for k, s in enumerate(spans)]


def add_run_steps(spans):
    """Give each block step inside ``solvers.run`` a ``step`` span.

    ``run`` calls a private step function, so its steps are rebuilt from the
    order of their calls: the step starts with the call just before the
    inner solve (the concave-side subgradient) and ends with the
    ``eval_g`` calls of the surrogate-descent check that follow it.
    Returns a new span list; the indices of existing spans do not change.
    """
    spans = [list(s) for s in spans]
    siblings = {}
    for k, s in enumerate(spans):
        siblings.setdefault(s[3], []).append(k)
    for parent, kids in siblings.items():
        if parent < 0 or spans[parent][0] != "solvers.run":
            continue
        for pos, k in enumerate(kids):
            if spans[k][0] != "inner" or pos == 0:
                continue
            members = [kids[pos - 1], k]
            for j in kids[pos + 1:]:
                if spans[j][0] != "oracle.eval_g":
                    break
                members.append(j)
            step = len(spans)
            spans.append(["step", spans[members[0]][1], spans[members[-1]][2],
                          parent, None])
            for j in members:
                spans[j][3] = step
    return spans


def _has_ancestor(spans, k, names):
    p = spans[k][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans):
    """Per-layer counts and seconds of one traced solve (raw, unscaled)."""
    n_recorded = len(spans)
    spans = add_run_steps(spans)
    self_s = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    m = {}

    def by(name):
        return [k for k, s in enumerate(spans) if s[0] == name]

    def total(ks, values=dur):
        return float(sum(values[k] for k in ks))

    def notes(ks):
        return int(sum(spans[k][4] for k in ks))

    for attr in ORACLES:
        ks = by("oracle." + attr)
        m["oracle.%s.calls" % attr] = len(ks)
        m["oracle.%s.self_s" % attr] = total(ks, self_s)
    for name in ("sdl.lq_norm", "sdl.lq_subgrad", "inner.frank_wolfe",
                 "inner.prox_gradient", "diag.residual_blocks", "diag.smoothness"):
        ks = by(name)
        m[name + ".calls"] = len(ks)
        m[name + ".s"] = total(ks)
    m["inner.prox_gradient.value_grad_calls"] = len(by("inner.value_grad"))

    gd = by("gd")
    m["gd.steps"] = notes(gd)
    m["gd.self_s"] = total(gd, self_s)

    fs = by("relu.forward_split")
    m["relu.forward_split.calls"] = len(fs)
    m["relu.forward_split.rows"] = notes(fs)
    m["relu.forward_split.s"] = total(fs)
    bg = by("relu.block_grad")
    m["relu.block_grad.calls"] = len(bg)
    m["relu.block_grad.self_s"] = total(bg, self_s)

    inner = by("inner")
    m["inner.calls"] = len(inner)
    m["inner.self_s"] = total(inner, self_s)
    m["inner.iters"] = notes(inner)
    evals = [k for k, s in enumerate(spans)
             if (s[0].startswith("oracle.") or s[0] == "inner.value_grad")
             and _has_ancestor(spans, k, ("inner",))]
    m["inner.evals_per_step"] = len(evals) / len(inner) if inner else 0.0

    def is_diag(s):
        return s[0] in _DIAG or (s[0].startswith("oracle.") and s[3] >= 0
                                 and spans[s[3]][0] in _RECORDERS)

    under_diag = [_has_ancestor(spans, k, _DIAG) for k in range(len(spans))]
    top = [k for k, s in enumerate(spans) if is_diag(s) and not under_diag[k]]
    m["diag.s"] = total(top)
    m["diag.oracle_calls"] = sum(1 for k, s in enumerate(spans)
                                 if s[0].startswith("oracle.")
                                 and (is_diag(s) or under_diag[k]))

    steps = by("step")
    m["step.calls"] = len(steps)
    m["step.s"] = total(steps)
    m["step.self_s"] = total(steps, self_s)
    m["step.check_s"] = total(
        k for k, s in enumerate(spans)
        if s[0] == "oracle.eval_g" and s[3] >= 0 and spans[s[3]][0] == "step")

    m["experiments.self_s"] = total(by("experiments"), self_s)
    m["experiments.inputs_s"] = total(by("experiments.inputs"))
    m["trace.spans"] = n_recorded
    return m
