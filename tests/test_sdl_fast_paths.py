"""The SDL kernels against the code they replaced.

The columnwise top-Q ordering used to be a stable ``argsort`` of ``-|X|``;
its sums and sign patterns read and wrote through ``take_along_axis`` and
``put_along_axis``.  The column-ball projection took ``np.linalg.norm`` and
scaled the columns above norm 1 through a boolean mask.  Copies of those
are kept as references.  On codes with exact ties (signed zeros included),
all-zero columns, every Q in ``[1, l]`` and columns of norm exactly 1, the
kernels must give the same bits.

The soft-threshold used to be the sign form ``sign(v) max(|v| - tau, 0)``;
its clip form must give the same values, with ``+0.0`` for every zero.
Frank-Wolfe used to form its gradient from the residual and write its
vertex through a mask of the nonzero gradient columns (the reference is in
``cases``).  In Gram form it must keep the bits of every column whose
gradient is exactly zero, and, on draws clear of the points where
Frank-Wolfe is not continuous in rounding, take the same iterations as the
reference and agree with it within ``cases.FRANK_WOLFE_BOUND``, with the
same exact zeros on untied draws.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bdcopt.model import BallProductDomain
from bdcopt.problems.sdl import (_lq_signs, _lq_sums, _soft_threshold, _top_q,
                                 inner_frank_wolfe_ball_product, lq_norm,
                                 lq_subgrad)
from cases import (FRANK_WOLFE_BOUND, SPREAD, TIED, assert_near, assert_same,
                   codes_and_q, reference_frank_wolfe)


def reference_top_q(X, Q):
    return np.argsort(-np.abs(X), axis=0, kind="stable")[:Q]


def reference_lq_sums(X, top):
    picked = np.ascontiguousarray(np.take_along_axis(X, top, axis=0).T)
    return np.abs(picked).sum(axis=-1)


def reference_lq_signs(X, top):
    S = np.zeros_like(X)
    signs = np.where(np.take_along_axis(X, top, axis=0) >= 0, 1.0, -1.0)
    np.put_along_axis(S, top, signs, axis=0)
    return S


def reference_project(D):
    D = D.copy()
    norms = np.linalg.norm(D, axis=0)
    over = norms > 1.0
    if np.any(over):
        D[:, over] *= 1.0 / norms[over]
    return D


@settings(max_examples=300, deadline=None)
@given(codes_and_q())
@example((np.zeros((5, 3)), 5))
@example((np.array([[-0.0, 2.0], [0.0, -2.0], [-1.0, 2.0], [1.0, 0.0]]), 3))
def test_top_q_sums_and_signs_match_the_stable_sort(case):
    X, Q = case
    top = reference_top_q(X, Q)
    assert_same(_top_q(X, Q), top)
    assert_same(_lq_sums(X, top), reference_lq_sums(X, top))
    assert_same(_lq_signs(X, top), reference_lq_signs(X, top))


@st.composite
def vector_and_q(draw):
    elements = draw(st.sampled_from([TIED, SPREAD, st.one_of(TIED, SPREAD)]))
    x = draw(hnp.arrays(float, draw(st.integers(1, 24)), elements=elements))
    return x, draw(st.integers(1, x.size))


@settings(max_examples=300, deadline=None)
@given(vector_and_q())
@example((np.array([0.0, -0.0, 0.0]), 2))
@example((np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1e-9]), 9))
def test_lq_norm_and_subgrad_match_the_stable_sort(case):
    x, Q = case
    top = reference_top_q(x, Q)
    assert_same(lq_norm(x, Q), float(reference_lq_sums(x, top)))
    assert_same(lq_subgrad(x, Q), reference_lq_signs(x, top))


# column kinds of a dictionary: drawn entries, all zero, exactly unit norm
# (a signed basis vector), or a drawn column over the ball
COLUMN_KINDS = st.sampled_from(["drawn", "zero", "unit", "over"])


@st.composite
def dictionaries(draw):
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(COLUMN_KINDS, min_size=1, max_size=8))
    elements = draw(st.sampled_from([TIED, SPREAD, st.floats(-1.0, 1.0)]))
    D = draw(hnp.arrays(float, (m, len(kinds)), elements=elements))
    for j, kind in enumerate(kinds):
        if kind == "zero":
            D[:, j] = 0.0
        elif kind == "unit":
            D[:, j] = 0.0
            D[draw(st.integers(0, m - 1)), j] = draw(st.sampled_from([1.0, -1.0]))
        elif kind == "over":
            D[:, j] = 3.0 * D[:, j] + 1.5
    return D


@settings(max_examples=300, deadline=None)
@given(dictionaries())
@example(np.array([[1.0, 0.0, 0.6, 3.0], [0.0, -1.0, 0.8, 4.0]]))
def test_projection_matches_the_masked_norm_scaling(D):
    m, l = D.shape
    got = BallProductDomain(m, l).project(D.ravel())
    assert_same(got, reference_project(D).ravel())


# A quantity that decides a Frank-Wolfe branch and lies within this
# fraction of its scale is taken to be at its threshold in exact arithmetic.
TIE = 1e-6


def clear_of_ties(Y, X, D0, rho, tol, record):
    """Whether the reference run, as ``record``ed, stays clear of the points
    where Frank-Wolfe is not continuous in rounding: a moving column (its
    row of ``X`` is not zero) whose gradient is zero in exact arithmetic, so
    that rounding alone sets its vertex (one exact line search along a
    single column makes such a zero), a gap at ``tol``, or a zero curvature
    of a nonzero move.  Each is measured against the scale of the terms it
    sums."""
    moving = X.any(axis=1)
    curv_scale = np.linalg.norm(X @ X.T) + rho
    grad_scale = (curv_scale * (np.sqrt(X.shape[0]) + np.linalg.norm(D0))
                  + np.linalg.norm(Y @ X.T))
    for norms, gap, curv, Delta in record:
        if np.any(moving & (norms <= TIE * grad_scale)):
            return False
        if abs(gap - tol) <= TIE * grad_scale * X.shape[0]:
            return False
        if Delta.any() and curv <= TIE * curv_scale * np.sum(Delta * Delta):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from([0.0, 0.5]),
       st.integers(1, 6), st.sampled_from([0.0, 1e-6]))
@example(0, True, 0.0, 6, 0.0)
def test_frank_wolfe_matches_the_masked_vertex(seed, tied, rho, budget, tol):
    """Zero rows of X make columns whose gradient is exactly zero for good
    (the rho term stays zero while the column does not move), and the start
    mixes unit-norm, zero and drawn columns, with no ``-0.0``."""
    rng = np.random.default_rng(seed)
    m, l, n = (int(v) for v in rng.integers(1, 7, size=3))
    if tied:
        X = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0], size=(l, n))
        Y = rng.choice([0.0, 1.0, -1.0, 0.5], size=(m, n))
    else:
        X = rng.standard_normal((l, n))
        Y = rng.standard_normal((m, n))
    X[rng.random(l) < 0.4] = 0.0
    D0 = reference_project(rng.standard_normal((m, l)))
    for j in range(l):
        kind = rng.integers(3)
        if kind == 0:
            D0[:, j] = 0.0
            D0[rng.integers(m), j] = rng.choice([1.0, -1.0])
        elif kind == 1:
            D0[:, j] = 0.0
    got = inner_frank_wolfe_ball_product(Y, X, D0, budget, rho, tol)
    still = ~X.any(axis=1)
    assert_same(got[0][:, still], D0[:, still])

    record = []
    want = reference_frank_wolfe(Y, X, D0, budget, rho, tol, record)
    assume(clear_of_ties(Y, X, D0, rho, tol, record))
    # clear of ties both runs take the same branches; on tied data an
    # entry that is zero in exact arithmetic can round to zero in one form
    # and to about 1e-17 in the other
    assert got[1] == want[1]
    assert_near(got[0], want[0], FRANK_WOLFE_BOUND, zeros=not tied, scale=1.0)


@st.composite
def thresholded(draw):
    """A threshold ``tau >= 0`` and a vector whose entries include ``+-0.0``,
    ``+-tau``, their float neighbours and repeated values."""
    tau = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 5e-324]),
                         st.floats(0.0, 10.0)))
    near = [0.0, -0.0, tau, -tau, np.nextafter(tau, np.inf),
            np.nextafter(tau, 0.0), -np.nextafter(tau, np.inf),
            -np.nextafter(tau, 0.0)]
    elements = st.one_of(st.sampled_from(near), SPREAD, TIED)
    return draw(hnp.arrays(float, draw(st.integers(1, 24)), elements=elements)), tau


@settings(max_examples=300, deadline=None)
@given(thresholded())
@example((np.array([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 0.5, 0.5]), 0.5))
@example((np.array([-0.0, 0.0, 3.0, -3.0]), 0.0))
def test_clip_soft_threshold_matches_the_sign_form(case):
    v, tau = case
    got = _soft_threshold(v, tau)
    want = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
    np.testing.assert_array_equal(got, want, strict=True)
    assert not np.signbit(got[got == 0]).any()


@pytest.mark.parametrize("Q", [1, 3, 6])
def test_all_zero_codes_pick_the_first_rows(Q):
    # exact zeros of either sign tie, and the lowest rows come first
    X = np.zeros((6, 4))
    X[::2] = -0.0
    np.testing.assert_array_equal(_top_q(X, Q), np.tile(np.arange(Q)[:, None], 4))
