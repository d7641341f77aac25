"""The SDL inner solvers against the longer code they replaced.

The code-block solver used to search for its step by backtracking from the
Lipschitz estimate, which made its callback return the surrogate value next
to the gradient and took one gradient more than its steps use; it took
``||D||_2`` from an SVD and its soft-threshold was the sign form.
Frank-Wolfe used to form the gradient from the residual ``Y - D X`` every
iteration, and ``eval_g`` wrote the fit out a second time.  Copies of those
are kept as references, here and in ``cases.reference_frank_wolfe``.

Both solvers now run in Gram form, which rounds differently, so on random
blocks, zero dictionaries, and codes with exact zeros and ties the
references guard values, not bits: each solve must agree with its
reference within a bound stated below, have its exact zeros in the same
places, and take the same number of iterations whenever ``tol > 0``.
``eval_g`` still gives the reference's bits.
"""

import numpy as np
import pytest

from bdcopt.problems.sdl import (SdlInstance, SdlProblem,
                                 inner_frank_wolfe_ball_product,
                                 inner_prox_gradient, sdl_synthetic)
from cases import FRANK_WOLFE_BOUND, assert_near, reference_frank_wolfe

# The forward step ``A x + c`` rounds differently from ``x - grad(x)/L``,
# and ``L`` comes from ``eigvalsh`` on ``D D^T`` instead of the SVD; the
# prox gives the same values as the sign form (test_sdl_fast_paths).  A
# forward-backward step at ``1/L`` is nonexpansive, so a rounding
# difference made in one iteration is not amplified by the later ones:
# after k iterations the codes differ by at most about k times a few ulps
# of the forward step's terms.  1e-12 is 60 iterations of about 75 ulps
# (eps = 2.2e-16); the worst of the 192 solves below measured 3.3e-15.
CODE_BOUND = 1e-12


def reference_prox_gradient(value_grad, prox, x0, budget, tol, lipschitz):
    """Monotone proximal gradient with backtracking on ``(value, gradient)``."""
    x = np.array(x0, dtype=float, copy=True)
    L = float(lipschitz)
    val, grad = value_grad(x)
    iters = 0
    for _ in range(budget):
        iters += 1
        while True:
            z = prox(x - grad / L, 1.0 / L)
            dz = z - x
            sq = float(np.sum(dz * dz))
            val_z, grad_z = value_grad(z)
            if val_z <= val + float(np.dot(grad.ravel(), dz.ravel())) + 0.5 * L * sq + 1e-15 * (1 + abs(val)):
                break
            L *= 2.0
            if L > 1e18:
                raise RuntimeError("backtracking underflow: step size vanished")
        x, val, grad = z, val_z, grad_z
        if L * float(np.sqrt(sq)) <= tol:
            break
    return x, iters


def reference_code_step(prob, theta, u, rho, budget, tol):
    """The code-block solve with the ``(value, gradient)`` callback."""
    D, X0 = prob.unpack(theta)
    Y, alpha = prob.instance.Y, prob.instance.alpha
    U = np.asarray(u).reshape(prob.l, prob.n)
    lip = float(np.linalg.norm(D, 2)) ** 2 + rho or 1.0

    def value_grad(x):
        Xc = x.reshape(prob.l, prob.n)
        R = D @ Xc - Y
        val = 0.5 * float(np.sum(R * R)) - float(np.sum(U * Xc))
        grad = D.T @ R - U
        if rho:
            val += 0.5 * rho * float(np.sum((Xc - X0) ** 2))
            grad = grad + rho * (Xc - X0)
        return val, grad.ravel()

    def prox(x, t):
        return np.sign(x) * np.maximum(np.abs(x) - alpha * t, 0.0)

    return reference_prox_gradient(value_grad, prox, X0.ravel(), budget, tol, lip)


def reference_eval_g(prob, theta):
    D, X = prob.unpack(theta)
    fit = 0.5 * float(np.sum((prob.instance.Y - D @ X) ** 2))
    return fit + prob.instance.alpha * float(np.sum(np.abs(X)))


def random_block(seed, variant, dictionary, codes):
    """An SDL instance whose start point has the given kind of dictionary
    (``planted``, ``shrunk`` columns inside the ball, or ``zero``) and codes
    (``float``, ``ties`` from {0, +-1, +-2}, or ``zero``)."""
    rng = np.random.default_rng(seed)
    m, l, n = 6, 9, 12
    Y, D, _ = sdl_synthetic(m, l, n, 3, seed=seed)
    if dictionary == "shrunk":
        D = D * rng.uniform(0.2, 1.0, size=l)
    elif dictionary == "zero":
        D = np.zeros((m, l))
    if codes == "float":
        X = rng.standard_normal((l, n)) * (rng.random((l, n)) < 0.5)
    elif codes == "ties":
        X = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0], size=(l, n))
    else:
        X = np.zeros((l, n))
    inst = SdlInstance(Y=Y, D=D, X=X, alpha=float(rng.uniform(0.05, 0.5)),
                       Q=3, variant=variant)
    return SdlProblem(inst)


CASES = [(variant, rho, dictionary, codes)
         for variant in ("l1", "l1_lq")
         for rho in (0.0, 0.5, 2.0)
         for dictionary, codes in (("planted", "float"), ("shrunk", "ties"),
                                   ("zero", "ties"), ("planted", "zero"))]


@pytest.mark.parametrize("variant,rho,dictionary,codes", CASES)
@pytest.mark.parametrize("budget,tol", [(10, 1e-8), (60, 0.0)])
def test_solvers_match_references(variant, rho, dictionary, codes, budget, tol):
    for seed in range(4):
        prob = random_block(seed, variant, dictionary, codes)
        theta = prob.initial_point()
        assert prob.eval_g(1, theta) == reference_eval_g(prob, theta)

        u = prob.subgrad_h_block(1, theta)
        x, iters = prob.minimize_block_surrogate(1, theta, u, rho, budget, tol)
        x_ref, iters_ref = reference_code_step(prob, theta, u, rho, budget, tol)
        # tol = 0 stops only at an exact fixed point, which the two
        # roundings can reach some iterations apart
        assert iters == iters_ref or not tol
        assert_near(x, x_ref, CODE_BOUND, "codes")

        D, X = prob.unpack(theta)
        got = inner_frank_wolfe_ball_product(prob.instance.Y, X, D, budget, rho, tol)
        want = reference_frank_wolfe(prob.instance.Y, X, D, budget, rho, tol)
        assert got[1] == want[1] or not tol
        assert_near(got[0], want[0], FRANK_WOLFE_BOUND, "dictionary", scale=1.0)


@pytest.mark.parametrize("budget,tol", [(500, 1e-6), (7, 0.0)])
def test_prox_gradient_takes_one_gradient_per_iteration(budget, tol):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((15, 8))
    b = rng.standard_normal(15)
    L = float(np.linalg.norm(A, 2)) ** 2
    calls = []

    def forward(x):
        calls.append(1)
        return x - A.T @ (A @ x - b) / L

    def prox(x, t):
        return np.sign(x) * np.maximum(np.abs(x) - 0.3 * t, 0.0)

    _, iters = inner_prox_gradient(forward, prox, np.zeros(8), budget, tol, L)
    assert len(calls) == iters
    assert iters < budget if tol else iters == budget
