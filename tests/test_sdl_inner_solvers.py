"""The SDL inner solvers against the longer code they replaced.

The code-block solver used to search for its step by backtracking from the
Lipschitz estimate, which made its callback return the surrogate value next
to the gradient and took one gradient more than its steps use.  Frank-Wolfe
used to form ``Delta @ X`` twice per iteration and ``eval_g`` wrote the fit
out a second time.  Copies of those are kept as references, here and in
``cases.reference_frank_wolfe``: on random blocks, zero dictionaries, and
codes with exact zeros and ties, the solvers must give the same bits and
the same iteration counts.
"""

import numpy as np
import pytest

from bdcopt.problems.sdl import (SdlInstance, SdlProblem,
                                 inner_frank_wolfe_ball_product,
                                 inner_prox_gradient, sdl_synthetic)
from cases import assert_same, reference_frank_wolfe


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
        assert iters == iters_ref
        assert_same(x, x_ref)

        D, X = prob.unpack(theta)
        got = inner_frank_wolfe_ball_product(prob.instance.Y, X, D, budget, rho, tol)
        want = reference_frank_wolfe(prob.instance.Y, X, D, budget, rho, tol)
        assert got[1] == want[1]
        assert_same(got[0], want[0])


@pytest.mark.parametrize("budget,tol", [(500, 1e-6), (7, 0.0)])
def test_prox_gradient_takes_one_gradient_per_iteration(budget, tol):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((15, 8))
    b = rng.standard_normal(15)
    calls = []

    def grad(x):
        calls.append(1)
        return A.T @ (A @ x - b)

    def prox(x, t):
        return np.sign(x) * np.maximum(np.abs(x) - 0.3 * t, 0.0)

    L = float(np.linalg.norm(A, 2)) ** 2
    _, iters = inner_prox_gradient(grad, prox, np.zeros(8), budget, tol, L)
    assert len(calls) == iters
    assert iters < budget if tol else iters == budget
