"""Small synthetic multi-block DC problems used for audits and as oracles."""

import numpy as np

from ..model import BdcProblem

__all__ = ["QuadraticDcProblem", "QuadraticMinusL1Problem"]


class _LeastSquaresDcProblem(BdcProblem):
    """Shared convex side ``g = 0.5 ||A theta - b||^2``; subclasses supply h.

    ``g`` is the same for every block index, and block surrogates are solved
    in closed form through the normal equations.
    """

    def __init__(self, partition, A, b):
        self.partition = partition
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.shape[1] != partition.total_dim:
            raise ValueError("A width must match partition dimension")

    def initial_point(self):
        return np.zeros(self.partition.total_dim)

    def eval_f(self, theta):
        return self.eval_g(0, theta) - self.eval_h(0, theta)

    def eval_g(self, i, theta):
        r = self.A @ theta - self.b
        return 0.5 * float(r @ r)

    def grad_g_block(self, i, theta):
        sl = self.partition.slice_of(i)
        return self.A[:, sl].T @ (self.A @ theta - self.b)

    def block_smoothness(self, i):
        """Exact per-block smoothness constant of the quadratic side."""
        sl = self.partition.slice_of(i)
        Ai = self.A[:, sl]
        return float(np.linalg.norm(Ai.T @ Ai, 2))

    def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
        # argmin_x 0.5||A_i x + r_rest - b||^2 - <u,x> + rho/2 ||x - x0||^2
        sl = self.partition.slice_of(i)
        theta = np.asarray(theta, dtype=float)
        x0 = theta[sl]
        Ai = self.A[:, sl]
        r_rest = self.A @ theta - Ai @ x0 - self.b
        M = Ai.T @ Ai + rho * np.eye(Ai.shape[1])
        rhs = -Ai.T @ r_rest + u + rho * x0
        return np.linalg.solve(M, rhs), 1


class QuadraticDcProblem(_LeastSquaresDcProblem):
    """f(theta) = 0.5 ||A theta - b||^2 - 0.5 ||C theta - e||^2.

    Both sides are smooth and convex in every block (indeed jointly), so the
    decomposition is the same for every block index.
    """

    def __init__(self, partition, A, b, C=None, e=None):
        super().__init__(partition, A, b)
        d = partition.total_dim
        self.C = np.zeros((1, d)) if C is None else np.asarray(C, dtype=float)
        self.e = np.zeros(self.C.shape[0]) if e is None else np.asarray(e, dtype=float)

    @classmethod
    def random(cls, partition, rng, concave=True):
        d = partition.total_dim
        rows = d + 4
        A = rng.standard_normal((rows, d))
        b = rng.standard_normal(rows)
        if concave:
            C = rng.standard_normal((rows, d)) * 0.5
            e = rng.standard_normal(rows)
        else:
            C = e = None
        return cls(partition, A, b, C, e)

    def eval_h(self, i, theta):
        r = self.C @ theta - self.e
        return 0.5 * float(r @ r)

    def subgrad_h_block(self, i, theta):
        sl = self.partition.slice_of(i)
        return self.C[:, sl].T @ (self.C @ theta - self.e)


class QuadraticMinusL1Problem(_LeastSquaresDcProblem):
    """f(theta) = 0.5 ||A theta - b||^2 - mu ||theta||_1.

    The convex side is quadratic (hence L-smooth per block with constant
    ``||A_i' A_i||``), the concave side is piecewise linear with Lipschitz
    constant ``mu sqrt(d)``.  The concave subgradient uses sign(0) := 0.
    """

    def __init__(self, partition, A, b, mu):
        super().__init__(partition, A, b)
        self.mu = float(mu)

    def eval_h(self, i, theta):
        return self.mu * float(np.sum(np.abs(theta)))

    def subgrad_h_block(self, i, theta):
        sl = self.partition.slice_of(i)
        return self.mu * np.sign(np.asarray(theta)[sl])
