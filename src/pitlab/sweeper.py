"""IMEX SDC sweeps and collocation residuals.

One sweep applies the preconditioned Picard update node by node, with
the stiff right-hand side treated implicitly (diagonal solve supplied by
the problem) and the remaining part explicitly.  The residual measures
how far the node values are from solving the collocation system.  A
level's node values are one (M, ...) array, its right-hand sides one
(2, M, ...) stack, implicit part first; every node quadrature goes
through node_integrals, the stack's with the table's (M, 2M) blocks.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["LevelState", "SolveFailure", "imex_sweep", "residual", "node_integrals", "collocation_solve_direct"]

class SolveFailure(RuntimeError):
    """Implicit solve or direct factorization failed; carries the node index."""

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


def node_integrals(q, values):
    """Row-wise quadrature sum_j q[i, j] values[j] over node-stacked values.

    One BLAS product of q with the stack viewed as (K, N): on a (6, 128^2)
    stack 4x faster than einsum, on (6, 256^2) 2x.  The result does not
    depend on the BLAS thread count: every benchmark workload gives
    bit-identical final values with OPENBLAS_NUM_THREADS=1 and unset, and
    the threaded execution model stays bit-identical to the serial one.
    """
    return np.matmul(q, values.reshape(len(values), -1)).reshape(len(q), *values.shape[1:])


@dataclass
class LevelState:
    """Solution data of one time step on one level.

    u0 is the value at the interval start, u[m] the current iterate at
    node m, f the cached right-hand-side evaluations (kept consistent
    with u after every update), tau the FAS correction per node, or None
    for no correction (the finest level), dt the step size.  u and tau are
    (M, ...) arrays with the node index first, f one (2, M, ...) array of
    views f_imp, f_exp.
    """

    u0: np.ndarray
    u: np.ndarray
    f: np.ndarray
    tau: np.ndarray | None
    dt: float

    f_imp = property(lambda self: self.f[0])
    f_exp = property(lambda self: self.f[1])

    @classmethod
    def spread(cls, u0, num_nodes, dt, problem):
        """Start-of-step state: u0 copied to every node, caches filled.

        Every node holds u0, so each right-hand side is evaluated once and
        copied; the node arrays take the type of u0 and both evaluations.
        """
        u0 = np.asarray(u0)
        f = np.stack((problem.eval_implicit(u0), problem.eval_explicit(u0)))
        dtype, shape = np.result_type(u0, f), (num_nodes, *u0.shape)
        state = cls(u0, np.empty(shape, dtype), np.empty((2, *shape), dtype), None, float(dt))
        return state._fill(u0, f)

    def respread(self, u0, problem):
        """spread into this state's own arrays, keeping tau and dt."""
        u0 = np.asarray(u0)
        self._fill(u0, np.stack((problem.eval_implicit(u0), problem.eval_explicit(u0))))

    def _fill(self, u0, f):
        self.u0 = u0.copy()
        self.u[...] = u0
        self.f[...] = f[:, None]
        return self

    def refresh_rhs(self, problem):
        """Re-evaluate both right-hand-side caches at the current nodes,
        one call per part on the whole node stack, into f."""
        self.f[0] = problem.eval_implicit(self.u)
        self.f[1] = problem.eval_explicit(self.u)


def imex_sweep(state, tab, problem):
    """One IMEX SDC sweep over all nodes of the step; updates in place.

    For each node m the new value solves

        u_m - dt qdI_mm fI(u_m) = u0 + tau_m
            + dt sum_{j<m} [qdI_mj fI(u_j^new) + qdE_mj fE(u_j^new)]
            + dt sum_j [(q - qdI)_mj fI(u_j^old) + (q - qdE)_mj fE(u_j^old)]

    with the diagonal implicit part resolved by problem.implicit_solve;
    the new-value sum is one contraction over the view f[:, :m].  The
    caches in f are refreshed node by node as values update.  The solve
    itself gives the implicit part: with d = dt qdI_mm nonzero,
    fI(u_m) = (u_m - rhs_m)/d, so fI is not evaluated again.  A node
    whose diagonal is zero (an explicit preconditioner) evaluates it.
    """
    f, u = state.f, state.u
    q_prev, _, qd_lower, qd_diag = tab.scaled(state.dt)
    # u0, tau and the integral terms from the previous iterate, per node
    rhs = node_integrals(q_prev, f.reshape(-1, *state.u0.shape))
    rhs += state.u0
    if state.tau is not None:
        rhs += state.tau
    for row, (lower, factor) in enumerate(zip(qd_lower, qd_diag)):
        rhs_row, f_imp = rhs[row], f[0, row]
        if row:
            rhs_row += np.einsum("kj,kj...->...", lower, f[:, :row])
        try:
            u_new = problem.implicit_solve(rhs_row, factor)
        except Exception as exc:
            raise SolveFailure(f"implicit solve failed at node {row}: {exc}", node=row) from exc
        u[row] = u_new
        if factor:
            np.subtract(u_new, rhs_row, out=f_imp)
            f_imp /= factor
        else:
            f_imp[...] = problem.eval_implicit(u_new)
        f[1, row] = problem.eval_explicit(u_new)
    return state


def residual(state, tab):
    """Max-norm collocation residual over all nodes.

    Uses the cached right-hand-side values; it never re-evaluates the
    problem, so evaluation counts stay attributable to sweeps.
    """
    defect = node_integrals(tab.scaled(state.dt).q_pair, state.f.reshape(-1, *state.u0.shape))
    defect += state.u0
    if state.tau is not None:
        defect += state.tau
    defect -= state.u
    # the real part of a real defect is the defect itself
    return float(np.max(np.abs(defect, out=defect.real)))


def collocation_solve_direct(u0, tab, problem, dt):
    """Dense direct solve of the collocation system; test oracle only.

    Solves (I - dt Q (x) A) u = (u0, ..., u0) for a linear problem whose
    full operator A = d(fI + fE)/du is available as a dense matrix.
    Limited to small systems (u0.size * m <= 4096).
    """
    u0 = np.atleast_1d(np.asarray(u0))
    a = np.atleast_2d(problem.dense_operator())
    n = u0.size
    m = tab.m
    if n * m > 4096:
        raise ValueError(f"direct collocation solve limited to 4096 unknowns, got {n * m}")
    system = np.eye(m * n) - dt * np.kron(tab.q, a)
    rhs = np.tile(u0.reshape(-1), m)
    try:
        flat = np.linalg.solve(system, rhs.astype(system.dtype, copy=False))
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"singular collocation system: {exc}") from exc
    return [flat[i * n : (i + 1) * n].reshape(u0.shape) for i in range(m)]
