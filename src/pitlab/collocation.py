"""Quadrature tables for collocation time-stepping.

Builds right Gauss-Radau nodes from one symmetric tridiagonal eigenvalue
solve, the node-to-start integration matrix Q, and the two sweep
preconditioners: the implicit lower-triangular matrix obtained from the
LU factorization of Q^T, and the explicit Euler matrix of node spacings
(backward Euler, the alternative implicit one, adds the diagonal).  Q and
the preconditioners are stored for the unit interval; a table scales its
sweep blocks by dt once per step size.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CollocationTable",
    "radau_nodes",
    "build_Q",
    "build_QDelta_LU",
    "build_QDelta_EE",
    "make_radau_table",
]

ScaledBlocks = namedtuple("ScaledBlocks", "q_prev q_pair qd_lower qd_diag")


class NumericFailure(RuntimeError):
    """Raised when a factorization or solve breaks down."""


def radau_nodes(m, t0=0.0, t1=1.0):
    """Right Gauss-Radau points on [t0, t1], last point equal to t1.

    Parameters
    ----------
    m : int
        Number of nodes, at least 1.
    t0, t1 : float
        Interval endpoints, t1 > t0.

    Returns
    -------
    ndarray of shape (m,), strictly increasing, nodes[-1] == t1.

    On [-1, 1] the m-1 interior points are the roots of
    (P_{m-1}(x) - P_m(x)) / (1 - x), which are the Gauss points of the
    weight 1 - x.  Golub & Welsch (Math. Comp. 23, 1969) give them as the
    eigenvalues of that weight's symmetric tridiagonal Jacobi matrix:
    diagonal -1/((2n+1)(2n+3)) for n = 0..m-2, off-diagonal
    sqrt(k(k+1))/(2k+1) for k = 1..m-2.
    """
    if m < 1:
        raise ValueError(f"node count must be >= 1, got {m}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    n = np.arange(m - 1)
    k = n[1:]
    off = np.sqrt(k * (k + 1.0)) / (2 * k + 1)
    jacobi = np.diag(-1.0 / ((2 * n + 1) * (2 * n + 3))) + np.diag(off, 1) + np.diag(off, -1)
    interior = 0.5 * (np.linalg.eigvalsh(jacobi) + 1.0)  # [-1, 1] -> [0, 1], ascending
    return np.append(t0 + (t1 - t0) * interior, float(t1))


def build_Q(nodes, t0=0.0):
    """Integration matrix Q for the given nodes, relative to unit step.

    Entry (m, j) integrates the j-th Lagrange basis polynomial over
    [t0, nodes[m]], with times rescaled so the full interval has length
    one; the sweeper multiplies by the actual step size.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    if len(set(nodes.tolist())) != m:
        raise ValueError("duplicate quadrature nodes")
    dt = nodes[-1] - t0
    c = (nodes - t0) / dt
    # A = diag(c) V R V^{-1}: row m holds the integrals of the Lagrange
    # basis from 0 to c_m (V maps monomial to nodal values).
    v = np.vander(c, increasing=True)
    w = np.diag(c) @ v @ np.diag(1.0 / np.arange(1, m + 1))
    return np.linalg.solve(v.T, w.T).T


def build_QDelta_LU(q):
    """Implicit sweep preconditioner U^T from Q^T = L U (the "LU trick").

    Doolittle factorization with unit-diagonal L and no pivoting; a zero
    pivot raises NumericFailure with the offending index.
    """
    a = np.array(q, dtype=float).T
    m = a.shape[0]
    for k in range(m - 1):
        if a[k, k] == 0.0:
            raise NumericFailure(f"zero pivot at index {k} in LU of Q^T")
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
    return np.triu(a).T


def build_QDelta_EE(nodes, t0=0.0):
    """Explicit Euler preconditioner: strictly lower triangular spacings.

    Row m carries the node spacings tau_{j+1} - tau_j for j < m on the
    unit interval; the first row and the diagonal are zero.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    dt = nodes[-1] - t0
    c = (nodes - t0) / dt
    return np.tril(np.broadcast_to(np.diff(c, append=c[-1]), (m, m)), -1)


@dataclass(frozen=True)
class CollocationTable:
    """Immutable quadrature data for one time interval.

    Attributes
    ----------
    m : node count
    t0, t1 : interval endpoints
    nodes : m ascending times in (t0, t1], nodes[-1] == t1
    q : integration matrix for the unit interval
    qd_imp : lower-triangular implicit preconditioner
    qd_exp : strictly lower-triangular explicit preconditioner

    Derived for a (2, m, ...) right-hand-side stack: the (m, 2m) blocks
    q_prev = [q - qd_imp | q - qd_exp] and q_pair = [q | q]; per node j,
    qd_lower[j] = (qd_imp[j, :j], qd_exp[j, :j]), qd_diag[j] = qd_imp[j, j].
    scaled(dt) gives all four times dt as ScaledBlocks, memoised per step size.
    """

    m: int
    t0: float
    t1: float
    nodes: np.ndarray
    q: np.ndarray
    qd_imp: np.ndarray
    qd_exp: np.ndarray

    def __post_init__(self):
        # derived here, so that dataclasses.replace derives them again
        q, qdi, qde = self.q, self.qd_imp, self.qd_exp
        for name, value in (("q_prev", np.hstack((q - qdi, q - qde))), ("q_pair", np.hstack((q, q))),
                            ("qd_lower", tuple(np.stack((qdi[j, :j], qde[j, :j])) for j in range(self.m))),
                            ("qd_diag", tuple(map(float, np.diagonal(qdi)))), ("_scaled", {})):
            object.__setattr__(self, name, value)

    def scaled(self, dt):
        """The four blocks times dt, formed on the first call for each step
        size; every later caller shares them, so the arrays are read-only."""
        if dt not in self._scaled:
            arrays = [dt * self.q_prev, dt * self.q_pair, *(dt * lower for lower in self.qd_lower)]
            for array in arrays:
                array.flags.writeable = False
            self._scaled[dt] = ScaledBlocks(*arrays[:2], tuple(arrays[2:]), tuple(dt * d for d in self.qd_diag))
        return self._scaled[dt]


def make_radau_table(m, t0=0.0, t1=1.0, implicit="lu"):
    """Assemble a CollocationTable on right Radau points.

    implicit selects the implicit preconditioner: "lu" (default) or
    "be" for backward Euler (lower-triangular spacings including the
    diagonal); both keep the same collocation fixed point.
    """
    nodes = radau_nodes(m, t0, t1)
    q = build_Q(nodes, t0)
    if implicit == "lu":
        qd_imp = build_QDelta_LU(q)
    elif implicit == "be":
        c = (nodes - t0) / (t1 - t0)
        qd_imp = np.tril(np.broadcast_to(np.diff(c, prepend=0.0), (m, m)))
    else:
        raise ValueError(f"unknown implicit preconditioner {implicit!r}")
    return CollocationTable(
        m=m,
        t0=float(t0),
        t1=float(t1),
        nodes=nodes,
        q=q,
        qd_imp=qd_imp,
        qd_exp=build_QDelta_EE(nodes, t0),
    )
