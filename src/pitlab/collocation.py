"""Quadrature tables for collocation time-stepping.

Builds right Gauss-Radau nodes from one symmetric tridiagonal eigenvalue
solve, the node-to-start integration matrix Q, and the two sweep
preconditioners: the implicit lower-triangular matrix obtained from the
LU factorization of Q^T, and the explicit Euler matrix of node spacings
(backward Euler, the alternative implicit one, adds the diagonal).  Q
integrates the Lagrange basis with a Gauss-Legendre rule from the same kind
of eigenvalue solve, so it is exact for any node count.  Every table is for
the unit interval [0, 1]; it scales its sweep blocks by dt once per step size.
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

ScaledBlocks = namedtuple("ScaledBlocks", "q_prev q_pair qd_cols qd_diag")


class NumericFailure(RuntimeError):
    """Raised when a factorization or solve breaks down."""


def _jacobi_matrix(diagonal, off):
    """Symmetric tridiagonal Jacobi matrix of a weight; its eigenvalues are
    the weight's Gauss points (Golub & Welsch, Math. Comp. 23, 1969)."""
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def radau_nodes(m):
    """m >= 1 right Gauss-Radau points on [0, 1], strictly increasing, last one 1.

    On [-1, 1] the m-1 interior points are the roots of
    (P_{m-1}(x) - P_m(x)) / (1 - x), the Gauss points of the weight 1 - x,
    whose Jacobi matrix has diagonal -1/((2n+1)(2n+3)) for n = 0..m-2 and
    off-diagonal sqrt(k(k+1))/(2k+1) for k = 1..m-2.
    """
    if m < 1:
        raise ValueError(f"node count must be >= 1, got {m}")
    n = np.arange(m - 1)
    k = n[1:]
    jacobi = _jacobi_matrix(-1.0 / ((2 * n + 1) * (2 * n + 3)), np.sqrt(k * (k + 1.0)) / (2 * k + 1))
    return np.append(0.5 * (np.linalg.eigvalsh(jacobi) + 1.0), 1.0)  # [-1, 1] -> [0, 1], ascending


def build_Q(nodes):
    """Integration matrix Q for distinct nodes c_0 < ... < c_{m-1} in (0, 1].

    Q[i, j] integrates the j-th Lagrange basis polynomial l_j over [0, c_i];
    the sweeper multiplies by the actual step size.  The Gauss-Legendre rule
    (x_g, w_g) of m//2 + 1 points integrates the degree m-1 integrand exactly:

        Q[i, j] = c_i/2 * sum_g w_g l_j(c_i (x_g + 1)/2).

    Its points are the eigenvalues of the Legendre Jacobi matrix (diagonal 0,
    off-diagonal k/sqrt(4k^2 - 1)), its weights the squared first eigenvector
    components scaled to sum to 2.  l_j(t) = b_j prod_{k != j} (t - c_k), with
    the barycentric weights b_j (Berrut & Trefethen, SIAM Rev. 46, 2004),
    multiplies the factors left and right of j: no division, so a quadrature
    point may meet a node.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    if len(set(nodes.tolist())) != m:
        raise ValueError("duplicate quadrature nodes")
    k = np.arange(1, m // 2 + 1)
    points, vectors = np.linalg.eigh(_jacobi_matrix(np.zeros(len(k) + 1), k / np.sqrt(4.0 * k * k - 1.0)))
    weights = 2.0 * vectors[0] ** 2 / (vectors[0] ** 2).sum()
    gaps = np.multiply.outer(nodes, 0.5 * (points + 1.0))[..., None] - nodes  # (i, g, k): t_ig - c_k
    ones = np.ones(gaps.shape[:-1] + (1,))
    left = np.cumprod(np.concatenate((ones, gaps[..., :-1]), axis=-1), axis=-1)
    right = np.cumprod(np.concatenate((ones, gaps[..., :0:-1]), axis=-1), axis=-1)[..., ::-1]
    spans = (nodes[:, None] - nodes + np.eye(m)).prod(axis=1)  # 1/b_j
    return 0.5 * nodes[:, None] * (weights @ (left * right / spans))


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


def build_QDelta_EE(nodes):
    """Explicit Euler preconditioner: strictly lower triangular spacings.

    Row m carries the node spacings tau_{j+1} - tau_j for j < m on the
    unit interval; the first row and the diagonal are zero.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    return np.tril(np.broadcast_to(np.diff(nodes, append=nodes[-1]), (m, m)), -1)


@dataclass(frozen=True)
class CollocationTable:
    """Immutable quadrature data for the unit interval.

    Attributes
    ----------
    nodes : m ascending times in (0, 1], nodes[-1] == 1; m is their count
    q : integration matrix for the unit interval
    qd_imp : lower-triangular implicit preconditioner
    qd_exp : strictly lower-triangular explicit preconditioner

    Derived for a (2, m, ...) right-hand-side stack: the (m, 2m) blocks
    q_prev = [q - qd_imp | q - qd_exp] and q_pair = [q | q]; per node j, the
    (m-j-1, 2) column block qd_cols[j] = [qd_imp[j+1:, j] | qd_exp[j+1:, j]]
    that carries node j's new values into the rows below it, and
    qd_diag[j] = qd_imp[j, j].  scaled(dt) gives all four times dt as
    ScaledBlocks, memoised per step size.
    """

    nodes: np.ndarray
    q: np.ndarray
    qd_imp: np.ndarray
    qd_exp: np.ndarray

    @property
    def m(self):
        return len(self.nodes)

    def __post_init__(self):
        # derived here, so that dataclasses.replace derives them again
        q, qdi, qde = self.q, self.qd_imp, self.qd_exp
        pairs = np.stack((qdi, qde), axis=-1)  # pairs[i, j] = (qdi[i, j], qde[i, j])
        for name, value in (("q_prev", np.hstack((q - qdi, q - qde))), ("q_pair", np.hstack((q, q))),
                            ("qd_cols", tuple(pairs[j + 1:, j] for j in range(self.m))),
                            ("qd_diag", tuple(map(float, np.diagonal(qdi)))), ("_scaled", {})):
            object.__setattr__(self, name, value)

    def scaled(self, dt):
        """The four blocks times dt, formed on the first call for each step
        size; every later caller shares them, so the arrays are read-only."""
        if dt not in self._scaled:
            arrays = [dt * self.q_prev, dt * self.q_pair, *(dt * cols for cols in self.qd_cols)]
            for array in arrays:
                array.flags.writeable = False
            self._scaled[dt] = ScaledBlocks(*arrays[:2], tuple(arrays[2:]), tuple(dt * d for d in self.qd_diag))
        return self._scaled[dt]


def make_radau_table(m, implicit="lu"):
    """Assemble a CollocationTable on right Radau points.

    implicit selects the implicit preconditioner: "lu" (default) or
    "be" for backward Euler (lower-triangular spacings including the
    diagonal); both keep the same collocation fixed point.
    """
    nodes = radau_nodes(m)
    q = build_Q(nodes)
    if implicit == "lu":
        qd_imp = build_QDelta_LU(q)
    elif implicit == "be":
        qd_imp = np.tril(np.broadcast_to(np.diff(nodes, prepend=0.0), (m, m)))
    else:
        raise ValueError(f"unknown implicit preconditioner {implicit!r}")
    return CollocationTable(nodes=nodes, q=q, qd_imp=qd_imp, qd_exp=build_QDelta_EE(nodes))
