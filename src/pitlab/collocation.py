"""Quadrature tables for collocation time-stepping.

Builds right Gauss-Radau nodes, the node-to-start integration matrix Q,
and the two sweep preconditioners: the implicit lower-triangular matrix
obtained from the LU factorization of Q^T, and the explicit Euler matrix
of node spacings.  Q and the preconditioners are stored for the unit
interval; a table scales its sweep blocks by dt once per step size.
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

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100
ScaledBlocks = namedtuple("ScaledBlocks", "q_prev q_pair qd_lower qd_diag")


class NumericFailure(RuntimeError):
    """Raised when a factorization or solve breaks down."""


def _legendre_pair(n, x):
    """Evaluate (P_{n-1}, P_n) at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = np.asarray(x, dtype=float)
    if n == 0:
        return None, p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p_prev, p


def _radau_poly(m, x):
    """Value and derivative of r(x) = (P_{m-1}(x) - P_m(x)) / (1 - x).

    The interior right-Radau points of an m-point rule are the m-1 roots
    of r on (-1, 1); the m-th point is x = 1.
    """
    x = np.asarray(x, dtype=float)
    p_prev, p = _legendre_pair(m, x)
    g = p_prev - p
    # g'(x) from the Legendre derivative identity
    # (1 - x^2) P_m' = m (P_{m-1} - x P_m)
    dp = m * (p_prev - x * p) / (1.0 - x * x)
    dp_prev = (m - 1) * (_legendre_pair(m - 1, x)[0] - x * p_prev) / (1.0 - x * x) if m > 1 else np.zeros_like(x)
    dg = dp_prev - dp
    r = g / (1.0 - x)
    dr = (dg * (1.0 - x) + g) / (1.0 - x) ** 2
    return r, dr


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

    Interior points are found by bracketing sign changes of the Radau
    polynomial and polishing with Newton iteration on the Legendre
    recurrence (tolerance 1e-14, at most 100 steps).
    """
    if m < 1:
        raise ValueError(f"node count must be >= 1, got {m}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if m == 1:
        return np.array([float(t1)])

    # bracket the m-1 interior roots on (-1, 1)
    n_scan = max(64, 16 * m)
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, n_scan)
    vals = _radau_poly(m, xs)[0]
    sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_flip) != m - 1:
        raise NumericFailure(f"found {len(sign_flip)} Radau brackets, expected {m - 1}")

    roots = []
    for i in sign_flip:
        lo, hi = xs[i], xs[i + 1]
        x = 0.5 * (lo + hi)
        for _ in range(_NEWTON_MAX_ITER):
            r, dr = _radau_poly(m, x)
            step = r / dr
            x_new = x - step
            if not lo <= x_new <= hi:
                # Newton left the bracket; fall back to bisection
                x_new = 0.5 * (lo + hi)
            if _radau_poly(m, lo)[0] * _radau_poly(m, x_new)[0] < 0:
                hi = x_new
            else:
                lo = x_new
            converged = abs(x_new - x) <= _NEWTON_TOL * max(1.0, abs(x_new))
            x = x_new
            if converged:
                break
        roots.append(x)

    unit = np.array(sorted(roots) + [1.0])
    unit = 0.5 * (unit + 1.0)  # [-1, 1] -> [0, 1]
    return t0 + (t1 - t0) * unit


def build_Q(nodes, t0=0.0):
    """Integration matrix Q for the given nodes, relative to unit step.

    Entry (m, j) integrates the j-th Lagrange basis polynomial over
    [t0, nodes[m]], with times rescaled so the full interval has length
    one; the sweeper multiplies by the actual step size.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    if len(np.unique(nodes)) != m:
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
    qde = np.zeros((m, m))
    for row in range(1, m):
        qde[row, : row] = np.diff(c)[:row]
    return qde


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
        qd_imp = np.zeros((m, m))
        deltas = np.diff(np.concatenate(([0.0], c)))
        for row in range(m):
            qd_imp[row, : row + 1] = deltas[: row + 1]
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
