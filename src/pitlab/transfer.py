"""Fine/coarse level coupling: spectral resampling and FAS correction.

Restriction truncates the Fourier spectrum to the coarse band and
prolongation zero-pads it; both preserve mode amplitudes.  The coarse
Nyquist mode is folded on the way down and split symmetrically on the
way up, which makes restrict(prolong(u)) the exact identity for every
real coarse field.  The tau correction makes the coarse collocation
problem reproduce restricted fine information.
"""

from dataclasses import dataclass

import numpy as np

from .problems import _forward, _inverse
from .sweeper import node_integrals

__all__ = ["LevelPair", "SpectralResampler", "IdentityResampler", "compute_fas_tau"]


class SpectralResampler:
    """Mode-space restriction/prolongation between two periodic grids.

    Both directions work on the FFT-ordered spectrum by index slicing
    along each axis, so transfer makes no matrix product and no BLAS
    call: restriction keeps the coarse band and adds the fine +N_c/2
    mode into the coarse Nyquist slot (which holds -N_c/2);
    prolongation zero-pads and puts half of the coarse Nyquist mode at
    each of the fine -N_c/2 and +N_c/2 slots.
    """

    def __init__(self, fine_n, coarse_n):
        if coarse_n < 2 or fine_n % coarse_n:
            raise ValueError(f"coarse size {coarse_n} must divide fine size {fine_n}")
        if fine_n & (fine_n - 1) or coarse_n & (coarse_n - 1):
            raise ValueError("grid sizes must be powers of two")
        self.fine_n = fine_n
        self.coarse_n = coarse_n

    def restrict(self, values):
        if values.shape != (self.fine_n, self.fine_n):
            raise ValueError(f"expected {self.fine_n}x{self.fine_n} field, got {values.shape}")
        if self.fine_n == self.coarse_n:
            return values.copy()
        half = self.coarse_n // 2
        coeffs = _forward(values)
        rows = np.concatenate((coeffs[:half], coeffs[-half:]))
        rows[half] += coeffs[half]
        out = np.concatenate((rows[:, :half], rows[:, -half:]), axis=1)
        out[:, half] += rows[:, half]
        return _inverse(out)

    def prolong(self, values):
        if values.shape != (self.coarse_n, self.coarse_n):
            raise ValueError(f"expected {self.coarse_n}x{self.coarse_n} field, got {values.shape}")
        if self.fine_n == self.coarse_n:
            return values.copy()
        n, half = self.fine_n, self.coarse_n // 2
        coeffs = _forward(values)
        rows = np.zeros((n, self.coarse_n), dtype=coeffs.dtype)
        rows[:half] = coeffs[:half]
        rows[n - half + 1:] = coeffs[half + 1:]
        rows[half] = rows[n - half] = 0.5 * coeffs[half]
        out = np.zeros((n, n), dtype=coeffs.dtype)
        out[:, :half] = rows[:, :half]
        out[:, n - half + 1:] = rows[:, half + 1:]
        out[:, half] = out[:, n - half] = 0.5 * rows[:, half]
        return _inverse(out)


class IdentityResampler:
    """Trivial transfer for problems without spatial coarsening."""

    def restrict(self, values):
        return np.array(values, copy=True)

    def prolong(self, values):
        return np.array(values, copy=True)


@dataclass
class LevelPair:
    """Fine and coarse problem plus the transfer operators between them.

    Both levels use the same collocation table layout (equal node count);
    node-space coarsening is an extension point, not built.
    """

    fine_problem: object
    coarse_problem: object
    resampler: object
    fine_table: object
    coarse_table: object

    def __post_init__(self):
        if self.fine_table.m != self.coarse_table.m:
            raise ValueError("fine and coarse levels must share the node count")

    def restrict(self, values):
        return self.resampler.restrict(values)

    def prolong(self, values):
        return self.resampler.prolong(values)


def compute_fas_tau(fine_state, coarse_state, pair):
    """FAS correction: coarse operator at restricted values minus
    restricted fine operator at every node.

    With the collocation operator C(u) = u - dt*Q*f(u) (any fine tau
    folded in), tau = C_coarse(R u) - R C_fine(u) reduces node-wise to

        tau_m = R(dt sum_j q^f_mj f^fine_j) - dt sum_j q^c_mj f^coarse_mj + R tau^fine_m

    where the coarse caches hold f evaluated at the restricted values.
    The step-transfer coupling enters through received initial values,
    not through tau.  Returns the (M, ...) stack of coarse tau values.
    """
    dt = fine_state.dt
    fine_integral = dt * node_integrals(pair.fine_table.q, fine_state.f_imp + fine_state.f_exp)
    coarse_integral = dt * node_integrals(pair.coarse_table.q, coarse_state.f_imp + coarse_state.f_exp)
    restricted = np.stack([pair.restrict(v) for v in fine_integral + fine_state.tau])
    return restricted - coarse_integral
