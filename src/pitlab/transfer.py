"""Fine/coarse level coupling: spectral resampling and FAS correction.

Restriction truncates the Fourier spectrum to the coarse band and
prolongation zero-pads it; both preserve mode amplitudes.  The coarse
Nyquist mode is folded on the way down and split symmetrically on the
way up, which makes restrict(prolong(u)) the exact identity for every
real coarse field.  Both take one field or a whole (M, ...) node stack
in one call.  The tau correction makes the coarse collocation problem
reproduce restricted fine information; it integrates each level's
(2, M, ...) right-hand-side stack in one quadrature of dt [q | q].
"""

from dataclasses import dataclass

import numpy as np

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

    On the fine grid only the lines that reach the result are
    transformed.  numpy's fft2/ifft2 transform the last axis and then
    axis 0, one line at a time; both directions make the same 1-D
    passes in that order (in place, on the complex type fft2 would cast
    to), the fine-grid ones on a subset of the lines.  Every kept line
    gets the arithmetic of the full-grid transform, so the result is
    bit-identical to it.  The normalisations (1/n^2 forward, n^2
    inverse, and the coarse counterparts) are powers of two, so they
    are exact and are applied as one multiply on the small block.
    """

    def __init__(self, fine_n, coarse_n):
        if coarse_n < 2 or fine_n % coarse_n:
            raise ValueError(f"coarse size {coarse_n} must divide fine size {fine_n}")
        if fine_n & (fine_n - 1) or coarse_n & (coarse_n - 1):
            raise ValueError("grid sizes must be powers of two")
        self.fine_n = fine_n
        self.coarse_n = coarse_n
        half = coarse_n // 2
        # fine columns the coarse band reads, in coarse order, then the
        # fine +N_c/2 column that folds into the coarse Nyquist slot
        self._band = np.r_[0:half, fine_n - half:fine_n, half]

    def restrict(self, values):
        """Coarse fields with the coarse band of each (n, n) fine field.

        The last-axis FFT runs on all n rows; the axis -2 FFT only on the
        N_c + 1 columns of the band and its Nyquist fold.
        """
        n, nc = self.fine_n, self.coarse_n
        if values.shape[-2:] != (n, n):
            raise ValueError(f"expected {n}x{n} fields, got {values.shape}")
        if n == nc:
            return values.copy()
        half = nc // 2
        lines = _complex(values)
        np.fft.fft(lines, axis=-1, out=lines)
        cols = lines[..., self._band]
        np.fft.fft(cols, axis=-2, out=cols)
        out = np.concatenate((cols[..., :half, :], cols[..., n - half:, :]), axis=-2)
        out[..., half, :] += cols[..., half, :]
        out[..., half] += out[..., nc]
        out = out[..., :nc]
        out *= (nc / n) ** 2
        return np.real(_passes(np.fft.ifft, out))

    def prolong(self, values):
        """Fine fields with each (N_c, N_c) coarse field's spectrum, zero-padded.

        The last-axis inverse FFT runs only on the N_c + 1 rows that are
        not zero; the axis -2 inverse FFT on all n columns.
        """
        n, nc = self.fine_n, self.coarse_n
        if values.shape[-2:] != (nc, nc):
            raise ValueError(f"expected {nc}x{nc} fields, got {values.shape}")
        if n == nc:
            return values.copy()
        half, lead = nc // 2, values.shape[:-2]
        coeffs = _passes(np.fft.fft, _complex(values))
        coeffs *= (n / nc) ** 2
        # fine rows 0..N_c/2 then n-N_c/2..n-1; the coarse Nyquist row
        # is split in half between fine rows N_c/2 and n-N_c/2
        rows = np.empty((*lead, nc + 1, nc), dtype=coeffs.dtype)
        rows[..., :half, :] = coeffs[..., :half, :]
        rows[..., half, :] = rows[..., half + 1, :] = 0.5 * coeffs[..., half, :]
        rows[..., half + 2:, :] = coeffs[..., half + 1:, :]
        block = np.zeros((*lead, nc + 1, n), dtype=coeffs.dtype)
        block[..., :half] = rows[..., :half]
        block[..., n - half + 1:] = rows[..., half + 1:]
        block[..., half] = block[..., n - half] = 0.5 * rows[..., half]
        np.fft.ifft(block, axis=-1, out=block)
        out = np.zeros((*lead, n, n), dtype=block.dtype)
        out[..., :half + 1, :] = block[..., :half + 1, :]
        out[..., n - half:, :] = block[..., half + 1:, :]
        return np.real(np.fft.ifft(out, axis=-2, out=out))


def _complex(values):
    # the complex type fft casts real input to; casting first lets every
    # pass run in place instead of through a cast buffer
    return values.astype(np.result_type(values.dtype, 1j))


def _passes(transform, coeffs):
    """fft2/ifft2 of a complex array or stack, in place: the last axis, then axis -2."""
    transform(coeffs, axis=-1, out=coeffs)
    return transform(coeffs, axis=-2, out=coeffs)


class IdentityResampler:
    """Trivial transfer for problems without spatial coarsening: a copy."""

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
    fine = node_integrals(pair.fine_table.scaled(dt).q_pair, fine_state.f.reshape(-1, *fine_state.u0.shape))
    fine += fine_state.tau
    tau = pair.restrict(fine)
    tau -= node_integrals(pair.coarse_table.scaled(dt).q_pair, coarse_state.f.reshape(-1, *coarse_state.u0.shape))
    return tau
