"""Fine/coarse level coupling: spectral resampling and FAS correction.

Restriction truncates the Fourier spectrum to the coarse band and
prolongation zero-pads it; both preserve mode amplitudes.  The coarse
Nyquist mode is folded on the way down and split symmetrically on the
way up, which makes restrict(prolong(u)) the identity, up to rounding,
for every real coarse field.  Both take one real field or a whole
(M, ...) node stack in one call.  The levels differ in space only: both
sweep with one collocation table.  The tau correction makes the coarse
collocation problem reproduce restricted fine information; it integrates
each level's (2, M, ...) right-hand-side stack in one quadrature with that
table's dt [q | q].
"""

from dataclasses import dataclass

import numpy as np

from .sweeper import node_integrals

__all__ = ["LevelPair", "SpectralResampler", "IdentityResampler", "compute_fas_tau"]


class SpectralResampler:
    """Mode-space restriction/prolongation between two periodic grids.

    Fields are real, so both directions work on the half spectrum of
    rfft (the last axis keeps its columns 0..n/2) by index slicing, with
    no matrix product and no BLAS call.  Restriction keeps the coarse
    band, adds the fine +N_c/2 row into the coarse Nyquist row (which
    holds -N_c/2), and adds to the coarse Nyquist column the conjugate
    of the row-mirrored fine +N_c/2 column, which is the fine -N_c/2
    column a full spectrum would hold.  Prolongation zero-pads and puts
    half of the coarse Nyquist row at each of the fine -N_c/2 and
    +N_c/2 rows, and half of the Nyquist column at fine column +N_c/2;
    irfft implies its -N_c/2 mirror.

    On the fine grid only the columns that reach the result are
    transformed along axis -2.  The normalisations are powers of two,
    so they are exact and are applied as one multiply on the small
    block.  The result differs from a complex fft2 transfer in the last
    bits only.  A complex field raises TypeError.
    """

    def __init__(self, fine_n, coarse_n):
        if coarse_n < 2 or fine_n % coarse_n:
            raise ValueError(f"coarse size {coarse_n} must divide fine size {fine_n}")
        if fine_n & (fine_n - 1) or coarse_n & (coarse_n - 1):
            raise ValueError("grid sizes must be powers of two")
        self.fine_n = fine_n
        self.coarse_n = coarse_n
        # coarse row k's mirror -k, the row of the conjugate mode
        self._mirror = -np.arange(coarse_n) % coarse_n

    def restrict(self, values):
        """Coarse fields with the coarse band of each (n, n) fine field.

        The rfft runs on all n rows; the axis -2 FFT only on the
        N_c/2 + 1 columns of the band.
        """
        n, nc = self.fine_n, self.coarse_n
        if values.shape[-2:] != (n, n):
            raise ValueError(f"expected {n}x{n} fields, got {values.shape}")
        if n == nc:
            return values.copy()
        half = nc // 2
        cols = np.fft.fft(np.fft.rfft(values)[..., :half + 1], axis=-2)
        out = np.concatenate((cols[..., :half, :], cols[..., n - half:, :]), axis=-2)
        out[..., half, :] += cols[..., half, :]
        out[..., half] += out[..., self._mirror, half].conj()
        out *= (nc / n) ** 2
        return np.fft.irfft(np.fft.ifft(out, axis=-2, out=out), n=nc)

    def prolong(self, values):
        """Fine fields with each (N_c, N_c) coarse field's spectrum, zero-padded.

        The axis -2 inverse FFT runs only on the N_c/2 + 1 columns that
        are not zero; irfft pads the rest of each row with zeros.
        """
        n, nc = self.fine_n, self.coarse_n
        if values.shape[-2:] != (nc, nc):
            raise ValueError(f"expected {nc}x{nc} fields, got {values.shape}")
        if n == nc:
            return values.copy()
        half = nc // 2
        coeffs = np.fft.rfft2(values)
        coeffs *= (n / nc) ** 2
        coeffs[..., half, :] *= 0.5
        coeffs[..., half] *= 0.5
        # fine rows 0..N_c/2 then n-N_c/2..n-1, the halved Nyquist row in both
        block = np.zeros((*values.shape[:-2], n, half + 1), dtype=coeffs.dtype)
        block[..., :half + 1, :] = coeffs[..., :half + 1, :]
        block[..., n - half:, :] = coeffs[..., half:, :]
        return np.fft.irfft(np.fft.ifft(block, axis=-2, out=block), n=n)


class IdentityResampler:
    """Trivial transfer for problems without spatial coarsening: a copy."""

    def restrict(self, values):
        return np.array(values, copy=True)

    def prolong(self, values):
        return np.array(values, copy=True)


@dataclass
class LevelPair:
    """Fine and coarse problem plus the transfer operators between them.

    The levels differ in space only, so both sweep with the one
    collocation table `fine_table`.
    """

    fine_problem: object
    coarse_problem: object
    resampler: object
    fine_table: object

    def restrict(self, values):
        return self.resampler.restrict(values)

    def prolong(self, values):
        return self.resampler.prolong(values)


def compute_fas_tau(fine_state, coarse_state, pair):
    """FAS correction: coarse operator at restricted values minus
    restricted fine operator at every node.

    With the collocation operator C(u) = u - dt*Q*f(u) (any fine tau
    folded in), tau = C_coarse(R u) - R C_fine(u) reduces node-wise to

        tau_m = R(dt sum_j q_mj f^fine_j) - dt sum_j q_mj f^coarse_j + R tau^fine_m

    where the coarse caches hold f evaluated at the restricted values.
    The step-transfer coupling enters through received initial values,
    not through tau.  Returns the (M, ...) stack of coarse tau values.
    """
    q_pair = pair.fine_table.scaled(fine_state.dt).q_pair
    fine = node_integrals(q_pair, fine_state.f.reshape(-1, *fine_state.u0.shape))
    if fine_state.tau is not None:
        fine += fine_state.tau
    tau = pair.restrict(fine)
    tau -= node_integrals(q_pair, coarse_state.f.reshape(-1, *coarse_state.u0.shape))
    return tau
