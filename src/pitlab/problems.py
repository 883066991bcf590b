"""Test problems: Dahlquist and the 2-D periodic Allen-Cahn equation.

The Allen-Cahn right-hand side is split for IMEX sweeping: the linear
diffusion is applied and inverted diagonally in Fourier space, the
cubic reaction is evaluated pointwise.  The diffusion kernels make the
1-D passes of rfft2/irfft2 one by one, in place on the half spectrum of
n//2+1 columns, and keep the solve multiplier of each recent factor.
All problem evaluations act on the trailing state axes, so a stack of
node values evaluates in one call.  Initial conditions are sums of
tanh-profile circles with radii drawn from a small, fully documented
shift-register generator so any implementation can reproduce the exact
same fields.  Fields live in memory only, and the diffusion kernels own
their transforms: there is no file format or general Fourier transform.
"""

import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Field2D",
    "DahlquistProblem",
    "AllenCahnProblem",
    "Xorshift64Star",
    "ac_initial_condition",
    "measure_radius",
]

log = logging.getLogger(__name__)


@dataclass
class Field2D:
    """Real N x N grid over the periodic square [-L/2, L/2]^2.

    L equals the number of unit patches, so the spacing is L/N.
    """

    values: np.ndarray
    lpatches: int = 1

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return self.lpatches / self.n


class DahlquistProblem:
    """Scalar test equation u' = lambda_I u + lambda_E u, split IMEX."""

    def __init__(self, lambda_implicit=-1.0, lambda_explicit=0.0):
        if not np.isfinite([lambda_implicit, lambda_explicit]).all():
            raise ValueError(f"rates must be finite, got {lambda_implicit} and {lambda_explicit}")
        self.lambda_implicit = lambda_implicit
        self.lambda_explicit = lambda_explicit

    def eval_implicit(self, u):
        return self.lambda_implicit * u

    def eval_explicit(self, u):
        return self.lambda_explicit * u

    def implicit_solve(self, rhs, factor):
        # (1 - factor*lambda_I) u = rhs
        return rhs / (1.0 - factor * self.lambda_implicit)

    def dense_operator(self):
        return np.array([[self.lambda_implicit + self.lambda_explicit]])


# distinct implicit-solve factors kept per problem: one per node of a
# sweep's preconditioner, for the few step sizes a run uses
_SOLVE_CACHE_SIZE = 8


class AllenCahnProblem:
    """2-D Allen-Cahn u_t = Lap(u) - 2/eps^2 u(1-u)(1-2u), periodic.

    Spectral discretization on an N x N grid over [-L/2, L/2]^2 with
    N a power of two; diffusion is the implicit part, the reaction the
    explicit one.  State vectors are (N, N) arrays, or stacks (..., N, N)
    of them.

    The Laplacian is the half-spectrum symbol -k^2 on the N x (N//2+1)
    coefficients of rfft2; eval_implicit and implicit_solve each make one
    forward and one inverse real transform, whose unit-amplitude scalings
    cancel and are not applied.  implicit_solve keeps the multiplier
    1/(1 - factor*symbol) of its last few factors in a per-problem LRU
    cache, which worker threads sharing one problem may use concurrently.
    """

    def __init__(self, n, lpatches=1, eps=0.04):
        if n < 2 or n & (n - 1):
            raise ValueError(f"grid size must be a power of two, got {n}")
        if lpatches < 1:
            raise ValueError(f"need at least one patch per side, got {lpatches}")
        if not 0 < eps < float("inf"):
            raise ValueError(f"interface parameter must be finite and positive, got {eps}")
        self.n = n
        self.lpatches = int(lpatches)
        self.eps = float(eps)
        try:
            self._reaction = -(2.0 / self.eps**2)  # the reaction's coefficient -2/eps^2
        except (OverflowError, ZeroDivisionError):
            self._reaction = 0.0
        if not (math.isfinite(self._reaction) and self._reaction):
            raise ValueError(f"interface parameter {eps} makes -2/eps^2 overflow or vanish")
        h = self.lpatches / n
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
        self._symbol = -(k[:, None] ** 2 + k_half[None, :] ** 2)
        self._solve_multiplier = lru_cache(maxsize=_SOLVE_CACHE_SIZE)(self._make_solve_multiplier)
        cells = 7.0 * self.eps / h
        log.info(
            "allen-cahn grid n=%d L=%d eps=%g: interface width 7*eps spans %.2f cells",
            n, self.lpatches, self.eps, cells,
        )

    def interface_cells(self):
        """Grid cells across one interface width of 7*eps."""
        return 7.0 * self.eps * self.n / self.lpatches

    def _spectral(self, u, multiplier):
        """irfft2(multiplier * rfft2(u)) bit for bit: their 1-D passes, in order and in place."""
        coeffs = np.fft.rfft(u, axis=-1)
        np.fft.fft(coeffs, axis=-2, out=coeffs)
        coeffs *= multiplier
        np.fft.ifft(coeffs, axis=-2, out=coeffs)
        return np.fft.irfft(coeffs, n=self.n, axis=-1)

    def eval_implicit(self, u):
        return self._spectral(u, self._symbol)

    def eval_explicit(self, u):
        # -(2/eps^2) * u * (1 - u) * (1 - 2u) in its order, in two arrays
        out = self._reaction * u
        scratch = 1.0 - u
        out *= scratch
        out *= np.subtract(1.0, np.multiply(2.0, u, out=scratch), out=scratch)
        return out

    def _make_solve_multiplier(self, factor):
        multiplier = 1.0 / (1.0 - factor * self._symbol)
        multiplier.flags.writeable = False  # one cached array serves every caller
        return multiplier

    def implicit_solve(self, rhs, factor):
        """Solve (I - factor*Lap) u = rhs diagonally in Fourier space."""
        if factor < 0:
            raise ValueError(f"implicit solve needs a nonnegative factor, got {factor}")
        return self._spectral(rhs, self._solve_multiplier(factor))


class Xorshift64Star:
    """Minimal shift-register generator, reproducible across languages.

    State is one 64-bit word.  A zero seed is replaced by the constant
    0x9E3779B97F4A7C15.  One step computes

        x ^= x >> 12;  x ^= (x << 25) & 2^64-1;  x ^= x >> 27;
        output = (x * 0x2545F4914F6CDD1D) mod 2^64

    and uniform doubles take the top 53 bits of the output divided by
    2^53.
    """

    _MASK = (1 << 64) - 1
    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed):
        self.state = int(seed) & self._MASK or 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & self._MASK
        x ^= x >> 27
        self.state = x
        return (x * self._MULT) & self._MASK

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * ((self.next_u64() >> 11) / float(1 << 53))


def ac_initial_condition(lpatches, eps, n, seed, radius=None):
    """Sum of tanh circles, one per unit patch, on [-L/2, L/2]^2.

    Each patch holds a circle u = (1 + tanh((R - |x - c|)/(sqrt(2) eps)))/2
    centered in the patch.  Radii are drawn uniformly from
    [0.5*eps, 3*eps] with Xorshift64Star(seed), row-major over patches,
    so equal seeds give bit-identical fields.  A fixed radius for every
    patch can be forced with the radius argument (test override).
    """
    if lpatches < 1:
        raise ValueError(f"need at least one patch per side, got {lpatches}")
    if n % lpatches:
        raise ValueError(f"grid size {n} not divisible by patch count {lpatches}")
    if radius is not None and not 0 < radius < float("inf"):
        raise ValueError(f"circle radius must be finite and positive, got {radius}")
    rng = Xorshift64Star(seed)
    half = lpatches / 2.0
    h = lpatches / n
    coords = -half + h * (np.arange(n) + 0.5)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    values = np.zeros((n, n))
    for i in range(lpatches):
        for j in range(lpatches):
            r = rng.uniform(0.5 * eps, 3.0 * eps) if radius is None else radius
            cx = -half + i + 0.5
            cy = -half + j + 0.5
            dist = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
            values += 0.5 * (1.0 + np.tanh((r - dist) / (np.sqrt(2.0) * eps)))
    return Field2D(values, lpatches)


def measure_radius(field):
    """Radius of a single phase-field circle from its area, sqrt(A/pi)."""
    area = field.spacing**2 * float(np.sum(field.values))
    if area <= 0.0:
        warnings.warn("nonpositive phase-field area; returning radius 0", stacklevel=2)
        return 0.0
    return float(np.sqrt(area / np.pi))
