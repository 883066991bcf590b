import numpy as np
import pytest

from conftest import ref_compute_fas_tau
from pitlab.collocation import make_radau_table
from pitlab.problems import AllenCahnProblem, ac_initial_condition
from pitlab.sweeper import LevelState, imex_sweep, residual
from pitlab.transfer import IdentityResampler, LevelPair, SpectralResampler, compute_fas_tau


def coords(n, length=1.0):
    x = -length / 2 + (np.arange(n) + 0.5) * (length / n)
    return np.meshgrid(x, x, indexing="ij")


# The references transform the whole fine grid.  numpy's rfft2 is an rfft
# along the last axis and then an fft along axis -2, one line at a time,
# and irfft2 the reverse, so every line the resampler transforms gets the
# same arithmetic and the results agree bit for bit.  With norm="forward"
# the scaling is 1/n per axis on the way in and none on the way out;
# powers of two, so exact wherever they are applied.


def coarse_nyquist_fold(coeffs):
    """Adds the implied -N_c/2 column, the conjugate of the row-mirrored
    +N_c/2 column, into the coarse Nyquist column, in place."""
    coarse_n = coeffs.shape[0]
    mirror = -np.arange(coarse_n) % coarse_n
    coeffs[:, coarse_n // 2] += coeffs[mirror, coarse_n // 2].conj()
    return coeffs


def full_grid_restrict(values, coarse_n):
    """Reference restriction: the whole fine half spectrum, then the band."""
    half = coarse_n // 2
    coeffs = np.fft.rfft2(values, norm="forward")
    rows = np.concatenate((coeffs[:half], coeffs[-half:]))
    rows[half] += coeffs[half]
    out = coarse_nyquist_fold(rows[:, :half + 1])
    return np.fft.irfft2(out, s=(coarse_n, coarse_n), norm="forward")


def full_grid_prolong(values, fine_n):
    """Reference prolongation: the zero-padded half spectrum on the whole fine grid."""
    n, coarse_n = fine_n, values.shape[0]
    half = coarse_n // 2
    coeffs = np.fft.rfft2(values, norm="forward")
    rows = np.zeros((n, half + 1), dtype=coeffs.dtype)
    rows[:half] = coeffs[:half]
    rows[n - half + 1:] = coeffs[half + 1:]
    rows[half] = rows[n - half] = 0.5 * coeffs[half]
    out = np.zeros((n, n // 2 + 1), dtype=coeffs.dtype)
    out[:, :half] = rows[:, :half]
    out[:, half] = 0.5 * rows[:, half]
    return np.fft.irfft2(out, s=(n, n), norm="forward")


def ac_pair(fine_n=32, coarse_n=8, eps=0.04, m=3):
    table = make_radau_table(m)
    return LevelPair(
        fine_problem=AllenCahnProblem(fine_n, 1, eps),
        coarse_problem=AllenCahnProblem(coarse_n, 1, eps),
        resampler=SpectralResampler(fine_n, coarse_n),
        fine_table=table,
    )


class TestSpaceTransfer:
    def test_constant_preserved_both_ways(self):
        rs = SpectralResampler(64, 16)
        c = np.full((64, 64), 2.5)
        assert np.abs(rs.restrict(c) - 2.5).max() <= 1e-13
        assert np.abs(rs.prolong(np.full((16, 16), 2.5)) - 2.5).max() <= 1e-13

    def test_low_mode_survives_restriction(self):
        # sample on vertex coordinates: mode-space resampling keeps the
        # common grid origin, so nested points line up exactly
        rs = SpectralResampler(64, 16)
        xf = np.arange(64) / 64.0 - 0.5
        xc = np.arange(16) / 16.0 - 0.5
        fine = np.cos(2 * np.pi * xf)[:, None] * np.ones((1, 64))
        expected = np.cos(2 * np.pi * xc)[:, None] * np.ones((1, 16))
        assert np.abs(rs.restrict(fine) - expected).max() <= 1e-12

    def test_high_mode_truncated_to_zero(self):
        rs = SpectralResampler(64, 16)
        xf, _ = coords(64)
        mode = 16 // 2 + 1
        assert np.abs(rs.restrict(np.cos(2 * np.pi * mode * xf))).max() <= 1e-12

    def test_restrict_after_prolong_is_identity_for_any_coarse_field(self):
        rs = SpectralResampler(64, 16)
        rng = np.random.default_rng(8)
        for _ in range(5):
            coarse = rng.standard_normal((16, 16))
            assert np.abs(rs.restrict(rs.prolong(coarse)) - coarse).max() <= 1e-12

    def test_prolong_exact_on_band_limited_fields(self):
        rs = SpectralResampler(64, 16)
        rng = np.random.default_rng(9)
        band_limited = rs.prolong(rs.restrict(rng.standard_normal((64, 64))))
        roundtrip = rs.prolong(rs.restrict(band_limited))
        assert np.abs(roundtrip - band_limited).max() <= 1e-11

    @pytest.mark.parametrize("fine_n, coarse_n", [(128, 32), (256, 64), (64, 16), (8, 2), (128, 64)])
    def test_sliced_transfer_matches_dense_mode_matrices_bit_for_bit(self, fine_n, coarse_n):
        # reference on the half spectra: R keeps the rows |m| < N_c/2 and
        # adds the fine +-N_c/2 rows into the coarse Nyquist row; P is R^T
        # with 1/2 on both halves.  Columns 0..N_c/2 are kept (C), and on
        # the way up the +N_c/2 column is halved (D); the Nyquist column
        # fold takes a conjugate, so it is written out
        half = coarse_n // 2
        r = np.zeros((coarse_n, fine_n))
        for m in range(-half, half):
            r[m % coarse_n, m % fine_n] = 1.0
        r[half, half] += 1.0
        p = r.T.copy()
        p[fine_n - half, half] = p[half, half] = 0.5
        c = np.eye(half + 1, fine_n // 2 + 1)
        d = c.T.copy()
        d[half, half] = 0.5
        rs = SpectralResampler(fine_n, coarse_n)
        rng = np.random.default_rng(fine_n + coarse_n)
        for _ in range(3):
            fine = rng.standard_normal((fine_n, fine_n))
            coarse = rng.standard_normal((coarse_n, coarse_n))
            fine_modes = np.fft.rfft2(fine, norm="forward")
            coarse_modes = np.fft.rfft2(coarse, norm="forward")
            dense_r = coarse_nyquist_fold(r @ fine_modes @ c.T)
            dense_p = p @ coarse_modes @ d.T
            assert np.array_equal(rs.restrict(fine), np.fft.irfft2(dense_r, s=coarse.shape, norm="forward"))
            assert np.array_equal(rs.prolong(coarse), np.fft.irfft2(dense_p, s=fine.shape, norm="forward"))

    @pytest.mark.parametrize("fine_n, coarse_n", [(128, 32), (256, 64), (64, 16), (8, 2), (128, 64)])
    def test_pruned_transforms_match_full_grid_transfer_bit_for_bit(self, fine_n, coarse_n):
        rs = SpectralResampler(fine_n, coarse_n)
        rng = np.random.default_rng(3 * fine_n + coarse_n)
        fine_stack = rng.standard_normal((3, fine_n, fine_n))
        coarse_stack = rng.standard_normal((3, coarse_n, coarse_n))
        for fine, coarse in [
            (fine_stack[0].copy(), coarse_stack[0].copy()),
            (fine_stack[1], coarse_stack[1]),
            (np.asfortranarray(fine_stack[2]), np.asfortranarray(coarse_stack[2])),
        ]:
            assert np.array_equal(rs.restrict(fine), full_grid_restrict(fine, coarse_n))
            assert np.array_equal(rs.prolong(coarse), full_grid_prolong(coarse, fine_n))

    def test_complex_field_rejected(self):
        # fields are real: rfft refuses a complex one instead of dropping
        # its imaginary part
        rs = SpectralResampler(64, 16)
        with pytest.raises(TypeError):
            rs.restrict(np.zeros((64, 64), dtype=complex))
        with pytest.raises(TypeError):
            rs.prolong(np.zeros((3, 16, 16), dtype=complex))

    def test_size_mismatch_rejected(self):
        rs = SpectralResampler(64, 16)
        with pytest.raises(ValueError):
            rs.restrict(np.zeros((32, 32)))
        with pytest.raises(ValueError):
            rs.prolong(np.zeros((32, 32)))
        with pytest.raises(ValueError):
            SpectralResampler(48, 16)
        with pytest.raises(ValueError):
            SpectralResampler(64, 24)

    def test_identity_resampler_copies(self):
        rs = IdentityResampler()
        v = np.array([1.0, 2.0])
        out = rs.restrict(v)
        out[0] = 9.0
        assert v[0] == 1.0


class TestStackedTransfer:
    """A (k, n, n) node stack in one call gives what k per-node calls give."""

    @pytest.mark.parametrize("nodes", [1, 3])
    @pytest.mark.parametrize("fine_n, coarse_n", [(16, 8), (64, 16), (128, 32)])
    def test_stack_matches_per_node_calls_bit_for_bit(self, fine_n, coarse_n, nodes):
        rs = SpectralResampler(fine_n, coarse_n)
        rng = np.random.default_rng(fine_n + coarse_n + nodes)
        fine = rng.standard_normal((nodes, fine_n, fine_n))
        coarse = rng.standard_normal((nodes, coarse_n, coarse_n))
        restricted, prolonged = rs.restrict(fine), rs.prolong(coarse)
        assert restricted.shape == (nodes, coarse_n, coarse_n) and prolonged.shape == (nodes, fine_n, fine_n)
        assert np.array_equal(restricted, np.stack([rs.restrict(v) for v in fine]))
        assert np.array_equal(prolonged, np.stack([rs.prolong(v) for v in coarse]))

    def test_identity_resampler_copies_a_stack(self):
        rs = IdentityResampler()
        stack = np.arange(6.0).reshape(3, 2)
        for transfer in (rs.restrict, rs.prolong):
            out = transfer(stack)
            assert np.array_equal(out, stack) and not np.shares_memory(out, stack)
            out[0, 0] = 9.0
            assert stack[0, 0] == 0.0

    def test_wrong_trailing_dimensions_rejected(self):
        rs = SpectralResampler(64, 16)
        for bad in ((3, 64, 32), (3, 32, 64), (3, 16, 16), (64,)):
            with pytest.raises(ValueError):
                rs.restrict(np.zeros(bad))
        for bad in ((3, 16, 8), (3, 8, 16), (3, 64, 64), (16,)):
            with pytest.raises(ValueError):
                rs.prolong(np.zeros(bad))


class TestFasTau:
    def test_zero_rhs_gives_zero_tau(self):
        pair = ac_pair()
        m = pair.fine_table.m

        class ZeroProblem:
            def eval_implicit(self, u):
                return np.zeros_like(u)

            eval_explicit = eval_implicit

        zp = ZeroProblem()
        fine = LevelState.spread(np.random.default_rng(1).standard_normal((32, 32)), m, 0.1, zp)
        coarse = LevelState.spread(pair.restrict(fine.u0), m, 0.1, zp)
        tau = compute_fas_tau(fine, coarse, pair)
        assert max(np.abs(t).max() for t in tau) == 0.0

    def test_constant_state_pointwise_rhs_commutes(self):
        # restriction preserves constants exactly, so tau vanishes for a
        # state where the right-hand side only acts pointwise on u
        pair = ac_pair()
        m = pair.fine_table.m

        class Pointwise:
            def eval_implicit(self, u):
                return np.zeros_like(u)

            def eval_explicit(self, u):
                return u * (1.0 - u)

        pw = Pointwise()
        fine = LevelState.spread(np.full((32, 32), 0.3), m, 0.05, pw)
        coarse = LevelState.spread(pair.restrict(fine.u0), m, 0.05, pw)
        tau = compute_fas_tau(fine, coarse, pair)
        assert max(np.abs(t).max() for t in tau) <= 1e-12

    def test_band_limited_linear_field_commutes(self):
        # truncation commutes with the Laplacian on retained modes

        class Diffusion(AllenCahnProblem):
            def eval_explicit(self, u):
                return np.zeros_like(u)

        table = make_radau_table(3)
        pair = LevelPair(
            fine_problem=Diffusion(32, 1, 0.04),
            coarse_problem=Diffusion(8, 1, 0.04),
            resampler=SpectralResampler(32, 8),
            fine_table=table,
        )
        rng = np.random.default_rng(12)
        u0 = pair.prolong(pair.restrict(rng.standard_normal((32, 32))))
        fine = LevelState.spread(u0, 3, 0.01, pair.fine_problem)
        coarse = LevelState.spread(pair.restrict(u0), 3, 0.01, pair.coarse_problem)
        tau = compute_fas_tau(fine, coarse, pair)
        assert max(np.abs(t).max() for t in tau) <= 1e-11

    def test_stacked_tau_matches_the_summed_parts(self):
        # one quadrature of [q | q] over the stack sums in another order
        # than q times f_imp + f_exp: a few rounding errors of the dtype on
        # the scale of the terms tau sums
        pair = ac_pair(fine_n=64, coarse_n=32)
        u0 = ac_initial_condition(1, 0.04, 64, 1, radius=0.25).values
        fine = LevelState.spread(u0, 3, 1e-3, pair.fine_problem)
        fine.tau = 1e-3 * np.random.default_rng(3).standard_normal(fine.u.shape)
        imex_sweep(fine, pair.fine_table, pair.fine_problem)
        coarse = LevelState.spread(pair.restrict(u0), 3, 1e-3, pair.coarse_problem)
        coarse.u = np.stack([pair.restrict(v) for v in fine.u])
        coarse.refresh_rhs(pair.coarse_problem)
        got = compute_fas_tau(fine, coarse, pair)
        ref = ref_compute_fas_tau(fine, coarse, pair)
        weight = np.abs(pair.fine_table.q).sum(axis=1).max()
        scale = np.abs(fine.tau).max() + fine.dt * weight * max(np.abs(fine.f).max(), np.abs(coarse.f).max())
        assert np.abs(got - ref).max() <= 8 * np.finfo(got.dtype).eps * scale

    def test_fas_consistency_reproduces_restricted_fine_solution(self):
        # drive the fine level to the collocation solution, form tau, and
        # check the coarse residual of the restricted solution vanishes
        pair = ac_pair(fine_n=32, coarse_n=8)
        m = pair.fine_table.m
        u0 = 0.4 + 0.1 * np.cos(2 * np.pi * coords(32)[0])
        fine = LevelState.spread(u0, m, 1e-3, pair.fine_problem)
        for _ in range(60):
            imex_sweep(fine, pair.fine_table, pair.fine_problem)
        assert residual(fine, pair.fine_table) <= 1e-13

        coarse = LevelState.spread(pair.restrict(fine.u0), m, 1e-3, pair.coarse_problem)
        coarse.u = np.stack([pair.restrict(v) for v in fine.u])
        coarse.refresh_rhs(pair.coarse_problem)
        coarse.tau = compute_fas_tau(fine, coarse, pair)
        assert residual(coarse, pair.fine_table) <= 1e-11
