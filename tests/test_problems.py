import logging
import sys
import threading

import numpy as np
import pytest

from conftest import ref_eval_explicit, ref_eval_implicit, ref_implicit_solve
from pitlab.problems import (
    AllenCahnProblem,
    DahlquistProblem,
    Field2D,
    Xorshift64Star,
    ac_initial_condition,
    measure_radius,
)


def grid_coords(n, length=1.0):
    x = -length / 2 + (np.arange(n) + 0.5) * (length / n)
    return np.meshgrid(x, x, indexing="ij")


class TestAllenCahnOperators:
    def test_zero_state_is_equilibrium(self):
        problem = AllenCahnProblem(16)
        zeros = np.zeros((16, 16))
        assert np.abs(problem.eval_explicit(zeros)).max() == 0.0
        assert np.abs(problem.eval_implicit(zeros)).max() <= 1e-14

    def test_half_state_is_equilibrium(self):
        problem = AllenCahnProblem(16)
        half = np.full((16, 16), 0.5)
        assert np.abs(problem.eval_explicit(half)).max() <= 1e-13
        assert np.abs(problem.eval_implicit(half)).max() <= 1e-11

    def test_sine_is_laplacian_eigenfunction(self):
        n = 64
        problem = AllenCahnProblem(n)
        x, _ = grid_coords(n)
        u = np.sin(2 * np.pi * x)
        assert np.abs(problem.eval_implicit(u) + (2 * np.pi) ** 2 * u).max() <= 1e-10

    def test_implicit_solve_identity_at_zero(self):
        problem = AllenCahnProblem(16)
        rhs = np.random.default_rng(0).standard_normal((16, 16))
        assert np.abs(problem.implicit_solve(rhs, 0.0) - rhs).max() <= 1e-13

    def test_implicit_solve_keeps_constants(self):
        problem = AllenCahnProblem(16)
        rhs = np.full((16, 16), 1.7)
        assert np.abs(problem.implicit_solve(rhs, 0.42) - rhs).max() <= 1e-13

    def test_implicit_solve_defect(self):
        problem = AllenCahnProblem(32)
        rhs = np.random.default_rng(5).standard_normal((32, 32))
        a = 3.3e-4
        u = problem.implicit_solve(rhs, a)
        assert np.abs(u - a * problem.eval_implicit(u) - rhs).max() <= 1e-10

    def test_implicit_solve_rejects_negative_factor(self):
        problem = AllenCahnProblem(16)
        with pytest.raises(ValueError, match="nonnegative"):
            problem.implicit_solve(np.zeros((16, 16)), -0.1)

    def test_implicit_solve_contracts_nonzero_modes(self):
        problem = AllenCahnProblem(32)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal((32, 32))
        rhs -= rhs.mean()
        out = problem.implicit_solve(rhs, 0.01)
        # unit-amplitude modes: a constant c has the zero mode c
        assert np.all(np.abs(np.fft.fft2(out) / out.size) <= np.abs(np.fft.fft2(rhs) / rhs.size) + 1e-15)

    def test_interface_resolution_diagnostic(self, caplog):
        with caplog.at_level(logging.INFO, logger="pitlab.problems"):
            problem = AllenCahnProblem(128, 1, 0.04)
        assert problem.interface_cells() == pytest.approx(7.0 * 0.04 * 128)
        assert any("interface width" in rec.message for rec in caplog.records)


def complex_diffusion_reference(n, lpatches=1):
    """Full-spectrum -k^2 on complex fft2 coefficients, as (eval, solve)."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=lpatches / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    minus_ksq = -(kx**2 + ky**2)

    def laplacian(u):
        return np.real(np.fft.ifft2(minus_ksq * np.fft.fft2(u)))

    def solve(rhs, factor):
        return np.real(np.fft.ifft2(np.fft.fft2(rhs) / (1.0 - factor * minus_ksq)))

    return laplacian, solve


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestRealTransformKernels:
    # n = 2 is all zero mode and Nyquist; every n exercises the Nyquist
    # column that irfft2 reconstructs from the half spectrum
    @pytest.mark.parametrize("n", [2, 4, 32, 128])
    @pytest.mark.parametrize("lpatches", [1, 2])
    def test_matches_complex_fft_reference(self, n, lpatches):
        problem = AllenCahnProblem(n, lpatches)
        laplacian, solve = complex_diffusion_reference(n, lpatches)
        rng = np.random.default_rng(n + lpatches)
        for _ in range(3):
            u = rng.standard_normal((n, n))
            assert relative_error(problem.eval_implicit(u), laplacian(u)) <= 1e-12
            for factor in (0.0, 3.3e-5, 2.5e-4, 0.1):
                assert relative_error(problem.implicit_solve(u, factor), solve(u, factor)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 32, 128, 256])
    @pytest.mark.parametrize("lpatches", [1, 2])
    @pytest.mark.parametrize("nodes", [(), (3,)], ids=["field", "stack"])
    def test_kernels_bit_identical_to_two_dimensional_transforms(self, n, lpatches, nodes):
        problem = AllenCahnProblem(n, lpatches)
        u = np.random.default_rng(n + lpatches).standard_normal((*nodes, n, n))
        assert np.array_equal(problem.eval_implicit(u), ref_eval_implicit(problem, u))
        assert np.array_equal(problem.eval_explicit(u), ref_eval_explicit(problem, u))
        for factor in (0.0, 2.5e-4, 0.1):
            assert np.array_equal(problem.implicit_solve(u, factor), ref_implicit_solve(problem, u, factor))

    def test_node_stack_evaluates_per_node(self):
        problem = AllenCahnProblem(32)
        stack = np.random.default_rng(4).standard_normal((3, 32, 32))
        together = problem.eval_implicit(stack)
        assert together.shape == stack.shape
        for node, values in zip(together, stack):
            assert np.abs(node - problem.eval_implicit(values)).max() <= 1e-12

    def test_solve_cache_stays_bounded_and_exact(self):
        problem = AllenCahnProblem(16)
        _, solve = complex_diffusion_reference(16)
        rhs = np.random.default_rng(2).standard_normal((16, 16))
        for factor in np.linspace(0.0, 1.0, 40):
            assert relative_error(problem.implicit_solve(rhs, factor), solve(rhs, factor)) <= 1e-12
        assert problem._solve_multiplier.cache_info().currsize <= 8

    def test_threads_sharing_one_problem_solve_exactly(self):
        # more threads than cores and factors than cache slots, so entries
        # are added and evicted while other threads read them
        problem = AllenCahnProblem(16)
        rhs = np.random.default_rng(8).standard_normal((16, 16))
        factors = np.linspace(1e-4, 1e-1, 12)
        expected = [AllenCahnProblem(16).implicit_solve(rhs, f) for f in factors]
        failures = []

        def worker(offset):
            for round_ in range(30):
                i = (offset + round_) % len(factors)
                if not np.array_equal(problem.implicit_solve(rhs, factors[i]), expected[i]):
                    failures.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert problem._solve_multiplier.cache_info().currsize <= 8


class TestDahlquist:
    def test_split_rates(self):
        problem = DahlquistProblem(-2.0, 0.5)
        u = np.array([3.0])
        assert problem.eval_implicit(u) == pytest.approx([-6.0])
        assert problem.eval_explicit(u) == pytest.approx([1.5])
        assert problem.implicit_solve(np.array([1.0]), 0.1) == pytest.approx([1.0 / 1.2])
        assert problem.dense_operator()[0, 0] == pytest.approx(-1.5)

    def test_rate_that_is_not_finite_rejected(self):
        for rates in ((float("nan"), 0.0), (-1.0, float("nan")), (float("-inf"), 0.0), (-1.0, float("inf"))):
            with pytest.raises(ValueError, match="rates must be finite"):
                DahlquistProblem(*rates)


class TestInitialCondition:
    def test_fixed_radius_profile(self):
        field = ac_initial_condition(1, 0.04, 128, seed=1, radius=0.25)
        assert field.values.min() > 0.0
        assert field.values.max() < 1.0
        center = field.values[64, 64]
        assert center >= 0.99

    def test_far_field_saturates_to_zero(self):
        field = ac_initial_condition(1, 0.04, 128, seed=1, radius=0.1)
        corner = field.values[0, 0]  # far from the centered circle
        assert corner <= 1e-6

    def test_same_seed_bit_identical(self):
        a = ac_initial_condition(4, 0.04, 64, seed=123)
        b = ac_initial_condition(4, 0.04, 64, seed=123)
        assert np.array_equal(a.values, b.values)
        c = ac_initial_condition(4, 0.04, 64, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ac_initial_condition(3, 0.04, 64, seed=1)

    def test_no_patch_rejected(self):
        for lpatches in (0, -2):
            with pytest.raises(ValueError, match="at least one patch"):
                ac_initial_condition(lpatches, 0.04, 64, seed=1)
            with pytest.raises(ValueError, match="at least one patch"):
                AllenCahnProblem(16, lpatches)

    def test_bad_radius_or_interface_width_rejected(self):
        for radius in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                ac_initial_condition(1, 0.04, 16, seed=1, radius=radius)
        for eps in (0.0, -0.04, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="interface parameter must be finite and positive"):
                AllenCahnProblem(16, 1, eps)

    def test_interface_width_whose_reaction_coefficient_overflows_rejected(self):
        # eps**2 overflows, underflows to 0, or 2/eps**2 overflows to inf
        for eps in (1e300, 1e-200, 1e-160):
            with pytest.raises(ValueError, match="makes -2/eps\\^2 overflow or vanish"):
                AllenCahnProblem(16, 1, eps)

    @pytest.mark.parametrize("eps", [0.04, 0.3, 1e154, 1e-100])
    def test_reaction_is_the_reference_formula_bit_for_bit(self, eps):
        problem = AllenCahnProblem(16, 1, eps)
        u = np.random.default_rng(3).uniform(-0.2, 1.2, (2, 16, 16))
        assert np.array_equal(problem.eval_explicit(u), ref_eval_explicit(problem, u))

    def test_radii_come_from_the_documented_generator(self):
        rng = Xorshift64Star(55)
        expected = [rng.uniform(0.5 * 0.04, 3 * 0.04) for _ in range(4)]
        field = ac_initial_condition(2, 0.04, 64, seed=55)
        rebuilt = np.zeros((64, 64))
        x, y = grid_coords(64, 2.0)
        centers = [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
        for (cx, cy), r in zip(centers, expected):
            dist = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
            rebuilt += 0.5 * (1 + np.tanh((r - dist) / (np.sqrt(2) * 0.04)))
        assert np.abs(field.values - rebuilt).max() <= 1e-14


class TestXorshift:
    def test_deterministic_sequence(self):
        a = Xorshift64Star(7)
        b = Xorshift64Star(7)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_zero_seed_replaced(self):
        assert Xorshift64Star(0).state == 0x9E3779B97F4A7C15

    def test_uniform_range(self):
        rng = Xorshift64Star(99)
        draws = [rng.uniform(2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= d < 3.0 for d in draws)
        assert 2.4 < np.mean(draws) < 2.6


class TestRadius:
    def test_zero_field_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="nonpositive"):
            assert measure_radius(Field2D(np.zeros((32, 32)))) == 0.0

    def test_sharp_disc_area(self):
        n = 128
        x, y = grid_coords(n)
        disc = ((x**2 + y**2) <= 0.25**2).astype(float)
        h = 1.0 / n
        assert measure_radius(Field2D(disc)) == pytest.approx(0.25, abs=2 * h)

