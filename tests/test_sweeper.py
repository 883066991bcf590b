import copy
import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import ref_imex_sweep, ref_residual, run_python
from pitlab.collocation import make_radau_table
from pitlab.controller import DivergedError, run_sdc_serial
from pitlab.problems import AllenCahnProblem, DahlquistProblem, ac_initial_condition
from pitlab.sweeper import LevelState, collocation_solve_direct, imex_sweep, node_integrals, residual


def dense_sweep_oracle(u_old, u0, tau, dt, tab, lam_i, lam_e):
    """Literal dense-matrix form of the preconditioned update.

    Solves (I - dt (QdI li + QdE le)) u_new
         = u0 + tau + dt ((Q - QdI) li + (Q - QdE) le) u_old
    for the scalar split problem, treating all nodes at once.
    """
    m = tab.m
    lhs = np.eye(m) - dt * (tab.qd_imp * lam_i + tab.qd_exp * lam_e)
    rhs = u0 + tau + dt * ((tab.q - tab.qd_imp) * lam_i + (tab.q - tab.qd_exp) * lam_e) @ u_old
    return np.linalg.solve(lhs, rhs)


def spread(problem, u0, m, dt):
    return LevelState.spread(np.atleast_1d(u0), m, dt, problem)


class TestNodeIntegrals:
    @pytest.mark.parametrize("shape", [(1,), (16, 16)])
    def test_matches_per_row_loop(self, shape):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((3, 3))
        values = rng.standard_normal((3, *shape))
        loop = [sum(q[i, j] * values[j] for j in range(3)) for i in range(3)]
        got = node_integrals(q, values)
        assert got.shape == values.shape
        # summation order differs: bound by m * eps * max_i sum_j |q_ij| |values_j|
        bound = 3 * np.finfo(float).eps * np.abs(q).sum(axis=1).max() * np.abs(values).max()
        assert np.abs(got - np.array(loop)).max() <= bound

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # 3 * 128^2 * 6 multiply-adds, above OpenBLAS's threading threshold
        # of 262,144, so the second run splits the product over two threads
        code = (
            "import hashlib, numpy as np\n"
            "from pitlab.sweeper import node_integrals\n"
            "rng = np.random.default_rng(4)\n"
            "q, values = rng.standard_normal((3, 6)), rng.standard_normal((6, 128, 128))\n"
            "print(hashlib.sha256(node_integrals(q, values).tobytes()).hexdigest())\n"
        )
        digests = {threads: run_python(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")}
        assert digests["1"] == digests["2"]

    def test_respread_refills_the_same_arrays_as_a_fresh_spread(self):
        problem, state = allen_cahn_state(n=16)
        imex_sweep(state, make_radau_table(3), problem)
        arrays = state.u, state.f, state.tau
        u1 = state.u[-1].copy()
        state.respread(u1, problem)
        fresh = LevelState.spread(u1, 3, state.dt, problem)
        assert all(a is b for a, b in zip(arrays, (state.u, state.f, state.tau)))
        assert state.u0 is not u1
        for name in ("u0", "u", "f", "tau"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name)), name

    def test_spread_stacks_nodes_in_u0_dtype(self):
        # a 2-D Allen-Cahn field and the Dahlquist scalar
        cases = [
            (AllenCahnProblem(16, 1, 0.04), ac_initial_condition(1, 0.04, 16, 1, radius=0.25).values),
            (DahlquistProblem(-1.0, 0.5), np.array([1.0])),
        ]
        for problem, u0 in cases:
            state = LevelState.spread(u0, 3, 0.1, problem)
            assert state.u0 is not u0 and np.array_equal(state.u0, u0)
            # no FAS correction until one is assigned
            assert state.tau is None
            expected = {
                "u": u0,
                "f_imp": problem.eval_implicit(u0),
                "f_exp": problem.eval_explicit(u0),
            }
            for name, node_value in expected.items():
                stack = getattr(state, name)
                assert isinstance(stack, np.ndarray), name
                assert stack.shape == (3, *u0.shape) and stack.dtype == u0.dtype, name
                assert all(np.array_equal(node, node_value) for node in stack), name


class TestImexSweep:
    @pytest.mark.parametrize("lam_i,lam_e", [(-1.0, 0.0), (-2.0, 0.5), (0.0, -0.7)])
    def test_matches_dense_matrix_oracle(self, lam_i, lam_e):
        tab = make_radau_table(3)
        problem = DahlquistProblem(lam_i, lam_e)
        state = spread(problem, 1.0, 3, 0.1)
        for _ in range(3):
            u_old = np.array([v[0] for v in state.u])
            expected = dense_sweep_oracle(u_old, 1.0, np.zeros(3), 0.1, tab, lam_i, lam_e)
            imex_sweep(state, tab, problem)
            got = np.array([v[0] for v in state.u])
            assert np.abs(got - expected).max() <= 1e-13

    def test_collocation_solution_is_fixed_point(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        exact = collocation_solve_direct(np.array([1.0]), tab, problem, 0.1)
        state = spread(problem, 1.0, 3, 0.1)
        state.u = np.stack([v.copy() for v in exact])
        state.refresh_rhs(problem)
        before = [v.copy() for v in state.u]
        imex_sweep(state, tab, problem)
        diff = max(np.abs(a - b).max() for a, b in zip(before, state.u))
        assert diff <= 1e-12

    def test_zero_rhs_gives_initial_value_plus_tau(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(0.0, 0.0)
        state = spread(problem, 2.0, 3, 0.1)
        state.tau = np.stack([np.array([0.1 * (m + 1)]) for m in range(3)])
        imex_sweep(state, tab, problem)
        for m in range(3):
            assert state.u[m] == pytest.approx([2.0 + 0.1 * (m + 1)], abs=1e-14)


class TestResidual:
    def test_collocation_solution_has_zero_residual(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        state = spread(problem, 1.0, 3, 0.1)
        state.u = np.stack([v.copy() for v in collocation_solve_direct(np.array([1.0]), tab, problem, 0.1)])
        state.refresh_rhs(problem)
        assert residual(state, tab) <= 1e-12

    def test_zero_everything_is_zero(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(0.0, 0.0)
        state = spread(problem, 1.0, 3, 0.1)
        assert residual(state, tab) == 0.0

    def test_nan_node_is_not_hidden(self):
        # a NaN at any node must surface, or a diverged run reads as converged
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        for bad in ([1], [0, 1, 2]):
            state = spread(problem, 1.0, 3, 0.1)
            state.u[bad] = np.nan
            state.refresh_rhs(problem)
            assert np.isnan(residual(state, tab))
        with pytest.raises(DivergedError):
            run_sdc_serial(problem, tab, np.array([np.nan]), 0.1, 1)

    def test_hand_value_for_two_nodes(self):
        # u == u0 == 1, f == -u, dt = 0.1: defect is dt * |row sum of Q|,
        # rows sum to 1/3 and 1, so the max-residual is 0.1
        tab = make_radau_table(2)
        problem = DahlquistProblem(-1.0, 0.0)
        state = spread(problem, 1.0, 2, 0.1)
        assert residual(state, tab) == pytest.approx(0.1, abs=1e-14)


class TestDirectSolve:
    def test_fifth_order_accuracy_against_exponential(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        u = collocation_solve_direct(np.array([1.0]), tab, problem, 0.1)
        assert abs(u[-1][0] - np.exp(-0.1)) <= 1e-7

    def test_zero_rate_is_identity(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(0.0, 0.0)
        u = collocation_solve_direct(np.array([1.0]), tab, problem, 0.1)
        for v in u:
            assert v == pytest.approx([1.0])

    def test_sweeps_converge_to_direct_solution(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        exact = collocation_solve_direct(np.array([1.0]), tab, problem, 0.1)
        state = spread(problem, 1.0, 3, 0.1)
        for _ in range(20):
            imex_sweep(state, tab, problem)
        assert max(np.abs(a - b).max() for a, b in zip(state.u, exact)) <= 1e-10

    def test_size_guard(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        with pytest.raises(ValueError, match="4096"):
            collocation_solve_direct(np.zeros(4096), tab, problem, 0.1)


class TestSweepProperties:
    @pytest.mark.parametrize("implicit", ["lu", "be"])
    def test_preconditioner_independence_of_fixed_point(self, implicit):
        tab = make_radau_table(3, implicit=implicit)
        problem = DahlquistProblem(-1.0, -0.5)
        exact = collocation_solve_direct(np.array([1.0]), tab, problem, 0.1)
        state = spread(problem, 1.0, 3, 0.1)
        for _ in range(30):
            imex_sweep(state, tab, problem)
        assert max(np.abs(a - b).max() for a, b in zip(state.u, exact)) <= 1e-10

    def test_complex_rates_converge_to_direct_solution(self):
        # oscillatory decay: the state and caches stay complex throughout
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0 + 2.0j, 0.0)
        exact = collocation_solve_direct(np.array([1.0 + 0.0j]), tab, problem, 0.1)
        state = LevelState.spread(np.array([1.0 + 0.0j]), 3, 0.1, problem)
        for _ in range(25):
            imex_sweep(state, tab, problem)
        assert max(np.abs(a - b).max() for a, b in zip(state.u, exact)) <= 1e-12
        assert abs(exact[-1][0] - np.exp((-1.0 + 2.0j) * 0.1)) <= 1e-7

    def test_residual_contracts_monotonically(self):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        state = spread(problem, 1.0, 3, 0.1)
        last = residual(state, tab)
        for _ in range(10):
            imex_sweep(state, tab, problem)
            now = residual(state, tab)
            # strict decrease until the rounding floor
            assert now < last or now <= 1e-14
            last = now

    @pytest.mark.parametrize("sweeps,expected_order", [(1, 1), (2, 2), (3, 3)])
    def test_one_order_per_sweep(self, sweeps, expected_order):
        tab = make_radau_table(3)
        problem = DahlquistProblem(-1.0, 0.0)
        errors = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            steps = round(1.0 / dt)
            u = np.array([1.0])
            for _ in range(steps):
                state = LevelState.spread(u, 3, dt, problem)
                for _ in range(sweeps):
                    imex_sweep(state, tab, problem)
                u = state.u[-1]
            errors.append(abs(u[0] - np.exp(-1.0)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert abs(orders.mean() - expected_order) <= 0.4


class CountingProblem:
    """Forwards to a problem and counts each kind of evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def eval_implicit(self, u):
        self.calls["eval_implicit"] += 1
        return self.inner.eval_implicit(u)

    def eval_explicit(self, u):
        self.calls["eval_explicit"] += 1
        return self.inner.eval_explicit(u)

    def implicit_solve(self, rhs, factor):
        self.calls["implicit_solve"] += 1
        return self.inner.implicit_solve(rhs, factor)


def allen_cahn_state(n=64, m=3, dt=1e-3):
    problem = AllenCahnProblem(n, 1, 0.04)
    u0 = ac_initial_condition(1, 0.04, n, 1, radius=0.25).values
    return problem, LevelState.spread(u0, m, dt, problem)


def dahlquist_state(m=3, dt=0.1):
    problem = DahlquistProblem(-2.0, 0.5)
    return problem, spread(problem, 1.0, m, dt)


class TestSolveIdentity:
    @pytest.mark.parametrize("make", [allen_cahn_state, dahlquist_state])
    def test_cached_implicit_part_matches_evaluation(self, make):
        problem, state = make()
        tab = make_radau_table(3)
        for _ in range(3):
            imex_sweep(state, tab, problem)
            for u, f_imp in zip(state.u, state.f_imp):
                expected = problem.eval_implicit(u)
                assert np.abs(f_imp - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_zero_diagonal_table_still_evaluates(self):
        # explicit-Euler table in the implicit slot, as in the
        # preconditioner-independence criterion: no solve to read fI from
        tab = make_radau_table(3)
        ee_table = dataclasses.replace(tab, qd_imp=tab.qd_exp)
        problem, state = dahlquist_state()
        counting = CountingProblem(problem)
        imex_sweep(state, ee_table, counting)
        assert counting.calls["eval_implicit"] == ee_table.m
        for u, f_imp in zip(state.u, state.f_imp):
            assert f_imp == pytest.approx(problem.eval_implicit(u), abs=1e-15)


class TestFftBudget:
    @pytest.mark.parametrize("implicit", ["lu", "be"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("make", [allen_cahn_state, dahlquist_state])
    def test_sweep_solves_and_evaluates_once_per_node(self, m, make, implicit):
        # the implicit part comes from the solve: a sweep that evaluates
        # it again pays a second forward/inverse transform per node
        problem, state = make(m=m)
        counting = CountingProblem(problem)
        for _ in range(2):
            counting.calls.clear()
            imex_sweep(state, make_radau_table(m, implicit=implicit), counting)
            assert counting.calls == Counter(implicit_solve=m, eval_explicit=m)


class TestStackedRhs:
    def test_rhs_views_write_through_to_the_stack(self):
        _, state = dahlquist_state()
        assert state.f.shape == (2, 3, 1)
        state.f_imp[1] = 7.0
        state.f_exp[2] = -3.0
        assert state.f[0, 1, 0] == 7.0 and state.f[1, 2, 0] == -3.0

    @staticmethod
    def oracle_case(case):
        """(problem, state, table, Lipschitz bound of the problem's f)."""
        lu = make_radau_table(3)
        if case == "allen-cahn-64-tau":
            problem, state = allen_cahn_state(n=64)
            state.tau = 1e-3 * np.random.default_rng(5).standard_normal(state.u.shape)
            # |d/du of the reaction| = 2/eps^2 |1 - 6u + 6u^2|, below 2/eps^2 * 2 near [0, 1]
            return problem, state, lu, 4.0 / 0.04**2
        if case == "dahlquist-complex":
            problem = DahlquistProblem(-1.0 + 2.0j, 0.3)
            return problem, LevelState.spread(np.array([1.0 + 0.5j]), 3, 0.1, problem), lu, abs(-1.0 + 2.0j)
        problem, state = dahlquist_state()
        table = lu if case == "dahlquist-lu" else dataclasses.replace(lu, qd_imp=lu.qd_exp)
        return problem, state, table, 2.0

    @pytest.mark.parametrize("case", ["dahlquist-lu", "dahlquist-zero-diagonal", "dahlquist-complex",
                                      "allen-cahn-64-tau"])
    def test_sweep_and_residual_match_the_per_term_loops(self, case):
        self.assert_matches_the_per_term_loops(*self.oracle_case(case))

    @pytest.mark.parametrize("tau", [False, True], ids=["no-tau", "tau"])
    @pytest.mark.parametrize("preconditioner", ["lu", "be", "all-explicit"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("make, lipschitz", [
        (lambda m: dahlquist_state(m=m), 2.5), (lambda m: allen_cahn_state(n=16, m=m), 4.0 / 0.04**2),
    ], ids=["dahlquist", "allen-cahn-16"])
    def test_column_updates_match_the_per_term_loops(self, make, lipschitz, m, preconditioner, tau):
        # each node's new values reach the rows below it one column block
        # at a time, whatever the node count and the preconditioner
        tab = make_radau_table(m, implicit="lu" if preconditioner == "all-explicit" else preconditioner)
        if preconditioner == "all-explicit":
            tab = dataclasses.replace(tab, qd_imp=tab.qd_exp)
        problem, state = make(m)
        if tau:
            state.tau = 1e-3 * np.random.default_rng(m).standard_normal(state.u.shape)
        self.assert_matches_the_per_term_loops(problem, state, tab, lipschitz)

    @staticmethod
    def assert_matches_the_per_term_loops(problem, state, tab, lipschitz):
        # the stacked quadratures sum in another order: allow a few
        # rounding errors of the dtype on the scale of the terms summed
        eps = np.finfo(state.u.dtype).eps
        weight = (np.abs(tab.q) + np.abs(tab.qd_imp) + np.abs(tab.qd_exp)).sum(axis=1).max()
        # f_imp = (u - rhs) / (dt qdI_mm) scales a difference up
        stiff = max([lipschitz] + [1.0 / (state.dt * d) for d in tab.qd_diag if d])
        for _ in range(3):
            ref = copy.deepcopy(state)
            imex_sweep(state, tab, problem)
            ref_imex_sweep(ref, tab, problem)
            tau = 0.0 if state.tau is None else np.abs(state.tau).max()
            scale = (np.abs(state.u0).max() + tau + np.abs(ref.u).max()
                     + state.dt * weight * np.abs(ref.f).max())
            assert np.abs(state.u - ref.u).max() <= 8 * eps * scale
            assert np.abs(state.f - ref.f).max() <= 8 * eps * scale * stiff
            assert abs(residual(state, tab) - ref_residual(ref, tab)) <= 8 * eps * scale
            state = ref


def peak_node_arrays(call, node_bytes):
    """tracemalloc peak of one call, in node arrays.  A first, untraced
    call fills the FFT plan and solve multiplier caches."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / node_bytes


class TestAllocationBudget:
    # Allen-Cahn 64^2, M = 3.  Peaks before the stacked right-hand side
    # and the pass-by-pass transforms: implicit_solve 3.14, eval_explicit
    # 3.01, eval_implicit on the stack 9.33, residual 6.05, sweep 9.01.
    # The residual's broadcast add of u0 takes numpy's 64 KB ufunc buffer,
    # two node arrays at 64^2.
    @pytest.mark.parametrize("kernel, budget", [
        ("implicit_solve", 2.5), ("eval_explicit", 2.5), ("eval_implicit", 7.0),
        ("residual", 5.5), ("imex_sweep", 7.0),
    ])
    def test_peak_allocation(self, kernel, budget):
        problem, state = allen_cahn_state(n=64)
        tab = make_radau_table(3)
        imex_sweep(state, tab, problem)
        calls = {
            "implicit_solve": lambda: problem.implicit_solve(state.u[0], 1e-3),
            "eval_explicit": lambda: problem.eval_explicit(state.u[0]),
            "eval_implicit": lambda: problem.eval_implicit(state.u),
            "residual": lambda: residual(state, tab),
            "imex_sweep": lambda: imex_sweep(state, tab, problem),
        }
        assert peak_node_arrays(calls[kernel], state.u0.nbytes) <= budget
