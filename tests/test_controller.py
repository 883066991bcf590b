from collections import Counter

import numpy as np
import pytest

from conftest import ref_run_sdc_serial, region_counts, run_python
from pitlab.analysis import audit_messages
from pitlab.collocation import make_radau_table
from pitlab.controller import (
    DIVERGENCE_LIMIT,
    _Worker,
    DivergedError,
    NotConvergedError,
    allen_cahn_config,
    dahlquist_config,
    format_summary,
    run,
    run_sdc_serial,
)
from pitlab.problems import AllenCahnProblem, DahlquistProblem, ac_initial_condition
from pitlab.sweeper import collocation_solve_direct
from pitlab.trace import build_profile, parse_region_name
from pitlab.transfer import IdentityResampler


def channel_counts(result):
    return {
        key: (stats["sent"], stats["received"], stats["pending"])
        for key, stats in result.comm_audit["channels"].items()
    }


class TestCrossModeEquivalence:
    @pytest.mark.parametrize("m,steps", [(2, 2), (3, 4)])
    def test_dahlquist_serial_equals_parallel(self, m, steps):
        serial = run(dahlquist_config(steps, 0.1, m=m), mode="serial")
        parallel = run(dahlquist_config(steps, 0.1, m=m), mode="parallel")
        assert serial.iterations == parallel.iterations
        for a, b in zip(serial.final_values, parallel.final_values):
            assert np.abs(a - b).max() <= 1e-12

    def test_allen_cahn_serial_equals_parallel(self):
        kwargs = dict(n=32, coarse_n=8, seed=3, radius=0.2)
        serial = run(allen_cahn_config(2, 1e-3, **kwargs), mode="serial")
        parallel = run(allen_cahn_config(2, 1e-3, **kwargs), mode="parallel")
        assert serial.iterations == parallel.iterations
        for a, b in zip(serial.final_values, parallel.final_values):
            assert np.abs(a - b).max() <= 1e-12


    @pytest.mark.parametrize("blas_threads", ["1", None], ids=["blas-pinned", "blas-unpinned"])
    def test_allen_cahn_threaded_iterates_are_bit_identical(self, blas_threads):
        code = (
            "import numpy as np\n"
            "from pitlab.controller import allen_cahn_config, run\n"
            "cfg = allen_cahn_config(2, 1e-3, n=128, coarse_n=32, radius=0.23)\n"
            "serial, threaded = run(cfg, 'serial'), run(cfg, 'parallel')\n"
            "print(serial.iterations == threaded.iterations,\n"
            "      all(np.array_equal(a, b) for a, b in zip(serial.final_values, threaded.final_values)))\n"
        )
        assert run_python(code, OPENBLAS_NUM_THREADS=blas_threads).split() == ["True", "True"]


class TestDegenerateRuns:
    def test_single_worker_single_step_matches_direct_collocation(self):
        cfg = dahlquist_config(1, 0.1, tolerance=1e-12)
        result = run(cfg, mode="serial")
        exact = collocation_solve_direct(
            np.array([1.0]), make_radau_table(3), DahlquistProblem(-1.0, 0.0), 0.1
        )
        assert np.abs(result.final_values[0] - exact[-1]).max() <= 1e-10

    def test_huge_tolerance_one_iteration_everywhere(self):
        result = run(dahlquist_config(4, 0.1, tolerance=1e10), mode="serial")
        assert result.iterations == [1, 1, 1, 1]
        assert result.mean_iterations == 1.0

    def test_zero_rhs_predictor_keeps_initial_value(self):
        cfg = dahlquist_config(4, 0.1, lambda_implicit=0.0, lambda_explicit=0.0, tolerance=1e10)
        result = run(cfg, mode="serial")
        for value in result.final_values:
            assert value == pytest.approx([1.0], abs=1e-14)


class TestFreshProcess:
    def test_set_up_imports_neither_masked_arrays_nor_statistics(self):
        # numpy.ma alone costs 11-17 ms in every fresh process
        code = (
            "import sys\n"
            "import pitlab\n"
            "from pitlab.controller import allen_cahn_config, dahlquist_config\n"
            "dahlquist_config(4, 0.1)\n"
            "allen_cahn_config(4, 1e-3, n=32, coarse_n=8)\n"
            "print(*sorted({'numpy.ma', 'statistics'} & set(sys.modules)))\n"
        )
        assert run_python(code).split() == []


class TestPredictorStaircase:
    def test_sweep_and_receive_counts_from_trace(self):
        result = run(dahlquist_config(4, 0.1), mode="serial")
        events = result.trace.events
        for rank in range(4):
            recvs = [
                e
                for e in events
                if e.rank == rank and e.kind == "recv-post" and e.name.startswith("coarse/value/-")
            ]
            assert len(recvs) == rank  # worker p receives p staircase updates
            sends = [
                e
                for e in events
                if e.rank == rank and e.kind == "send-post" and e.name.startswith("coarse/value/-")
            ]
            assert len(sends) == (rank + 1 if rank < 3 else 0)

    def test_one_predict_region_per_worker(self):
        result = run(dahlquist_config(4, 0.1), mode="serial")
        assert region_counts(result.trace, "PREDICT") == {0: 1, 1: 1, 2: 1, 3: 1}


class TestIterationSchedule:
    def test_region_counts_match_iterations(self):
        cfg = dahlquist_config(4, 0.1, fine_sweeps=3, coarse_sweeps=1)
        result = run(cfg, mode="parallel")
        profile = build_profile(result.trace)
        for rank, iters in enumerate(result.iterations):
            counts = {}
            for (r, name), reg in profile.regions.items():
                if r == rank:
                    counts[parse_region_name(name)[0]] = reg.count
            assert counts["IT_FINE"] == 3 * iters
            for phase in ("IT_DOWN", "IT_COARSE", "IT_UP", "IT_CHECK"):
                assert counts[phase] == iters

    def test_coarse_chain_is_serialized_by_rank(self):
        result = run(dahlquist_config(4, 0.1), mode="parallel")
        events = result.trace.events
        # within each iteration the coarse receive of rank p completes
        # after the coarse send of rank p-1 was posted
        for k in range(1, min(result.iterations) + 1):
            name = f"coarse/value/{k}"
            send_posts = {e.rank: e.t for e in events if e.kind == "send-post" and e.name == name}
            recv_completes = {
                e.rank: e.t for e in events if e.kind == "recv-complete" and e.name == name
            }
            for rank in range(1, 4):
                assert recv_completes[rank] >= send_posts[rank - 1]

    def test_u0_is_restricted_only_once_the_predecessor_has_stopped(self, monkeypatch):
        # IT_COARSE replaces a waiting rank's coarse u0 with the received
        # coarse value, so IT_DOWN restricts the node and tau stacks there
        # and u0 only on rank 0 and after the predecessor has stopped
        current, counts = [None], Counter()

        def entered(method, key):
            def wrapper(worker, *args):
                current[0] = key(worker, *args)
                return method(worker, *args)
            return wrapper

        def counting(resampler, values):
            counts[current[0]] += 1
            return restrict(resampler, values)

        restrict = IdentityResampler.restrict
        monkeypatch.setattr(_Worker, "predictor", entered(_Worker.predictor, lambda w: (w.rank, 0)))
        monkeypatch.setattr(_Worker, "iteration", entered(_Worker.iteration, lambda w, k: (w.rank, k)))
        monkeypatch.setattr(IdentityResampler, "restrict", counting)
        result = run(dahlquist_config(4, 0.1), mode="serial")
        assert result.iterations == [1, 2, 3, 4]
        # per rank: the predictor's restriction, then one count per iteration
        expected = {0: [1, 3], 1: [1, 2, 3], 2: [1, 2, 2, 3], 3: [1, 2, 2, 2, 3]}
        assert {r: [counts[r, k] for k in range(len(c))] for r, c in expected.items()} == expected
        assert sum(counts.values()) == sum(map(sum, expected.values()))

    def test_single_worker_cycle_contracts_after_predictor(self):
        cfg = dahlquist_config(1, 0.1, tolerance=1e-13, max_iterations=20)
        result = run(cfg, mode="serial")
        history = result.residual_histories[0]
        assert len(history) >= 2
        assert history[1] < history[0]


class TestConvergenceProtocol:
    def test_single_worker_stops_on_residual_alone(self):
        result = run(dahlquist_config(1, 0.1, tolerance=1e-6), mode="serial")
        assert result.residual_histories[0][-1] <= 1e-6

    def test_later_worker_below_tolerance_keeps_iterating(self):
        # at lambda = -30 worker 2 dips below this tolerance one iteration
        # before worker 1; the prefix rule must keep it sweeping
        cfg = dahlquist_config(4, 0.1, lambda_implicit=-30.0, tolerance=0.04, max_iterations=30)
        result = run(cfg, mode="serial")
        dips = [
            next(k for k, res in enumerate(history, start=1) if res <= 0.04)
            for history in result.residual_histories
        ]
        assert dips[2] < result.iterations[1]  # dips early, predecessor still running
        assert result.iterations[2] > dips[2]  # and indeed kept going
        fine_counts = region_counts(result.trace, "IT_FINE")
        assert fine_counts[2] == 3 * result.iterations[2]

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_stop_iterations_are_prefix_monotone(self, mode):
        result = run(dahlquist_config(4, 0.1, lambda_implicit=-30.0), mode=mode)
        assert result.iterations == sorted(result.iterations)

    def test_all_workers_meet_tolerance_with_final_initial_values(self):
        cfg = dahlquist_config(4, 0.1, tolerance=1e-8)
        result = run(cfg, mode="parallel")
        for history in result.residual_histories:
            assert history[-1] <= 1e-8


class TestRunBookkeeping:
    def test_message_balance_and_no_leaks(self):
        result = run(dahlquist_config(4, 0.1), mode="parallel")
        for (src, dst), (sent, received, pending) in channel_counts(result).items():
            assert sent == received
            assert pending == 0
        assert all(v == 0 for v in result.comm_audit["unwaited"].values())
        audit = audit_messages(result.trace)
        assert audit["unmatched_sends"] == 0
        assert audit["unmatched_recvs"] == 0
        assert audit["send_posts"] == audit["recv_posts"]

    def test_same_seed_bit_identical_runs(self):
        a = run(allen_cahn_config(2, 1e-3, n=32, coarse_n=8, seed=5), mode="parallel")
        b = run(allen_cahn_config(2, 1e-3, n=32, coarse_n=8, seed=5), mode="parallel")
        assert a.iterations == b.iterations
        for u, v in zip(a.final_values, b.final_values):
            assert np.array_equal(u, v)

    def test_summary_line_format(self):
        result = run(dahlquist_config(2, 0.1), mode="serial")
        time_line, iter_line = format_summary(result)
        assert time_line.startswith("Time to solution: ")
        assert time_line.endswith(" sec.")
        float(time_line.split(": ")[1].split(" ")[0])
        assert iter_line.startswith("Mean number of iterations: ")
        float(iter_line.split(": ")[1])

    def test_wall_time_positive(self):
        result = run(dahlquist_config(2, 0.1), mode="serial")
        assert result.wall_time > 0


class TestFailureModes:
    def test_divergence_raises(self):
        cfg = dahlquist_config(2, 0.5, lambda_implicit=0.0, lambda_explicit=40.0, tolerance=1e-12)
        with pytest.raises(DivergedError):
            run(cfg, mode="serial")

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_divergence_names_every_rank(self, mode):
        cfg = dahlquist_config(2, 0.5, lambda_implicit=0.0, lambda_explicit=40.0, tolerance=1e-12)
        with pytest.raises(DivergedError, match=r"^worker [01] diverged at iteration \d+: ") as info:
            run(cfg, mode=mode)
        residuals = info.value.residuals
        assert set(residuals) == {0, 1}
        raised = residuals[int(str(info.value).split()[1])]
        assert not np.isfinite(raised) or raised > DIVERGENCE_LIMIT

    def test_serial_sdc_divergence_names_rank_0(self):
        cfg = dahlquist_config(1, 0.5, lambda_implicit=0.0, lambda_explicit=40.0)
        pair = cfg.pair
        with pytest.raises(DivergedError) as info:
            run_sdc_serial(pair.fine_problem, pair.fine_table, cfg.u0, cfg.dt, 1, tolerance=1e-12)
        assert list(info.value.residuals) == [0]
        assert not np.isfinite(info.value.residuals[0]) or info.value.residuals[0] > DIVERGENCE_LIMIT

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_max_iterations_raises_not_converged(self, mode):
        # under rendezvous sends rank 0 cannot run ahead of rank 1, so
        # both workers have a residual when the threaded run stops
        cfg = dahlquist_config(2, 0.1, tolerance=1e-30, max_iterations=3, rendezvous_bytes=0)
        with pytest.raises(NotConvergedError, match=r"^worker [01] hit max iterations \(3\)$") as info:
            run(cfg, mode=mode)
        assert set(info.value.residuals) == {0, 1}
        assert all(np.isfinite(r) and r > 1e-30 for r in info.value.residuals.values())

    def test_not_converged_names_every_rank(self):
        # eager sends let rank 0 run ahead, so the other workers may not
        # have finished an iteration when it stops the run
        cfg = dahlquist_config(4, 0.1, tolerance=1e-30, max_iterations=3)
        with pytest.raises(NotConvergedError, match=r"^worker \d hit max iterations \(3\)$") as info:
            run(cfg, mode="parallel")
        residuals = info.value.residuals
        assert set(residuals) == {0, 1, 2, 3}
        assert residuals[int(str(info.value).split()[1])] is not None
        assert all(r is None or (np.isfinite(r) and r > 1e-30) for r in residuals.values())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            run(dahlquist_config(2, 0.1, tolerance=-1.0))
        for dt in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step size must be finite and positive"):
                run(dahlquist_config(2, dt))
        with pytest.raises(ValueError, match="mode"):
            run(dahlquist_config(2, 0.1), mode="magic")
        with pytest.raises(ValueError, match="sweep counts"):
            cfg = dahlquist_config(2, 0.1, fine_sweeps=0)
            run(cfg)


class TestSerialSdc:
    def test_tolerance_driven_stepping(self):
        problem = DahlquistProblem(-1.0, 0.0)
        result = run_sdc_serial(problem, make_radau_table(3), np.array([1.0]), 0.1, 10, tolerance=1e-10)
        assert abs(result.final_values[-1][0] - np.exp(-1.0)) <= 1e-8
        assert all(k >= 1 for k in result.iterations)

    def test_not_converged_raises(self):
        problem = DahlquistProblem(-1.0, 0.0)
        with pytest.raises(NotConvergedError):
            run_sdc_serial(
                problem, make_radau_table(3), np.array([1.0]), 0.1, 1, tolerance=1e-30, max_sweeps=4
            )

    def test_one_state_for_every_step_matches_a_fresh_state_per_step(self):
        problem = AllenCahnProblem(64, 1, 0.04)
        u0 = ac_initial_condition(1, 0.04, 64, 1, radius=0.25).values
        table = make_radau_table(3)
        result = run_sdc_serial(problem, table, u0, 1e-3, 5, tolerance=1e-8)
        values, counts, histories = ref_run_sdc_serial(problem, table, u0, 1e-3, 5, tolerance=1e-8)
        assert len(result.final_values) == 5
        assert all(np.array_equal(a, b) for a, b in zip(result.final_values, values))
        assert result.iterations == counts and result.residual_histories == histories

    def test_trace_has_sweep_regions(self):
        problem = DahlquistProblem(-1.0, 0.0)
        result = run_sdc_serial(problem, make_radau_table(3), np.array([1.0]), 0.1, 2, tolerance=1e-10)
        sweeps = sum(result.iterations)
        assert sweeps > 2
        assert region_counts(result.trace, "IT_FINE") == {0: sweeps}
        assert region_counts(result.trace, "IT_CHECK") == {0: sweeps}
