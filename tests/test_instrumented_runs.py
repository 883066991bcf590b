"""End-to-end behaviour of instrumented runs: backends, fault injection,
wait-state structure, and error propagation through the stack."""

import numpy as np
import pytest

from conftest import ev, make_trace
from pitlab.analysis import (
    CausalityError,
    causality_violations,
    detect_late_receiver,
    pop_metrics,
)
from pitlab.collocation import make_radau_table
from pitlab.comm import DeadlockError, Network
from pitlab.controller import _Worker, allen_cahn_config, dahlquist_config, run
from pitlab.problems import DahlquistProblem
from pitlab.sweeper import LevelState, SolveFailure, collocation_solve_direct, imex_sweep, residual
from pitlab.trace import Tracer


def lr_by_channel(trace, min_wait=0.0):
    totals = {}
    for w in detect_late_receiver(trace, min_wait=min_wait):
        key = (w.sender, w.receiver)
        totals[key] = totals.get(key, 0.0) + w.wait_s
    return totals


@pytest.fixture(scope="module")
def runs():
    small = dict(n=64, coarse_n=16, seed=1, radius=0.25)
    rendezvous = run(allen_cahn_config(4, 1e-3, rendezvous_bytes=0, **small), "parallel")
    eager = run(allen_cahn_config(4, 1e-3, rendezvous_bytes=1 << 62, **small), "parallel")
    return rendezvous, eager


class TestBackendContrast:
    def test_backends_agree_numerically(self, runs):
        rendezvous, eager = runs
        assert rendezvous.iterations == eager.iterations
        for a, b in zip(rendezvous.final_values, eager.final_values):
            assert np.array_equal(a, b)

    def test_rendezvous_transfer_efficiency_below_eager(self, runs):
        # a timing property: compare medians over three paired runs to
        # ride out scheduler noise at this tiny scale
        import statistics

        small = dict(n=64, coarse_n=16, seed=1, radius=0.25)
        te_rdv = [pop_metrics(runs[0].trace).transfer_efficiency]
        te_eager = [pop_metrics(runs[1].trace).transfer_efficiency]
        for _ in range(2):
            rdv = run(allen_cahn_config(4, 1e-3, rendezvous_bytes=0, **small), "parallel")
            eag = run(allen_cahn_config(4, 1e-3, rendezvous_bytes=1 << 62, **small), "parallel")
            te_rdv.append(pop_metrics(rdv.trace).transfer_efficiency)
            te_eager.append(pop_metrics(eag.trace).transfer_efficiency)
        assert statistics.median(te_rdv) < statistics.median(te_eager), (te_rdv, te_eager)

    def test_late_receiver_total_bounded_by_blocked_send_time(self, runs):
        rendezvous, _ = runs
        blocked = 0.0
        posts = {}
        for event in rendezvous.trace.events:
            if event.kind == "send-post":
                posts.setdefault((event.rank, event.name), []).append(event.t)
            elif event.kind == "send-complete":
                queue = posts.get((event.rank, event.name))
                if queue:
                    blocked += event.t - queue.pop(0)
        total_wait = sum(w.wait_s for w in detect_late_receiver(rendezvous.trace))
        assert total_wait <= blocked + 1e-9


class TestFaultInjection:
    def test_slowed_rank_concentrates_waits_around_it(self):
        # fine payloads rendezvous, coarse and status eager; rank 2 sleeps
        # 50 ms per fine sweep.  The blocked fine send into the slow rank
        # carries the fault-level waiting, and the stall backs up into the
        # predecessor channel; channels past the slow rank stay at the
        # structural staircase level.
        cfg = allen_cahn_config(
            4, 1e-3, n=64, coarse_n=16, seed=1, radius=0.25,
            rendezvous_bytes=8192, compute_delay={2: 0.05},
        )
        result = run(cfg, mode="parallel")
        fault_level = lr_by_channel(result.trace, min_wait=0.075)
        assert (1, 2) in fault_level
        assert set(fault_level) <= {(0, 1), (1, 2)}
        assert fault_level[(1, 2)] == max(fault_level.values())
        baseline = lr_by_channel(result.trace).get((2, 3), 0.0)
        assert baseline <= fault_level[(1, 2)]


class TestDiagnostics:
    def test_deadlock_error_carries_last_events(self):
        net = Network(2, recv_timeout=0.05)
        tracer = Tracer(1)
        endpoint = net.endpoint(1, tracer)
        tracer.record_region("REGION -- IT_FINE -- 1", "enter")
        with pytest.raises(DeadlockError) as info:
            endpoint.recv(0, ("fine", "value", 1))
        assert 1 in info.value.last_events
        assert "recv-post" in info.value.last_events[1]

    def test_causality_violation_detected(self):
        trace = make_trace(
            [
                ev(0, "send-post", "x", 5.0, 8, 1),
                ev(0, "send-complete", "x", 5.0, 8, 1),
                ev(1, "recv-post", "x", 1.0, 0, 0),
                ev(1, "recv-complete", "x", 2.0, 8, 0),  # before the send posts
            ],
            2,
        )
        assert causality_violations(trace) == 1
        with pytest.raises(CausalityError):
            pop_metrics(trace)

    def test_residual_after_first_cycle_beats_predictor(self):
        cfg = dahlquist_config(1, 0.1, tolerance=1e-13)
        network = Network(1)
        worker = _Worker(0, cfg, network, Tracer(0))
        worker.predictor()
        after_predictor = residual(worker.fine, cfg.pair.fine_table)
        worker.iteration(1)
        assert worker.residual_history[0] < after_predictor


class TestSolverFailures:
    def test_implicit_solve_failure_carries_node_index(self):
        class BrokenProblem(DahlquistProblem):
            def implicit_solve(self, rhs, factor):
                raise RuntimeError("boom")

        problem = BrokenProblem()
        state = LevelState.spread(np.array([1.0]), 3, 0.1, problem)
        with pytest.raises(SolveFailure) as info:
            imex_sweep(state, make_radau_table(3), problem)
        assert info.value.node == 0

    def test_singular_collocation_system(self):
        # with one node Q = [[1]], so 1 - dt*lambda = 0 is singular
        problem = DahlquistProblem(10.0, 0.0)
        with pytest.raises(SolveFailure, match="singular"):
            collocation_solve_direct(np.array([1.0]), make_radau_table(1), problem, 0.1)
