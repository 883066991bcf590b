import pytest

from conftest import ev, fig5_trace, make_trace, pop_hand_trace
from pitlab.analysis import (
    EmptyPhaseError,
    PopReport,
    audit_messages,
    detect_late_receiver,
    detect_late_sender,
    emit_report,
    ideal_replay,
    phase_window,
    pop_metrics,
    replay_trace,
)
from pitlab.trace import Trace


class TestPopMetrics:
    def test_hand_case_exact(self):
        report = pop_metrics(pop_hand_trace())
        assert report.load_balance == pytest.approx(0.875, abs=1e-12)
        assert report.communication_efficiency == pytest.approx(0.8, abs=1e-12)
        assert report.serialisation_efficiency == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert report.transfer_efficiency == pytest.approx(0.9, abs=1e-12)
        assert report.parallel_efficiency == pytest.approx(0.7, abs=1e-12)

    def test_identities_close_exactly(self):
        report = pop_metrics(pop_hand_trace())
        assert abs(report.parallel_efficiency - report.load_balance * report.communication_efficiency) <= 1e-12
        assert abs(
            report.communication_efficiency
            - report.serialisation_efficiency * report.transfer_efficiency
        ) <= 1e-12

    def test_comm_free_trace_has_perfect_comm_efficiencies(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 4.0),
                ev(1, "region-enter", "REGION -- IT_FINE -- 1", 0.0),
                ev(1, "region-exit", "REGION -- IT_FINE -- 1", 3.0),
            ],
            2,
        )
        report = pop_metrics(trace)
        assert report.communication_efficiency == pytest.approx(1.0, abs=1e-12)
        assert report.serialisation_efficiency == pytest.approx(1.0, abs=1e-12)
        assert report.transfer_efficiency == pytest.approx(1.0, abs=1e-12)
        assert report.load_balance == pytest.approx(3.5 / 4.0, abs=1e-12)

    def test_phase_defaults_to_after_last_predictor_exit(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- PREDICT -- 0", 0.0),
                ev(0, "region-exit", "REGION -- PREDICT -- 0", 1.0),
                ev(1, "region-enter", "REGION -- PREDICT -- 1", 0.0),
                ev(1, "region-exit", "REGION -- PREDICT -- 1", 2.0),
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 2.0),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 5.0),
                ev(1, "region-enter", "REGION -- IT_FINE -- 1", 2.0),
                ev(1, "region-exit", "REGION -- IT_FINE -- 1", 5.0),
            ],
            2,
        )
        assert phase_window(trace) == (2.0, 5.0)
        assert phase_window(trace, full_run=True) == (0.0, 5.0)
        report = pop_metrics(trace)
        assert report.total_runtime == pytest.approx(3.0)

    def test_empty_phase_raises(self):
        with pytest.raises(EmptyPhaseError):
            pop_metrics(Trace(events=[], num_ranks=1))
        only_predict = make_trace(
            [
                ev(0, "region-enter", "REGION -- PREDICT -- 0", 0.0),
                ev(0, "region-exit", "REGION -- PREDICT -- 0", 1.0),
            ],
            1,
        )
        with pytest.raises(EmptyPhaseError):
            pop_metrics(only_predict)


class TestLateReceiver:
    def test_synthetic_three_second_wait(self):
        states = detect_late_receiver(fig5_trace())
        assert len(states) == 1
        ws = states[0]
        assert ws.pattern == "late-receiver"
        assert (ws.sender, ws.receiver) == (0, 1)
        assert ws.wait_s == pytest.approx(3.0, abs=1e-12)

    def test_recv_posted_first_is_not_late_receiver(self):
        trace = make_trace(
            [
                ev(1, "recv-post", "x", 1.0, 0, 0),
                ev(0, "send-post", "x", 2.0, 4096, 1),
                ev(0, "send-complete", "x", 2.0, 4096, 1),
                ev(1, "recv-complete", "x", 2.0, 4096, 0),
            ],
            2,
        )
        assert detect_late_receiver(trace) == []
        sender_states = detect_late_sender(trace)
        assert len(sender_states) == 1
        assert sender_states[0].wait_s == pytest.approx(1.0)

    def test_wait_clamped_to_blocked_interval(self):
        trace = make_trace(
            [
                ev(0, "send-post", "x", 0.0, 4096, 1),
                ev(0, "send-complete", "x", 1.0, 4096, 1),
                ev(1, "recv-post", "x", 5.0, 0, 0),
                ev(1, "recv-complete", "x", 5.0, 4096, 0),
            ],
            2,
        )
        assert detect_late_receiver(trace)[0].wait_s == pytest.approx(1.0)

    def test_location_names_the_senders_region(self):
        events = list(fig5_trace().events) + [
            ev(0, "region-enter", "REGION -- IT_FINE -- 0", 1.0),
            ev(0, "region-exit", "REGION -- IT_FINE -- 0", 6.0),
        ]
        states = detect_late_receiver(make_trace(events, 2))
        assert "IT_FINE" in states[0].location
        assert "fine/value/1" in states[0].location

    def test_min_wait_filter(self):
        assert detect_late_receiver(fig5_trace(), min_wait=5.0) == []

    @pytest.mark.parametrize("detect", [detect_late_receiver, detect_late_sender])
    @pytest.mark.parametrize("min_wait", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_unusable_min_wait_is_refused(self, detect, min_wait):
        with pytest.raises(ValueError, match="min_wait"):
            detect(fig5_trace(), min_wait=min_wait)

    def test_unmatched_messages_audited(self):
        trace = make_trace(
            [
                ev(0, "send-post", "x", 0.0, 10, 1),
                ev(0, "send-complete", "x", 0.0, 10, 1),
                ev(1, "recv-post", "y", 1.0, 0, 0),
            ],
            2,
        )
        audit = audit_messages(trace)
        assert audit["unmatched_sends"] == 1
        assert audit["unmatched_recvs"] == 1
        assert audit["matched"] == 0


class TestIdealReplay:
    def test_comm_free_trace_keeps_busy_span(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 4.0),
                ev(1, "region-enter", "REGION -- IT_FINE -- 1", 1.0),
                ev(1, "region-exit", "REGION -- IT_FINE -- 1", 3.5),
            ],
            2,
        )
        assert ideal_replay(trace) == pytest.approx(4.0)

    def test_pure_dependency_chain_with_zero_compute_collapses(self):
        # all gaps sit inside blocked receive intervals, so the replayed
        # makespan collapses to (almost) nothing
        trace = make_trace(
            [
                ev(0, "send-post", "a", 0.0, 8, 1),
                ev(0, "send-complete", "a", 0.0, 8, 1),
                ev(0, "recv-post", "b", 0.0, 0, 1),
                ev(0, "recv-complete", "b", 12.0, 8, 1),
                ev(1, "recv-post", "a", 3.0, 0, 0),
                ev(1, "recv-complete", "a", 3.0, 8, 0),
                ev(1, "send-post", "b", 3.0, 8, 0),
                ev(1, "send-complete", "b", 3.0, 8, 0),
            ],
            2,
        )
        assert ideal_replay(trace) <= 1e-9

    def test_hand_case_t_ideal(self):
        assert ideal_replay(pop_hand_trace()) == pytest.approx(9.0, abs=1e-12)

    def test_transfer_delays_only_gives_perfect_serialisation(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 1.0),
                ev(0, "send-post", "a", 1.0, 8, 1),
                ev(0, "send-complete", "a", 1.0, 8, 1),
                ev(1, "region-enter", "REGION -- IT_FINE -- 1", 0.0),
                ev(1, "region-exit", "REGION -- IT_FINE -- 1", 1.5),
                ev(1, "recv-post", "a", 1.5, 0, 0),
                ev(1, "recv-complete", "a", 2.5, 8, 0),  # 1 s pure transfer
                ev(1, "region-enter", "REGION -- IT_CHECK -- 1", 2.5),
                ev(1, "region-exit", "REGION -- IT_CHECK -- 1", 3.0),
            ],
            2,
        )
        report = pop_metrics(trace)
        assert report.serialisation_efficiency == pytest.approx(1.0, abs=1e-9)
        assert report.transfer_efficiency < 1.0

    def test_replay_is_idempotent(self):
        first = replay_trace(pop_hand_trace())
        second = replay_trace(first)
        t1 = max(e.t for e in first.events)
        t2 = max(e.t for e in second.events)
        assert abs(t1 - t2) <= 1e-12


class TestEmitReport:
    def make_report(self):
        return PopReport(0.875, 0.8, 8 / 9, 0.9, 0.7, {0: 8.0, 1: 6.0}, 10.0, 9.0)

    def test_pop_csv_five_rows(self, tmp_path):
        path = emit_report(self.make_report(), tmp_path / "pop.csv", fmt="csv")
        lines = open(path).read().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 6
        assert "parallel_efficiency,0.700" in lines

    def test_pop_text_contains_value_and_percent(self, tmp_path):
        path = emit_report(self.make_report(), tmp_path / "pop.txt", fmt="text")
        text = open(path).read()
        assert "parallel_efficiency,0.700" in text
        assert "70.0 %" in text
        assert "88.9 %" in text  # percentages carry one decimal

    def test_empty_wait_state_list_is_header_only(self, tmp_path):
        path = emit_report([], tmp_path / "ws.csv", fmt="csv")
        assert open(path).read().splitlines() == ["pattern,sender,receiver,wait_s,location"]

    def test_wait_state_rows(self, tmp_path):
        states = detect_late_receiver(fig5_trace())
        path = emit_report(states, tmp_path / "ws.csv", fmt="csv")
        lines = open(path).read().splitlines()
        assert lines[1].startswith("late-receiver,0,1,3.000000,")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self.make_report(), tmp_path / "x", fmt="json")
