"""The indexed trace analysis against the rescanning algorithm it replaced.

The reference below is the earlier analysis: a replay that clips every
span of a rank at every event, keys messages by timestamp and revisits
every unfinished rank on each pass, and a region lookup that rescans
the trace for each wait state.  The indexed analysis must give equal
reports, wait states, replayed events and makespans, do work linear in
the trace, and fix the replay's timestamp collisions.
The POP reference takes a rank's computation as its span in the window
less its blocked spans clipped to that span, from the rank's own first
to its last event in the window.
The reference pairs each receive completion with its own match, as the
indexed replay does.  Its ops carry the index of a match where the
indexed ops carry the message record, so ops are compared by the
message's key and send-post time.  The indexed ops are the replay's
inputs as `index_replay_ops` reads them off the index columns, the way
`analysis._replay` walks them in place.
"""

import statistics
from collections import Counter

import pytest

from conftest import (
    allocations,
    ev,
    events_by_rank,
    fig5_trace,
    make_trace,
    ping_pong_trace,
    pop_hand_trace,
    ref_comm_intervals,
    ref_match_messages,
    synthetic_trace,
)
from pitlab import trace as tracing
from pitlab.analysis import (
    CausalityError,
    EmptyPhaseError,
    PopReport,
    ReplayError,
    WaitState,
    audit_messages,
    causality_violations,
    detect_late_receiver,
    detect_late_sender,
    ideal_replay,
    phase_window,
    pop_metrics,
    replay_trace,
)
from pitlab.controller import dahlquist_config, run
from pitlab.trace import Trace, TraceEvent, build_profile, merged_length, read_trace


def ref_phase_window(trace, full_run=False):
    if not trace.events:
        raise EmptyPhaseError("trace holds no events")
    t_min = min(ev.t for ev in trace.events)
    t_max = max(ev.t for ev in trace.events)
    if full_run:
        return t_min, t_max
    predict_exits = [
        ev.t for ev in trace.events if ev.kind == "region-exit" and " -- PREDICT -- " in ev.name
    ]
    start = max(predict_exits) if predict_exits else t_min
    if start >= t_max:
        raise EmptyPhaseError("selected phase is empty; nothing after the predictor")
    return start, t_max


def ref_clip_spans(spans, lo, hi):
    return [(max(s, lo), min(e, hi)) for s, e in spans if min(e, hi) > max(s, lo)]


def ref_replay_ops(trace, window):
    """Every span of the rank clipped at every event: O(events x spans)."""
    matches = ref_match_messages(trace)[0]
    send_key = {}
    recv_key = {}
    done_key = {}
    for idx, m in enumerate(matches):
        send_key[(m.source, m.dest, m.name, m.send_post)] = idx
        if m.recv_post is not None:
            recv_key[(m.source, m.dest, m.name, m.recv_post)] = idx
        if m.recv_complete is not None:
            done_key[(m.source, m.dest, m.name, m.recv_complete)] = idx
    lo, hi = window if window else (None, None)
    clipped = {}
    replayed_sends = set()
    for rank, events in events_by_rank(trace).items():
        events = sorted(events, key=lambda ev: ev.t)
        blocked = ref_comm_intervals(events)
        in_window = events if lo is None else [ev for ev in events if lo <= ev.t <= hi]
        clipped[rank] = (in_window, blocked)
        for ev in in_window:
            if ev.kind == "send-post":
                idx = send_key.get((ev.rank, ev.peer, ev.name, ev.t))
                if idx is not None:
                    replayed_sends.add(idx)
    ranks = {}
    for rank, (events, blocked) in clipped.items():
        ops = []
        prev_t = events[0].t if events else 0.0
        for ev in events:
            gap = ev.t - prev_t
            overlap = merged_length(ref_clip_spans(blocked, prev_t, ev.t))
            delta = max(gap - overlap, 0.0)
            match_idx = None
            if ev.kind == "send-post":
                match_idx = send_key.get((ev.rank, ev.peer, ev.name, ev.t))
            elif ev.kind in ("recv-post", "recv-complete"):
                # each receive completion is paired with its own match
                keys = recv_key if ev.kind == "recv-post" else done_key
                match_idx = keys.get((ev.peer, ev.rank, ev.name, ev.t))
                if match_idx is not None and match_idx not in replayed_sends:
                    match_idx = None
            ops.append((delta, ev, match_idx))
            prev_t = ev.t
        ranks[rank] = ops
    return ranks


def index_replay_ops(trace, window):
    """Per rank, (compute delta, event, message) for each event the replay
    reads in the window, from the index columns as `analysis._replay`
    reads them: the event's compute, 0.0 for the window's first event, and
    a receive's message only if its send-post lies in the window."""
    ranks = {}
    for rank, view in trace.index.ranks.items():
        a, b = view.window(*window) if window else (0, len(view.events))
        ops = []
        for i in range(a, b):
            event, m = view.events[i], view.messages[i]
            if window and m is not None and event.kind in ("recv-post", "recv-complete"):
                m = m if window[0] <= m.send_post <= window[1] else None
            ops.append((view.compute[i] if i > a else 0.0, event, m))
        ranks[rank] = ops
    return ranks


def ref_replay_trace(trace, window=None):
    """The replay the worklist replaced: every pass revisits every
    unfinished rank until no rank makes progress."""
    ranks = ref_replay_ops(trace, window)
    send_post_times = {}
    pointers = {rank: 0 for rank in ranks}
    clocks = {rank: 0.0 for rank in ranks}
    new_events = []
    progress = True
    while progress:
        progress = False
        for rank, ops in ranks.items():
            while pointers[rank] < len(ops):
                delta, ev, match_idx = ops[pointers[rank]]
                if ev.kind == "recv-complete":
                    if match_idx is not None and match_idx not in send_post_times:
                        break  # matched send not replayed yet
                    t = clocks[rank] if match_idx is None else max(clocks[rank], send_post_times[match_idx])
                    clocks[rank] = t
                elif ev.kind == "send-complete":
                    t = clocks[rank]  # no sender blocking
                else:
                    clocks[rank] += delta
                    t = clocks[rank]
                    if ev.kind == "send-post" and match_idx is not None:
                        send_post_times[match_idx] = t
                new_events.append(TraceEvent(rank, ev.kind, ev.name, t, ev.bytes, ev.peer))
                pointers[rank] += 1
                progress = True
    stuck = {rank: len(ops) - pointers[rank] for rank, ops in ranks.items() if pointers[rank] < len(ops)}
    if stuck:
        raise ReplayError(f"cyclic message dependency; undelivered ops per rank: {stuck}")
    new_events.sort(key=lambda ev: (ev.t, ev.rank))
    return Trace(events=new_events, num_ranks=trace.num_ranks)


def ref_ideal_replay(trace, window=None):
    return max((ev.t for ev in ref_replay_trace(trace, window).events), default=0.0)


def ref_region_at(events, rank, t):
    """Rescans the time-ordered trace up to t for every lookup."""
    stack = []
    for ev in events:
        if ev.rank != rank or ev.t > t:
            if ev.t > t:
                break
            continue
        if ev.kind == "region-enter":
            stack.append(ev.name)
        elif ev.kind == "region-exit" and stack:
            stack.pop()
    return stack[-1] if stack else "<untracked>"


def ref_pop_metrics(trace, full_run=False):
    if causality_violations(trace):
        raise CausalityError("matched messages complete before their send posts")
    lo, hi = ref_phase_window(trace, full_run)
    comp = {}
    for rank, events in events_by_rank(trace).items():
        in_phase = [ev for ev in events if lo <= ev.t <= hi]
        if not in_phase:
            continue
        start = min(ev.t for ev in in_phase)
        end = max(ev.t for ev in in_phase)
        # blocked time counts from the rank's own first event in the phase
        comm = merged_length(ref_clip_spans(ref_comm_intervals(sorted(events, key=lambda e: e.t)), start, end))
        comp[rank] = (end - start) - comm
    if not comp:
        raise EmptyPhaseError("no rank has events in the selected phase")
    c_max = max(comp.values())
    c_mean = statistics.fmean(comp.values())
    if c_max <= 0:
        raise EmptyPhaseError("no computation time in the selected phase")
    starts = []
    ends = []
    for rank, events in events_by_rank(trace).items():
        in_phase = [ev.t for ev in events if lo <= ev.t <= hi]
        if in_phase:
            starts.append(min(in_phase))
            ends.append(max(in_phase))
    total = max(ends) - min(starts)
    ideal = ref_ideal_replay(trace, window=(lo, hi))
    return PopReport(
        c_mean / c_max, c_max / total, c_max / ideal, ideal / total, c_mean / total, comp, total, ideal
    )


def ref_wait_states(trace):
    ordered = sorted(trace.events, key=lambda ev: ev.t)
    receivers = []
    senders = []
    for m in ref_match_messages(trace)[0]:
        if m.send_complete is not None and m.recv_post is not None:
            if m.send_complete - m.send_post > 0 and m.recv_post > m.send_post:
                wait = min(m.recv_post, m.send_complete) - m.send_post
                if wait > 0:
                    region = ref_region_at(ordered, m.source, m.send_post)
                    state = WaitState("late-receiver", m.source, m.dest, wait, f"{region} @ {m.name}")
                    receivers.append(state)
        if m.recv_post is not None and m.recv_complete is not None and m.send_post > m.recv_post:
            wait = min(m.send_post, m.recv_complete) - m.recv_post
            if wait > 0:
                region = ref_region_at(ordered, m.dest, m.recv_post)
                senders.append(WaitState("late-sender", m.source, m.dest, wait, f"{region} @ {m.name}"))
    receivers.sort(key=lambda w: -w.wait_s)
    senders.sort(key=lambda w: -w.wait_s)
    return receivers, senders


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (CausalityError, EmptyPhaseError) as exc:
        return type(exc).__name__


def _message_key(m):
    return m.source, m.dest, m.name, m.send_post


def _op_messages(ranks, message):
    """Each op with its message as `_message_key`, or None; ignored on
    send-complete ops, whose message the replay never reads."""
    return {
        rank: [(delta, ev, None if x is None or ev.kind == "send-complete" else message(x)) for delta, ev, x in ops]
        for rank, ops in ranks.items()
    }


def _reports(trace, pop, window, wait_states, replay_ops, replay, ideal, message):
    outputs = {
        "wait_states": wait_states(trace),
        "ops": _op_messages(replay_ops(trace, None), message),
        "replay": replay(trace).events,
        "ideal": ideal(trace),
    }
    for full_run in (False, True):
        outputs[("pop", full_run)] = _outcome(pop, trace, full_run=full_run)
        lo_hi = _outcome(window, trace, full_run)
        outputs[("window", full_run)] = lo_hi
        if isinstance(lo_hi, tuple):
            outputs[("ops", full_run)] = _op_messages(replay_ops(trace, lo_hi), message)
            outputs[("replay", full_run)] = replay(trace, window=lo_hi).events
            outputs[("ideal", full_run)] = ideal(trace, window=lo_hi)
    return outputs


def assert_matches_reference(trace):
    new = _reports(
        trace, pop_metrics, phase_window, lambda t: (detect_late_receiver(t), detect_late_sender(t)),
        index_replay_ops, replay_trace, ideal_replay, _message_key,
    )
    ref_matches = ref_match_messages(trace)[0]
    old = _reports(
        trace, ref_pop_metrics, ref_phase_window, ref_wait_states, ref_replay_ops, ref_replay_trace,
        ref_ideal_replay, lambda idx: _message_key(ref_matches[idx]),
    )
    assert new.keys() == old.keys()
    for key in old:
        assert new[key] == old[key], key


def _dahlquist_trace(mode, workers, **kwargs):
    return run(dahlquist_config(workers, 0.1, **kwargs), mode=mode).trace


class TestMatchesTheRescanningAnalysis:
    @pytest.mark.parametrize(
        "build", [pop_hand_trace, fig5_trace, lambda: ping_pong_trace(5, 6)], ids=["hand", "fig5", "ping-pong"]
    )
    def test_fixtures(self, build):
        assert_matches_reference(build())

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 2, 2), (4, 6, 3), (6, 5, 4)])
    def test_synthetic_traces(self, shape):
        trace = synthetic_trace(*shape)
        receivers, senders = ref_wait_states(trace)
        if shape[0] > 2:
            assert receivers and senders  # both searches have work to do
        assert_matches_reference(trace)

    @pytest.mark.parametrize(
        "mode, kwargs",
        [("serial", {}), ("parallel", {}), ("parallel", {"rendezvous_bytes": 0})],
        ids=["serial", "threads", "threads-rendezvous"],
    )
    def test_dahlquist_runs(self, mode, kwargs):
        assert_matches_reference(_dahlquist_trace(mode, 8, **kwargs))

    def test_cyclic_dependency_raises_as_before(self):
        # each rank's send comes after its own receive of the other's send
        trace = make_trace(
            [
                ev(r, kind, name, t, nbytes, 1 - r)
                for r, (mine, theirs) in enumerate([("a", "b"), ("b", "a")])
                for kind, name, t, nbytes in [
                    ("recv-post", theirs, 0.0, 0), ("recv-complete", theirs, 1.0, 8),
                    ("send-post", mine, 1.0, 8), ("send-complete", mine, 1.0, 8),
                ]
            ],
            2,
        )
        with pytest.raises(ReplayError) as new:
            ideal_replay(trace)
        with pytest.raises(ReplayError) as old:
            ref_replay_trace(trace)
        assert str(new.value) == str(old.value) == "cyclic message dependency; undelivered ops per rank: {0: 3, 1: 3}"

    def test_region_lookup_tie_rule(self):
        # an event at exactly the lookup time has already happened
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 2.0),
                ev(0, "region-enter", "REGION -- IT_CHECK -- 0", 2.0),
                ev(0, "region-exit", "REGION -- IT_CHECK -- 0", 3.0),
            ],
            1,
        )
        view = tracing._TraceIndex(trace).ranks[0]
        ordered = trace.events
        for t in (-1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0):
            assert view.region_at(t) == ref_region_at(ordered, 0, t)
        assert view.region_at(2.0) == "REGION -- IT_CHECK -- 0"


def _collision_trace(second_send):
    """Two sends of one key from rank 0, the second at `second_send`."""
    return make_trace(
        [
            ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
            ev(0, "region-exit", "REGION -- IT_FINE -- 0", 3.0),
            ev(0, "send-post", "x", 3.0, 8, 1),
            ev(0, "send-complete", "x", 3.0, 8, 1),
            ev(0, "send-post", "x", second_send, 8, 1),
            ev(0, "send-complete", "x", second_send, 8, 1),
            ev(1, "recv-post", "x", 0.0, 0, 0),
            ev(1, "recv-complete", "x", 3.0, 8, 0),
            ev(1, "region-enter", "REGION -- IT_FINE -- 1", 3.0),
            ev(1, "region-exit", "REGION -- IT_FINE -- 1", 3.5),
            ev(1, "recv-post", "x", 3.5, 0, 0),
            ev(1, "recv-complete", "x", 3.5, 8, 0),
        ],
        2,
    )


class TestReplayMatchesByEventIdentity:
    def test_sends_sharing_key_and_timestamp(self):
        # keyed by (source, dest, name, t), the second send hid the first
        # and the first receive replayed as complete at 0.0 (T_ideal 3.0)
        assert ideal_replay(_collision_trace(3.0)) == 3.5
        assert ideal_replay(_collision_trace(3.0 + 1e-9)) == pytest.approx(3.5)

    def test_no_replayed_receive_completes_before_its_send(self):
        replayed = replay_trace(_collision_trace(3.0))
        assert audit_messages(replayed)["matched"] == 2
        assert causality_violations(replayed) == 0
        first_complete = next(e for e in replayed.events if e.kind == "recv-complete")
        first_send = next(e for e in replayed.events if e.kind == "send-post")
        assert first_complete.t >= first_send.t == 3.0


def _two_open_receives_trace():
    """Rank 1 posts receives a and b at 0; rank 0 sends a at 1 and b at 5."""
    return make_trace(
        [
            ev(0, "send-post", "a", 1.0, 8, 1),
            ev(0, "send-complete", "a", 1.0, 8, 1),
            ev(0, "send-post", "b", 5.0, 8, 1),
            ev(0, "send-complete", "b", 5.0, 8, 1),
            ev(1, "recv-post", "a", 0.0, 0, 0),
            ev(1, "recv-post", "b", 0.0, 0, 0),
            ev(1, "recv-complete", "a", 1.0, 8, 0),
            ev(1, "recv-complete", "b", 5.0, 8, 0),
        ],
        2,
    )


class TestReplayPairsEachReceiveWithItsMatch:
    def test_two_open_receives(self):
        # waiting on the rank's latest receive post completed a at 4.0
        replayed = replay_trace(_two_open_receives_trace())
        done = {e.name: e.t for e in replayed.events if e.kind == "recv-complete"}
        sent = {e.name: e.t for e in replayed.events if e.kind == "send-post"}
        assert done == sent == {"a": 0.0, "b": 4.0}
        assert ideal_replay(_two_open_receives_trace()) == 4.0
        assert causality_violations(replayed) == 0

    def test_receive_posted_before_the_window_waits_for_its_send(self):
        # both posts lie before the window; each completion still waits for its send
        replayed = replay_trace(_two_open_receives_trace(), window=(0.5, 5.0))
        done = {e.name: e.t for e in replayed.events if e.kind == "recv-complete"}
        assert done == {"a": 0.0, "b": 4.0}


def _send_across_window_start_trace():
    """Rank 0 posts a rendezvous send at 1, before rank 1's last PREDICT
    exit at 3 opens the window; rank 1 receives it at 3, the hand-shake
    completes both sides at 4, then rank 0 computes 0.5 s and rank 1 3 s."""
    return make_trace(
        [
            ev(0, "region-enter", "REGION -- PREDICT -- 0", 0.0),
            ev(0, "region-exit", "REGION -- PREDICT -- 0", 1.0),
            ev(0, "send-post", "x", 1.0, 8, 1),
            ev(0, "send-complete", "x", 4.0, 8, 1),
            ev(0, "region-enter", "REGION -- IT_FINE -- 0", 4.0),
            ev(0, "region-exit", "REGION -- IT_FINE -- 0", 4.5),
            ev(1, "region-enter", "REGION -- PREDICT -- 1", 0.0),
            ev(1, "region-exit", "REGION -- PREDICT -- 1", 3.0),
            ev(1, "recv-post", "x", 3.0, 0, 0),
            ev(1, "recv-complete", "x", 4.0, 8, 0),
            ev(1, "region-enter", "REGION -- IT_FINE -- 1", 4.0),
            ev(1, "region-exit", "REGION -- IT_FINE -- 1", 7.0),
        ],
        2,
    )


class TestPopWindow:
    def test_blocked_time_before_a_ranks_first_event_is_not_subtracted(self):
        # clipped to the window [3, 7] instead, rank 0's span left 1 s of
        # blocking to subtract from 0.5 s of compute: c_0 = -0.5
        trace = _send_across_window_start_trace()
        report = pop_metrics(trace)
        assert phase_window(trace) == (3.0, 7.0)
        assert report.comp_times == {0: 0.5, 1: 3.0}
        assert (report.total_runtime, report.ideal_runtime) == (4.0, 3.0)
        assert report.load_balance == 1.75 / 3.0
        assert pop_metrics(trace, full_run=True).comp_times == {0: 1.5, 1: 6.0}


_COMPUTE_FIXTURES = {
    "hand": pop_hand_trace,
    "fig5": fig5_trace,
    "ping-pong": lambda: ping_pong_trace(5, 6),
    "shape0": lambda: synthetic_trace(2, 1, 1),
    "shape1": lambda: synthetic_trace(3, 2, 2),
    "shape2": lambda: synthetic_trace(4, 6, 3),
    "shape3": lambda: synthetic_trace(6, 5, 4),
    "two-open": _two_open_receives_trace,
    "collision": lambda: _collision_trace(3.0),
    "window-start": _send_across_window_start_trace,
    "serial": lambda: _dahlquist_trace("serial", 8),
    "threads": lambda: _dahlquist_trace("parallel", 8),
    "threads-rendezvous": lambda: _dahlquist_trace("parallel", 8, rendezvous_bytes=0),
}


class TestOneDefinitionOfCompute:
    """The profile, the POP report and the replay read one compute time
    per event from the index, so they agree exactly.  Each compute value
    is a gap between two of the rank's events or 0.0, so it is never
    negative; and a completion's gap lies inside its own blocked span, so
    its compute is 0.0 and the replay, which adds every other delta to a
    clock that only waits forward, ends each rank at or after its summed
    compute: serialisation efficiency is at most 1 by construction."""

    @pytest.mark.parametrize("name", list(_COMPUTE_FIXTURES))
    def test_profile_report_and_replay_agree(self, name):
        trace = _COMPUTE_FIXTURES[name]()
        profile = build_profile(trace)
        full = _outcome(pop_metrics, trace, full_run=True)
        if isinstance(full, str):  # nothing computes: fig5 is all blocking
            assert full == "EmptyPhaseError"
            assert all(stats.computation == 0.0 for stats in profile.ranks.values())
        else:
            assert full.comp_times == {r: profile.ranks[r].computation for r in full.comp_times}
        window = phase_window(trace)
        ops = index_replay_ops(trace, window)
        report = _outcome(pop_metrics, trace)
        if not isinstance(report, str):
            assert report.comp_times == {r: sum(delta for delta, _, _ in ops[r]) for r in report.comp_times}
        if name == "threads-rendezvous":
            assert all(value >= 0.0 for view in trace.index.ranks.values() for value in view.compute)
            assert all(value >= 0.0 for value in report.comp_times.values())
            assert report.serialisation_efficiency <= 1.0


class TestLinearWork:
    @staticmethod
    def work(trace, monkeypatch):
        counts = Counter()
        view_init, region_at = tracing._RankView.__init__, tracing._RankView.region_at

        def counting_view_init(view, events, messages, spans):
            counts["spans"] += len(spans)
            view_init(view, events, messages, spans)

        def counting_merged_length(spans):
            counts["merged"] += len(spans)
            return merged_length(spans)

        def counting_region_at(view, t):
            counts["regions"] += 1
            return region_at(view, t)

        with monkeypatch.context() as patch:
            patch.setattr(tracing._RankView, "__init__", counting_view_init)
            patch.setattr(tracing, "merged_length", counting_merged_length)
            patch.setattr(tracing._RankView, "region_at", counting_region_at)
            build_profile(trace)
            pop_metrics(trace)
            waits = detect_late_receiver(trace) + detect_late_sender(trace)
        assert counts["regions"] == len(waits)
        return counts

    def test_span_and_region_work_is_linear(self, monkeypatch):
        per_unit = []
        for iterations in (40, 320):
            trace = synthetic_trace(16, iterations, 4)
            events = len(trace.events)
            spans = sum(
                len(ref_comm_intervals(sorted(evs, key=lambda e: e.t))) for evs in events_by_rank(trace).values()
            )
            counts = self.work(trace, monkeypatch)
            assert min(counts["spans"], counts["merged"], counts["regions"]) > 0
            # the index's per-rank pass starts each blocked span once, and
            # only the profile's communication merges them, once
            assert counts["spans"] == counts["merged"] == spans
            assert counts["regions"] <= audit_messages(trace)["matched"]
            per_unit.append(sum(counts.values()) / (events + spans))
        assert events >= 100_000
        # eight times the trace, no more work per event or span
        assert per_unit[1] <= 1.01 * per_unit[0]

    def test_replay_visits_each_op_once_plus_once_per_park(self, monkeypatch):
        # A rank resumes once at the start and once per park, and each
        # park visits its op once more: visits - ops = resumptions - ranks.
        # The replay looks up each visited op's event once.
        counts = Counter()

        class CountingEvents(list):
            def __getitem__(self, i):
                counts["visits"] += 1
                return super().__getitem__(i)

        for trace in (synthetic_trace(8, 20, 3), ping_pong_trace(8, 50), pop_hand_trace(), fig5_trace()):
            ops = sum(len(rank_ops) for rank_ops in index_replay_ops(trace, None).values())
            counts.clear()
            with monkeypatch.context() as patch:
                for view in trace.index.ranks.values():
                    patch.setattr(view, "events", CountingEvents(view.events))
                replayed = replay_trace(trace)
            resumptions = counts["visits"] - ops + trace.num_ranks
            assert Counter((e.rank, e.kind, e.name) for e in replayed.events) == Counter(
                (e.rank, e.kind, e.name) for e in trace.events
            )  # every op replayed exactly once
            assert resumptions <= trace.num_ranks + audit_messages(trace)["matched"]


class TestReplayIdempotent:
    @pytest.mark.parametrize(
        "build",
        [pop_hand_trace, fig5_trace, _two_open_receives_trace, lambda: synthetic_trace(6, 5, 4),
         lambda: ping_pong_trace(4, 5), lambda: _dahlquist_trace("serial", 4)],
        ids=["hand", "fig5", "two-open", "synthetic", "ping-pong", "dahlquist"],
    )
    def test_replaying_a_replay_changes_nothing(self, build):
        first = replay_trace(build())
        second = replay_trace(first)
        assert [(e.rank, e.kind, e.name) for e in second.events] == [(e.rank, e.kind, e.name) for e in first.events]
        assert max(abs(a.t - b.t) for a, b in zip(first.events, second.events)) <= 1e-12
        assert ideal_replay(first) == pytest.approx(ideal_replay(second), abs=1e-12)


class TestReplayMemory:
    def test_ideal_replay_allocates_little_per_event(self, p32_trace_path):
        # the replay reads the index in place: no op tuple per event, and
        # each replayed time is one double in an array
        trace = read_trace(p32_trace_path)
        trace.index
        for window in (None, phase_window(trace)):
            makespan, _, peak = allocations(lambda: ideal_replay(trace, window))
            assert makespan > 0
            assert peak <= 32 * len(trace.events)
