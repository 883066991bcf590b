"""The trace index that the profile and every analysis step read.

`ref_build_profile` is the profile's earlier walk: its own per-rank
bucketing, time sort, region-stack walk and blocked-span pass.  The
profile read from the index must equal it, dict order and phase totals
included, and raise the same structural errors.  The index's one FIFO
pairing must give the matches, unmatched counts and per-rank blocked
spans of the earlier two passes, `ref_match_messages` over the trace and
`ref_comm_intervals` over each rank.  One `pitlab analyze` must build
the index once: one message matching and one view per rank.  Each
rank's time, compute and region-time columns are `array('d')` equal to
the lists `ref_columns` builds; the build holds little beyond what the
index keeps.  The index pairs each rank in its time order, so a trace
read latest first or with its ranks interleaved at random analyses
exactly as the time-ordered trace.  A structural error (a malformed
region nesting, a non-finite event time) is raised by every public
step, since each one reads the index.
"""

import gc
import math
import random
import weakref
from array import array
from dataclasses import replace

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
from pitlab import cli, trace as tracing
from pitlab.analysis import (
    CausalityError,
    EmptyPhaseError,
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
from pitlab.trace import (
    Profile,
    RankStats,
    RegionStats,
    StructuralError,
    Trace,
    build_profile,
    merged_length,
    read_trace,
    write_trace,
)


def ref_build_profile(trace):
    profile = Profile()
    for rank, events in events_by_rank(trace).items():
        stats = RankStats()
        profile.ranks[rank] = stats
        if not events:
            continue
        events = sorted(events, key=lambda ev: ev.t)
        stats.runtime = events[-1].t - events[0].t
        stack = []
        for ev in events:
            if ev.kind == "region-enter":
                stack.append([ev.name, ev.t, 0.0])
            elif ev.kind == "region-exit":
                if not stack or stack[-1][0] != ev.name:
                    raise StructuralError(f"rank {rank}: unbalanced exit of {ev.name!r} at t={ev.t}")
                name, t_enter, child_time = stack.pop()
                inclusive = ev.t - t_enter
                reg = profile.regions.setdefault((rank, name), RegionStats())
                reg.count += 1
                reg.inclusive += inclusive
                reg.exclusive += inclusive - child_time
                if stack:
                    stack[-1][2] += inclusive
            elif ev.kind == "send-post":
                stats.bytes_sent += ev.bytes or 0
            elif ev.kind == "recv-complete":
                stats.bytes_received += ev.bytes or 0
        if stack:
            raise StructuralError(
                f"rank {rank}: regions never exited: " + ", ".join(frame[0] for frame in stack)
            )
        stats.communication = merged_length(ref_comm_intervals(events))
        stats.computation = stats.runtime - stats.communication
        exclusive_total = sum(reg.exclusive for (r, _), reg in profile.regions.items() if r == rank)
        stats.untracked = stats.runtime - exclusive_total
    return profile


def as_lists(profile):
    """Everything a profile holds, in its dict order."""
    return list(profile.regions.items()), list(profile.ranks.items()), list(profile.phase_totals().items())


def outcome(build, trace):
    try:
        return as_lists(build(trace))
    except StructuralError as exc:
        return str(exc)


FINE = "REGION -- IT_FINE -- %d"
CHECK = "REGION -- IT_CHECK -- %d"

MALFORMED = {
    "unbalanced-exit": [
        ev(0, "region-enter", FINE % 0, 0.0),
        ev(0, "region-exit", FINE % 0, 1.0),
        ev(1, "region-enter", FINE % 1, 0.0),
        ev(1, "region-exit", CHECK % 1, 1.0),
        ev(1, "region-enter", FINE % 1, 2.0),
    ],
    "never-exited": [ev(0, "region-enter", FINE % 0, 0.0), ev(0, "region-enter", CHECK % 0, 0.5)],
    "first-rank-wins": [ev(0, "region-enter", FINE % 0, 0.0), ev(1, "region-exit", FINE % 1, 1.0)],
}

# every public step that reads a trace's index
ENTRY_POINTS = {
    "build_profile": build_profile,
    "audit_messages": audit_messages,
    "causality_violations": causality_violations,
    "phase_window": phase_window,
    "pop_metrics": pop_metrics,
    "pop_metrics-full_run": lambda trace: pop_metrics(trace, full_run=True),
    "detect_late_receiver": detect_late_receiver,
    "detect_late_sender": detect_late_sender,
    "ideal_replay": ideal_replay,
    "replay_trace": replay_trace,
}


def _dahlquist_trace(mode, **kwargs):
    return run(dahlquist_config(8, 0.1, **kwargs), mode=mode).trace


class TestProfileFromTheIndex:
    @pytest.mark.parametrize(
        "build",
        [
            pop_hand_trace,
            fig5_trace,
            lambda: synthetic_trace(2, 1, 1),
            lambda: synthetic_trace(3, 2, 2),
            lambda: synthetic_trace(4, 6, 3),
            lambda: synthetic_trace(6, 5, 4),
            lambda: _dahlquist_trace("serial"),
            lambda: _dahlquist_trace("parallel"),
            lambda: _dahlquist_trace("parallel", rendezvous_bytes=0),
        ],
        ids=["hand", "fig5", "shape0", "shape1", "shape2", "shape3", "serial", "threads", "threads-rendezvous"],
    )
    def test_equals_the_walk(self, build):
        trace = build()
        assert as_lists(build_profile(trace)) == as_lists(ref_build_profile(trace))

    def test_rank_outside_the_header_and_an_empty_rank(self):
        trace = make_trace(
            [
                ev(0, "region-enter", FINE % 0, 0.0),
                ev(0, "region-exit", FINE % 0, 1.0),
                ev(3, "region-enter", FINE % 3, 0.5),
                ev(3, "send-post", "m", 0.6, 8, 0),
                ev(3, "send-complete", "m", 0.7, 8, 0),
                ev(3, "region-exit", FINE % 3, 2.0),
                ev(0, "recv-post", "m", 1.0, 0, 3),
                ev(0, "recv-complete", "m", 1.5, 8, 3),
            ],
            3,
        )
        assert list(build_profile(trace).ranks) == [0, 1, 2, 3]
        assert as_lists(build_profile(trace)) == as_lists(ref_build_profile(trace))

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_structural_error(self, name):
        trace = make_trace(MALFORMED[name], 2)
        message = outcome(ref_build_profile, trace)
        assert isinstance(message, str)
        assert outcome(build_profile, trace) == message

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_every_entry_point_refuses_it(self, name, entry):
        message = outcome(ref_build_profile, make_trace(MALFORMED[name], 2))
        with pytest.raises(StructuralError) as refused:
            ENTRY_POINTS[entry](make_trace(MALFORMED[name], 2))
        assert str(refused.value) == message

    def test_profile_does_not_share_the_index(self):
        trace = pop_hand_trace()
        build_profile(trace).regions[(0, FINE % 0)].count += 5
        assert build_profile(trace).regions[(0, FINE % 0)].count == 1
        assert trace.index is trace.index


UNPAIRED = {
    # rank 0 sends "a" twice, rank 1 receives it once
    "unmatched-send": [
        ev(0, "send-post", "a", 0.0, 8, 1),
        ev(0, "send-complete", "a", 0.5, 8, 1),
        ev(0, "send-post", "a", 1.0, 8, 1),
        ev(0, "send-complete", "a", 1.5, 8, 1),
        ev(1, "recv-post", "a", 0.25, 0, 0),
        ev(1, "recv-complete", "a", 0.5, 8, 0),
    ],
    # rank 1 receives "b" twice, once completed and once left open; rank 0 never sends it
    "unmatched-recv": [
        ev(0, "send-post", "a", 0.0, 8, 1),
        ev(0, "send-complete", "a", 0.0, 8, 1),
        ev(1, "recv-post", "b", 0.0, 0, 0),
        ev(1, "recv-complete", "b", 0.75, 8, 0),
        ev(1, "recv-post", "b", 1.0, 0, 0),
        ev(1, "recv-post", "a", 1.0, 0, 0),
        ev(1, "recv-complete", "a", 1.25, 8, 0),
    ],
    # completions with no post of their side open: before the key's first
    # post, of a key never posted, and one more completion of each side
    # while only the other side has posted the key's second message
    "completion-without-post": [
        ev(0, "send-complete", "a", 0.0, 8, 1),
        ev(1, "recv-post", "a", 0.1, 0, 0),
        ev(1, "recv-post", "a", 0.2, 0, 0),
        ev(1, "recv-complete", "c", 0.25, 8, 0),
        ev(0, "send-post", "b", 0.3, 8, 1),
        ev(0, "send-post", "b", 0.35, 8, 1),
        ev(1, "recv-post", "b", 0.4, 0, 0),
        ev(1, "recv-complete", "b", 0.45, 8, 0),
        ev(0, "send-post", "a", 0.5, 8, 1),
        ev(0, "send-complete", "a", 0.75, 8, 1),
        ev(1, "recv-complete", "a", 0.8, 8, 0),
        ev(1, "recv-complete", "b", 0.9, 8, 0),
        ev(0, "send-complete", "a", 1.0, 8, 1),
    ],
}


def _times_and_key(m):
    return m.source, m.dest, m.name, m.send_post, m.send_complete, m.recv_post, m.recv_complete


def _message_keys(messages):
    return [None if m is None else _times_and_key(m) for m in messages]


TRACES = {
    "hand": pop_hand_trace,
    "fig5": fig5_trace,
    "ping-pong": lambda: ping_pong_trace(5, 6),
    "shape0": lambda: synthetic_trace(2, 1, 1),
    "shape1": lambda: synthetic_trace(3, 2, 2),
    "shape2": lambda: synthetic_trace(4, 6, 3),
    "shape3": lambda: synthetic_trace(6, 5, 4),
    "serial": lambda: _dahlquist_trace("serial"),
    "threads": lambda: _dahlquist_trace("parallel"),
    "threads-rendezvous": lambda: _dahlquist_trace("parallel", rendezvous_bytes=0),
}


class TestOnePairing:
    @pytest.mark.parametrize(
        "build",
        list(TRACES.values()) + [lambda name=name: make_trace(UNPAIRED[name], 2) for name in UNPAIRED],
        ids=list(TRACES) + list(UNPAIRED),
    )
    def test_equals_the_two_pass_pairing(self, build):
        trace = build()
        index = trace.index
        matches, unmatched_sends, unmatched_recvs = ref_match_messages(trace)
        assert [_times_and_key(m) for m in index.matches] == [_times_and_key(m) for m in matches]
        assert len(index.unmatched_sends) == len(unmatched_sends)
        assert len(index.unmatched_recvs) == len(unmatched_recvs)
        matched = set(map(id, index.matches))
        for rank, events in events_by_rank(trace).items():
            view = index.ranks[rank]
            assert view.spans == sorted(ref_comm_intervals(sorted(events, key=lambda e: e.t)))
            assert {id(m) for m in view.messages if m is not None} <= matched

    def test_the_hand_traces_leave_messages_unpaired(self):
        audits = {
            name: (len(index.matches), len(index.unmatched_sends), len(index.unmatched_recvs))
            for name, index in ((name, make_trace(events, 2).index) for name, events in UNPAIRED.items())
        }
        assert audits == {
            "unmatched-send": (1, 1, 0), "unmatched-recv": (1, 0, 2), "completion-without-post": (2, 1, 1)
        }


class TestOneIndexPerAnalyze:
    def test_analyze_builds_the_index_once(self, tmp_path, monkeypatch):
        path = tmp_path / "p8.trc"
        write_trace(_dahlquist_trace("serial"), path)
        calls = {"match": 0, "views": 0}
        match, view_init = tracing.match_messages, tracing._RankView.__init__

        def counting_match(trace):
            calls["match"] += 1
            return match(trace)

        def counting_view_init(view, *args):
            calls["views"] += 1
            view_init(view, *args)

        monkeypatch.setattr(tracing, "match_messages", counting_match)
        monkeypatch.setattr(tracing._RankView, "__init__", counting_view_init)
        assert cli.main(["analyze", "--trace", str(path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "pop.csv").exists() and (tmp_path / "waitstates.csv").exists()
        assert calls == {"match": 1, "views": 8}


class TestTraceLifetime:
    def test_a_dropped_trace_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            trace = synthetic_trace(3, 2, 2)
            pop_metrics(trace)  # builds and keeps the index
            alive = weakref.ref(trace)
            del trace
            assert alive() is None
        finally:
            gc.enable()


def ref_columns(events):
    """One rank's events in time order (stably) and its time, compute and
    region-time columns as lists: an event's compute is the gap since the
    rank's previous event, 0.0 if one of its blocked spans overlaps that gap."""
    events = sorted(events, key=lambda e: e.t)
    spans = ref_comm_intervals(events)
    times = [e.t for e in events]
    compute = [
        0.0 if any(start < t and end > prev for start, end in spans) else t - prev
        for prev, t in zip(times[:1] + times, times)
    ]
    region_times = [e.t for e in events if e.kind in ("region-enter", "region-exit")]
    return events, times, compute, region_times


def _reversed(trace):
    """The trace's events latest first, ties kept in order: every rank is
    out of time order, and a stable sort by time restores the trace."""
    return Trace(events=sorted(trace.events, key=lambda e: -e.t), num_ranks=trace.num_ranks)


class TestTypedColumns:
    @pytest.mark.parametrize("name", list(TRACES))
    def test_columns_are_doubles_equal_to_the_lists(self, name):
        trace = TRACES[name]()
        for rank, events in events_by_rank(trace).items():
            view = trace.index.ranks[rank]
            ordered, times, compute, region_times = ref_columns(events)
            assert [type(view.times), type(view.compute), type(view.region_times)] == [array] * 3
            assert view.times.typecode == view.compute.typecode == view.region_times.typecode == "d"
            assert view.events == ordered
            assert view.times.tolist() == times
            assert view.compute.tolist() == compute
            assert view.region_times.tolist() == region_times

    def test_a_rank_out_of_time_order_is_sorted_stably(self):
        in_order = synthetic_trace(4, 6, 3)
        trace = _reversed(in_order)
        for rank, events in events_by_rank(trace).items():
            view = trace.index.ranks[rank]
            ordered, times, _, region_times = ref_columns(events)
            assert list(map(id, view.events)) == list(map(id, ordered))
            assert (view.times.tolist(), view.region_times.tolist()) == (times, region_times)
            assert _message_keys(view.messages) == _message_keys(in_order.index.ranks[rank].messages)
            assert all(m is None for e, m in zip(view.events, view.messages) if e.kind.startswith("region"))


def _interleaved(trace, seed):
    """The ranks' events interleaved at random, each rank's kept in its
    trace order: every rank stays in time order, the trace does not."""
    rng = random.Random(seed)
    keyed = [
        (key, e)
        for events in events_by_rank(trace).values()
        for key, e in zip(sorted(rng.random() for _ in events), events)
    ]
    keyed.sort(key=lambda pair: pair[0])
    return Trace(events=[e for _, e in keyed], num_ranks=trace.num_ranks)


def _analyses(trace):
    """What every public step reports on a trace, lists in their order."""
    reports = {
        "profile": as_lists(build_profile(trace)),
        "audit": audit_messages(trace),
        "wait-states": (detect_late_receiver(trace), detect_late_sender(trace)),
        "replay": replay_trace(trace).events,
    }
    for full_run in (False, True):
        try:
            reports[("pop", full_run)] = pop_metrics(trace, full_run=full_run)
        except (CausalityError, EmptyPhaseError) as exc:
            reports[("pop", full_run)] = repr(exc)
    return reports


PERMUTED = {
    name: TRACES[name] for name in ("hand", "fig5", "ping-pong", "shape0", "shape1", "shape2", "shape3", "serial")
}
PERMUTED["serial-p4-m5"] = lambda: run(dahlquist_config(4, 0.1, m=5), mode="serial").trace
PERMUTED["serial-p12"] = lambda: run(dahlquist_config(12, 0.1), mode="serial").trace


class TestAnyOrderOfTheRanks:
    """The index pairs each rank's events in that rank's time order, so
    the analyses of a trace do not depend on how its ranks interleave or
    on whether a rank is out of time order."""

    @pytest.mark.parametrize("name", list(PERMUTED))
    def test_a_permuted_trace_analyses_alike(self, name):
        trace = PERMUTED[name]()
        expected = _analyses(trace)
        for permuted in [_reversed(trace)] + [_interleaved(trace, seed) for seed in range(4)]:
            assert permuted.events != trace.events
            assert _analyses(permuted) == expected


class TestIndexMemory:
    def test_build_peak_is_near_what_the_index_keeps(self, p32_trace_path):
        trace = read_trace(p32_trace_path)
        assert len(trace.events) == 15_392
        _, kept, peak = allocations(lambda: trace.index)
        # no list over the whole trace while it builds: positions, times, sorted copies
        assert peak <= 1.25 * kept


class TestNonFiniteTime:
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_is_a_structural_error(self, t, entry):
        hand = pop_hand_trace()
        i = next(i for i, e in enumerate(hand.events) if e.rank == 1 and e.kind == "region-exit")
        events = hand.events[:i] + [replace(hand.events[i], t=t)] + hand.events[i + 1:]
        trace = Trace(events=events, num_ranks=hand.num_ranks)
        with pytest.raises(StructuralError, match=f"^rank 1: non-finite time t={t} in region-exit "):
            ENTRY_POINTS[entry](trace)
