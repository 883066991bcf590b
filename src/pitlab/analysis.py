"""Trace analysis: efficiency metrics, wait-state search, ideal replay.

The efficiency report decomposes parallel efficiency into load balance
and communication efficiency, and the latter further into serialisation
and transfer efficiency, using an ideal-network replay of the trace as
the reference: computation intervals and message dependencies are
preserved while transfer cost and sender blocking are removed.  The
wait-state search flags Late Receiver patterns (a posted send blocked
because the matching receive came later) and, as the mirror case, Late
Sender patterns.

Every step reads `trace.index`, built once per trace by `pitlab.trace`:
one record per message and, per rank, the events in time order, each
one's message and compute time, the blocked spans and the region-stack
changes.  The efficiency report and the replay take a rank's
computation from those per-event compute times and from nothing else.
The replay reads each rank's event, compute and message columns in place
between the window's bounds and sweeps each rank forward once; a receive
completion waits for the message whose send-post releases it, and its
rank is parked until that send-post is replayed, so the analysis is
linear in the number of events.  Building the index refuses a
structurally broken trace (unbalanced regions, a non-finite time), so
every step here raises StructuralError on it.
"""

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import islice

from .trace import Trace, TraceEvent

__all__ = [
    "PopReport",
    "WaitState",
    "CausalityError",
    "EmptyPhaseError",
    "ReplayError",
    "causality_violations",
    "pop_metrics",
    "detect_late_receiver",
    "detect_late_sender",
    "audit_messages",
    "ideal_replay",
    "replay_trace",
    "emit_report",
    "phase_window",
]

POP_METRIC_ORDER = (
    "load_balance",
    "communication_efficiency",
    "serialisation_efficiency",
    "transfer_efficiency",
    "parallel_efficiency",
)

class EmptyPhaseError(RuntimeError):
    pass


class ReplayError(RuntimeError):
    pass


class CausalityError(RuntimeError):
    pass


@dataclass
class PopReport:
    load_balance: float
    communication_efficiency: float
    serialisation_efficiency: float
    transfer_efficiency: float
    parallel_efficiency: float
    comp_times: dict
    total_runtime: float
    ideal_runtime: float

    def as_rows(self):
        return [(name, getattr(self, name)) for name in POP_METRIC_ORDER]


@dataclass
class WaitState:
    pattern: str
    sender: int
    receiver: int
    wait_s: float
    location: str


def audit_messages(trace):
    """Counts of message events; flags unmatched sends or receives."""
    index = trace.index
    matched, sends, recvs = len(index.matches), len(index.unmatched_sends), len(index.unmatched_recvs)
    return {
        "matched": matched,
        "unmatched_sends": sends,
        "unmatched_recvs": recvs,
        # every post ends up in a match or in its side's unmatched list
        "send_posts": matched + sends,
        "recv_posts": matched + recvs,
    }


def causality_violations(trace):
    """Matched pairs whose receive completed before the send was posted.

    Backends here share one clock, so any violation means a corrupt
    trace; no skew correction is attempted.
    """
    return sum(1 for m in trace.index.matches if m.recv_complete is not None and m.recv_complete < m.send_post)


def phase_window(trace, full_run=False):
    """Analysis window: the full run, or everything after the last
    predictor exit (initialization excluded, the default)."""
    views = [view for view in trace.index.ranks.values() if view.events]
    if not views:
        raise EmptyPhaseError("trace holds no events")
    t_min, t_max = min(view.times[0] for view in views), max(view.times[-1] for view in views)
    if full_run:
        return t_min, t_max
    start = max((view.predict_end for view in views if view.predict_end is not None), default=t_min)
    if start >= t_max:
        raise EmptyPhaseError("selected phase is empty; nothing after the predictor")
    return start, t_max


def pop_metrics(trace, full_run=False):
    """Efficiency decomposition of a trace phase.

    With per-rank computation time c_p, the sum of the compute gaps of
    the rank's events in the phase after its first (see `trace`), and
    phase makespan T: load balance mean(c)/max(c), communication efficiency
    max(c)/T, parallel efficiency mean(c)/T; the ideal replay makespan
    splits communication efficiency into serialisation max(c)/T_ideal
    and transfer T_ideal/T.
    """
    violations = causality_violations(trace)
    if violations:
        raise CausalityError(f"{violations} matched messages complete before their send posts")
    lo, hi = phase_window(trace, full_run)
    comp, starts, ends = {}, [], []
    for rank, view in trace.index.ranks.items():
        a, b = view.window(lo, hi)
        if a == b:
            continue
        starts.append(view.times[a])
        ends.append(view.times[b - 1])
        comp[rank] = sum(islice(view.compute, a + 1, b))  # the window's first event computes nothing
    if not comp:
        raise EmptyPhaseError("no rank has events in the selected phase")
    c_max = max(comp.values())
    c_mean = math.fsum(comp.values()) / len(comp)
    if c_max <= 0:
        raise EmptyPhaseError("no computation time in the selected phase")
    total = max(ends) - min(starts)
    ideal = ideal_replay(trace, window=(lo, hi))
    return PopReport(
        load_balance=c_mean / c_max,
        communication_efficiency=c_max / total,
        serialisation_efficiency=c_max / ideal,
        transfer_efficiency=ideal / total,
        parallel_efficiency=c_mean / total,
        comp_times=comp,
        total_runtime=total,
        ideal_runtime=ideal,
    )


def _wait_states(trace, min_wait, pattern):
    """Matches whose waiter posted at `early`, the partner only at `late`,
    and the waiter completed at `done`; the wait is min(late, done) - early
    and is located in the waiter's innermost region at `early`."""
    if not 0 <= min_wait < float("inf"):
        raise ValueError(f"min_wait must be finite and non-negative, got {min_wait}")
    index = trace.index
    states = []
    for m in index.matches:
        if pattern == "late-receiver":
            waiter, early, late, done = m.source, m.send_post, m.recv_post, m.send_complete
        else:
            waiter, early, late, done = m.dest, m.recv_post, m.send_post, m.recv_complete
        if late is None or done is None or late <= early:
            continue
        wait = min(late, done) - early
        if wait >= min_wait and wait > 0:
            region = index.ranks[waiter].region_at(early)
            states.append(WaitState(pattern, m.source, m.dest, wait, f"{region} @ {m.name}"))
    states.sort(key=lambda w: -w.wait_s)
    return states


def detect_late_receiver(trace, min_wait=0.0):
    """Late Receiver wait states: send posted before the matching receive
    and blocked until it; waiting time is the receive-post lag clamped to
    the blocked interval."""
    return _wait_states(trace, min_wait, "late-receiver")


def detect_late_sender(trace, min_wait=0.0):
    """Mirror pattern: receive posted before the send, receiver blocked."""
    return _wait_states(trace, min_wait, "late-sender")


def _replay(trace, window):
    """The ideal-network replay of the window: per rank, the index range
    [a, b) of its events in the window and the time each replays at.

    The replay reads the index in place: event i of a rank advances its
    clock by the index's compute time (0.0 for the window's first event),
    and a receive completion waits for its message's send-post unless that
    send-post lies outside the window.  A worklist of ranks: a rank runs
    until a receive completion whose message's send-post has not been
    replayed yet, is parked under that message and is woken when the
    send-post is replayed, so every event is visited once and once more
    per park, at most once per message.
    """
    views = trace.index.ranks
    lo, hi = window or (-math.inf, math.inf)
    bounds = {rank: view.window(lo, hi) for rank, view in views.items()}
    times = {rank: array("d") for rank in views}  # the replayed times, in the rank's order
    clocks = dict.fromkeys(views, 0.0)
    send_post_times = {}  # message -> its send-post's replayed time
    parked = {}  # message -> the rank whose receive completion waits for its send-post
    ready = list(views)
    while ready:
        rank = ready.pop()
        view, replayed, clock = views[rank], times[rank], clocks[rank]
        events, compute, messages = view.events, view.compute, view.messages
        a, b = bounds[rank]
        for i in range(a + len(replayed), b):
            kind = events[i].kind
            if kind == "recv-complete":
                m = messages[i]
                if m is not None and lo <= m.send_post <= hi:
                    sent = send_post_times.get(m)
                    if sent is None:
                        parked[m] = rank  # its send-post not replayed yet
                        break
                    if sent > clock:
                        clock = sent
            elif kind != "send-complete":  # a send completes at once: no sender blocking
                if i != a:
                    clock += compute[i]
                if kind == "send-post":
                    m = messages[i]
                    if m is not None:
                        send_post_times[m] = clock
                        if m in parked:
                            ready.append(parked.pop(m))
            replayed.append(clock)
        clocks[rank] = clock
    stuck = {rank: b - a - len(times[rank]) for rank, (a, b) in bounds.items() if a + len(times[rank]) < b}
    if stuck:
        raise ReplayError(f"cyclic message dependency; undelivered ops per rank: {stuck}")
    return bounds, times


def replay_trace(trace, window=None):
    """Re-time the trace on an ideal network.

    Compute intervals keep their length, transfers are free, senders
    never block, and each receive completes as soon as both it and its
    own matching send are posted.  Ranks start at time zero.
    """
    bounds, times = _replay(trace, window)
    views = trace.index.ranks
    new_events = [
        TraceEvent(rank, ev.kind, ev.name, t, ev.bytes, ev.peer)
        for rank, (a, b) in bounds.items()
        for ev, t in zip(islice(views[rank].events, a, b), times[rank])
    ]
    new_events.sort(key=lambda ev: (ev.t, ev.rank))
    return Trace(events=new_events, num_ranks=trace.num_ranks)


def ideal_replay(trace, window=None):
    """Makespan of the trace replayed on the ideal network: the latest
    of the ranks' last replayed times (a rank's clock never runs back)."""
    _, times = _replay(trace, window)
    return max((replayed[-1] for replayed in times.values() if replayed), default=0.0)


def emit_report(report, path, fmt="csv"):
    """Write a PopReport or a list of WaitStates as CSV or aligned text."""
    if fmt not in ("csv", "text"):
        raise ValueError(f"format must be 'csv' or 'text', got {fmt!r}")
    with open(path, "w", newline="") as fh:
        if isinstance(report, PopReport):
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(["metric", "value"])
                for name, value in report.as_rows():
                    writer.writerow([name, f"{value:.3f}"])
            else:
                fh.write("metric,value,percent\n")
                for name, value in report.as_rows():
                    fh.write(f"{name},{value:.3f},{100.0 * value:.1f} %\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(["pattern", "sender", "receiver", "wait_s", "location"])
            for ws in report:
                writer.writerow([ws.pattern, ws.sender, ws.receiver, f"{ws.wait_s:.6f}", ws.location])
    return path
