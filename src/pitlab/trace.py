"""Event recording, the trace file format, and profile aggregation.

Each worker rank owns one tracer and appends region and communication
events with monotonic timestamps; buffers are merged only after the run.
Traces are stored as line-oriented JSON (one event per line behind a
single header line) so tests can diff them.  A profile aggregates call
counts, inclusive/exclusive times and per-rank computation versus
communication time from a trace.
"""

import json
from collections import deque
from dataclasses import dataclass, field

from .comm import monotonic_seconds

__all__ = [
    "PHASES",
    "TraceEvent",
    "Trace",
    "Tracer",
    "Profile",
    "StructuralError",
    "TraceParseError",
    "region_name",
    "parse_region_name",
    "merge_tracers",
    "write_trace",
    "read_trace",
    "build_profile",
]

PHASES = ("PREDICT", "IT_FINE", "IT_DOWN", "IT_COARSE", "IT_UP", "IT_CHECK")

REGION_KINDS = ("region-enter", "region-exit")
COMM_KINDS = ("send-post", "send-complete", "recv-post", "recv-complete")

FORMAT_NAME = "pitlab-trace"
FORMAT_VERSION = 1


class StructuralError(RuntimeError):
    pass


class TraceParseError(RuntimeError):
    pass


def region_name(phase, rank):
    """Region label, exactly `REGION -- <PHASE> -- <rank>`."""
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    return f"REGION -- {phase} -- {rank}"


def parse_region_name(name):
    """(phase, rank) for names following the region grammar, else None."""
    parts = name.split(" -- ")
    if len(parts) == 3 and parts[0] == "REGION" and parts[1] in PHASES:
        try:
            return parts[1], int(parts[2])
        except ValueError:
            return None
    return None


@dataclass
class TraceEvent:
    rank: int
    kind: str
    name: str
    t: float
    bytes: int | None = None
    peer: int | None = None


@dataclass
class Trace:
    events: list
    num_ranks: int

    def by_rank(self):
        buckets = {r: [] for r in range(self.num_ranks)}
        for ev in self.events:
            buckets.setdefault(ev.rank, []).append(ev)
        return buckets

    def count_regions(self, phase=None):
        """Per-rank count of region entries, optionally for one phase."""
        counts = {r: 0 for r in range(self.num_ranks)}
        for ev in self.events:
            if ev.kind != "region-enter":
                continue
            parsed = parse_region_name(ev.name)
            if phase is None or (parsed and parsed[0] == phase):
                counts[ev.rank] = counts.get(ev.rank, 0) + 1
        return counts


class Tracer:
    """Event buffer of a single rank; no locking, exclusively owned."""

    def __init__(self, rank, clock=monotonic_seconds, suppress=()):
        self.rank = rank
        self.clock = clock
        self.suppress = set(suppress)
        self.events = []
        self.errors = []
        self._stack = []

    def record_region(self, name, action):
        """Append a region-enter or region-exit event; nesting is tracked."""
        if name in self.suppress:
            return
        if action == "enter":
            self._stack.append(name)
            self.events.append(TraceEvent(self.rank, "region-enter", name, self.clock()))
        elif action == "exit":
            if not self._stack or self._stack[-1] != name:
                self.errors.append(f"rank {self.rank}: exit of {name!r} without matching enter")
            else:
                self._stack.pop()
            self.events.append(TraceEvent(self.rank, "region-exit", name, self.clock()))
        else:
            raise ValueError(f"action must be 'enter' or 'exit', got {action!r}")

    def region(self, name):
        return _Region(self, name)

    def record_comm(self, kind, name, nbytes, peer, t=None):
        # an explicit t lets a deferred wait() back-date the completion
        # to the true hand-shake moment (same shared clock)
        if kind not in COMM_KINDS:
            raise ValueError(f"unknown comm event kind {kind!r}")
        self.events.append(
            TraceEvent(self.rank, kind, name, self.clock() if t is None else t, bytes=nbytes, peer=peer)
        )

    def last_event_name(self):
        return f"{self.events[-1].kind} {self.events[-1].name}" if self.events else "<no events>"

    def finalize(self):
        """Return the buffered events; raises on unbalanced nesting."""
        errors = list(self.errors)
        errors += [f"rank {self.rank}: region {name!r} never exited" for name in self._stack]
        if errors:
            raise StructuralError("; ".join(errors))
        return self.events


class _Region:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.record_region(self.name, "enter")
        return self

    def __exit__(self, *exc):
        self.tracer.record_region(self.name, "exit")
        return False


def merge_tracers(tracers):
    """Merge per-rank buffers into one trace sorted by (t, rank), stably."""
    events = []
    for tracer in tracers:
        events.extend(tracer.finalize())
    events.sort(key=lambda ev: (ev.t, ev.rank))
    return Trace(events=events, num_ranks=len(tracers))


def write_trace(trace, path):
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "num_ranks": trace.num_ranks}) + "\n")
        for ev in trace.events:
            record = {"rank": ev.rank, "kind": ev.kind, "name": ev.name, "t": ev.t}
            if ev.bytes is not None:
                record["bytes"] = ev.bytes
            if ev.peer is not None:
                record["peer"] = ev.peer
            fh.write(json.dumps(record) + "\n")
    return path


def read_trace(path):
    events = []
    with open(path) as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
            if header.get("format") != FORMAT_NAME:
                raise ValueError(f"not a {FORMAT_NAME} file")
            num_ranks = int(header["num_ranks"])
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise TraceParseError(f"line 1: bad header: {exc}") from None
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                events.append(
                    TraceEvent(
                        rank=int(rec["rank"]),
                        kind=rec["kind"],
                        name=rec["name"],
                        t=float(rec["t"]),
                        bytes=rec.get("bytes"),
                        peer=rec.get("peer"),
                    )
                )
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from None
    return Trace(events=events, num_ranks=num_ranks)


@dataclass
class RegionStats:
    count: int = 0
    inclusive: float = 0.0
    exclusive: float = 0.0


@dataclass
class RankStats:
    runtime: float = 0.0
    computation: float = 0.0
    communication: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    untracked: float = 0.0


@dataclass
class Profile:
    regions: dict = field(default_factory=dict)  # (rank, name) -> RegionStats
    ranks: dict = field(default_factory=dict)  # rank -> RankStats

    def phase_totals(self):
        """RegionStats summed over ranks per phase, in PHASES order; a
        region outside the naming grammar counts under its own name."""
        totals = {}
        for (_, name), reg in self.regions.items():
            parsed = parse_region_name(name)
            total = totals.setdefault(parsed[0] if parsed else name, RegionStats())
            total.count += reg.count
            total.inclusive += reg.inclusive
            total.exclusive += reg.exclusive
        order = {phase: i for i, phase in enumerate(PHASES)}
        return dict(sorted(totals.items(), key=lambda item: (order.get(item[0], len(PHASES)), item[0])))


def comm_intervals(events):
    """Matched (post, complete) spans per rank, FIFO within (name, peer)."""
    spans = []
    open_ops = {}
    for ev in events:
        if ev.kind in ("send-post", "recv-post"):
            open_ops.setdefault((ev.kind[:4], ev.name, ev.peer), deque()).append(ev.t)
        elif ev.kind in ("send-complete", "recv-complete"):
            queue = open_ops.get((ev.kind[:4], ev.name, ev.peer))
            if queue:
                spans.append((queue.popleft(), ev.t))
    return spans


def merged_length(spans):
    total = 0.0
    last_end = None
    for start, end in sorted(spans):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def build_profile(trace):
    """Aggregate a structurally valid trace into a Profile."""
    profile = Profile()
    for rank, events in trace.by_rank().items():
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
        stats.communication = merged_length(comm_intervals(events))
        stats.computation = stats.runtime - stats.communication
        exclusive_total = sum(reg.exclusive for (r, _), reg in profile.regions.items() if r == rank)
        stats.untracked = stats.runtime - exclusive_total
    return profile
