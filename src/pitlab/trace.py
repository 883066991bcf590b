"""Event recording, the trace file format, the trace index, profiles.

Each worker rank owns one tracer and appends region and communication
events with monotonic timestamps; buffers are merged only after the run.
A trace file (format v3) is one JSON header line that names each
distinct region or message name once and counts the events, then one
little-endian typed column per event field (COLUMNS), the name as an id
into the header's names.  A trace's index lives with
the trace and is built once, on first use; it alone decides the trace's
order and validity.  It buckets the events by rank, sorts each rank
stably by time, pairs the messages in each rank's time order
(one record per message from one FIFO pairing), and walks each rank once
for each event's compute time (the gap since the rank's previous event,
0.0 while a blocked span is open across it) and the region stack.  The
build keeps no per-event list over the whole trace, and each rank's time,
compute and region-time columns are `array('d')`.  The profile and every
analysis step read the index; computation is defined there alone, and a
trace with an unbalanced region or a non-finite event time fails to build.
"""

import bisect
import json
import math
import operator
import struct
import sys
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

import numpy as np

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

COMM_KINDS = ("send-post", "send-complete", "recv-post", "recv-complete")
KINDS = ("region-enter", "region-exit") + COMM_KINDS

FORMAT_NAME = "pitlab-trace"
FORMAT_VERSION = 3

# the body of a trace file in order: per field the struct code of its
# column's values (int32, uint8, uint32, float64, int64, int32; all
# little-endian), and whether a presence column (one 0 or 1 byte per
# event) comes first
COLUMNS = (
    ("rank", "i", False),
    ("kind", "B", False),
    ("name", "I", False),
    ("t", "d", False),
    ("bytes", "q", True),
    ("peer", "i", True),
)
_KIND_IDS = {kind: i for i, kind in enumerate(KINDS)}
_LITTLE_ENDIAN = sys.byteorder == "little"  # the host's order is the file's
_get_t = operator.attrgetter("t")


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


@dataclass(slots=True)
class TraceEvent:
    rank: int
    kind: str
    name: str
    t: float
    bytes: int | None = None
    peer: int | None = None


@dataclass
class Trace:
    """A run's events, merged across ranks, and the number of ranks.

    No code mutates a trace after it is built, so its index is computed
    on first use of `index` and kept for the trace's lifetime.
    """

    events: list
    num_ranks: int

    @cached_property
    def index(self):
        return _TraceIndex(self)


class Tracer:
    """Event buffer of a single rank; no locking, exclusively owned."""

    def __init__(self, rank, clock=monotonic_seconds):
        self.rank = rank
        self.clock = clock
        self.events = []
        self.errors = []
        self._stack = []

    def record_region(self, name, action):
        """Append a region-enter or region-exit event; nesting is tracked."""
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
        self.events.append(TraceEvent(self.rank, kind, name, self.clock() if t is None else t, nbytes, peer))

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
    # concatenated in rank order, so a stable sort by time alone breaks ties by rank
    for tracer in sorted(tracers, key=operator.attrgetter("rank")):
        events.extend(tracer.finalize())
    events.sort(key=operator.attrgetter("t"))
    return Trace(events=events, num_ranks=len(tracers))


def write_trace(trace, path):
    """Write the trace as format v3: a JSON header line of format, version,
    num_ranks, `names` (each distinct name once, in first-use order) and
    the event count `events`, then one little-endian column per field, in
    COLUMNS order: rank int32, kind uint8 (an index into KINDS), name id
    uint32 (an index into `names`), t float64, and bytes and peer each as a
    presence column of one 0 or 1 byte per event followed by the present
    values (int64, int32).  It takes a positive int num_ranks and events
    whose rank is an int, bytes and peer an int or None (a bool is no int),
    each inside its column's range, kind one of KINDS, name a str and time
    any float (NaN, inf, np.float64).  At the first event it cannot write
    it raises ValueError naming the event's index and field, before it
    opens the file, so a refused trace leaves no file.  Each check and each
    column is one comprehension or numpy conversion over the events, and
    one column is held at a time."""
    events = trace.events
    if not (type(trace.num_ranks) is int and trace.num_ranks > 0):
        raise ValueError(f"num_ranks {trace.num_ranks!r} is not a positive int")
    if not _writable(events):
        _refuse(events)
    names = {name: i for i, name in enumerate(dict.fromkeys([ev.name for ev in events]))}
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "num_ranks": trace.num_ranks,
              "names": list(names), "events": len(events)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.writelines(_columns(events, names))  # drops each column once it is written
    return path


def _fits(value, bits):
    """Whether value is an int (a bool is none) that a signed column of bits holds."""
    return type(value) is int and -(1 << bits - 1) <= value < 1 << bits - 1


def _all_fit(values, bits):
    """_fits for each of the values, from their types and their least and greatest."""
    return set(map(type, values)) <= {int} and (not values or (_fits(min(values), bits) and _fits(max(values), bits)))


def _writable(events):
    """Whether write_trace takes every event: one set, list or min/max pass per field."""
    try:
        if not {ev.kind for ev in events} <= _KIND_IDS.keys():
            return False
    except TypeError:  # an unhashable kind
        return False
    return (
        {type(ev.name) for ev in events} <= {str}
        and all(issubclass(tp, float) for tp in {type(ev.t) for ev in events})
        and _all_fit([ev.rank for ev in events], 32)
        and _all_fit([ev.bytes for ev in events if ev.bytes is not None], 64)
        and _all_fit([ev.peer for ev in events if ev.peer is not None], 32)
    )


def _refuse(events):
    """Raise ValueError at the first event write_trace cannot take, naming its first such field."""
    for i, ev in enumerate(events):
        try:
            kind = ev.kind in _KIND_IDS
        except TypeError:
            kind = False
        ok = (_fits(ev.rank, 32), kind, type(ev.name) is str, isinstance(ev.t, float),
              ev.bytes is None or _fits(ev.bytes, 64), ev.peer is None or _fits(ev.peer, 32))
        if False in ok:
            field = COLUMNS[ok.index(False)][0]
            raise ValueError(f"event {i}: cannot write {field} {getattr(ev, field)!r}")


def _columns(events, names):
    """The body's columns in COLUMNS order, each built when it is asked for."""
    n = len(events)
    yield np.fromiter([ev.rank for ev in events], "<i", n)
    yield bytes([_KIND_IDS[ev.kind] for ev in events])
    yield np.fromiter([names[ev.name] for ev in events], "<I", n)
    yield np.fromiter(map(_get_t, events), "<d", n)  # with a list of the times, 16 B per event
    yield bytes([ev.bytes is not None for ev in events])
    yield np.fromiter([ev.bytes for ev in events if ev.bytes is not None], "<q")
    yield bytes([ev.peer is not None for ev in events])
    yield np.fromiter([ev.peer for ev in events if ev.peer is not None], "<i")


def read_trace(path):
    """Read a format v3 trace file.  A bad header raises TraceParseError at
    `line 1: bad header`: it must be a UTF-8 JSON object of this format and
    version (a format 1 or 2 file is refused with a request to record the
    run again) with a positive int num_ranks, `names` a list of distinct
    strs and `events` an int >= 0, and end in a newline.  A bad body raises
    TraceParseError `event <i>: <column>: ...` at the first event it fails
    on: a body shorter or longer than the header and the presence columns
    imply, a kind or name id out of range, or a presence byte other than 0
    or 1.  Each event's name is the header's object and its kind KINDS',
    so the events hold one object per distinct string; each time is a
    float.  The events are built from views of the file's bytes, with no
    list per column."""
    with open(path, "rb") as fh:
        num_ranks, names, n = _header(fh.readline(), path)
        body = fh.read()
    ranks, kinds, name_ids, times, sizes, peers = _columns_of(body, n)
    try:
        events = list(map(TraceEvent, ranks, map(KINDS.__getitem__, kinds), map(names.__getitem__, name_ids),
                          times, sizes, peers))
    except IndexError:
        raise TraceParseError(_bad_id(kinds, name_ids, len(names))) from None
    return Trace(events=events, num_ranks=num_ranks)


def _header(line, path):
    """num_ranks, names and the event count of a header line, else TraceParseError."""
    try:
        text = line.decode()
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"line 1: {path} is not UTF-8: {exc.reason}") from None
    try:
        if not text.endswith("\n"):
            raise ValueError("no newline at its end")
        header = json.loads(text)
        if type(header) is not dict or header.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} file")
        version, num_ranks, names, n = (header.get(key) for key in ("version", "num_ranks", "names", "events"))
        if not (type(version) is int and version == FORMAT_VERSION):
            raise ValueError(f"version {version!r}; pitlab reads version {FORMAT_VERSION}, so record the run again")
        if not (type(num_ranks) is int and num_ranks > 0 and type(names) is list
                and all(type(name) is str for name in names) and len(set(names)) == len(names)
                and type(n) is int and n >= 0):
            raise ValueError("want a positive int num_ranks, a list of distinct str names and an int events >= 0")
    except ValueError as exc:
        raise TraceParseError(f"line 1: bad header: {exc}") from None
    return num_ranks, names, n


def _columns_of(body, n):
    """Per field in COLUMNS order, the values of the n events in the body,
    None where a presence byte is 0, as views of its bytes; raises
    TraceParseError naming the first event and the column where the body
    is short, long or holds a presence byte other than 0 or 1."""
    view, fields, offset = memoryview(body), [], 0
    for field, code, optional in COLUMNS:
        count, present = n, None
        if optional:
            if len(body) < offset + n:
                raise TraceParseError(f"event {len(body) - offset}: {field} presence: the file ends")
            present, count = view[offset:offset + n], body.count(1, offset, offset + n)
            if count + body.count(0, offset, offset + n) < n:
                i = next(i for i, byte in enumerate(present) if byte > 1)
                raise TraceParseError(f"event {i}: {field} presence: byte {present[i]} is neither 0 nor 1")
            offset += n
        size = struct.calcsize("<" + code)
        if len(body) < offset + count * size:
            k = (len(body) - offset) // size  # the first value missing
            i = k if present is None else [i for i, byte in enumerate(present) if byte][k]
            raise TraceParseError(f"event {i}: {field}: the file ends")
        if _LITTLE_ENDIAN:  # a view of the file's bytes, aligned or not
            values = view[offset:offset + count * size].cast(code)
        else:
            values = memoryview(np.frombuffer(body, "<" + code, count, offset).astype(code))
        offset += count * size
        # a present event takes the next value, an absent one the next None
        fields.append(values if present is None else map(next, map((repeat(None), iter(values)).__getitem__, present)))
    if offset < len(body):
        raise TraceParseError(f"event {n}: {field}: {len(body) - offset} bytes after the last event")
    return fields


def _bad_id(kinds, name_ids, num_names):
    """The parse error of the first event whose kind or name id is out of range."""
    for i, (kind, name) in enumerate(zip(kinds, name_ids)):
        if kind >= len(KINDS):
            return f"event {i}: kind: id {kind} is not below {len(KINDS)}"
        if name >= num_names:
            return f"event {i}: name: id {name} is not below {num_names}"


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


@dataclass(slots=True, eq=False)
class _Match:
    """One message: when each side posted and completed it, None if never."""

    source: int
    dest: int
    name: str
    send_post: float | None = None
    send_complete: float | None = None
    recv_post: float | None = None
    recv_complete: float | None = None


def match_messages(ranks):
    """One _Match per message, FIFO per (source, dest, name), from each
    rank's events in time order: the k-th post of a side posts that side
    of the key's k-th message, the k-th completion of a side completes it
    once that side has posted it.  Each side of a key lives on one rank,
    so the pairing holds for any interleaving of the ranks.  Returns the
    messages both sides posted (keys by first send-post, by time and then
    source rank; a completion may be missing), those only the sender or
    only the receiver posted, and per rank each event's message (None for
    a region or a stray completion) and the rank's blocked spans, one
    (post, completion) per completed side."""
    fifos = {}  # key -> [messages, sends posted, sends completed, receives posted, receives completed]
    sent = []  # the FIFOs with a send-post
    columns = {}  # rank -> (messages, spans)
    for rank, events in ranks.items():
        messages, spans = columns[rank] = [], []
        for ev in events:
            kind, m = ev.kind, None
            if kind == "send-post":
                key = (rank, ev.peer, ev.name)
                fifo = fifos.get(key) or fifos.setdefault(key, [[], 0, 0, 0, 0])
                if not fifo[1]:
                    sent.append(fifo)
                if fifo[1] == len(fifo[0]):
                    fifo[0].append(_Match(*key))
                m = fifo[0][fifo[1]]
                fifo[1] += 1
                m.send_post = ev.t
            elif kind == "recv-post":
                key = (ev.peer, rank, ev.name)
                fifo = fifos.get(key) or fifos.setdefault(key, [[], 0, 0, 0, 0])
                if fifo[3] == len(fifo[0]):
                    fifo[0].append(_Match(*key))
                m = fifo[0][fifo[3]]
                fifo[3] += 1
                m.recv_post = ev.t
            elif kind == "send-complete":
                fifo = fifos.get((rank, ev.peer, ev.name))
                if fifo and fifo[2] < fifo[1]:
                    m = fifo[0][fifo[2]]
                    fifo[2] += 1
                    m.send_complete = ev.t
                    spans.append((m.send_post, ev.t))
            elif kind == "recv-complete":
                fifo = fifos.get((ev.peer, rank, ev.name))
                if fifo and fifo[4] < fifo[3]:
                    m = fifo[0][fifo[4]]
                    fifo[4] += 1
                    m.recv_complete = ev.t
                    spans.append((m.recv_post, ev.t))
            messages.append(m)
    sent.sort(key=lambda fifo: (fifo[0][0].send_post, fifo[0][0].source))  # stable: a rank's keys stay in its order
    matches = [m for fifo in sent for m in fifo[0][:min(fifo[1], fifo[3])]]
    unmatched_sends = [m for fifo in fifos.values() for m in fifo[0][fifo[3]:fifo[1]]]
    unmatched_recvs = [m for fifo in fifos.values() for m in fifo[0][fifo[1]:fifo[3]]]
    return matches, unmatched_sends, unmatched_recvs, columns


class _RankView:
    """One rank's events in time order with what the profile and the
    analysis look up, from one walk: each event's compute and the region
    stack.  The walk raises StructuralError at the rank's first non-finite
    time, unbalanced exit or region never exited.  The time columns are
    `array('d')`, one machine double per entry."""

    def __init__(self, events, messages, spans):
        self.events = events
        self.messages = messages  # each comm event's message if both sides posted it, else None
        spans.sort()
        self.spans = spans  # blocked (post, completion) spans of the rank's messages, by start
        self.times = times = array("d")
        self.compute = compute = array("d")  # per event: the gap since the previous event, 0.0 while a blocked span is open across it
        self.region_times, self.region_tops = array("d"), []  # when the region stack changes, and its new top
        self.regions = {}  # name -> RegionStats, in first-exit order
        self.predict_end = None  # last predictor exit
        stack = []  # [name, enter time, time spent in child regions]
        inf = math.inf
        next_span, open_until = 0, -inf  # the latest end of the spans started before the event
        prev_t = events[0].t if events else 0.0
        for ev in events:
            t = ev.t
            if not -inf < t < inf:
                raise StructuralError(f"rank {ev.rank}: non-finite time t={t} in {ev.kind} {ev.name!r}")
            while next_span < len(spans) and spans[next_span][0] < t:
                open_until = max(open_until, spans[next_span][1])
                next_span += 1
            # a span's ends are this rank's event times: one still open after prev_t covers the whole gap
            compute.append(0.0 if open_until > prev_t else t - prev_t)
            times.append(t)
            prev_t = t
            kind = ev.kind
            if kind == "region-enter":
                stack.append([ev.name, t, 0.0])
            elif kind == "region-exit":
                if not stack or stack[-1][0] != ev.name:
                    raise StructuralError(f"rank {ev.rank}: unbalanced exit of {ev.name!r} at t={t}")
                name, t_enter, child_time = stack.pop()
                inclusive = t - t_enter
                reg = self.regions.get(name) or self.regions.setdefault(name, RegionStats())
                reg.count += 1
                reg.inclusive += inclusive
                reg.exclusive += inclusive - child_time
                if stack:
                    stack[-1][2] += inclusive
                if " -- PREDICT -- " in ev.name:
                    self.predict_end = t
            else:
                continue
            self.region_times.append(t)
            self.region_tops.append(stack[-1][0] if stack else "<untracked>")
        if stack:
            names = ", ".join(frame[0] for frame in stack)
            raise StructuralError(f"rank {events[0].rank}: regions never exited: {names}")

    def window(self, lo, hi):
        """Index range [a, b) of the events with lo <= t <= hi."""
        return bisect.bisect_left(self.times, lo), bisect.bisect_right(self.times, hi)

    def region_at(self, t):
        """Innermost region open at t; events at exactly t count as done."""
        i = bisect.bisect_right(self.region_times, t)
        return self.region_tops[i - 1] if i else "<untracked>"


_time = operator.attrgetter("t")


class _TraceIndex:
    """The single pass over a trace that the profile and every analysis
    step read, and the one place that decides a trace's order and
    validity.  It buckets the events by rank (0 to num_ranks - 1, then
    others as they appear), sorts each rank stably by time, pairs the
    messages in each rank's time order, and builds one view per rank; a
    structurally broken trace raises StructuralError here, so every step
    that reads the index refuses it."""

    def __init__(self, trace):
        ranks = {rank: [] for rank in range(trace.num_ranks)}
        for ev in trace.events:
            (ranks.get(ev.rank) or ranks.setdefault(ev.rank, [])).append(ev)
        for events in ranks.values():
            events.sort(key=_time)
        self.matches, self.unmatched_sends, self.unmatched_recvs, columns = match_messages(ranks)
        unmatched = set(self.unmatched_sends + self.unmatched_recvs)
        self.ranks = {}
        for rank, events in ranks.items():
            messages, spans = columns[rank]
            if unmatched:
                messages = [None if m in unmatched else m for m in messages]
            self.ranks[rank] = _RankView(events, messages, spans)


def build_profile(trace):
    """Aggregate a structurally valid trace into a Profile, from its index."""
    profile = Profile()
    for rank, view in trace.index.ranks.items():
        stats = profile.ranks[rank] = RankStats()
        if not view.events:
            continue
        stats.runtime = view.times[-1] - view.times[0]
        for name, reg in view.regions.items():
            profile.regions[(rank, name)] = replace(reg)  # a copy; the index stays as built
        stats.bytes_sent = sum(ev.bytes or 0 for ev in view.events if ev.kind == "send-post")
        stats.bytes_received = sum(ev.bytes or 0 for ev in view.events if ev.kind == "recv-complete")
        stats.communication = merged_length(view.spans)
        stats.computation = sum(view.compute)
        stats.untracked = stats.runtime - sum(reg.exclusive for reg in view.regions.values())
    return profile
