"""Event recording, the trace file format, the trace index, profiles.

Each worker rank owns one tracer and appends region and communication
events with monotonic timestamps; buffers are merged only after the run.
A trace file (format v2) is one JSON header line that names each
distinct region or message name once, then one tab-separated line per
event that refers to its name by id.  A trace's index lives with
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
import re
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property

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
_INT_OR_NONE = (int, type(None))  # a bool is neither

FORMAT_NAME = "pitlab-trace"
FORMAT_VERSION = 2

WRITE_CHUNK = 1000  # lines per write
_INT_CELL = re.compile("0|-?[1-9][0-9]*").fullmatch  # a strict decimal int, as str(int) writes it
_float_repr = float.__repr__  # repr(np.float64(0.1)) is 'np.float64(0.1)' under numpy 2


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
    r"""Write the trace as format v2: a JSON header line of format, version,
    num_ranks and `names`, each distinct name once in first-use order, then
    per event a line `rank\tkind\tname-id\trepr(t)\tbytes\tpeer`, with an
    empty cell for an absent bytes or peer, in chunks of WRITE_CHUNK lines.
    It takes a positive int num_ranks and events whose rank is an int,
    bytes and peer an int or None (a bool is no int), kind one of KINDS,
    name a str and time any float (NaN, inf, np.float64).  At the first
    event it cannot write it raises ValueError naming the event's index and
    field, before it opens the file, so a refused trace leaves no file."""
    events = trace.events
    if not (type(trace.num_ranks) is int and trace.num_ranks > 0):
        raise ValueError(f"num_ranks {trace.num_ranks!r} is not a positive int")
    ids = {}  # name -> its id's cell text
    for i, ev in enumerate(events):
        ok = (type(ev.rank) is int, ev.kind in KINDS, type(ev.name) is str, isinstance(ev.t, float),
              type(ev.bytes) in _INT_OR_NONE, type(ev.peer) in _INT_OR_NONE)
        if False in ok:
            field = ("rank", "kind", "name", "t", "bytes", "peer")[ok.index(False)]
            raise ValueError(f"event {i}: cannot write {field} {getattr(ev, field)!r}")
        if ev.name not in ids:
            ids[ev.name] = str(len(ids))
    cells = _Cache(str, {None: ""})  # its keys are exact ints and None, so True never meets 1
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "num_ranks": trace.num_ranks, "names": list(ids)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header) + "\n")
        for start in range(0, len(events), WRITE_CHUNK):
            fh.write("".join([
                f"{cells[ev.rank]}\t{ev.kind}\t{ids[ev.name]}\t{_float_repr(ev.t)}\t{cells[ev.bytes]}\t{cells[ev.peer]}\n"
                for ev in events[start:start + WRITE_CHUNK]
            ]))
    return path


class _Cache(dict):
    """A dict that computes a missing key's value as make(key) and keeps it."""

    def __init__(self, make, table=()):
        super().__init__(table)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _int_cell(cell):
    if not _INT_CELL(cell):
        raise ValueError(f"bad int cell {cell!r}")
    return int(cell)


def read_trace(path):
    """Read a format v2 trace file; a bad line raises TraceParseError naming
    it.  The header is a JSON object of this format and version with a
    positive int num_ranks and `names` a list of distinct strs; any other,
    a version 1 header too, is refused.  An event line ends in a newline
    and has six tab-separated cells: a rank, one of the six kinds, an index
    into `names`, a time that `float` takes without stripping whitespace or
    `_` (ASCII only), and a bytes and a peer that may be empty; rank, bytes
    and peer are strict decimal ints, as `str(int)` writes them.  A file
    that is not UTF-8 names its first undecodable line.  Each event's name
    is the header's object, so the events hold one per distinct name."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            header = fh.readline()  # outside the try: a UnicodeDecodeError is a ValueError
            try:
                header = json.loads(header)
                if type(header) is not dict or header.get("format") != FORMAT_NAME:
                    raise ValueError(f"not a {FORMAT_NAME} file")
                version, num_ranks, names = header.get("version"), header.get("num_ranks"), header.get("names")
                if not (type(version) is int and version == FORMAT_VERSION):
                    raise ValueError(f"version {version!r}; pitlab reads version {FORMAT_VERSION}, so record the run again")
                if not (type(num_ranks) is int and num_ranks > 0 and type(names) is list
                        and all(type(name) is str for name in names) and len(set(names)) == len(names)):
                    raise ValueError("want a positive int num_ranks and a list of distinct str names")
            except ValueError as exc:
                raise TraceParseError(f"line 1: bad header: {exc}") from None
            kinds, name_ids = dict(zip(KINDS, KINDS)), {str(i): name for i, name in enumerate(names)}
            ranks, optional = _Cache(_int_cell), _Cache(_int_cell, {"": None})
            events, lineno, line = [], 1, "\n"
            for lineno, line in enumerate(fh, start=2):
                try:
                    rank, kind, name, t, nbytes, peer = line[:-1].split("\t")
                    if not t.isascii() or "_" in t or t.strip() != t:  # what float() alone would take
                        raise ValueError(f"bad time cell {t!r}")
                    events.append(TraceEvent(ranks[rank], kinds[kind], name_ids[name], float(t), optional[nbytes], optional[peer]))
                except ValueError as exc:
                    raise TraceParseError(f"line {lineno}: {exc}") from None
                except KeyError as exc:
                    raise TraceParseError(f"line {lineno}: unknown kind or name id {exc}") from None
            if not line.endswith("\n"):
                raise TraceParseError(f"line {lineno}: no newline at its end")
    except UnicodeDecodeError as exc:
        # text mode decodes ahead of the line it returns, so find the line again
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            # an undecodable byte reads as a lone surrogate, which no UTF-8 text holds
            lineno = next(n for n, text in enumerate(fh, 1) if re.search("[\udc80-\udcff]", text))
        raise TraceParseError(f"line {lineno}: {path} is not UTF-8: {exc.reason}") from None
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
