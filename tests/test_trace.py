import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import allocations, ev, fig5_trace, make_trace, pop_hand_trace, synthetic_trace
from pitlab import trace as tracing
from pitlab.controller import dahlquist_config, run
from pitlab.trace import (
    FORMAT_NAME,
    KINDS,
    PHASES,
    StructuralError,
    Trace,
    TraceEvent,
    TraceParseError,
    Tracer,
    build_profile,
    merge_tracers,
    parse_region_name,
    read_trace,
    region_name,
    write_trace,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


class TestRegions:
    def test_enter_exit_pair_gives_inclusive_time(self):
        clock = FakeClock()
        tracer = Tracer(0, clock=clock)
        tracer.record_region("REGION -- IT_FINE -- 0", "enter")
        clock.advance(2.0)
        tracer.record_region("REGION -- IT_FINE -- 0", "exit")
        profile = build_profile(merge_tracers([tracer]))
        stats = profile.regions[(0, "REGION -- IT_FINE -- 0")]
        assert stats.count == 1
        assert stats.inclusive == pytest.approx(2.0)
        assert stats.exclusive == pytest.approx(2.0)

    def test_nested_region_exclusive_time(self):
        clock = FakeClock()
        tracer = Tracer(0, clock=clock)
        with tracer.region("REGION -- IT_FINE -- 0"):
            clock.advance(1.0)
            with tracer.region("REGION -- IT_DOWN -- 0"):
                clock.advance(3.0)
            clock.advance(0.5)
        profile = build_profile(merge_tracers([tracer]))
        outer = profile.regions[(0, "REGION -- IT_FINE -- 0")]
        inner = profile.regions[(0, "REGION -- IT_DOWN -- 0")]
        assert outer.inclusive == pytest.approx(4.5)
        assert outer.exclusive == pytest.approx(1.5)
        assert inner.exclusive == pytest.approx(3.0)

    def test_exit_without_enter_surfaces_at_finalize(self):
        tracer = Tracer(0)
        tracer.record_region("REGION -- IT_FINE -- 0", "exit")
        with pytest.raises(StructuralError, match="without matching enter"):
            tracer.finalize()

    def test_unclosed_region_surfaces_at_finalize(self):
        tracer = Tracer(0)
        tracer.record_region("REGION -- IT_FINE -- 0", "enter")
        with pytest.raises(StructuralError, match="never exited"):
            tracer.finalize()


class TestRegionGrammar:
    @pytest.mark.parametrize("phase", PHASES)
    def test_names_follow_listing_format(self, phase):
        name = region_name(phase, 3)
        assert name == f"REGION -- {phase} -- 3"
        assert parse_region_name(name) == (phase, 3)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            region_name("IT_NOPE", 0)
        assert parse_region_name("whatever") is None


class TestFileRoundtrip:
    def test_roundtrip_identity(self, tmp_path):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- PREDICT -- 0", 0.5),
                ev(0, "region-exit", "REGION -- PREDICT -- 0", 1.25),
                ev(1, "send-post", "fine/value/1", 0.75, 128, 0),
            ],
            2,
        )
        path = tmp_path / "t.trc"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.num_ranks == 2
        assert back.events == trace.events

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.trc"
        write_trace(Trace(events=[], num_ranks=3), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert read_trace(path).events == []

    def test_bytes_after_the_last_column_name_the_event_after_the_last(self, tmp_path):
        path = tmp_path / "bad.trc"
        write_trace(make_trace([ev(0, "region-enter", "x", 0.0)], 1), path)
        with open(path, "ab") as fh:
            fh.write(b"not json\n")
        with pytest.raises(TraceParseError, match="^event 1: peer: 9 bytes after the last event$"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.trc"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace(path)

    @pytest.mark.parametrize("line", [1], ids=["header"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, line):
        # the body is binary, so only the header line is text
        path = tmp_path / "latin.trc"
        write_trace(synthetic_trace(6, 24, 3), path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(TraceParseError, match=rf"^line {line}: {re.escape(str(path))} is not UTF-8"):
            read_trace(path)

    def test_the_big_endian_path_reads_the_same_events(self, tmp_path, monkeypatch):
        # a host whose byte order is not the file's reads byte-swapped copies
        # of the columns; on a little-endian host that path is a plain copy
        trace = synthetic_trace(6, 24, 3)
        path = write_trace(trace, tmp_path / "t.trc")
        monkeypatch.setattr(tracing, "_LITTLE_ENDIAN", False)
        assert read_trace(path).events == trace.events


def ref_write_trace(trace, path):
    """Format v3 written the plain way: json.dumps for the header, then each
    column event by event with struct.pack, each kind's and name's id looked
    up in KINDS and in the header's list."""
    events = trace.events
    names = list(dict.fromkeys(e.name for e in events))
    header = {"format": FORMAT_NAME, "version": 3, "num_ranks": trace.num_ranks, "names": names,
              "events": len(events)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        for e in events:
            fh.write(struct.pack("<i", e.rank))
        for e in events:
            fh.write(struct.pack("<B", KINDS.index(e.kind)))
        for e in events:
            fh.write(struct.pack("<I", names.index(e.name)))
        for e in events:
            fh.write(struct.pack("<d", e.t))
        for field, code in (("bytes", "<q"), ("peer", "<i")):
            values = [getattr(e, field) for e in events]
            for value in values:
                fh.write(struct.pack("<B", value is not None))
            for value in values:
                if value is not None:
                    fh.write(struct.pack(code, value))
    return path


def escapes_trace():
    """Names that need escapes, non-finite, subnormal and subclassed
    times, ints at the ends of their columns, and the values the writer
    refuses: bools, names that are not strings, an int time, an unknown
    kind and bytes outside int64."""
    events = [
        ev(0, "region-enter", 'say "hi" \\ back\tslash\n', 0.1),
        ev(0, "region-exit", "Zeit \u00fcber \u2192 \U0001f600 \x7f \x00", 1e300),
        ev(0, "send-post", "nan", math.nan, 8, 1),
        ev(0, "send-complete", "inf", math.inf, 8, 1),
        ev(1, "recv-post", "-inf", -math.inf, 0, 0),
        ev(1, "recv-complete", "bool bytes", 0.5, True, 0),
        ev(1, "send-post", "bool peer", 0.5, 8, False),
        ev(1, "send-complete", "big", 0.75, 2**70, -1),
        ev(1, "send-post", "int64 and int32 ends", 0.75, 2**63 - 1, -2**31),
        ev(2**31 - 1, "send-complete", "int64 and int32 ends", 0.75, -2**63, 2**31 - 1),
        ev(-2**31, "region-enter", "int32 end", 0.8),
        ev(1, "region-enter", "zero", -0.0, None, 7),
        ev(1, "region-exit", "float64", np.float64(0.1), 3, 0),
        ev(True, "region-enter", "bool rank", 2.5),
        ev(-3, "region-exit", "", 5e-324),
        ev(2, "region-enter", 1, 3.0),
        ev(2, "region-exit", True, 3.5),  # equal to 1 as a dict key
        ev(2, "region-enter", "int time", 4),
        ev(2, "bogus", "unknown kind", 4.5),
        ev(2, "region-exit", "zero", 5.0, 1, None),
    ]
    return Trace(events=events, num_ranks=3)


def _fits(value, bits):
    return type(value) is int and -(2 ** (bits - 1)) <= value < 2 ** (bits - 1)


def _typed(event):
    """Whether the writer takes the event: an int rank inside int32, bytes
    inside int64 or none and peer inside int32 or none, where a bool is not
    an int, a str name, a known kind and a float time."""
    return (
        type(event.name) is str and event.kind in KINDS and isinstance(event.t, float) and _fits(event.rank, 32)
        and (event.bytes is None or _fits(event.bytes, 64)) and (event.peer is None or _fits(event.peer, 32))
    )


class TestWriterReaderOracle:
    @pytest.mark.parametrize(
        "build",
        [
            pop_hand_trace,
            fig5_trace,
            lambda: synthetic_trace(6, 24, 3),  # 2,316 events
            lambda: run(dahlquist_config(4, 0.1), mode="serial").trace,
            escapes_trace,
        ],
        ids=["hand", "fig5", "synthetic", "dahlquist", "escapes"],
    )
    def test_typed_events_round_trip_and_untyped_ones_leave_no_file(self, build, tmp_path):
        trace = build()
        typed = [event for event in trace.events if _typed(event)]
        assert len(trace.events) - len(typed) == (8 if build is escapes_trace else 0)
        new, ref = tmp_path / "new.trc", tmp_path / "ref.trc"
        write_trace(Trace(events=typed, num_ranks=trace.num_ranks), new)
        ref_write_trace(Trace(events=typed, num_ranks=trace.num_ranks), ref)
        assert new.read_bytes() == ref.read_bytes()
        back = read_trace(new)
        assert back.num_ranks == trace.num_ranks
        assert repr(back.events) == repr([replace(e, t=float(e.t)) for e in typed])  # repr: NaN != NaN
        assert all(type(e.t) is float for e in back.events)
        for i, event in enumerate(trace.events):
            if not _typed(event):
                bad = tmp_path / "bad.trc"
                before = [e for e in trace.events[:i] if _typed(e)]
                with pytest.raises(ValueError, match=rf"^event {len(before)}: cannot write "):
                    write_trace(Trace(events=before + [event], num_ranks=trace.num_ranks), bad)
                assert not bad.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("rank", 2**31), ("rank", -2**31 - 1), ("bytes", -2**63 - 1), ("peer", 2**31), ("kind", ["send-post"])],
        ids=["rank-above-int32", "rank-below-int32", "bytes-below-int64", "peer-above-int32", "unhashable-kind"],
    )
    def test_a_value_outside_its_column_is_refused_by_field(self, field, value, tmp_path):
        good = ev(0, "send-post", "m", 0.5, 8, 1)
        path = tmp_path / "t.trc"
        with pytest.raises(ValueError, match=rf"^event 1: cannot write {field} {re.escape(repr(value))}$"):
            write_trace(Trace(events=[good, replace(good, **{field: value})], num_ranks=2), path)
        assert not path.exists()

    @pytest.mark.parametrize("num_ranks", [0, True, 2.0], ids=["zero", "bool", "float"])
    def test_unreadable_num_ranks_is_refused(self, num_ranks, tmp_path):
        with pytest.raises(ValueError, match="num_ranks"):
            write_trace(Trace(events=[], num_ranks=num_ranks), tmp_path / "t.trc")
        assert not (tmp_path / "t.trc").exists()


class TestSharedStrings:
    """A read-back trace holds one object per distinct kind and name."""

    @pytest.mark.parametrize(
        "build",
        [lambda: synthetic_trace(6, 24, 3), lambda: run(dahlquist_config(8, 0.1), mode="serial").trace],
        ids=["synthetic", "dahlquist-p8"],
    )
    def test_one_object_per_distinct_string(self, build, tmp_path):
        trace = build()
        path = write_trace(trace, tmp_path / "t.trc.jsonl")
        back = read_trace(path)
        assert back.events == trace.events
        for field in ("kind", "name"):
            values = [getattr(event, field) for event in back.events]
            assert len({id(value) for value in values}) == len(set(values)) > 1, field

    def test_two_reads_share_no_name(self, tmp_path):
        path = write_trace(run(dahlquist_config(8, 0.1), mode="serial").trace, tmp_path / "t.trc.jsonl")
        first, second = read_trace(path), read_trace(path)
        assert first.events == second.events
        assert not {id(event.name) for event in first.events} & {id(event.name) for event in second.events}


class TestFileSize:
    def test_an_event_holds_no_name(self, p32_trace_path):
        # an event takes 19 bytes (rank 4, kind 1, name id 4, time 8 and two
        # presence bytes), a message 12 more for its bytes and peer, about
        # half the events are messages, and the header adds under one byte
        # per event
        events = len(read_trace(p32_trace_path).events)
        assert events == 15_392
        assert p32_trace_path.stat().st_size <= 27 * events


class TestFileCost:
    """What writing and reading the 15,392-event P = 32 trace allocates (tracemalloc)."""

    def test_the_writer_holds_one_column_at_a_time(self, p32_trace_path, tmp_path):
        trace = read_trace(p32_trace_path)
        path, _, peak = allocations(lambda: write_trace(trace, tmp_path / "t.trc"))
        assert path.read_bytes() == p32_trace_path.read_bytes()
        # the time column, 8 B per event, is the largest; a list of a field would add 8 more
        assert peak <= 16 * len(trace.events)

    def test_the_reader_holds_the_file_and_the_events_it_builds(self, p32_trace_path):
        back, kept, peak = allocations(lambda: read_trace(p32_trace_path))
        assert len(back.events) == 15_392
        # the events are built from views of the file's bytes, with no list per column
        assert peak <= kept + p32_trace_path.stat().st_size


def _body_file(tmp_path):
    """A v3 file of a region event and a message, its bytes, and where
    each column's bytes start."""
    trace = Trace(events=[ev(0, "region-enter", "x", 0.5), ev(1, "send-post", "y", 0.75, 8, 0)], num_ranks=2)
    path = write_trace(trace, tmp_path / "body.trc")
    data = bytearray(path.read_bytes())
    body = data.index(b"\n") + 1
    # 2 events; the one message has bytes and a peer
    starts = {"rank": 0, "kind": 8, "name": 10, "t": 18, "bytes presence": 34, "bytes": 36,
              "peer presence": 44, "peer": 46, "end": 50}
    assert len(data) - body == starts["end"]
    return path, data, {column: body + start for column, start in starts.items()}


class TestBadBody:
    """A body the header and the presence columns do not describe is refused
    at the first event it fails on, naming that event and the column."""

    @pytest.mark.parametrize(
        "column, event, value, message",
        [
            ("kind", 1, 6, "kind: id 6 is not below 6"),
            ("kind", 0, 255, "kind: id 255 is not below 6"),
            ("name", 1, 2, "name: id 2 is not below 2"),
            ("name", 0, 2**32 - 1, "name: id 4294967295 is not below 2"),
            ("bytes presence", 0, 2, "bytes presence: byte 2 is neither 0 nor 1"),
            ("peer presence", 1, 255, "peer presence: byte 255 is neither 0 nor 1"),
        ],
        ids=["kind-6", "kind-255", "name-2", "name-max", "bytes-presence-2", "peer-presence-255"],
    )
    def test_an_id_or_presence_byte_out_of_range(self, tmp_path, column, event, value, message):
        path, data, starts = _body_file(tmp_path)
        size = 4 if column == "name" else 1
        at = starts[column] + size * event
        data[at:at + size] = value.to_bytes(size, "little")
        path.write_bytes(data)
        with pytest.raises(TraceParseError, match=f"^event {event}: {re.escape(message)}$"):
            read_trace(path)

    def test_the_first_bad_event_is_named(self, tmp_path):
        path, data, starts = _body_file(tmp_path)
        data[starts["name"]] = 7  # event 0
        data[starts["kind"] + 1] = 9  # event 1
        path.write_bytes(data)
        with pytest.raises(TraceParseError, match="^event 0: name: "):
            read_trace(path)

    @pytest.mark.parametrize(
        "cut, event, column",
        [
            (0, 0, "rank"), (6, 1, "rank"), (9, 1, "kind"), (14, 1, "name"), (20, 0, "t"), (33, 1, "t"),
            (35, 1, "bytes presence"), (40, 1, "bytes"), (45, 1, "peer presence"), (49, 1, "peer"),
        ],
    )
    def test_a_short_body_names_the_first_event_missing(self, tmp_path, cut, event, column):
        path, data, starts = _body_file(tmp_path)
        path.write_bytes(data[:starts["rank"] + cut])
        with pytest.raises(TraceParseError, match=f"^event {event}: {column}: the file ends$"):
            read_trace(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            # event 0 said to have bytes: the bytes column needs 16 bytes where the file holds 14 after it
            (("bytes presence", 0, 1), "^event 1: bytes: the file ends$"),
            # event 1 said to have none: the peer presence column starts inside the value 8
            (("bytes presence", 1, 0), "^event 0: peer presence: byte 8 is neither 0 nor 1$"),
            # event 0 said to have a peer: the file ends 4 bytes early
            (("peer presence", 0, 1), "^event 1: peer: the file ends$"),
            # event 1 said to have no peer: its 4 bytes are left over
            (("peer presence", 1, 0), "^event 2: peer: 4 bytes after the last event$"),
        ],
        ids=["bytes-added", "bytes-dropped", "peer-added", "peer-dropped"],
    )
    def test_a_presence_byte_decides_how_long_the_body_is(self, tmp_path, change, message):
        path, data, starts = _body_file(tmp_path)
        column, event, value = change
        data[starts[column] + event] = value
        path.write_bytes(data)
        with pytest.raises(TraceParseError, match=message):
            read_trace(path)

    def test_the_events_in_the_header_decide_where_each_column_starts(self, tmp_path):
        path, data, starts = _body_file(tmp_path)
        header = data[:data.index(b"\n")]
        path.write_bytes(header.replace(b'"events": 2', b'"events": 3') + data[len(header):])
        with pytest.raises(TraceParseError, match="^event "):
            read_trace(path)


class TestBadHeader:
    @pytest.mark.parametrize(
        "header",
        [
            '{"format": "pitlab-trace", "version": 1, "num_ranks": 2}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 2, "names": ["x", "y"]}',
            '{"format": "pitlab-trace", "version": 4, "num_ranks": 2, "names": ["x", "y"], "events": 0}',
            '{"format": "pitlab-trace", "version": 3.0, "num_ranks": 2, "names": ["x", "y"], "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": "xy", "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", 1], "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", "x"], "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 0, "names": ["x", "y"], "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": true, "names": ["x", "y"], "events": 0}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", "y"]}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", "y"], "events": -1}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", "y"], "events": true}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", "y"], "events": 1.0}',
            '{"format": "other", "version": 3, "num_ranks": 2, "names": ["x", "y"], "events": 0}',
            '["x", "y"]',
            "",
        ],
        ids=["version-1", "version-2", "version-4", "float-version", "names-text", "int-name", "repeated-name",
             "no-names", "zero-ranks", "bool-ranks", "no-events", "negative-events", "bool-events",
             "float-events", "other-format", "list", "empty-file"],
    )
    def test_a_bad_header_is_refused(self, header, tmp_path):
        path = tmp_path / "header.trc"
        path.write_text(f"{header}\n" if header else "")
        with pytest.raises(TraceParseError, match="^line 1: bad header: "):
            read_trace(path)

    def test_a_header_without_its_newline_is_refused(self, tmp_path):
        path = tmp_path / "header.trc"
        path.write_text('{"format": "pitlab-trace", "version": 3, "num_ranks": 1, "names": [], "events": 0}')
        with pytest.raises(TraceParseError, match="^line 1: bad header: no newline at its end$"):
            read_trace(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "pitlab-trace", "version": 1, "num_ranks": 1}\n'
            '{"rank": 0, "kind": "region-enter", "name": "x", "t": 0.5}\n',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 1, "names": ["x"]}\n'
            "0\tregion-enter\t0\t0.5\t\t\n",
        ],
        ids=["format-1", "format-2"],
    )
    def test_an_older_format_asks_for_a_new_recording(self, tmp_path, text):
        path = tmp_path / "old.trc"
        path.write_text(text)
        version = json.loads(text.splitlines()[0])["version"]
        with pytest.raises(TraceParseError, match=f"^line 1: bad header: version {version}; .* record the run again$"):
            read_trace(path)


class TestMerge:
    def test_merge_sorts_by_time_then_rank_stably(self):
        c0, c1 = FakeClock(), FakeClock()
        t0, t1 = Tracer(0, clock=c0), Tracer(1, clock=c1)
        t1.record_region("REGION -- PREDICT -- 1", "enter")
        t0.record_region("REGION -- PREDICT -- 0", "enter")
        c0.advance(1.0)
        c1.advance(2.0)
        t0.record_region("REGION -- PREDICT -- 0", "exit")
        t1.record_region("REGION -- PREDICT -- 1", "exit")
        for tracers in ([t0, t1], [t1, t0]):
            merged = merge_tracers(tracers)
            assert [(e.t, e.rank) for e in merged.events] == [(0.0, 0), (0.0, 1), (1.0, 0), (2.0, 1)]


class TestProfile:
    def test_single_region_run_is_pure_computation(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 2.0),
            ],
            1,
        )
        stats = build_profile(trace).ranks[0]
        assert stats.runtime == pytest.approx(2.0)
        assert stats.computation == pytest.approx(2.0)
        assert stats.communication == 0.0

    def test_blocked_recv_counts_as_communication(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "recv-post", "fine/value/1", 1.0, 0, 1),
                ev(0, "recv-complete", "fine/value/1", 1.5, 64, 1),
                ev(0, "region-exit", "REGION -- IT_FINE -- 0", 2.0),
            ],
            1,
        )
        stats = build_profile(trace).ranks[0]
        assert stats.communication == pytest.approx(0.5)
        assert stats.computation == pytest.approx(1.5)
        assert stats.bytes_received == 64

    def test_conservation_exclusive_plus_untracked(self):
        clock = FakeClock()
        tracer = Tracer(0, clock=clock)
        clock.advance(0.25)
        with tracer.region("REGION -- PREDICT -- 0"):
            clock.advance(1.0)
        clock.advance(0.5)  # untracked gap
        with tracer.region("REGION -- IT_FINE -- 0"):
            clock.advance(2.0)
            with tracer.region("REGION -- IT_CHECK -- 0"):
                clock.advance(1.0)
        profile = build_profile(merge_tracers([tracer]))
        stats = profile.ranks[0]
        exclusive = sum(reg.exclusive for (r, _), reg in profile.regions.items() if r == 0)
        assert abs(exclusive + stats.untracked - stats.runtime) <= 1e-9
        assert stats.untracked == pytest.approx(0.5)

    def test_unbalanced_nesting_raises(self):
        trace = make_trace(
            [
                ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
                ev(0, "region-exit", "REGION -- IT_DOWN -- 0", 1.0),
            ],
            1,
        )
        with pytest.raises(StructuralError):
            build_profile(trace)

    def test_per_rank_timestamps_nondecreasing_in_real_runs(self, monkeypatch):
        # the merge sorts by time, so only the buffers as recorded can
        # show a rank's clock going backwards
        from pitlab import trace as tracing
        from pitlab.controller import dahlquist_config, run

        buffers = []

        def capture(tracers):
            buffers.extend(list(t.events) for t in tracers)
            return merge_tracers(tracers)

        monkeypatch.setattr(tracing, "merge_tracers", capture)
        # a rendezvous send's completion is back-dated to its hand-shake
        runs = [(dahlquist_config(2, 0.1), "serial"), (dahlquist_config(2, 0.1, rendezvous_bytes=0), "parallel")]
        for cfg, mode in runs:
            buffers.clear()
            result = run(cfg, mode=mode)
            assert [b[0].rank for b in buffers] == [0, 1]
            for rank, buffer in enumerate(buffers):
                times = [e.t for e in buffer]
                assert times == sorted(times)
                assert [e for e in result.trace.events if e.rank == rank] == buffer
