import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import ev, fig5_trace, make_trace, pop_hand_trace, synthetic_trace
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

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.trc"
        write_trace(make_trace([ev(0, "region-enter", "x", 0.0)], 1), path)
        with open(path, "a") as fh:
            fh.write("not json\n")
        with pytest.raises(TraceParseError, match="line 3"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.trc"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace(path)

    @pytest.mark.parametrize("line", [1, 2, 1500], ids=["header", "first-event", "past-the-first-chunk"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "latin.trc"
        write_trace(synthetic_trace(6, 24, 3), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceParseError, match=rf"^line {line}: {re.escape(str(path))} is not UTF-8"):
            read_trace(path)


def ref_write_trace(trace, path):
    """Format v2 written the plain way: json.dumps for the header, one
    write per event, each name's id looked up in the header's list."""
    names = list(dict.fromkeys(e.name for e in trace.events))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {"format": FORMAT_NAME, "version": 2, "num_ranks": trace.num_ranks, "names": names}
        fh.write(json.dumps(header) + "\n")
        for e in trace.events:
            cells = [e.rank, e.kind, names.index(e.name), float.__repr__(e.t), e.bytes, e.peer]
            fh.write("\t".join("" if cell is None else str(cell) for cell in cells) + "\n")
    return path


def escapes_trace():
    """Names that need escapes, non-finite, subnormal and subclassed
    times, a large int, and the values the writer refuses: bools, names
    that are not strings, an int time and an unknown kind."""
    events = [
        ev(0, "region-enter", 'say "hi" \\ back\tslash\n', 0.1),
        ev(0, "region-exit", "Zeit \u00fcber \u2192 \U0001f600 \x7f \x00", 1e300),
        ev(0, "send-post", "nan", math.nan, 8, 1),
        ev(0, "send-complete", "inf", math.inf, 8, 1),
        ev(1, "recv-post", "-inf", -math.inf, 0, 0),
        ev(1, "recv-complete", "bool bytes", 0.5, True, 0),
        ev(1, "send-post", "bool peer", 0.5, 8, False),
        ev(1, "send-complete", "big", 0.75, 2**70, -1),
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


def _typed(event):
    """Whether the writer takes the event: an int rank, bytes and peer (or
    none), where a bool is not an int, a str name, a known kind, a float time."""
    return (
        type(event.name) is str and event.kind in KINDS and isinstance(event.t, float)
        and all(type(value) is int for value in (event.rank, event.bytes, event.peer) if value is not None)
    )


class TestWriterReaderOracle:
    @pytest.mark.parametrize(
        "build",
        [
            pop_hand_trace,
            fig5_trace,
            lambda: synthetic_trace(6, 24, 3),  # 2,316 events: three write chunks
            lambda: run(dahlquist_config(4, 0.1), mode="serial").trace,
            escapes_trace,
        ],
        ids=["hand", "fig5", "synthetic", "dahlquist", "escapes"],
    )
    def test_typed_events_round_trip_and_untyped_ones_leave_no_file(self, build, tmp_path):
        trace = build()
        typed = [event for event in trace.events if _typed(event)]
        assert len(trace.events) - len(typed) == (7 if build is escapes_trace else 0)
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
    def test_an_event_line_holds_no_name(self, p32_trace_path):
        # a line is rank (2 digits), kind (13 at most), name id (3 digits
        # for 316 names), time (18: 17 significant digits and the point),
        # bytes (3), peer (2) and six separators, 47 bytes at most; the
        # header adds under one byte per event
        events = len(read_trace(p32_trace_path).events)
        assert events == 15_392
        assert p32_trace_path.stat().st_size <= 48 * events


HEADER = '{"format": "pitlab-trace", "version": 2, "num_ranks": 2, "names": ["x", "y"]}\n'
GOOD = "0\tregion-enter\t0\t0.5\t\t\n"
CELLS = {"rank": 0, "kind": 1, "name": 2, "t": 3, "bytes": 4, "peer": 5}
TYPED = ["1", "send-post", "1", "0.75", "8", "0"]


class TestTypedRecords:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "bogus"), ("kind", "0"), ("kind", " send-post"),
            ("name", "2"), ("name", "-1"), ("name", "x"), ("name", "01"), ("name", "+1"), ("name", ""),
            *[(field, value) for field in ("rank", "bytes", "peer") for value in ("1.0", "true", "+1", "1_0", " 1")],
            ("rank", ""), ("rank", "01"), ("rank", "-0"), ("rank", "\u0661"),
            ("t", "x"), ("t", "1_0"), ("t", " 0.5"), ("t", "0.5 "), ("t", ""), ("t", "\u0661.5"), ("t", "0x1p-1"),
        ],
    )
    def test_a_bad_cell_names_its_line(self, field, value, tmp_path):
        cells = list(TYPED)
        cells[CELLS[field]] = value
        path = tmp_path / "typed.trc"
        path.write_text(HEADER + GOOD + "\t".join(cells) + "\n", encoding="utf-8")
        with pytest.raises(TraceParseError, match="^line 3: "):
            read_trace(path)

    def test_int_time_and_empty_bytes_and_peer_are_taken(self, tmp_path):
        path = tmp_path / "typed.trc"
        path.write_text(HEADER + "0\trecv-post\t0\t2\t\t\n" + "\t".join(TYPED) + "\n")
        first, second = read_trace(path).events
        assert (first.t, type(first.t), first.bytes, first.peer) == (2.0, float, None, None)
        assert second == TraceEvent(1, "send-post", "y", 0.75, 8, 0)

    @pytest.mark.parametrize(
        "body",
        [
            f"{GOOD}0\tregion-enter\t0\t0.5\t\n",
            f"{GOOD}0\tregion-enter\t0\t0.5\t\t\t\n",
            f"{GOOD}\n",
            f"{GOOD}{GOOD[:-1]}{GOOD}",
            f"{GOOD}{GOOD[:-1]}\r\n",
            f"{GOOD}\ufeff{GOOD}",
            f"{GOOD}{GOOD[:-1]}",
            GOOD + "\t".join(TYPED),
            f'{GOOD}{{"rank": 0, "kind": "region-enter", "name": "x", "t": 0.5}}\n',
        ],
        ids=["five-cells", "seven-cells", "blank", "two-records", "crlf", "bom", "no-final-newline",
             "no-final-newline-after-a-digit", "format-1-line"],
    )
    def test_a_bad_line_names_its_number(self, body, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text(HEADER + body, encoding="utf-8", newline="")
        with pytest.raises(TraceParseError, match="^line 3: "):
            read_trace(path)

    @pytest.mark.parametrize(
        "header",
        [
            '{"format": "pitlab-trace", "version": 1, "num_ranks": 2}',
            '{"format": "pitlab-trace", "version": 3, "num_ranks": 2, "names": ["x", "y"]}',
            '{"format": "pitlab-trace", "version": 2.0, "num_ranks": 2, "names": ["x", "y"]}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 2, "names": "xy"}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 2, "names": ["x", 1]}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 2, "names": ["x", "x"]}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 2}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 0, "names": ["x", "y"]}',
            '{"format": "pitlab-trace", "version": 2, "num_ranks": true, "names": ["x", "y"]}',
            '{"format": "other", "version": 2, "num_ranks": 2, "names": ["x", "y"]}',
            '["x", "y"]',
            "",
        ],
        ids=["version-1", "version-3", "float-version", "names-text", "int-name", "repeated-name", "no-names",
             "zero-ranks", "bool-ranks", "other-format", "list", "empty-file"],
    )
    def test_a_bad_header_is_refused(self, header, tmp_path):
        path = tmp_path / "header.trc"
        path.write_text(f"{header}\n{GOOD}" if header else "")
        with pytest.raises(TraceParseError, match="^line 1: bad header: "):
            read_trace(path)

    def test_a_format_1_file_asks_for_a_new_recording(self, tmp_path):
        path = tmp_path / "v1.trc"
        path.write_text(
            '{"format": "pitlab-trace", "version": 1, "num_ranks": 1}\n'
            '{"rank": 0, "kind": "region-enter", "name": "x", "t": 0.5}\n'
        )
        with pytest.raises(TraceParseError, match="^line 1: bad header: version 1; .* record the run again$"):
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
