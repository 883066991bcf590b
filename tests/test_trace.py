import json
import math
import re

import numpy as np
import pytest

from conftest import ev, fig5_trace, make_trace, pop_hand_trace, synthetic_trace
from pitlab.controller import dahlquist_config, run
from pitlab.trace import (
    FORMAT_NAME,
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
        path = tmp_path / "t.trc.jsonl"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.num_ranks == 2
        assert back.events == trace.events

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.trc.jsonl"
        write_trace(Trace(events=[], num_ranks=3), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert read_trace(path).events == []

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.trc.jsonl"
        write_trace(make_trace([ev(0, "region-enter", "x", 0.0)], 1), path)
        with open(path, "a") as fh:
            fh.write("not json\n")
        with pytest.raises(TraceParseError, match="line 3"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.trc.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace(path)

    @pytest.mark.parametrize("line", [1, 2, 1500], ids=["header", "first-event", "past-the-first-chunk"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "latin.trc.jsonl"
        write_trace(synthetic_trace(6, 24, 3), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceParseError, match=rf"^line {line}: {re.escape(str(path))} is not UTF-8"):
            read_trace(path)


def ref_write_trace(trace, path):
    """The writer the preformatted one replaced: one json.dumps per event."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": FORMAT_NAME, "version": 1, "num_ranks": trace.num_ranks}) + "\n")
        for e in trace.events:
            record = {"rank": e.rank, "kind": e.kind, "name": e.name, "t": e.t}
            if e.bytes is not None:
                record["bytes"] = e.bytes
            if e.peer is not None:
                record["peer"] = e.peer
            fh.write(json.dumps(record) + "\n")
    return path


def ref_read_trace(path):
    """The reader the raw-decode one replaced: one json.loads per line."""
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


def escapes_trace():
    """Names that need escapes, non-finite and subclassed times, bools,
    a large int and names that are not strings: the values the writer
    hands to json.dumps."""
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
    ]
    return Trace(events=events, num_ranks=3)


def _typed(event):
    """Whether the reader takes the event's record: a string name and int
    rank, bytes and peer (or none), where a bool is not an int."""
    return type(event.name) is str and all(
        type(value) is int for value in (event.rank, event.bytes, event.peer) if value is not None
    )


GOOD = '{"rank": 0, "kind": "region-enter", "name": "x", "t": 0.5}'


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
    def test_files_and_events_equal_the_reference(self, build, tmp_path):
        trace = build()
        new, ref = tmp_path / "new.trc.jsonl", tmp_path / "ref.trc.jsonl"
        write_trace(trace, new)
        ref_write_trace(trace, ref)
        assert new.read_bytes() == ref.read_bytes()
        # the reader takes the typed records as the reference does, and
        # names the line of each record with a bool or a non-string name
        header, *lines = new.read_text().rstrip("\n").split("\n")
        typed = [_typed(event) for event in trace.events]
        assert typed.count(False) == (5 if build is escapes_trace else 0)
        good = tmp_path / "good.trc.jsonl"
        good.write_text("".join(f"{line}\n" for line, ok in zip([header] + lines, [True] + typed) if ok))
        back = read_trace(good)
        assert back.num_ranks == trace.num_ranks
        assert repr(back.events) == repr(ref_read_trace(good).events)  # repr: NaN != NaN
        for i, ok in enumerate(typed):
            if not ok:
                before = [line for line, kept in zip(lines[:i], typed) if kept]
                bad = tmp_path / "bad.trc.jsonl"
                bad.write_text("".join(f"{line}\n" for line in [header, *before, lines[i]]))
                with pytest.raises(TraceParseError, match=rf"^line {len(before) + 2}: "):
                    read_trace(bad)

    @pytest.mark.parametrize(
        "body",
        [
            f"{GOOD}\n \t\n\x0b\n{GOOD} \t\r\n\r{GOOD}\n",
            f"{GOOD}\n{GOOD}",
        ],
        ids=["whitespace", "no-final-newline"],
    )
    def test_accepts_what_json_loads_accepts(self, body, tmp_path):
        path = tmp_path / "t.trc.jsonl"
        path.write_text('{"format": "pitlab-trace", "version": 1, "num_ranks": 1}\n' + body)
        assert read_trace(path).events == ref_read_trace(path).events != []

    @pytest.mark.parametrize(
        "body",
        [
            f"{GOOD}\n{GOOD}{GOOD}\n",
            f'{GOOD}\n{{"rank": 0, "kind": "region-enter",\n"name": "x", "t": 0.5}}\n',
            f'{{"rank": 0, "kind": "a",\n"name": "x", "t": 0.5}}\n{GOOD}{GOOD}\n',
            f"{GOOD}\n{GOOD} x\n",
            f"{GOOD}\n\x0b{GOOD}\n",
            f"{GOOD}\n{GOOD}\x0c\n",
            f"{GOOD}\n\ufeff{GOOD}\n",
            f'{GOOD}\n{{"rank": 0, "kind": "region-enter", "t": 0.5}}\n',
            f'{GOOD}\n{{"rank": "zero", "kind": "region-enter", "name": "x", "t": 0.5}}\n',
            f'{GOOD}\n{{"rank": 0, "kind": "region-enter", "name": "x", "t": [0.5]}}\n',
            f"{GOOD}\n[0, 1]\n",
        ],
        ids=[
            "two-records", "split-record", "split-then-two", "trailing-garbage", "leading-vt",
            "trailing-ff", "bom", "missing-key", "wrong-type", "list-time", "not-an-object",
        ],
    )
    def test_rejects_the_line_json_loads_rejects(self, body, tmp_path):
        path = tmp_path / "bad.trc.jsonl"
        path.write_text('{"format": "pitlab-trace", "version": 1, "num_ranks": 1}\n' + body)
        with pytest.raises(TraceParseError) as ref:
            ref_read_trace(path)
        with pytest.raises(TraceParseError) as new:
            read_trace(path)
        assert str(new.value).split(":")[0] == str(ref.value).split(":")[0]


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


TYPED_RECORD = {"rank": "0", "kind": '"send-post"', "name": '"x"', "t": "0.5", "bytes": "8", "peer": "1"}


class TestTypedRecords:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", '"bogus"'), ("kind", "1"), ("name", "1"), ("name", "true"), ("name", "null"),
            ("rank", "true"), ("rank", "1.0"), ("rank", '"1"'), ("t", "false"), ("t", '"0.5"'),
            ("bytes", "true"), ("bytes", '"8"'), ("bytes", "8.0"), ("peer", "false"), ("peer", "[1]"),
        ],
    )
    def test_a_badly_typed_field_names_its_line(self, field, value, tmp_path):
        record = dict(TYPED_RECORD, **{field: value})
        path = tmp_path / "typed.trc.jsonl"
        line = "{" + ", ".join(f'"{key}": {text}' for key, text in record.items()) + "}"
        path.write_text(f'{{"format": "pitlab-trace", "version": 1, "num_ranks": 2}}\n{GOOD}\n{line}\n')
        with pytest.raises(TraceParseError, match="^line 3: "):
            read_trace(path)

    def test_int_time_and_null_bytes_and_peer_are_taken(self, tmp_path):
        path = tmp_path / "typed.trc.jsonl"
        path.write_text(
            '{"format": "pitlab-trace", "version": 1, "num_ranks": 1}\n'
            '{"rank": 0, "kind": "recv-post", "name": "x", "t": 2, "bytes": null, "peer": null}\n'
            + "{" + ", ".join(f'"{key}": {text}' for key, text in TYPED_RECORD.items()) + "}\n"
        )
        first, second = read_trace(path).events
        assert (first.t, type(first.t), first.bytes, first.peer) == (2.0, float, None, None)
        assert second == TraceEvent(0, "send-post", "x", 0.5, 8, 1)


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
