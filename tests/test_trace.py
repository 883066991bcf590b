import pytest

from conftest import ev, make_trace
from pitlab.trace import (
    PHASES,
    StructuralError,
    Trace,
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
        merged = merge_tracers([t0, t1])
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
