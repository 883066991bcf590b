import json
import re
import struct
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

from conftest import fig5_trace, pop_hand_trace
from pitlab.analysis import pop_metrics
from pitlab.comm import DEFAULT_RENDEZVOUS_BYTES
from pitlab.controller import allen_cahn_config, dahlquist_config, format_summary, run_sdc_serial
from pitlab.trace import Trace, read_trace, write_trace

MAKESPAN_LINE = re.compile(r"^makespan: (\S+) s measured, (\S+) s ideal replay$", re.M)
TIME_LINE = re.compile(r"^Time to solution: ([-+0-9.eE]+) sec\.$", re.M)
ITER_LINE = re.compile(r"^Mean number of iterations: ([-+0-9.eE]+)$", re.M)
WINDOW_LINE = re.compile(r"^window: (.*)$", re.M)
DELETE = object()  # a header change that removes the field


def pitlab(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pitlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestRunCommand:
    def test_dahlquist_run_prints_summary_and_writes_trace(self, tmp_path):
        trace_path = tmp_path / "run.trc"
        proc = pitlab(
            "run", "--problem", "dahlquist", "--steps", "4",
            "--dt", "0.1", "--trace-out", str(trace_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert TIME_LINE.search(proc.stdout)
        assert ITER_LINE.search(proc.stdout)
        trace = read_trace(trace_path)
        assert trace.num_ranks == 4
        assert len(trace.events) > 0

    def test_trace_dir_env_var(self, tmp_path):
        import os

        env = dict(os.environ, PITLAB_TRACE_DIR=str(tmp_path / "traces"))
        proc = pitlab(
            "run", "--problem", "dahlquist", "--steps", "2",
            "--dt", "0.1", "--mode", "serial", env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "traces" / "dahlquist-pfasst-serial-p2.trc").exists()

    def test_seed_reproducibility(self, tmp_path):
        outs = []
        for i in range(2):
            proc = pitlab(
                "run", "--problem", "allen-cahn", "--steps", "2",
                "--dt", "1e-3", "--grid", "32", "--coarse-grid", "8", "--seed", "9",
                "--radius", "0.2", "--trace-out", str(tmp_path / f"t{i}.trc"),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(ITER_LINE.search(proc.stdout).group(1))
        assert outs[0] == outs[1]

    def test_unknown_flag_is_usage_error(self):
        proc = pitlab("run", "--does-not-exist", "1")
        assert proc.returncode == 2

    def test_divergence_exit_code(self, tmp_path):
        proc = pitlab(
            "run", "--problem", "dahlquist", "--steps", "2",
            "--dt", "0.5", "--lambda-implicit", "0", "--lambda-explicit", "40",
            "--trace-out", str(tmp_path / "t.trc"),
        )
        assert proc.returncode == 3
        assert "failed" in proc.stderr

    def test_many_nodes_converge(self, tmp_path):
        # Q stays exact at 64 nodes, where a monomial Vandermonde build diverged
        proc = pitlab("run", "--num-nodes", "64", "--trace-out", str(tmp_path / "t.trc"))
        assert proc.returncode == 0, proc.stderr
        assert ITER_LINE.search(proc.stdout).group(1) == "2.500000"

    def test_sdc_scheme_runs_serial_baseline(self, tmp_path):
        proc = pitlab(
            "run", "--problem", "dahlquist", "--scheme", "sdc", "--steps", "4",
            "--dt", "0.1", "--trace-out", str(tmp_path / "t.trc"),
        )
        assert proc.returncode == 0, proc.stderr
        assert TIME_LINE.search(proc.stdout)

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "steps = 2\ndt = 0.1\nmode = serial\nproblem = dahlquist\n"
            "lambda_implicit = -3\nfine-sweeps = 2\n"
        )
        proc = pitlab(
            "run", "--config", str(cfg), "--trace-out", str(tmp_path / "a.trc")
        )
        assert proc.returncode == 0, proc.stderr
        trace = read_trace(tmp_path / "a.trc")
        assert trace.num_ranks == 2
        # a negative value and a hyphenated key act as the flags they name
        flags = pitlab(
            "run", "--steps", "2", "--dt", "0.1", "--mode", "serial",
            "--lambda-implicit", "-3", "--fine-sweeps", "2", "--trace-out", str(tmp_path / "c.trc"),
        )
        assert flags.returncode == 0, flags.stderr
        assert ITER_LINE.search(proc.stdout).group(0) == ITER_LINE.search(flags.stdout).group(0)
        assert len(trace.events) == len(read_trace(tmp_path / "c.trc").events)
        # explicit flag overrides the file
        proc = pitlab(
            "run", "--config", str(cfg), "--steps", "3",
            "--trace-out", str(tmp_path / "b.trc"),
        )
        assert proc.returncode == 0, proc.stderr
        assert read_trace(tmp_path / "b.trc").num_ranks == 3

    @pytest.mark.parametrize(
        "args, factory",
        [
            (["--steps", "4", "--dt", "0.1", "--lambda-implicit", "-3"],
             lambda: dahlquist_config(4, 0.1, lambda_implicit=-3.0)),
            # a fine grid below the unused default coarse grid
            (["--problem", "allen-cahn", "--grid", "16", "--steps", "2", "--dt", "1e-3", "--radius", "0.2"],
             lambda: allen_cahn_config(2, 1e-3, n=16, coarse_n=16, radius=0.2)),
        ],
        ids=["dahlquist", "allen-cahn"],
    )
    def test_sdc_scheme_matches_the_library_call(self, args, factory, tmp_path):
        proc = pitlab("run", "--scheme", "sdc", *args, "--trace-out", str(tmp_path / "t.trc"))
        assert proc.returncode == 0, proc.stderr
        cfg = factory()
        result = run_sdc_serial(
            cfg.pair.fine_problem, cfg.pair.fine_table, cfg.u0, cfg.dt, cfg.num_steps,
            tolerance=cfg.tolerance, max_sweeps=cfg.max_iterations,
        )
        assert ITER_LINE.search(proc.stdout).group(0) == format_summary(result)[1]

    @pytest.mark.parametrize(
        "config, args",
        [
            ("scheme = sdcc", []),
            ("problem = alen-cahn", []),
            ("implicit = lux", []),
            ("tolerance = 1e-2", []),
            ("mode = Serial", []),
            ("steps 2", []),
            (None, ["--config", "{tmp}/missing.cfg"]),
            (None, ["--tol", "-1"]),
            (None, ["--fine-sweeps", "0"]),
            (None, ["--problem", "allen-cahn", "--grid", "12"]),
            (None, ["--problem", "allen-cahn", "--steps", "2", "--dt", "-0.001", "--grid", "32", "--coarse-grid", "8"]),
            (None, ["--dt", "0"]),
            (None, ["--dt", "-0.1"]),
            (None, ["--dt", "nan"]),
            (None, ["--dt", "inf"]),
            (None, ["--scheme", "sdc", "--dt", "0"]),
            (None, ["--problem", "allen-cahn", "--grid", "16", "--coarse-grid", "8", "--lpatches", "0"]),
            (None, ["--max-iters", "0"]),
            (None, ["--latency", "-1"]),
            (None, ["--latency", "nan"]),
            (None, ["--tol", "nan"]),
            (None, ["--lambda-implicit", "nan"]),
            (None, ["--lambda-explicit", "nan"]),
            (None, ["--problem", "allen-cahn", "--grid", "16", "--coarse-grid", "8", "--dt", "0.001", "--eps", "nan"]),
            # -2/eps^2 overflows, or eps^2 underflows to 0
            (None, ["--problem", "allen-cahn", "--grid", "16", "--coarse-grid", "8", "--dt", "0.001", "--eps", "1e300"]),
            (None, ["--problem", "allen-cahn", "--grid", "16", "--coarse-grid", "8", "--dt", "0.001", "--eps", "1e-200"]),
            (None, ["--problem", "allen-cahn", "--grid", "16", "--coarse-grid", "8", "--dt", "0.001", "--radius", "nan"]),
            (None, ["--problem", "allen-cahn", "--grid", "16", "--coarse-grid", "8", "--dt", "0.001", "--radius", "-1"]),
            (None, ["--rendezvous-bytes", "-7"]),
            (None, ["--mode", "serial", "--latency", "0.5"]),
            (None, ["--mode", "serial", "--rendezvous-bytes", "0"]),
            (None, ["--scheme", "sdc", "--latency", "0.001"]),
            (None, ["--scheme", "sdc", "--rendezvous-bytes", "64"]),
            ("mode = serial\nlatency = 0.5", []),
        ],
    )
    def test_bad_input_is_one_usage_error(self, config, args, tmp_path):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            args = ["--config", "{tmp}/run.cfg"]
        args = [arg.format(tmp=tmp_path) for arg in args]
        proc = pitlab("run", *args, "--trace-out", str(tmp_path / "t.trc"))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert len([line for line in proc.stderr.splitlines() if "error" in line]) == 1, proc.stderr
        assert not (tmp_path / "t.trc").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--mode", "serial", "--latency", "0.5"],
             "--latency 0.5 acts only on PFASST with --mode parallel; "
             "the serial model sends every message eagerly and at once"),
            (["--scheme", "sdc", "--rendezvous-bytes", "64"],
             "--rendezvous-bytes 64 acts only on PFASST with --mode parallel; the sdc baseline sends no messages"),
        ],
        ids=["serial", "sdc"],
    )
    def test_transport_options_name_the_parallel_model(self, tmp_path, args, message):
        proc = pitlab("run", *args, "--trace-out", str(tmp_path / "t.trc"))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.splitlines() == [f"usage error: {message}"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "serial", "--latency", "0", "--rendezvous-bytes", str(DEFAULT_RENDEZVOUS_BYTES)],
            ["--scheme", "sdc", "--latency", "0.0"],
            ["--mode", "parallel", "--latency", "0.0001", "--rendezvous-bytes", "0"],
        ],
        ids=["serial-defaults", "sdc-zero-latency", "parallel"],
    )
    def test_transport_defaults_are_taken_in_every_model(self, tmp_path, args):
        proc = pitlab("run", "--steps", "2", *args, "--trace-out", str(tmp_path / "t.trc"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_uncreatable_trace_directory_is_a_usage_error_before_the_run(self, tmp_path):
        (tmp_path / "file").write_text("")
        proc = pitlab("run", "--trace-out", str(tmp_path / "file" / "sub" / "t.trc"))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""  # no summary: the run never started
        assert proc.stderr.splitlines() == [proc.stderr.strip()] and proc.stderr.startswith("usage error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--steps", "2"],
            # a run that diverges (exit 3) shows that the path is refused before the run
            ["--problem", "dahlquist", "--steps", "2", "--dt", "0.5",
             "--lambda-implicit", "0", "--lambda-explicit", "40"],
        ],
        ids=["converging", "diverging"],
    )
    def test_existing_directory_as_trace_out_is_a_usage_error_before_the_run(self, tmp_path, args):
        proc = pitlab("run", *args, "--trace-out", str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert not TIME_LINE.search(proc.stdout)  # the run never started
        assert proc.stderr.splitlines() == [f"usage error: trace path {tmp_path} is a directory"]

    def test_help_shows_each_default(self):
        proc = pitlab("run", "--help")
        assert proc.returncode == 0
        text = " ".join(proc.stdout.split())
        for flag, default in [
            ("--steps", "4"), ("--dt", "0.1"), ("--tol", "1e-08"), ("--lambda-implicit", "-1.0"),
            ("--grid", "128"), ("--rendezvous-bytes", str(DEFAULT_RENDEZVOUS_BYTES)),
        ]:
            assert re.search(rf"{flag} \S+ [^(]*\(default: {re.escape(default)}\)", text), flag


class TestAnalyzeCommand:
    def test_pop_csv_from_hand_trace(self, tmp_path):
        path = tmp_path / "hand.trc"
        write_trace(pop_hand_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--pop", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        content = (tmp_path / "pop.csv").read_text()
        assert "parallel_efficiency,0.700" in content
        assert "messages:" in proc.stdout

    def test_profile_summary_from_hand_trace(self, tmp_path):
        path = tmp_path / "hand.trc"
        write_trace(pop_hand_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--pop", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        # two fine sweeps, 8 s on rank 0 and 5 s on rank 1, nothing nested
        assert re.search(r"^\s*IT_FINE\s+2\s+13\.000000\s+13\.000000$", proc.stdout, re.M)
        assert proc.stdout.index("messages:") < proc.stdout.index("IT_FINE") < proc.stdout.index("POP report")

    @pytest.mark.parametrize("full_run", [False, True], ids=["last-phase", "full-run"])
    def test_pop_prints_the_measured_and_the_replayed_makespan(self, tmp_path, full_run):
        path = tmp_path / "run.trc"
        proc = pitlab("run", "--steps", "4", "--mode", "serial", "--trace-out", str(path))
        assert proc.returncode == 0, proc.stderr
        flags = ["--full-run"] if full_run else []
        proc = pitlab("analyze", "--trace", str(path), "--pop", *flags, "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = pop_metrics(read_trace(path), full_run=full_run)
        assert MAKESPAN_LINE.findall(proc.stdout) == [(f"{report.total_runtime:.6f}", f"{report.ideal_runtime:.6f}")]
        assert proc.stdout.index("POP report") < proc.stdout.index("makespan:")

    @pytest.mark.parametrize("full_run", [False, True], ids=["last-phase", "full-run"])
    def test_pop_prints_how_many_ranks_the_window_covers(self, tmp_path, full_run):
        # in the serial model the last rank's predictor ends after every
        # other rank's last event, so the default window holds that rank alone
        path = tmp_path / "run.trc"
        proc = pitlab("run", "--steps", "8", "--mode", "serial", "--trace-out", str(path))
        assert proc.returncode == 0, proc.stderr
        flags = ["--full-run"] if full_run else []
        proc = pitlab("analyze", "--trace", str(path), "--pop", *flags, "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        expected = "8 of 8 ranks have events" if full_run else "1 of 8 ranks have events; --full-run covers every rank"
        assert WINDOW_LINE.findall(proc.stdout) == [expected]
        assert proc.stdout.index("makespan:") < proc.stdout.index("window:")

    def test_wait_states_from_fig5_trace(self, tmp_path):
        path = tmp_path / "fig5.trc"
        write_trace(fig5_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--wait-states", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "waitstates.csv").read_text().splitlines()
        assert lines[1].startswith("late-receiver,0,1,3.000000")

    @pytest.mark.parametrize("min_wait", ["nan", "inf", "-inf", "-1"])
    def test_unusable_min_wait_is_a_usage_error(self, tmp_path, min_wait):
        # NaN used to empty the report silently: no wait compares >= NaN
        path = tmp_path / "fig5.trc"
        write_trace(fig5_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--wait-states", f"--min-wait={min_wait}",
                      "--out-dir", str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr and "--min-wait" in proc.stderr
        assert not (tmp_path / "waitstates.csv").exists()

    @pytest.mark.parametrize("target", ["missing.trc", "."], ids=["missing", "directory"])
    def test_unopenable_trace_is_a_usage_error(self, tmp_path, target):
        proc = pitlab("analyze", "--trace", str(tmp_path / target), "--out-dir", str(tmp_path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()] and proc.stderr.startswith("usage error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line", [0], ids=["header"])
    def test_non_utf8_trace_exits_4_naming_file_and_line(self, tmp_path, line):
        # the body is binary, so only the header line is text
        path = tmp_path / "latin.trc"
        write_trace(pop_hand_trace(), path)
        path.write_bytes(b"\xff" + path.read_bytes())
        proc = pitlab("analyze", "--trace", str(path), "--out-dir", str(tmp_path))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"analysis error: line {line + 1}: {path} is not UTF-8")

    def test_structural_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.trc"
        bad.write_text("this is not a trace\n")
        proc = pitlab("analyze", "--trace", str(bad), "--pop")
        assert proc.returncode == 4
        assert "analysis error" in proc.stderr

    @pytest.mark.parametrize(
        "kind, column, value",
        [("region-exit", "name", 99), ("send-post", "bytes presence", 2), ("send-complete", "kind", 6)],
        ids=["unknown-name-id", "bad-presence-byte", "unknown-kind"],
    )
    def test_badly_typed_record_exits_4(self, tmp_path, kind, column, value):
        hand = pop_hand_trace()
        path = write_trace(hand, tmp_path / "typed.trc")
        data = bytearray(path.read_bytes())
        n, body = len(hand.events), data.index(b"\n") + 1
        i = next(i for i, e in enumerate(hand.events) if e.kind == kind)
        # the rank, kind, name and time columns take 4, 1, 4 and 8 bytes per event
        at = body + {"kind": 4 * n + i, "name": 5 * n + 4 * i, "bytes presence": 17 * n + i}[column]
        data[at] = value
        path.write_bytes(data)
        proc = pitlab("analyze", "--trace", str(path), "--out-dir", str(tmp_path))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"analysis error: event {i}: {column}: ")

    @pytest.mark.parametrize(
        "change",
        [
            None, {"num_ranks": 2.7}, {"num_ranks": True}, {"num_ranks": "4"}, {"num_ranks": 0}, {"version": 1},
            {"version": 2}, {"version": True}, {"version": DELETE}, {"names": "names"}, {"names": [1]},
            {"events": DELETE}, {"events": -1},
        ],
        ids=["list", "float-ranks", "bool-ranks", "string-ranks", "zero-ranks", "version-1", "version-2",
             "bool-version", "no-version", "names-text", "int-name", "no-events", "negative-events"],
    )
    def test_bad_header_exits_4(self, tmp_path, change):
        path = tmp_path / "header.trc"
        write_trace(pop_hand_trace(), path)
        header, newline, body = path.read_bytes().partition(b"\n")
        fields = json.loads(header)
        for key, value in (change or {}).items():
            fields.pop(key) if value is DELETE else fields.update({key: value})
        path.write_bytes(json.dumps(fields if change else [1]).encode() + newline + body)
        proc = pitlab("analyze", "--trace", str(path), "--out-dir", str(tmp_path))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("analysis error: line 1: bad header: ")

    @pytest.mark.parametrize("t", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_event_time_exits_4(self, tmp_path, t):
        hand = pop_hand_trace()
        i = next(i for i, e in enumerate(hand.events) if e.rank == 1 and e.kind == "region-exit")
        events = hand.events[:i] + [replace(hand.events[i], t=t)] + hand.events[i + 1:]
        path = write_trace(Trace(events=events, num_ranks=hand.num_ranks), tmp_path / "bad.trc")
        assert struct.pack("<d", t) in path.read_bytes()
        proc = pitlab("analyze", "--trace", str(path), "--out-dir", str(tmp_path))
        assert proc.returncode == 4, proc.stdout + proc.stderr
        assert proc.stderr.startswith(f"analysis error: rank 1: non-finite time t={t} in region-exit ")
        assert "POP report" not in proc.stdout and not (tmp_path / "pop.csv").exists()

    def test_unbalanced_trace_is_structural_error(self, tmp_path):
        path = tmp_path / "unbalanced.trc"
        # one event, so its columns follow each other: rank 0, region-enter,
        # name 0, t 0.0, and no bytes or peer
        path.write_bytes(
            b'{"format": "pitlab-trace", "version": 3, "num_ranks": 1, "names": ["REGION -- IT_FINE -- 0"], '
            b'"events": 1}\n' + struct.pack("<iBIdBB", 0, 0, 0, 0.0, 0, 0)
        )
        proc = pitlab("analyze", "--trace", str(path), "--pop")
        assert proc.returncode == 4
        assert "never exited" in proc.stderr

    def test_a_format_2_trace_exits_4_asking_for_a_new_recording(self, tmp_path):
        path = tmp_path / "v2.trc"
        path.write_text(
            '{"format": "pitlab-trace", "version": 2, "num_ranks": 1, "names": ["REGION -- IT_FINE -- 0"]}\n'
            "0\tregion-enter\t0\t0.0\t\t\n0\tregion-exit\t0\t1.0\t\t\n"
        )
        proc = pitlab("analyze", "--trace", str(path), "--pop")
        assert proc.returncode == 4, proc.stdout + proc.stderr
        assert proc.stderr.splitlines() == [
            "analysis error: line 1: bad header: version 2; pitlab reads version 3, so record the run again"
        ]


class TestSweepAndReport:
    CONFIG = textwrap.dedent(
        """
        [benchmark]
        outpath = bench_run

        [parameters]
        alpha = 1, 2

        [files]
        copy = run.tmpl

        [substitutions]
        run.tmpl -> run.sh

        [steps]
        do = sh run.sh
        done_file = ready

        [patterns]
        val_pat = value: $jube_pat_fp

        [analysis]
        file = run.out

        [result]
        sort = alpha
        columns = alpha, val_pat
        """
    )

    def test_sweep_runs_and_prints_table(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "run.tmpl").write_text('echo "value: #ALPHA#.0" > run.out\ntouch ready\n')
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"))
        assert proc.returncode == 0, proc.stderr
        assert "alpha" in proc.stdout and "val_pat" in proc.stdout
        assert (tmp_path / "bench_run" / "result.csv").exists()
        assert (tmp_path / "bench_run" / "000001" / "ready").exists()

    def test_failed_run_reported(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "run.tmpl").write_text("exit 1\n")
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"))
        assert proc.returncode == 1

    def test_unmatched_pattern_fails_the_sweep(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "run.tmpl").write_text('echo "no value" > run.out\ntouch ready\n')
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"))
        assert proc.returncode != 0
        assert "run 0 incomplete" in proc.stderr
        assert "val_pat" in proc.stderr

    @pytest.mark.parametrize(
        "old, new",
        [
            ("val_pat = value: $jube_pat_fp", "val_pat = value: $jube_pat_fp\np = hi there"),
            ("columns = alpha, val_pat", "columns = alpha, typo"),
            ("sort = alpha", "sort = zzz"),
            ("do = sh run.sh", "do = echo #TYPO#"),
            ("alpha = 1, 2", "alpha = 1, 2\nn indexed-by j = 1, 2"),
        ],
        ids=["pattern-without-capture", "unknown-column", "unknown-sort", "unknown-placeholder", "unknown-index"],
    )
    def test_config_error_exits_2_before_any_run(self, tmp_path, old, new):
        (tmp_path / "bench.cfg").write_text(self.CONFIG.replace(old, new))
        (tmp_path / "run.tmpl").write_text('echo "value: #ALPHA#.0" > run.out\ntouch ready\n')
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ") and len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "bench_run").exists()

    def test_rerun_into_the_same_outpath_exits_2(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "run.tmpl").write_text('echo "value: #ALPHA#.0" > run.out\ntouch ready\n')
        assert pitlab("sweep", "--config", str(tmp_path / "bench.cfg")).returncode == 0
        # the rerun's runs write nothing, so the first sweep's files would pass as theirs
        (tmp_path / "run.tmpl").write_text("true\n")
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: run directory ") and len(proc.stderr.splitlines()) == 1
        assert "000000" in proc.stderr
        for index, alpha in (0, 1), (1, 2):  # nothing deleted
            assert (tmp_path / "bench_run" / f"{index:06d}" / "run.out").read_text() == f"value: {alpha}.0\n"

    def test_jobs_below_one_is_a_usage_error(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "run.tmpl").write_text("touch ready\n")
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"), "--jobs", "0")
        assert proc.returncode == 2
        assert "--jobs" in proc.stderr
        assert not (tmp_path / "bench_run").exists()

    def test_unusable_workdir_exits_2(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "run.tmpl").write_text("touch ready\n")
        (tmp_path / "afile").write_text("")
        proc = pitlab("sweep", "--config", str(tmp_path / "bench.cfg"), "--workdir", str(tmp_path / "afile"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: cannot create the run directory")

    def test_missing_config_exits_2(self, tmp_path):
        proc = pitlab("sweep", "--config", str(tmp_path / "nope.cfg"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "nope.cfg" in proc.stderr

    @pytest.mark.parametrize("content", [None, ""], ids=["missing", "empty"])
    def test_report_unreadable_input_exits_2(self, tmp_path, content):
        csv_path = tmp_path / "result.csv"
        if content is not None:
            csv_path.write_text(content)
        proc = pitlab("report", "--input", str(csv_path))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "result.csv" in proc.stderr

    @pytest.mark.parametrize("row", ["2,0.5,extra", "2"], ids=["long", "short"])
    def test_report_row_unlike_the_header_exits_2(self, tmp_path, row):
        csv_path = tmp_path / "result.csv"
        csv_path.write_text(f"n,t\n1,0.9\n{row}\n")
        proc = pitlab("report", "--input", str(csv_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "row 2" in proc.stderr

    def test_report_rerenders_csv(self, tmp_path):
        csv_path = tmp_path / "result.csv"
        csv_path.write_text("n,t\n2,0.5\n1,0.9\n")
        proc = pitlab("report", "--input", str(csv_path), "--sort", "n")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].split() == ["n", "|", "t"]
        assert lines[2].split()[0] == "1"

    def test_report_csv_output_file(self, tmp_path):
        csv_path = tmp_path / "result.csv"
        csv_path.write_text("n,t\n2,0.5\n1,0.9\n")
        out = tmp_path / "sorted.csv"
        proc = pitlab(
            "report", "--input", str(csv_path), "--sort", "n", "--format", "csv",
            "--out", str(out),
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[1] == "1,0.9"
