import re
import subprocess
import sys
import textwrap

import pytest

from conftest import fig5_trace, pop_hand_trace
from pitlab.comm import DEFAULT_RENDEZVOUS_BYTES
from pitlab.controller import allen_cahn_config, dahlquist_config, format_summary, run_sdc_serial
from pitlab.trace import read_trace, write_trace

TIME_LINE = re.compile(r"^Time to solution: ([-+0-9.eE]+) sec\.$", re.M)
ITER_LINE = re.compile(r"^Mean number of iterations: ([-+0-9.eE]+)$", re.M)


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
        trace_path = tmp_path / "run.trc.jsonl"
        proc = pitlab(
            "run", "--problem", "dahlquist", "--steps", "4", "--workers", "4",
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
            "run", "--problem", "dahlquist", "--steps", "2", "--workers", "2",
            "--dt", "0.1", "--mode", "serial", env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "traces" / "dahlquist-pfasst-serial-p2.trc.jsonl").exists()

    def test_seed_reproducibility(self, tmp_path):
        outs = []
        for i in range(2):
            proc = pitlab(
                "run", "--problem", "allen-cahn", "--steps", "2", "--workers", "2",
                "--dt", "1e-3", "--grid", "32", "--coarse-grid", "8", "--seed", "9",
                "--radius", "0.2", "--trace-out", str(tmp_path / f"t{i}.jsonl"),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(ITER_LINE.search(proc.stdout).group(1))
        assert outs[0] == outs[1]

    def test_unknown_flag_is_usage_error(self):
        proc = pitlab("run", "--does-not-exist", "1")
        assert proc.returncode == 2

    def test_divergence_exit_code(self, tmp_path):
        proc = pitlab(
            "run", "--problem", "dahlquist", "--steps", "2", "--workers", "2",
            "--dt", "0.5", "--lambda-implicit", "0", "--lambda-explicit", "40",
            "--trace-out", str(tmp_path / "t.jsonl"),
        )
        assert proc.returncode == 3
        assert "failed" in proc.stderr

    def test_sdc_scheme_runs_serial_baseline(self, tmp_path):
        proc = pitlab(
            "run", "--problem", "dahlquist", "--scheme", "sdc", "--steps", "4",
            "--dt", "0.1", "--trace-out", str(tmp_path / "t.jsonl"),
        )
        assert proc.returncode == 0, proc.stderr
        assert TIME_LINE.search(proc.stdout)

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "steps = 2\nworkers = 2\ndt = 0.1\nmode = serial\nproblem = dahlquist\n"
            "lambda_implicit = -3\nfine-sweeps = 2\n"
        )
        proc = pitlab(
            "run", "--config", str(cfg), "--trace-out", str(tmp_path / "a.jsonl")
        )
        assert proc.returncode == 0, proc.stderr
        trace = read_trace(tmp_path / "a.jsonl")
        assert trace.num_ranks == 2
        # a negative value and a hyphenated key act as the flags they name
        flags = pitlab(
            "run", "--steps", "2", "--workers", "2", "--dt", "0.1", "--mode", "serial",
            "--lambda-implicit", "-3", "--fine-sweeps", "2", "--trace-out", str(tmp_path / "c.jsonl"),
        )
        assert flags.returncode == 0, flags.stderr
        assert ITER_LINE.search(proc.stdout).group(0) == ITER_LINE.search(flags.stdout).group(0)
        assert len(trace.events) == len(read_trace(tmp_path / "c.jsonl").events)
        # explicit flag overrides the file
        proc = pitlab(
            "run", "--config", str(cfg), "--steps", "3", "--workers", "3",
            "--trace-out", str(tmp_path / "b.jsonl"),
        )
        assert proc.returncode == 0, proc.stderr
        assert read_trace(tmp_path / "b.jsonl").num_ranks == 3

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
        proc = pitlab("run", "--scheme", "sdc", *args, "--trace-out", str(tmp_path / "t.jsonl"))
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
            ("backend = eagr", []),
            ("tolerance = 1e-2", []),
            ("mode = Serial", []),
            ("steps 2", []),
            (None, ["--config", "{tmp}/missing.cfg"]),
            (None, ["--steps", "2", "--workers", "3"]),
            (None, ["--tol", "-1"]),
            (None, ["--fine-sweeps", "0"]),
            (None, ["--problem", "allen-cahn", "--grid", "12"]),
            (None, ["--scheme", "sdc", "--workers", "2"]),
            (None, ["--problem", "allen-cahn", "--steps", "2", "--dt", "-0.001", "--grid", "32", "--coarse-grid", "8"]),
            (None, ["--dt", "0"]),
            (None, ["--dt", "-0.1"]),
            (None, ["--dt", "nan"]),
            (None, ["--dt", "inf"]),
            (None, ["--scheme", "sdc", "--dt", "0"]),
        ],
    )
    def test_bad_input_is_one_usage_error(self, config, args, tmp_path):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            args = ["--config", "{tmp}/run.cfg"]
        args = [arg.format(tmp=tmp_path) for arg in args]
        proc = pitlab("run", *args, "--trace-out", str(tmp_path / "t.jsonl"))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert len([line for line in proc.stderr.splitlines() if "error" in line]) == 1, proc.stderr
        assert not (tmp_path / "t.jsonl").exists()

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
        path = tmp_path / "hand.trc.jsonl"
        write_trace(pop_hand_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--pop", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        content = (tmp_path / "pop.csv").read_text()
        assert "parallel_efficiency,0.700" in content
        assert "messages:" in proc.stdout

    def test_profile_summary_from_hand_trace(self, tmp_path):
        path = tmp_path / "hand.trc.jsonl"
        write_trace(pop_hand_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--pop", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        # two fine sweeps, 8 s on rank 0 and 5 s on rank 1, nothing nested
        assert re.search(r"^\s*IT_FINE\s+2\s+13\.000000\s+13\.000000$", proc.stdout, re.M)
        assert proc.stdout.index("messages:") < proc.stdout.index("IT_FINE") < proc.stdout.index("POP report")

    def test_wait_states_from_fig5_trace(self, tmp_path):
        path = tmp_path / "fig5.trc.jsonl"
        write_trace(fig5_trace(), path)
        proc = pitlab("analyze", "--trace", str(path), "--wait-states", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "waitstates.csv").read_text().splitlines()
        assert lines[1].startswith("late-receiver,0,1,3.000000")

    def test_structural_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.trc.jsonl"
        bad.write_text("this is not a trace\n")
        proc = pitlab("analyze", "--trace", str(bad), "--pop")
        assert proc.returncode == 4
        assert "analysis error" in proc.stderr

    def test_unbalanced_trace_is_structural_error(self, tmp_path):
        path = tmp_path / "unbalanced.trc.jsonl"
        path.write_text(
            '{"format": "pitlab-trace", "version": 1, "num_ranks": 1}\n'
            '{"rank": 0, "kind": "region-enter", "name": "REGION -- IT_FINE -- 0", "t": 0.0}\n'
        )
        proc = pitlab("analyze", "--trace", str(path), "--pop")
        assert proc.returncode == 4


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
