import os
import textwrap

import pytest

from pitlab.harness import (
    ConfigError,
    Param,
    ParamSpace,
    RunSpec,
    SubstitutionError,
    compile_pattern,
    execute,
    expand,
    extract,
    parse_config,
    render_table,
    run_benchmark,
    substitute,
)


def listing_style_space():
    """Ten indexed node/task settings crossed with two MPI flavors."""
    values_i = [str(v) for v in range(10)]
    nnodes = ["1", "1", "1", "1", "1", "1", "2", "4", "6", "12"]
    ntasks = ["1", "2", "4", "6", "12", "24", "24", "24", "24", "24"]
    return ParamSpace(
        parameters=[
            Param("i", values_i),
            Param("nnodes", nnodes, index_name="i"),
            Param("ntasks", ntasks, index_name="i"),
            Param("space_size", ntasks, index_name="i"),
            Param("mpi", ["intel", "parastation"]),
        ]
    )


class TestExpand:
    def test_indexed_parameters_avoid_the_cross_product(self):
        specs = expand(listing_style_space())
        assert len(specs) == 20
        first = specs[0].values
        assert first["i"] == "0" and first["nnodes"] == "1" and first["mpi"] == "intel"
        # indexed values track the index position
        by_i = {(s.values["i"], s.values["mpi"]): s.values for s in specs}
        assert by_i[("9", "parastation")]["nnodes"] == "12"
        assert by_i[("4", "intel")]["ntasks"] == "12"

    def test_crossing_instead_multiplies_out(self):
        space = listing_style_space()
        for param in space.parameters:
            param.index_name = ""
        assert len(expand(space)) == 10 * 10 * 10 * 10 * 2

    def test_empty_space_gives_one_constants_run(self):
        specs = expand(ParamSpace(constants={"alpha": "1"}))
        assert len(specs) == 1
        assert specs[0].values == {"alpha": "1"}

    def test_document_order_index_major(self):
        space = ParamSpace(parameters=[Param("a", ["1", "2"]), Param("b", ["x", "y"])])
        order = [(s.values["a"], s.values["b"]) for s in expand(space)]
        assert order == [("1", "x"), ("1", "y"), ("2", "x"), ("2", "y")]

    def test_length_mismatch_rejected(self):
        space = ParamSpace(
            parameters=[
                Param("i", ["0", "1"]),
                Param("n", ["1", "2", "3"], index_name="i"),
            ]
        )
        with pytest.raises(ConfigError, match="has 3 values"):
            expand(space)

    def test_index_name_alone_decides_stepped_or_crossed(self):
        space = ParamSpace(
            parameters=[
                Param("i", ["0", "1"]),
                Param("n", ["4", "8"], index_name="i"),
                Param("m", ["x", "y"]),
            ]
        )
        order = [(s.values["i"], s.values["n"], s.values["m"]) for s in expand(space)]
        assert order == [("0", "4", "x"), ("0", "4", "y"), ("1", "8", "x"), ("1", "8", "y")]

    def test_unknown_index_rejected(self):
        space = ParamSpace(parameters=[Param("n", ["1"], index_name="j")])
        with pytest.raises(ConfigError, match="unknown parameter"):
            expand(space)


class TestSubstitute:
    def spec(self, **values):
        return RunSpec(index=0, values=values)

    def test_listing_style_placeholder(self):
        out = substitute("srun ... -n #SPACE_SIZE#", self.spec(space_size="4"))
        assert out == "srun ... -n 4"

    def test_no_placeholders_passes_through(self):
        assert substitute("plain text", self.spec(a="1")) == "plain text"

    def test_unknown_placeholder_is_an_error(self):
        with pytest.raises(SubstitutionError, match="TYPO"):
            substitute("#TYPO#", self.spec(a="1"))

    def test_idempotent_once_resolved(self):
        spec = self.spec(nnodes="2", ntasks="24")
        once = substitute("#NNODES#/#NTASKS#", spec)
        assert substitute(once, spec) == once


class TestExecute:
    def test_done_file_marks_completion(self, tmp_path):
        specs = expand(ParamSpace(constants={"name": "x"}))
        states = execute(specs, ["touch ready"], tmp_path / "runs", done_file="ready")
        assert states[0].state == "done"
        assert (specs[0].sandbox / "ready").exists()

    def test_failing_step_skips_the_rest(self, tmp_path):
        specs = expand(ParamSpace(constants={}))
        states = execute(
            specs, ["false", "touch after"], tmp_path / "runs", done_file=None
        )
        assert states[0].state == "failed"
        assert not (specs[0].sandbox / "after").exists()

    def test_missing_done_file_fails(self, tmp_path):
        specs = expand(ParamSpace(constants={}))
        states = execute(specs, ["true"], tmp_path / "runs", done_file="ready")
        assert states[0].state == "failed"
        assert "'ready' missing after the last step" in states[0].stderr

    def test_background_work_holding_the_output_is_waited_for(self, tmp_path):
        specs = expand(ParamSpace(constants={}))
        states = execute(specs, ["(sleep 0.2; touch ready) &"], tmp_path / "runs", done_file="ready")
        assert states[0].state == "done"

    def test_unknown_step_placeholder_runs_nothing(self, tmp_path):
        specs = expand(ParamSpace(parameters=[Param("v", ["1", "2"])]))
        with pytest.raises(SubstitutionError, match="TYPO"):
            execute(specs, ["touch #V#", "echo #TYPO#"], tmp_path / "runs", jobs=2)
        assert not (tmp_path / "runs").exists()

    def test_sandboxes_are_disjoint_with_own_substituted_files(self, tmp_path):
        (tmp_path / "t.tmpl").write_text("value = #V#\n")
        space = ParamSpace(parameters=[Param("v", ["1", "2"])])
        specs = expand(space)
        states = execute(
            specs,
            ["cat t.out > result.txt"],
            tmp_path / "runs",
            files=["t.tmpl"],
            substitutions=[("t.tmpl", "t.out")],
            config_dir=tmp_path,
        )
        assert [s.state for s in states] == ["done", "done"]
        boxes = [s.spec.sandbox for s in states]
        assert boxes[0] != boxes[1]
        assert (boxes[0] / "result.txt").read_text() == "value = 1\n"
        assert (boxes[1] / "result.txt").read_text() == "value = 2\n"

    def test_concurrent_execution(self, tmp_path):
        space = ParamSpace(parameters=[Param("v", [str(i) for i in range(6)])])
        specs = expand(space)
        states = execute(specs, ["touch ready"], tmp_path / "runs", done_file="ready", jobs=3)
        assert all(s.state == "done" for s in states)

    def test_relative_pythonpath_resolved_against_caller_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "elsewhere" / "lib")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["src", absolute]))
        specs = expand(ParamSpace(constants={}))
        states = execute(specs, ['printf %s "$PYTHONPATH" > seen'], "runs")
        assert states[0].state == "done"
        seen = (specs[0].sandbox / "seen").read_text().split(os.pathsep)
        assert seen == [str(tmp_path / "src"), absolute]
        assert os.environ["PYTHONPATH"] == os.pathsep.join(["src", absolute])


class TestExtract:
    PATTERNS = {
        "timing_pat": "Time to solution: $jube_pat_fp sec.",
        "niter_pat": "Mean number of iterations: $jube_pat_fp",
    }

    def spec(self, index=0):
        return RunSpec(index=index, values={"run": str(index)})

    def test_recovers_floats(self):
        text = "noise\nTime to solution: 12.5 sec.\nMean number of iterations: 3.25\n"
        rows = extract([(self.spec(), text)], self.PATTERNS)
        assert rows[0]["timing_pat"] == "12.5"
        assert rows[0]["niter_pat"] == "3.25"

    def test_last_match_wins(self):
        text = "Time to solution: 1.0 sec.\nTime to solution: 2.0 sec.\n"
        rows = extract([(self.spec(), text)], {"timing_pat": self.PATTERNS["timing_pat"]})
        assert rows[0]["timing_pat"] == "2.0"

    def test_missing_match_leaves_empty_cell(self, caplog):
        rows = extract([(self.spec(), "nothing here")], self.PATTERNS)
        assert rows[0]["timing_pat"] == ""
        assert rows[0]["run"] == "0"

    def test_scientific_notation(self):
        text = "Time to solution: 1.25e-03 sec."
        rows = extract([(self.spec(), text)], {"timing_pat": self.PATTERNS["timing_pat"]})
        assert float(rows[0]["timing_pat"]) == pytest.approx(1.25e-3)

    def test_pattern_without_capture_rejected(self):
        with pytest.raises(ConfigError, match="jube_pat_fp"):
            compile_pattern("no capture here")

    def test_pattern_with_two_captures_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            compile_pattern("$jube_pat_fp and $jube_pat_fp")


class TestRenderTable:
    ROWS = [
        {"n": "2", "t": "0.5"},
        {"n": "10", "t": "0.1"},
        {"n": "1", "t": "0.9"},
    ]

    def test_numeric_sort(self):
        csv_text, pretty = render_table(self.ROWS, ["n", "t"], sort="n")
        lines = csv_text.splitlines()
        assert lines[0] == "n,t"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "10"]
        assert pretty.splitlines()[0].split() == ["n", "|", "t"]

    def test_unknown_sort_column(self):
        with pytest.raises(ConfigError):
            render_table(self.ROWS, ["n"], sort="zzz")


class TestConfigFile:
    CONFIG = textwrap.dedent(
        """
        # benchmark config
        [benchmark]
        name = demo
        outpath = bench_run

        [parameters]
        i = 0, 1, 2
        n indexed-by i = 4, 8, 16

        [constants]
        greeting = hello

        [files]
        copy = in.tmpl

        [substitutions]
        in.tmpl -> out.sh

        [steps]
        do = sh out.sh
        done_file = ready

        [patterns]
        val_pat = value is $jube_pat_fp

        [analysis]
        file = run.out

        [result]
        sort = n
        columns = i, n, val_pat
        """
    )

    def test_parse_and_run(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "in.tmpl").write_text('echo "value is #N#.5" > run.out\ntouch ready\n')
        cfg = parse_config(tmp_path / "bench.cfg")
        assert cfg.name == "demo"
        assert [p.name for p in cfg.space.parameters] == ["i", "n"]
        assert cfg.space.constants == {"greeting": "hello"}
        states, rows, csv_text, pretty = run_benchmark(cfg)
        assert [s.state for s in states] == ["done"] * 3
        assert (tmp_path / "bench_run" / "result.csv").exists()
        assert csv_text.splitlines()[1] == "0,4,4.5"

    def test_unmatched_pattern_marks_run_incomplete(self, tmp_path):
        (tmp_path / "bench.cfg").write_text(self.CONFIG)
        (tmp_path / "in.tmpl").write_text('echo "no value here" > run.out\ntouch ready\n')
        cfg = parse_config(tmp_path / "bench.cfg")
        states, rows, csv_text, pretty = run_benchmark(cfg)
        assert [s.state for s in states] == ["incomplete"] * 3
        assert all("val_pat" in s.stderr for s in states)
        assert [row["state"] for row in rows] == ["incomplete"] * 3
        assert all(row["val_pat"] == "" for row in rows)

    @pytest.mark.parametrize(
        "old, new, template, message",
        [
            ("i = 0, 1, 2", "i = 0, 1, 2\nempty =", "touch ready\n", "'empty' has no values"),
            ("copy = in.tmpl", "copy = in.tmpl, absent.txt", "touch ready\n", "'absent.txt' not found"),
            ("", "", "echo #TYPO#\n", "unresolved placeholders: TYPO"),
        ],
        ids=["no-values", "missing-copy", "template-placeholder"],
    )
    def test_config_errors_raised_before_any_sandbox(self, tmp_path, old, new, template, message):
        (tmp_path / "bench.cfg").write_text(self.CONFIG.replace(old, new))
        (tmp_path / "in.tmpl").write_text(template)
        with pytest.raises((ConfigError, SubstitutionError), match=message):
            run_benchmark(parse_config(tmp_path / "bench.cfg"))
        assert not (tmp_path / "bench_run").exists()

    def test_bad_lines_report_numbers(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[parameters]\nbroken line without equals\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(bad)

    def test_content_outside_sections_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("key = value\n")
        with pytest.raises(ConfigError, match="outside"):
            parse_config(bad)
