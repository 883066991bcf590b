"""Every call site the benchmark wraps, and everything it reads, must exist.

`perfbench/spans.py` names each wrapped function or method as an
(owner, attribute) pair in `patch_targets()`.  Renaming or deleting one
of them (`Endpoint.isend`, `analysis.ideal_replay`, `_Worker.run_all`, ...)
must fail here, not only when the benchmark runs.  The benchmark builds
its config before it patches, so a call site bound while the config is
built would lose its spans without any error; and the replay must stay
inside the `analysis.ideal_replay` span of every POP report.  Each
workload of `perfbench/workloads.py` is also built, solved and analysed
once, with the benchmark's own checks against `traffic.json`, so a rename
of anything it reads (`pair.fine_table`, `result.mean_iterations`, ...)
fails here too.
"""

import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import pop_hand_trace, synthetic_trace
from pitlab import analysis
from pitlab.controller import dahlquist_config, run
from pitlab.trace import Tracer
from pitlab.transfer import IdentityResampler

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(owner, attr):
    try:
        inspect.getattr_static(owner, attr)
    except AttributeError:
        return False
    return True


def test_every_patch_target_resolves(monkeypatch):
    targets = load_perfbench(monkeypatch, "spans").patch_targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in targets if not resolves(owner, attr)]
    assert missing == []


def test_wrappers_patched_after_the_config_is_built_see_every_call(monkeypatch):
    cfg = dahlquist_config(4, 0.1, fine_sweeps=3, coarse_sweeps=1, tolerance=1e-8)
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((Tracer, "record_region"), (IdentityResampler, "restrict"), (IdentityResampler, "prolong")):
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    result = run(cfg, "serial")
    iterations = sum(result.iterations)
    assert iterations > 0
    assert counts["record_region"] == sum(ev.kind.startswith("region-") for ev in result.trace.events)
    # per rank, the predictor restricts u0 and prolongs one correction
    # stack; each iteration restricts the node stack and the tau stack,
    # u0 too once the predecessor has stopped (always on rank 0), and
    # prolongs one correction stack
    after_stop = result.iterations[0] + sum(max(0, b - a) for a, b in zip(result.iterations, result.iterations[1:]))
    assert counts["restrict"] == cfg.num_steps + 2 * iterations + after_stop
    assert counts["prolong"] == cfg.num_steps + iterations


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_each_worker_runs_inside_one_controller_worker_span(monkeypatch, mode):
    # both execution models enter _Worker.run_all once per worker, so the
    # controller.worker span covers every worker's run in either model
    spans = load_perfbench(monkeypatch, "spans")
    recorder = spans.SpanRecorder()
    cfg = dahlquist_config(4, 0.1)
    with recorder.patched(layers=("controller",)):
        run(cfg, mode)
    names = Counter(span[0] for _, taken in recorder.take() for span in taken)
    assert names["controller.worker"] == cfg.num_steps


def test_each_pop_report_replays_inside_one_ideal_replay_span(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    recorder = spans.SpanRecorder()
    traces = [pop_hand_trace(), synthetic_trace(4, 6, 3), run(dahlquist_config(4, 0.1), "serial").trace]
    original = analysis.ideal_replay
    with recorder.patched(layers=("analysis",)):
        assert analysis.ideal_replay is not original
        for trace in traces:
            for full_run in (False, True):
                recorder.call("analysis.pop_metrics", analysis.pop_metrics, trace, full_run=full_run)
    assert analysis.ideal_replay is original
    (_, taken), = recorder.take()
    names = [span[0] for span in taken]
    assert names.count("analysis.pop_metrics") == 2 * len(traces)
    # one replay span per report, nested in that report's span
    replays = [span for span in taken if span[0] == "analysis.ideal_replay"]
    assert [names[span[-1]] for span in replays] == ["analysis.pop_metrics"] * 2 * len(traces)
    assert len({span[-1] for span in replays}) == len(replays)


@pytest.mark.parametrize("name", ["ac_pfasst_serial", "ac_pfasst_threads", "ac_sdc_256", "scalar_pfasst_p32"])
def test_each_workload_passes_the_benchmark_checks(monkeypatch, tmp_path, name):
    workloads = load_perfbench(monkeypatch, "workloads")
    w = workloads.WORKLOADS[name]
    expected = workloads.load_traffic()[name]
    inputs = w.draw_inputs(1)
    cfg = w.build(inputs)
    assert workloads.fingerprint(cfg) == workloads.fingerprint(w.build(inputs))
    result = w.solve(cfg)
    assert workloads.check_solve(w, cfg, result, w.reference(cfg), expected) == []
    outputs = workloads.analyze(result.trace, tmp_path / f"{name}.trc")
    assert workloads.check_analysis(w, result, outputs, expected) == []
