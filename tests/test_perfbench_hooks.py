"""Every call site the benchmark wraps must exist.

`perfbench/spans.py` names each wrapped function or method as an
(owner, attribute) pair in `patch_targets()`.  Renaming or deleting one
of them (`Endpoint.isend`, `analysis.ideal_replay`, `_Worker.run_all`, ...)
must fail here, not only when the benchmark runs.  The benchmark builds
its config before it patches, so a call site bound while the config is
built would lose its spans without any error.
"""

import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

from pitlab.controller import dahlquist_config, run
from pitlab.trace import Tracer
from pitlab.transfer import IdentityResampler

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
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
    targets = load_spans(monkeypatch).patch_targets()
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
    # stack; each iteration restricts the node stack, u0 and the tau stack
    # and prolongs one correction stack
    assert counts["restrict"] == cfg.num_steps + 3 * iterations
    assert counts["prolong"] == cfg.num_steps + iterations
