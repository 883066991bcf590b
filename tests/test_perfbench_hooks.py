"""Every call site the benchmark wraps must exist.

`perfbench/spans.py` names each wrapped function or method as an
(owner, attribute) pair in `patch_targets()`.  Renaming or deleting one
of them (`Endpoint.isend`, `analysis.ideal_replay`, `_Worker.run_all`, ...)
must fail here, not only when the benchmark runs.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

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
