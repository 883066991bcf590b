"""Spans recorded around the calls into each pitlab layer, from outside the package.

`SpanRecorder.patched()` replaces each public function or method named in
`patch_targets()` with a wrapper, at the place where its caller looks it
up, and restores the originals on exit.  Every call then leaves one span
(name, wall start, wall end, thread CPU start, thread CPU end) in a list
owned by the calling thread, so the threaded execution model nests
correctly.  Spans stay in memory until `take()` hands them over with each
span's parent.

A span's self time is its duration minus the time its children cover.
Children of one span run on the same thread one after another, so the
covered time is the sum of their durations.

Reading the thread CPU clock is a system call, about 0.35 us on a 2-vCPU
Xeon VM, where the whole wrapper otherwise costs about 0.3 us.  The
problem evaluations and trace records are the leaves called tens of thousands of times per
solve on scalar_pfasst_p32, and no metric uses their CPU time, so their
spans take the wall clock only (CPU fields None).  Every other span takes
both clocks.

The wrapper's remaining cost still matters on workloads that make many
small calls.  `calibrate()` measures it on an empty function, split into
the part that falls inside a span's own interval and the part that falls
in its parent's, and `aggregate()` subtracts it, as Python's `profile`
module does with its bias.  The uncorrected difference between a traced
and an untraced solve is reported separately as the tracing overhead.
"""

import inspect
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# The main thread waits in here while the worker threads run; that
# interval is not work, so it is left out of every sum.
IDLE_SPANS = ("controller.join_workers",)


def patch_targets():
    """(owner, attribute, span name) for every wrapped call site."""
    import pitlab.analysis as analysis
    import pitlab.collocation as collocation
    import pitlab.controller as controller
    import pitlab.trace as trace
    from pitlab.comm import Endpoint
    from pitlab.problems import AllenCahnProblem, DahlquistProblem
    from pitlab.sweeper import LevelState
    from pitlab.transfer import IdentityResampler, SpectralResampler

    targets = []
    for problem in (AllenCahnProblem, DahlquistProblem):
        for method in ("eval_implicit", "eval_explicit", "implicit_solve"):
            targets.append((problem, method, f"problems.{method}"))
    targets += [(trace.Tracer, "record_region", "trace.record"), (trace.Tracer, "record_comm", "trace.record")]
    for resampler in (SpectralResampler, IdentityResampler):
        for method in ("restrict", "prolong"):
            targets.append((resampler, method, f"transfer.{method}"))
    targets += [
        # the controller imports these by name, so they are patched there
        (controller, "imex_sweep", "sweeper.imex_sweep"),
        (controller, "residual", "sweeper.residual"),
        (controller, "compute_fas_tau", "transfer.fas_tau"),
        (controller, "pack_array", "comm.pack"),
        (controller, "pack_status", "comm.pack"),
        (controller, "unpack_array", "comm.unpack"),
        (controller, "unpack_status", "comm.unpack"),
        (controller, "make_radau_table", "collocation.make_radau_table"),
        (collocation, "make_radau_table", "collocation.make_radau_table"),
        (controller, "_run_parallel", "controller.join_workers"),
        (controller._Worker, "run_all", "controller.worker"),
        (LevelState, "spread", "sweeper.rhs_refresh"),
        (LevelState, "refresh_rhs", "sweeper.rhs_refresh"),
        (Endpoint, "isend", "comm.isend"),
        (Endpoint, "recv", "comm.recv"),
        (Endpoint, "wait", "comm.wait"),
        # the controller calls tracing.merge_tracers through the module
        (trace, "merge_tracers", "trace.merge"),
        # pop_metrics calls ideal_replay through its own module globals
        (analysis, "ideal_replay", "analysis.ideal_replay"),
    ]
    return targets


# span names that take the wall clock only
WALL_ONLY = ("problems.eval_implicit", "problems.eval_explicit", "problems.implicit_solve", "trace.record")


def _no_clock():
    return None


class SpanRecorder:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (thread, flat record list), one per recording thread

    def _register(self):
        records = []
        self._local.records = records
        with self._lock:
            self._threads.append((threading.current_thread(), records))
        return records

    def wrap(self, name, fn):
        local = self._local
        register = self._register
        wall = time.perf_counter
        cpu = _no_clock if name in WALL_ONLY else time.thread_time

        def wrapper(*args, **kwargs):
            c0 = cpu()
            t0 = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = wall()
                c1 = cpu()
                try:
                    records = local.records
                except AttributeError:
                    records = register()
                # a flat list of scalars: no tracked object per span for the
                # garbage collector to scan; nesting is rebuilt in take()
                records += (name, t0, t1, c0, c1)

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self, layers=None):
        """Wrap every target, or only those whose span name starts with one of `layers`."""
        saved = []
        try:
            for owner, attr, name in patch_targets():
                if layers is not None and name.split(".", 1)[0] not in layers:
                    continue
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__))
                else:
                    replacement = self.wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        """(thread name, spans) for every thread that recorded since the last
        take; call it while no wrapped call is open.  Each span is
        (name, start, end, cpu start, cpu end, parent index or -1), in the
        order the calls returned."""
        taken = []
        with self._lock:
            for thread, records in self._threads:
                if records:
                    taken.append((thread.name, _nest(records)))
                    records.clear()
            self._threads = [(t, r) for t, r in self._threads if t.is_alive()]
        return taken


def _nest(records):
    """Spans with parents from flat (name, start, end, cpu start, cpu end)
    records in return order: a call's children returned before it and
    started after it.  Tuples of plain values, which the garbage collector
    stops tracking, so keeping a solve's spans does not slow the next one."""
    starts = records[1::5]
    parents = [-1] * len(starts)
    orphans = []  # spans whose parent has not returned yet
    for index, t0 in enumerate(starts):
        while orphans and starts[orphans[-1]] >= t0:
            parents[orphans.pop()] = index
        orphans.append(index)
    return [(*records[5 * i:5 * i + 5], parent) for i, parent in enumerate(parents)]


def calibrate(recorder, calls=4000, repeats=3):
    """Wrapper seconds per span, {takes CPU clock: (inside, outside)}: the
    part that lands inside the span's own interval and the part outside it
    (in the parent's self time).  Medians over `repeats` rounds of `calls`
    calls to an empty two-argument function."""

    def empty(a, b):
        return None

    bias = {}
    for cpu, name in ((True, "calibrate"), (False, WALL_ONLY[0])):
        wrapped = recorder.wrap(name, empty)
        inside, total = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                empty(1, 2)
            plain = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            traced = time.perf_counter() - start
            spans = [span for _, thread_spans in recorder.take() for span in thread_spans]
            inside.append(sum(span[2] - span[1] for span in spans) / len(spans))
            total.append((traced - plain) / calls)
        bias[cpu] = (statistics.median(inside), max(statistics.median(total) - statistics.median(inside), 0.0))
    return bias


NO_BIAS = {True: (0.0, 0.0), False: (0.0, 0.0)}


class SpanStats:
    __slots__ = ("calls", "wall", "self", "cpu")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.self = 0.0
        self.cpu = 0.0


def aggregate(threads, bias=NO_BIAS):
    """Per span name: call count, inclusive wall, self wall, inclusive thread CPU.

    Wall times are corrected by the wrapper cost `bias` from calibrate():
    a span loses its own `inside` from its duration, plus `inside +
    outside` of every descendant span.  The wrapper cost is CPU work on the
    same thread, so CPU times get the same correction and wall minus CPU is
    as measured.
    """
    stats = defaultdict(SpanStats)
    for _, spans in threads:
        covered = [0.0] * len(spans)  # time of direct children
        outside = [0.0] * len(spans)  # wrapper cost of direct children, outside them
        nested = [0.0] * len(spans)  # wrapper cost of all descendants
        # a child returns before its parent, so one forward pass sums subtrees
        for index, (name, t0, t1, c0, c1, parent) in enumerate(spans):
            if parent >= 0:
                inside_cost, outside_cost = bias[c0 is not None]
                covered[parent] += t1 - t0
                outside[parent] += outside_cost
                nested[parent] += nested[index] + inside_cost + outside_cost
        for index, (name, t0, t1, c0, c1, parent) in enumerate(spans):
            inside_cost = bias[c0 is not None][0]
            correction = inside_cost + nested[index]
            s = stats[name]
            s.calls += 1
            s.wall += t1 - t0 - correction
            s.self += t1 - t0 - covered[index] - inside_cost - outside[index]
            if c0 is not None:
                s.cpu += c1 - c0 - correction
    return stats


def layer_self_times(stats):
    """Self time summed per layer (the span-name prefix), idle spans left out."""
    layers = defaultdict(float)
    for name, s in stats.items():
        if name not in IDLE_SPANS:
            layers[name.split(".", 1)[0]] += s.self
    return dict(layers)


def write_spans(threads, path):
    with open(path, "w") as fh:
        for thread, spans in threads:
            for index, (name, t0, t1, c0, c1, parent) in enumerate(spans):
                fh.write(
                    json.dumps(
                        {"thread": thread, "id": index, "parent": parent, "name": name,
                         "start": t0, "end": t1, "cpu_start": c0, "cpu_end": c1}
                    )
                    + "\n"
                )
