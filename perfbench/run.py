"""pitlab benchmark: solve and analysis time on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ac_pfasst_serial --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  `--trace 1` reports the per-layer metrics: it
alternates untraced solves with solves that record a span around every
call into a pitlab layer (see spans.py), then analyses likewise, and
checks that the layer self times add up to the untraced solve time
within RECONCILE_TOLERANCE.  `--workload all` runs every workload in a
process of its own and exits non-zero if any check failed.

Every timed operation is checked outside its timing; a failed check
counts the operation as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every check held.
"""

import os

# Pinned before numpy loads: the threaded workload must run exactly its
# worker threads, with no BLAS/OpenMP pool beside them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the program is built from the sources of this checkout, never from an installed copy
if not (SRC / "pitlab" / "__init__.py").is_file():
    sys.exit(f"pitlab sources not found under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

from spans import SpanRecorder, SpanStats, aggregate, calibrate, layer_self_times, write_spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, analyze, check_analysis, check_solve, environment, fingerprint, load_traffic, traffic_of,
)

SETUP_PROBES = 10
MIN_SAMPLES = 3
KEPT_RESULTS = 3
RECONCILE_TOLERANCE = 0.20
PROBE_TIMEOUT_S = 60


class Tally:
    """Attempted and failed operations, with the reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for reason in failures:
                print(f"FAILED {what}: {reason}", file=sys.stderr)


def timed(tally, what, fn, *args):
    """(seconds, result) of one operation; (None, None) if it raised."""
    gc.collect()  # every operation starts from the same heap state
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation and reported
        tally.record(what, [f"{type(exc).__name__}: {exc}"])
        return None, None
    return time.perf_counter() - start, result


def setup_probe(name, inputs, expected_fingerprint, tally):
    """Set-up seconds of one fresh process; None if the probe failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, json.dumps(inputs)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tally.record("setup", [f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        return None
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = probe["fingerprint"] == expected_fingerprint
    tally.record("setup", [] if ok else [f"probe built {probe['fingerprint']}, expected {expected_fingerprint}"])
    return probe["setup_s"] if ok else None


def solve_checked(w, cfg, ref, expected, tally, solve=None):
    seconds, result = timed(tally, "solve", solve or w.solve, cfg)
    if result is not None:
        tally.record("solve", check_solve(w, cfg, result, ref, expected))
    return seconds, result


def analyze_checked(w, result, expected, tally):
    seconds, outputs = timed(tally, "analyze", analyze, result.trace, OUT / f"{w.name}.trc.jsonl")
    if outputs is not None:
        tally.record("analyze", check_analysis(w, result, outputs, expected))
    return seconds, outputs


def until(deadline, count):
    return time.perf_counter() < deadline or count < MIN_SAMPLES


def end_to_end(w, cfg, ref, expected, inputs, seconds, tally):
    """Samples of every end-to-end metric; tracing is off throughout.

    Set-up probes, solves and analyses of the latest solve's trace are
    interleaved, the analyses in the time share the workload sets, so all
    three see the same machine load.
    """
    setups, solves, analyses, iterations = [], [], [], []
    late_receivers = 0
    start = time.perf_counter()
    ratio = w.analyze_share / (1.0 - w.analyze_share)
    solve_time = analyze_time = 0.0
    fp = fingerprint(cfg)
    attempts = 0
    while until(start + seconds, attempts):
        attempts += 1
        # probes spread evenly over the run
        elapsed = (time.perf_counter() - start) / seconds
        while len(setups) < SETUP_PROBES * min(elapsed + 0.1, 1.0):
            setups.append(setup_probe(w.name, inputs, fp, tally))
        t, result = solve_checked(w, cfg, ref, expected, tally)
        if result is None:
            continue
        solves.append(t)
        iterations.append(result.mean_iterations)
        solve_time += t
        while analyze_time < ratio * solve_time or not analyses:
            t, outputs = analyze_checked(w, result, expected, tally)
            if outputs is None:
                break
            analyses.append(t)
            analyze_time += t
            late_receivers += any(ws.pattern == "late-receiver" for ws in outputs[4])
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(w.name, inputs, fp, tally))
    if w.mode == "parallel":
        # emergent, so asked of the workload, not of every solve
        tally.record("wait states", [] if late_receivers else ["no Late Receiver in any threaded solve"])
    return {
        "setup_s": [t for t in setups if t is not None],
        "solve_s": solves,
        "analyze_s": analyses,
        "mean_iterations": iterations,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }


def per_solve_layers(w, stats, result):
    """Per-layer metrics of one traced solve."""

    def s(name):
        return stats.get(name) or SpanStats()

    layers = layer_self_times(stats)
    traffic = traffic_of(w, result)
    m = {
        "problems.eval_implicit.calls": s("problems.eval_implicit").calls,
        "problems.eval_implicit_s": s("problems.eval_implicit").wall,
        "problems.implicit_solve.calls": s("problems.implicit_solve").calls,
        "problems.implicit_solve_s": s("problems.implicit_solve").wall,
        "problems.eval_explicit_s": s("problems.eval_explicit").wall,
        "sweeper.imex_sweep.calls": s("sweeper.imex_sweep").calls,
        "sweeper.imex_sweep_self_s": s("sweeper.imex_sweep").self,
        "sweeper.imex_sweep_starved_s": s("sweeper.imex_sweep").wall - s("sweeper.imex_sweep").cpu,
        "sweeper.residual.calls": s("sweeper.residual").calls,
        "sweeper.residual_s": s("sweeper.residual").wall,
        "sweeper.rhs_refresh_s": s("sweeper.rhs_refresh").wall,
        "transfer.restrict.calls": s("transfer.restrict").calls,
        "transfer.restrict_s": s("transfer.restrict").wall,
        "transfer.prolong.calls": s("transfer.prolong").calls,
        "transfer.prolong_s": s("transfer.prolong").wall,
        "transfer.fas_tau_self_s": s("transfer.fas_tau").self,
        "comm.messages": traffic["messages"],
        "comm.bytes_sent": traffic["bytes_sent"],
        "comm.pack_s": s("comm.pack").wall,
        "comm.unpack_s": s("comm.unpack").wall,
        "comm.blocked_s": s("comm.recv").self + s("comm.wait").self,
        "trace.events": traffic["trace_events"],
        "trace.record_s": s("trace.record").wall,
        "trace.merge_s": s("trace.merge").wall,
        "controller.self_s": s("controller.run").self + s("controller.worker").self,
        "controller.fine_sweeps": traffic["fine_sweeps"],
        "controller.iterations_max": max(traffic["iterations"]),
        "bench.layer_sum_s": sum(layers.values()),
        "bench.spans": sum(st.calls for st in stats.values()),
    }
    for layer in ("problems", "sweeper", "transfer", "comm", "trace"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return m


def per_analysis_layers(stats, outputs, path):
    loaded, profile, audit, pop, waits = outputs
    return {
        "trace.write_s": stats["trace.write"].wall,
        "trace.read_s": stats["trace.read"].wall,
        "trace.build_profile_s": stats["trace.build_profile"].wall,
        "trace.file_bytes": path.stat().st_size,
        "analysis.audit_messages_s": stats["analysis.audit_messages"].wall,
        "analysis.pop_metrics_s": stats["analysis.pop_metrics"].wall,
        "analysis.ideal_replay_s": stats["analysis.ideal_replay"].wall,
        "analysis.late_receiver_s": stats["analysis.late_receiver"].wall,
        "analysis.late_sender_s": stats["analysis.late_sender"].wall,
        "analysis.wait_states": len(waits),
        "analysis.parallel_efficiency": pop.parallel_efficiency,
    }


def per_layer(w, cfg, ref, expected, inputs, seconds, tally):
    """Samples of every per-layer metric, from untraced and traced runs in this process."""
    recorder = SpanRecorder()
    samples = {}

    def add(metrics):
        for key, value in metrics.items():
            samples.setdefault(key, []).append(value)

    bias = calibrate(recorder)
    with recorder.patched():
        for _ in range(MIN_SAMPLES):
            recorder.call("bench.build", w.build, inputs)
            stats = aggregate(recorder.take(), bias)
            add({"collocation.make_radau_table_s": stats["collocation.make_radau_table"].wall})

    # untraced and traced solves alternate, so drift in the machine's load
    # reaches both alike
    start = time.perf_counter()
    untraced, thread_seconds, serial_model = [], [], []
    results, solve_spans, paired, attempts = [], [], [], 0

    def untraced_solve():
        # only the controller's own spans (a handful per solve): they give the
        # thread-seconds the traced layer times must add up to
        with recorder.patched(layers=("controller",)):
            t, plain = solve_checked(w, cfg, ref, expected, tally, solve=recorder.wrap("controller.run", w.solve))
        spans = recorder.take()
        if plain is None:
            return None
        untraced.append(t)
        return sum(layer_self_times(aggregate(spans)).values())

    def traced_solve():
        # the wrapper cost follows the host's speed, so it is measured
        # around every traced solve
        before = calibrate(recorder)
        with recorder.patched():
            t, traced = timed(tally, "solve", recorder.wrap("controller.run", w.solve), cfg)
        spans = recorder.take()
        after = calibrate(recorder)
        bias = {cpu: tuple((b + a) / 2 for b, a in zip(before[cpu], after[cpu])) for cpu in before}
        add({"bench.span_cost_s": sum(bias[True]), "bench.wall_only_span_cost_s": sum(bias[False])})
        if traced is None:
            return None
        nonlocal results, solve_spans
        tally.record("solve", check_solve(w, cfg, traced, ref, expected))
        results = (results + [traced])[-KEPT_RESULTS:]  # a bounded heap for every solve
        solve_spans = spans
        layers = per_solve_layers(w, aggregate(spans, bias), traced)
        add(layers)
        add({"bench.traced_solve_s": t})
        return layers["bench.layer_sum_s"]

    # the analyses here only give per-layer medians, so most of the time
    # goes to solve pairs, which the reconciliation needs
    while until(start + seconds * (1.0 - min(w.analyze_share, 0.1)), attempts):
        # which side of a pair goes first alternates, so neither gains from order
        if attempts % 2:
            layer_sum, plain_seconds = traced_solve(), untraced_solve()
        else:
            plain_seconds, layer_sum = untraced_solve(), traced_solve()
        attempts += 1
        if layer_sum is not None and plain_seconds is not None:
            thread_seconds.append(plain_seconds)
            paired.append((layer_sum, plain_seconds))
        if w.mode == "parallel":
            # threaded-over-serial: the same config in the serial execution model
            t, serial = solve_checked(w, cfg, ref, expected, tally, solve=lambda c: w.solve(c, "serial"))
            if serial is not None:
                serial_model.append(t)

    path = OUT / f"{w.name}.trc.jsonl"
    bias = calibrate(recorder)
    analysis_spans, attempts, late_receivers = [], 0, 0
    while results and until(start + seconds, attempts):
        result = results[attempts % len(results)]
        attempts += 1
        with recorder.patched():
            _, outputs = timed(tally, "analyze", analyze, result.trace, path, recorder.call)
        spans = recorder.take()
        if outputs is not None:
            tally.record("analyze", check_analysis(w, result, outputs, expected))
            analysis_spans = spans
            add(per_analysis_layers(aggregate(spans, bias), outputs, path))
            late_receivers += any(ws.pattern == "late-receiver" for ws in outputs[4])
    if w.mode == "parallel":
        tally.record("wait states", [] if late_receivers else ["no Late Receiver in any traced solve"])
    write_spans(solve_spans, OUT / f"{w.name}.solve.spans.jsonl")
    write_spans(analysis_spans, OUT / f"{w.name}.analyze.spans.jsonl")

    solve_s = statistics.median(untraced) if untraced else 0.0
    # the median over pairs: a slow spell of the host that hits one side of
    # a pair spoils that pair only
    samples["bench.reconcile_ratio"] = [a / b for a, b in paired]
    ratio = statistics.median(samples["bench.reconcile_ratio"]) if paired else 0.0
    samples["bench.solve_s"] = untraced
    samples["bench.solve_thread_s"] = thread_seconds
    samples["bench.trace_overhead_s"] = [statistics.median(samples.get("bench.traced_solve_s", [0.0])) - solve_s]
    samples["controller.threaded_over_serial"] = [
        solve_s / statistics.median(serial_model) if serial_model and untraced else 0.0
    ]
    miss = abs(ratio - 1.0) > RECONCILE_TOLERANCE
    tally.record("reconcile", [
        f"layer self times sum to {ratio:.3f} x the thread-seconds of an untraced solve "
        f"(allowed 1 +- {RECONCILE_TOLERANCE})"
    ] if miss else [])
    return samples


def load_metric_spec(traced):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def run_one(name, seed, seconds, traced):
    w = WORKLOADS[name]
    env = environment()
    if w.mode == "parallel" and w.workers > env["nproc"]:
        print(f"refusing {name}: {w.workers} worker threads on {env['nproc']} processors", file=sys.stderr)
        return 2
    inputs = w.draw_inputs(seed)
    expected = load_traffic()[name]
    print(f"env: {json.dumps(env)}")
    print(f"workload: {name} seed={seed} inputs={json.dumps(inputs)} seconds={seconds} trace={int(traced)}")

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    cfg = w.build(inputs)
    ref = w.reference(cfg)
    # warm-up: fills numpy's FFT caches; checked, not timed
    solve_checked(w, cfg, ref, expected, tally)

    measure = per_layer if traced else end_to_end
    samples = measure(w, cfg, ref, expected, inputs, seconds, tally)

    metrics = {}
    missing = []
    for spec in load_metric_spec(traced):
        values = samples.get(spec["name"])
        if not values:
            missing.append(spec["name"])
            continue
        # end to end: the mean, i.e. seconds per operation at the run's
        # throughput.  On the shared 2-vCPU VM it was tuned on, CPU speed
        # switches between two levels ~1.7x apart every few seconds (other
        # tenants), so a run's median jumps between the levels while its
        # mean moves with the share of time spent in each.
        value = statistics.fmean(values) if not traced else statistics.median(values)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<36} {value:>14.6g} {spec['unit']:<6} "
              f"(n={len(values)}, median {statistics.median(values):.6g}, max {max(values):.6g})")
    tally.record("metrics", [f"no samples of {', '.join(missing)}"] if missing else [])
    with open(OUT / f"{name}.trace{int(traced)}.samples.json", "w") as fh:
        json.dump(samples, fh)

    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in a process of its own; non-zero if any failed."""
    failed = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        if subprocess.run(cmd).returncode != 0:
            failed.append(name)
    print(f"== {len(WORKLOADS) - len(failed)} of {len(WORKLOADS)} workloads passed every check"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
