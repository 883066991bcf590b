"""The four benchmark workloads: inputs from a seed, set-up, solve, analysis, checks.

Every workload drives pitlab only through its public entry points:
`controller.run` / `controller.run_sdc_serial` for the integration, then
the calls `pitlab analyze` makes on the written trace.  The seed is
turned into problem values here; pitlab receives only those values.

Why these four:
- ac_pfasst_serial: the desk-scale PFASST run; spectral kernels and
  transfer do the work, comm and trace almost none.
- ac_pfasst_threads: the same kernels on two worker threads with
  rendezvous transport, so GIL/FFT scaling, blocked send/receive and real
  Late Receiver / Late Sender waits show.
- ac_sdc_256: the time-serial sweep kernel alone on a 256^2 grid (working
  set larger than L2); no transfer, comm or second rank.
- scalar_pfasst_p32: scalar numerics on 32 ranks, so per-message and
  per-event overhead is the solve, and its trace is the large-trace
  analysis input.
"""

import json
import os
import platform
import random
from pathlib import Path

import numpy as np

from pitlab import analysis, collocation, controller
from pitlab.problems import AllenCahnProblem, Field2D, ac_initial_condition, measure_radius
from pitlab.trace import build_profile, parse_region_name, read_trace, write_trace

HERE = Path(__file__).resolve().parent

# Input bands.  Across [0.22, 0.24] both Allen-Cahn PFASST configs keep the
# iteration counts in traffic.json ([4, 5, 5, 6] and [4, 5]); above r ~ 0.2525
# rank 1 converges one iteration earlier, which would make the traffic depend
# on the seed.  The library's own [0.5 eps, 3 eps] radius draw is not used:
# that circle vanishes within one step.
RADIUS_BAND = (0.22, 0.24)
LAMBDA_BAND = (-1.02, -0.98)

EPS = 0.04
TOLERANCE = 1e-8
PFASST_MATCH = 1e-6
CIRCLE_SLOPE_TOLERANCE = 0.15
POP_IDENTITY_TOLERANCE = 1e-12


class Workload:
    def __init__(self, name, kind, steps, dt, mode="serial", grid=None, coarse_grid=None,
                 rendezvous_bytes=None, analyze_share=0.25):
        self.name = name
        self.kind = kind  # "ac_pfasst", "ac_sdc" or "scalar_pfasst"
        self.steps = steps
        self.dt = dt
        self.mode = mode
        self.grid = grid
        self.coarse_grid = coarse_grid
        self.rendezvous_bytes = rendezvous_bytes
        self.analyze_share = analyze_share  # share of the timed seconds spent on analysis

    @property
    def pfasst(self):
        return self.kind != "ac_sdc"

    @property
    def workers(self):
        return self.steps if self.pfasst else 1

    def draw_inputs(self, seed):
        rng = random.Random(seed)
        if self.kind == "scalar_pfasst":
            return {"lambda_implicit": rng.uniform(*LAMBDA_BAND)}
        return {"radius": rng.uniform(*RADIUS_BAND)}

    def build(self, inputs):
        """The run's configuration: config, problem, initial condition, table."""
        if self.kind == "ac_pfasst":
            extra = {} if self.rendezvous_bytes is None else {"rendezvous_bytes": self.rendezvous_bytes}
            return controller.allen_cahn_config(
                self.steps, self.dt, n=self.grid, coarse_n=self.coarse_grid, eps=EPS,
                radius=inputs["radius"], fine_sweeps=3, coarse_sweeps=1, tolerance=TOLERANCE, **extra,
            )
        if self.kind == "scalar_pfasst":
            return controller.dahlquist_config(
                self.steps, self.dt, lambda_implicit=inputs["lambda_implicit"],
                fine_sweeps=3, coarse_sweeps=1, tolerance=TOLERANCE,
            )
        problem = AllenCahnProblem(self.grid, 1, EPS)
        u0 = ac_initial_condition(1, EPS, self.grid, 1, radius=inputs["radius"]).values
        return {"problem": problem, "table": collocation.make_radau_table(3), "u0": u0}

    def solve(self, cfg, mode=None):
        if self.pfasst:
            return controller.run(cfg, mode or self.mode)
        return controller.run_sdc_serial(cfg["problem"], cfg["table"], cfg["u0"], self.dt, self.steps,
                                         tolerance=TOLERANCE)

    def reference(self, cfg):
        """Serial SDC on the same input; for the threaded workload also the
        serial execution model of the same config."""
        ref = {}
        if self.pfasst:
            pair = cfg.pair
            ref["sdc"] = controller.run_sdc_serial(pair.fine_problem, pair.fine_table, cfg.u0, self.dt,
                                                   self.steps, tolerance=TOLERANCE).final_values
        if self.mode == "parallel":
            ref["serial_model"] = controller.run(cfg, "serial")
        return ref


def fingerprint(built):
    """A few numbers that identify a built input, to compare across processes."""
    if isinstance(built, dict):
        u0, table = built["u0"], built["table"]
    else:
        u0, table = built.u0, built.pair.fine_table
    return [list(u0.shape), float(np.sum(u0)), float(np.sum(table.q))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ac_pfasst_serial", "ac_pfasst", 4, 1e-3, grid=128, coarse_grid=32),
        Workload("ac_pfasst_threads", "ac_pfasst", 2, 1e-3, mode="parallel", grid=128, coarse_grid=32,
                 rendezvous_bytes=0),
        Workload("ac_sdc_256", "ac_sdc", 10, 2.5e-4, grid=256, analyze_share=0.15),
        Workload("scalar_pfasst_p32", "scalar_pfasst", 32, 0.1, analyze_share=0.6),
    )
}


def load_traffic():
    with open(HERE / "traffic.json") as fh:
        return json.load(fh)


def traffic_of(workload, result):
    """The counts that define a solve's traffic, in traffic.json's layout
    (traffic.json adds the wait states the analysis finds)."""
    return {
        "ranks": len(result.iterations) if workload.pfasst else 1,
        "grid": [n for n in (workload.grid, workload.coarse_grid) if n] or [1, 1],  # points per side, per level
        "fine_sweeps": result.fine_sweep_count,
        "iterations": list(result.iterations),
        "trace_events": len(result.trace.events),
        "messages": sum(c["sent"] for c in result.comm_audit["channels"].values()),
        "bytes_sent": sum(ev.bytes or 0 for ev in result.trace.events if ev.kind == "send-post"),
    }


def check_solve(workload, cfg, result, ref, expected):
    """Failure messages for one solve; empty when every check holds."""
    failures = []
    if workload.pfasst:
        worst = max(float(np.max(np.abs(a - b))) for a, b in zip(result.final_values, ref["sdc"]))
        if not worst <= PFASST_MATCH:
            failures.append(f"PFASST differs from serial SDC by {worst:.3e}")
        if result.iterations != sorted(result.iterations):
            failures.append(f"iterations not non-decreasing in rank: {result.iterations}")
        for src_dst, stats in result.comm_audit["channels"].items():
            if stats["sent"] != stats["received"] or stats["pending"]:
                failures.append(f"channel {src_dst} audit not clean: {stats}")
        if any(result.comm_audit["unwaited"].values()):
            failures.append(f"unwaited sends: {result.comm_audit['unwaited']}")
    else:
        radii = [measure_radius(Field2D(cfg["u0"], 1))]
        radii += [measure_radius(Field2D(u, 1)) for u in result.final_values]
        times = workload.dt * np.arange(workload.steps + 1)
        slope = float(np.polyfit(times, np.array(radii) ** 2, 1)[0])
        if not abs(slope / -2.0 - 1.0) <= CIRCLE_SLOPE_TOLERANCE:
            failures.append(f"circle-law slope {slope:.4f} not within 15 % of -2")
    last = [h[-1] for h in result.residual_histories]
    if not all(r <= TOLERANCE for r in last):
        failures.append(f"last residuals above tolerance: {max(last):.3e}")
    if "serial_model" in ref:
        serial = ref["serial_model"]
        if result.iterations != serial.iterations:
            failures.append(f"iterations {result.iterations} differ from serial model {serial.iterations}")
        if not all(np.array_equal(a, b) for a, b in zip(result.final_values, serial.final_values)):
            failures.append("iterates not bit-identical to the serial model")
    failures += [
        f"traffic {key}: expected {expected[key]}, got {value}"
        for key, value in traffic_of(workload, result).items()
        if value != expected[key]
    ]
    return failures


def _direct(name, fn, *args):
    return fn(*args)


def analyze(trace, path, call=_direct):
    """The `pitlab analyze` pipeline: write, read, profile, audit, POP, wait states.

    Each step goes through call(span name, function, *args), so a traced
    run can record a span around it.
    """
    call("trace.write", write_trace, trace, path)
    loaded = call("trace.read", read_trace, path)
    profile = call("trace.build_profile", build_profile, loaded)
    audit = call("analysis.audit_messages", analysis.audit_messages, loaded)
    pop = call("analysis.pop_metrics", analysis.pop_metrics, loaded)
    waits = call("analysis.late_receiver", analysis.detect_late_receiver, loaded)
    waits += call("analysis.late_sender", analysis.detect_late_sender, loaded)
    return loaded, profile, audit, pop, waits


def check_analysis(workload, result, outputs, expected):
    loaded, profile, audit, pop, waits = outputs
    failures = []
    if len(loaded.events) != len(result.trace.events):
        failures.append(f"read {len(loaded.events)} events, wrote {len(result.trace.events)}")
    if audit["unmatched_sends"] or audit["unmatched_recvs"]:
        failures.append(f"unmatched messages: {audit}")
    if audit["matched"] != expected["messages"]:
        failures.append(f"{audit['matched']} matched messages, expected {expected['messages']}")
    violations = analysis.causality_violations(loaded)
    if violations:
        failures.append(f"{violations} causality violations")
    if abs(pop.parallel_efficiency - pop.load_balance * pop.communication_efficiency) > POP_IDENTITY_TOLERANCE:
        failures.append("POP identity PE = LB * CE does not close")
    if abs(pop.communication_efficiency - pop.serialisation_efficiency * pop.transfer_efficiency) > POP_IDENTITY_TOLERANCE:
        failures.append("POP identity CE = SE * TE does not close")
    fine_regions = sum(
        reg.count for (_, name), reg in profile.regions.items() if parse_region_name(name)[0] == "IT_FINE"
    )
    if fine_regions != result.fine_sweep_count:
        failures.append(f"profile holds {fine_regions} fine sweeps, the run made {result.fine_sweep_count}")
    # the threaded model's waits depend on the scheduler
    if workload.mode != "parallel" and len(waits) != expected["wait_states"]:
        failures.append(f"{len(waits)} wait states, expected {expected['wait_states']}")
    return failures


def environment():
    """The facts a timing depends on, as one flat dict."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft": "numpy.fft (pocketfft)",
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        record[var] = os.environ.get(var)
    tasks = Path("/proc/self/task")
    record["process_threads"] = len(os.listdir(tasks)) if tasks.is_dir() else None
    return record
