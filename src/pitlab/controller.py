"""PFASST orchestration under two interchangeable execution models.

Each time step is owned by one worker.  A run starts with the predictor
staircase on the coarse level, then iterates the multigrid-like cycle:
fine sweeps with a nonblocking forward send of the end value, transfer
down with the FAS correction, the serialized coarse chain, the coarse
correction back up, and the convergence check.  A worker may stop only
once its own residual is below tolerance and its predecessor has
stopped; the stop status travels forward on a dedicated tag together
with the final fine value.

Both execution models call each worker's `run_all`, which runs the
predictor and then one iteration at a time until the worker stops.  The
parallel model runs every worker on its own thread over in-process
channels.  The serial model runs the workers one after another, in rank
order, in a single thread.  That is valid because a worker receives only
from rank - 1 and sends only to rank + 1, and the serial model's sends
are eager: no rank ever waits on a later one, and rank p finds every
message of rank p - 1 already queued.  A channel therefore holds its
sender's whole output until the receiver runs.  Both models produce
bit-identical iterates; a serial run that fails stops before the later
ranks start.
"""

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import trace as tracing
from .collocation import make_radau_table
from .comm import (
    DEFAULT_RENDEZVOUS_BYTES,
    Network,
    RunAborted,
    pack_array,
    pack_status,
    unpack_array,
    unpack_status,
)
from .problems import AllenCahnProblem, DahlquistProblem, ac_initial_condition
from .sweeper import LevelState, imex_sweep, residual
from .transfer import IdentityResampler, LevelPair, SpectralResampler, compute_fas_tau

__all__ = [
    "RunConfig",
    "RunResult",
    "ConvergenceFailure",
    "DivergedError",
    "NotConvergedError",
    "run",
    "run_sdc_serial",
    "format_summary",
    "dahlquist_config",
    "allen_cahn_config",
]

DIVERGENCE_LIMIT = 1e6


class ConvergenceFailure(RuntimeError):
    """A run stopped unconverged; residuals: rank -> last residual or None."""

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals or {}


class DivergedError(ConvergenceFailure):
    pass


class NotConvergedError(ConvergenceFailure):
    pass


@dataclass
class RunConfig:
    """Everything one run needs: problem, levels, numerics, transport."""

    pair: LevelPair
    u0: np.ndarray
    num_steps: int
    dt: float
    fine_sweeps: int = 3
    coarse_sweeps: int = 1
    tolerance: float = 1e-8
    max_iterations: int = 50
    rendezvous_bytes: int = DEFAULT_RENDEZVOUS_BYTES
    latency: float = 0.0
    compute_delay: dict = field(default_factory=dict)  # rank -> seconds per fine sweep

    def validate(self):
        if not 0 < self.tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.fine_sweeps < 1 or self.coarse_sweeps < 1:
            raise ValueError("sweep counts must be at least 1")
        if self.num_steps < 1:
            raise ValueError(f"need at least one step, got {self.num_steps}")
        if not 0 < self.dt < float("inf"):
            raise ValueError(f"step size must be finite and positive, got {self.dt}")
        if self.max_iterations < 1:
            raise ValueError(f"need at least one iteration, got {self.max_iterations}")
        if not 0 <= self.latency < float("inf"):
            raise ValueError(f"latency must be finite and non-negative, got {self.latency}")
        if not self.rendezvous_bytes >= 0:
            raise ValueError(f"rendezvous threshold must be non-negative, got {self.rendezvous_bytes}")


@dataclass
class RunResult:
    """What a run recorded: per rank (per step for serial SDC) its final
    value, iteration count and residual history, plus the merged trace,
    the fine sweeps made and the channel audit."""

    final_values: list
    iterations: list
    wall_time: float
    trace: tracing.Trace
    residual_histories: list
    fine_sweep_count: int
    comm_audit: dict

    @property
    def mean_iterations(self):
        return math.fsum(self.iterations) / len(self.iterations)


def format_summary(result):
    """The two output lines the benchmark harness scrapes."""
    return [
        f"Time to solution: {result.wall_time:.6f} sec.",
        f"Mean number of iterations: {result.mean_iterations:.6f}",
    ]


class _Worker:
    """State machine for one time step; one instance per rank.  Its
    iteration count is the length of its residual history, which gets one
    residual per iteration."""

    def __init__(self, rank, config, network, tracer):
        self.rank = rank
        self.cfg = config
        self.pair = config.pair
        self.table = config.pair.fine_table  # both levels sweep with it
        self.tracer = tracer
        self.ep = network.endpoint(rank, tracer)
        self.fine = None
        self.coarse = None
        self._restricted = None
        self.prev_stopped = rank == 0  # first worker checks only its residual
        self.stopped = False
        self.residual_history = []
        # one reusable region per phase, its name formatted once
        self._regions = {phase: tracer.region(tracing.region_name(phase, rank)) for phase in tracing.PHASES}

    def _send(self, tag, payload):
        if self.rank + 1 < self.cfg.num_steps:
            handle = self.ep.isend(self.rank + 1, tag, payload)
            self.ep.wait(handle)

    def _recv(self, tag):
        return self.ep.recv(self.rank - 1, tag)

    def predictor(self):
        """Coarse staircase burn-in: rank p sweeps p+1 times, forwarding
        its end value after each sweep and refining its initial value
        from behind, then corrects the fine level by prolongation."""
        cfg = self.cfg
        with self._regions["PREDICT"]:
            self.fine = LevelState.spread(cfg.u0, self.table.m, cfg.dt, self.pair.fine_problem)
            coarse_u0 = self.pair.restrict(self.fine.u0)
            self.coarse = LevelState.spread(coarse_u0, self.table.m, cfg.dt, self.pair.coarse_problem)
            self._restricted = self.coarse.u.copy()
            for s in range(self.rank + 1):
                imex_sweep(self.coarse, self.table, self.pair.coarse_problem)
                self._send(("coarse", "value", -(s + 1)), pack_array(self.coarse.u[-1]))
                if s < self.rank:
                    msg = self._recv(("coarse", "value", -(s + 1)))
                    self.coarse.u0 = unpack_array(msg.payload)
            self._correct_fine()

    def _correct_fine(self):
        self.fine.u += self.pair.prolong(self.coarse.u - self._restricted)
        self.fine.refresh_rhs(self.pair.fine_problem)

    def iteration(self, k):
        cfg = self.cfg
        delay = cfg.compute_delay.get(self.rank, 0.0)
        for s in range(cfg.fine_sweeps):
            with self._regions["IT_FINE"]:
                if delay:
                    time.sleep(delay)
                imex_sweep(self.fine, self.table, self.pair.fine_problem)
                if s == cfg.fine_sweeps - 1:
                    # under a progress-free (rendezvous) transport this wait
                    # blocks inside the fine sweep until the successor posts
                    # its receive, the Late Receiver the analyzer looks for
                    self._send(("fine", "value", k), pack_array(self.fine.u[-1]))

        # while the predecessor runs, IT_COARSE replaces coarse.u0 with its
        # coarse value, so u0 is restricted only on rank 0 or after it stopped
        waiting = self.rank > 0 and not self.prev_stopped
        with self._regions["IT_DOWN"]:
            # the updated fine initial value must be in before tau is formed
            if waiting:
                msg = self._recv(("fine", "value", k))
                self.fine.u0 = unpack_array(msg.payload)
            self._restricted = self.pair.restrict(self.fine.u)
            self.coarse.u = self._restricted.copy()
            if not waiting:
                self.coarse.u0 = self.pair.restrict(self.fine.u0)
            self.coarse.refresh_rhs(self.pair.coarse_problem)
            self.coarse.tau = compute_fas_tau(self.fine, self.coarse, self.pair)

        with self._regions["IT_COARSE"]:
            # serialized receive -> sweep -> send along the ranks
            if waiting:
                msg = self._recv(("coarse", "value", k))
                self.coarse.u0 = unpack_array(msg.payload)
            for _ in range(cfg.coarse_sweeps):
                imex_sweep(self.coarse, self.table, self.pair.coarse_problem)
            self._send(("coarse", "value", k), pack_array(self.coarse.u[-1]))

        with self._regions["IT_UP"]:
            self._correct_fine()

        with self._regions["IT_CHECK"]:
            if waiting:
                msg = self._recv(("fine", "status", k))
                stopped, final = unpack_status(msg.payload)
                self.prev_stopped = stopped
                if final is not None:
                    self.fine.u0 = final
            res = residual(self.fine, self.table)
            self.residual_history.append(res)
            if not np.isfinite(res) or res > DIVERGENCE_LIMIT:
                raise DivergedError(f"worker {self.rank} diverged at iteration {k}: residual {res:.3e}")
            stop = res <= cfg.tolerance and self.prev_stopped
            self._send(("fine", "status", k), pack_status(stop, self.fine.u[-1] if stop else None))
            if stop:
                self.stopped = True

    def run_all(self):
        """The worker's life: the predictor, then one iteration at a time
        until it stops."""
        self.predictor()
        k = 0
        while not self.stopped:
            k += 1
            if k > self.cfg.max_iterations:
                raise NotConvergedError(f"worker {self.rank} hit max iterations ({self.cfg.max_iterations})")
            self.iteration(k)


def run(config, mode="parallel"):
    """Integrate all steps with PFASST; returns a RunResult.

    In parallel mode each worker is a thread; in serial mode the workers
    run to their end one after another, in rank order.  The iterates are
    identical.  A ConvergenceFailure maps every rank to its worker's last
    residual, or to None for a worker that has not finished an iteration
    (in serial mode, every rank after the one that failed).
    """
    config.validate()
    if mode not in ("serial", "parallel"):
        raise ValueError(f"mode must be 'serial' or 'parallel', got {mode!r}")
    p = config.num_steps
    serial = mode == "serial"
    network = Network(
        p,
        # rank p - 1 finishes before rank p posts any receive, so a
        # rendezvous send would deadlock and a latency would only sleep
        rendezvous_bytes=float("inf") if serial else config.rendezvous_bytes,
        latency=0.0 if serial else config.latency,
    )
    tracers = [tracing.Tracer(r) for r in range(p)]
    workers = [_Worker(r, config, network, tracers[r]) for r in range(p)]

    start = time.perf_counter()
    try:
        if serial:
            for w in workers:
                w.run_all()
        else:
            _run_parallel(workers, network)
    except ConvergenceFailure as exc:
        exc.residuals = {w.rank: w.residual_history[-1] if w.residual_history else None for w in workers}
        raise
    wall = time.perf_counter() - start

    merged = tracing.merge_tracers(tracers)
    audit = {
        "channels": network.audit(),
        "unwaited": {w.rank: w.ep.unwaited for w in workers},
    }
    iterations = [len(w.residual_history) for w in workers]
    return RunResult(
        final_values=[w.fine.u[-1].copy() for w in workers],
        iterations=iterations,
        wall_time=wall,
        trace=merged,
        residual_histories=[list(w.residual_history) for w in workers],
        fine_sweep_count=config.fine_sweeps * sum(iterations),
        comm_audit=audit,
    )


def _run_parallel(workers, network):
    errors = {}

    def runner(worker):
        try:
            worker.run_all()
        except RunAborted:
            pass  # secondary failure caused by another worker's abort
        except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
            errors[worker.rank] = exc
            network.abort(f"worker {worker.rank} failed: {exc}")

    threads = [threading.Thread(target=runner, args=(w,), name=f"pfasst-worker-{w.rank}") for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]


def run_sdc_serial(problem, table, u0, dt, num_steps, tolerance=1e-8, max_sweeps=100):
    """Plain single-level SDC time stepping, the time-serial baseline.

    Sweeps each step until the residual is below tolerance, then moves
    on with the last-node value as the next initial value; one state,
    refilled in place, serves every step.
    """
    tracer = tracing.Tracer(0)
    fine_region, check_region = (tracer.region(tracing.region_name(phase, 0)) for phase in ("IT_FINE", "IT_CHECK"))
    values, counts, histories = [], [], []
    start = time.perf_counter()
    state = LevelState.spread(u0, table.m, dt, problem)
    for step in range(num_steps):
        if step:
            state.respread(values[-1], problem)
        history = []
        k = 0
        while True:
            with fine_region:
                imex_sweep(state, table, problem)
            k += 1
            with check_region:
                res = residual(state, table)
            history.append(res)
            if not np.isfinite(res) or res > DIVERGENCE_LIMIT:
                raise DivergedError(f"serial SDC diverged: residual {res:.3e}", {0: res})
            if res <= tolerance:
                break
            if k >= max_sweeps:
                raise NotConvergedError(f"serial SDC: {max_sweeps} sweeps without convergence", {0: res})
        values.append(state.u[-1].copy())
        counts.append(k)
        histories.append(history)
    wall = time.perf_counter() - start
    merged = tracing.merge_tracers([tracer])
    return RunResult(
        final_values=values,
        iterations=counts,
        wall_time=wall,
        trace=merged,
        residual_histories=histories,
        fine_sweep_count=sum(counts),
        comm_audit={"channels": {}, "unwaited": {}},
    )


def dahlquist_config(
    num_steps,
    dt,
    m=3,
    lambda_implicit=-1.0,
    lambda_explicit=0.0,
    u0=1.0,
    implicit="lu",
    **kwargs,
):
    """Two-level Dahlquist setup (identity space transfer)."""
    problem = DahlquistProblem(lambda_implicit, lambda_explicit)
    table = make_radau_table(m, implicit=implicit)
    pair = LevelPair(
        fine_problem=problem,
        coarse_problem=problem,
        resampler=IdentityResampler(),
        fine_table=table,
    )
    return RunConfig(
        pair=pair,
        u0=np.atleast_1d(np.asarray(u0, dtype=float)),
        num_steps=num_steps,
        dt=dt,
        **kwargs,
    )


def allen_cahn_config(
    num_steps,
    dt,
    n=128,
    coarse_n=32,
    eps=0.04,
    lpatches=1,
    seed=1,
    radius=None,
    m=3,
    implicit="lu",
    **kwargs,
):
    """Two-level Allen-Cahn setup with spectral space coarsening."""
    fine = AllenCahnProblem(n, lpatches, eps)
    coarse = AllenCahnProblem(coarse_n, lpatches, eps)
    table = make_radau_table(m, implicit=implicit)
    field0 = ac_initial_condition(lpatches, eps, n, seed, radius=radius)
    return RunConfig(
        pair=LevelPair(
            fine_problem=fine,
            coarse_problem=coarse,
            resampler=SpectralResampler(n, coarse_n),
            fine_table=table,
        ),
        u0=field0.values,
        num_steps=num_steps,
        dt=dt,
        **kwargs,
    )
