"""Shared builders for synthetic traces used across test modules, the
earlier two-pass message pairing that the trace index is checked against,
and the earlier sweep layer and Allen-Cahn kernels that the stacked
right-hand side and the pass-by-pass transforms are checked against,
and the serial SDC stepping that spread a fresh state for each step;
also a runner for code that needs a fresh interpreter."""

import os
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pitlab.sweeper import LevelState, SolveFailure, imex_sweep, node_integrals, residual
from pitlab.trace import Trace, TraceEvent, build_profile, parse_region_name


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, **env):
    """Standard output of code run by a fresh interpreter on this checkout's
    sources; each keyword sets an environment variable, None unsets it."""
    full = dict(os.environ, PYTHONPATH=str(SRC))
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=full, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def ev(rank, kind, name, t, nbytes=None, peer=None):
    return TraceEvent(rank, kind, name, t, bytes=nbytes, peer=peer)


def make_trace(events, num_ranks):
    return Trace(events=sorted(events, key=lambda e: (e.t, e.rank)), num_ranks=num_ranks)


def events_by_rank(trace):
    """Each rank's events in trace order, bucketed apart from the index."""
    buckets = {r: [] for r in range(trace.num_ranks)}
    for event in trace.events:
        buckets.setdefault(event.rank, []).append(event)
    return buckets


def region_counts(trace, phase):
    """Per-rank count of the phase's regions, from the trace's profile."""
    counts = {r: 0 for r in range(trace.num_ranks)}
    for (rank, name), stats in build_profile(trace).regions.items():
        if parse_region_name(name)[0] == phase:
            counts[rank] += stats.count
    return counts


def pop_hand_trace():
    """Two-rank trace engineered to give T=10, c=(8,6), T_ideal=9.

    Rank 0 computes for 8 s, fires an eager send and then blocks 2 s in
    a receive; rank 1 computes 5 s, blocks 4 s receiving (1 s of it pure
    transfer), computes 1 s more and answers.  The replay compresses the
    schedule to 9 s.
    """
    events = [
        ev(0, "region-enter", "REGION -- IT_FINE -- 0", 0.0),
        ev(0, "region-exit", "REGION -- IT_FINE -- 0", 8.0),
        ev(0, "send-post", "fine/value/1", 8.0, 64, 1),
        ev(0, "send-complete", "fine/value/1", 8.0, 64, 1),
        ev(0, "recv-post", "fine/value/2", 8.0, 0, 1),
        ev(0, "recv-complete", "fine/value/2", 10.0, 64, 1),
        ev(1, "region-enter", "REGION -- IT_FINE -- 1", 0.0),
        ev(1, "region-exit", "REGION -- IT_FINE -- 1", 5.0),
        ev(1, "recv-post", "fine/value/1", 5.0, 0, 0),
        ev(1, "recv-complete", "fine/value/1", 9.0, 64, 0),
        ev(1, "region-enter", "REGION -- IT_CHECK -- 1", 9.0),
        ev(1, "region-exit", "REGION -- IT_CHECK -- 1", 10.0),
        ev(1, "send-post", "fine/value/2", 10.0, 64, 0),
        ev(1, "send-complete", "fine/value/2", 10.0, 64, 0),
    ]
    return make_trace(events, 2)


def fig5_trace():
    """One blocked send released by a receive posted 3 s later."""
    events = [
        ev(0, "send-post", "fine/value/1", 2.0, 4096, 1),
        ev(0, "send-complete", "fine/value/1", 5.0, 4096, 1),
        ev(1, "recv-post", "fine/value/1", 5.0, 0, 0),
        ev(1, "recv-complete", "fine/value/1", 5.0, 4096, 0),
    ]
    return make_trace(events, 2)


def synthetic_trace(num_ranks, iterations, messages):
    """PFASST-shaped trace of about num_ranks * iterations * (6 + 4 * messages) events.

    After a predictor, every iteration gives each rank a fine sweep of a
    rank- and iteration-dependent length.  At its end the rank posts
    `messages` non-blocking sends to the next rank and as many receives
    from the previous one, checks while they are in flight, completes
    them at staggered times, and ends with a coarse sweep.  The spans of
    one iteration overlap one another, send 0 completes at once (a
    zero-length span), and a sweep's exit, the posts and the check's
    entry share one timestamp.  Sweep lengths differ between
    neighbours, so the trace holds Late Receivers and Late Senders.
    Times are multiples of 1/8, and every receive completes after its
    send was posted.
    """
    def sweep_end(rank, base, k):
        return base + 1.0 + 0.5 * ((3 * rank + k) % 4)

    events = []
    for r in range(num_ranks):
        predict = f"REGION -- PREDICT -- {r}"
        events += [ev(r, "region-enter", predict, 0.25 * r), ev(r, "region-exit", predict, 2.0 + 0.25 * r)]
        for k in range(iterations):
            base = 2.0 + 0.25 * num_ranks + 8.0 * k
            t = sweep_end(r, base, k)
            fine, check, coarse = (f"REGION -- {p} -- {r}" for p in ("IT_FINE", "IT_CHECK", "IT_COARSE"))
            events += [ev(r, "region-enter", fine, base), ev(r, "region-exit", fine, t)]
            peers = []
            if r + 1 < num_ranks:
                peers.append(("send", r + 1, max(t, sweep_end(r + 1, base, k))))
            if r > 0:
                peers.append(("recv", r - 1, max(t, sweep_end(r - 1, base, k)) + 0.125))
            for side, peer, ready in peers:
                for j in range(messages):
                    nbytes = 8 if side == "send" else 0
                    events.append(ev(r, f"{side}-post", f"fine/value/{j}", t, nbytes, peer))
            events += [ev(r, "region-enter", check, t), ev(r, "region-exit", check, t + 1.0)]
            for side, peer, ready in peers:
                for j in range(messages):
                    done = t if (side, j) == ("send", 0) else ready + 0.25 * j
                    events.append(ev(r, f"{side}-complete", f"fine/value/{j}", done, 8, peer))
            events += [ev(r, "region-enter", coarse, base + 5.0), ev(r, "region-exit", coarse, base + 6.0)]
    return make_trace(events, num_ranks)


# The pairing the trace index replaced, as it was: match_messages over
# trace.events, and comm_intervals again over each rank's events.


def ref_comm_intervals(events):
    """Matched (post, complete) spans per rank, FIFO within (name, peer)."""
    spans = []
    open_ops = {}
    for ev in events:
        if ev.kind in ("send-post", "recv-post"):
            open_ops.setdefault((ev.kind[:4], ev.name, ev.peer), deque()).append(ev.t)
        elif ev.kind in ("send-complete", "recv-complete"):
            queue = open_ops.get((ev.kind[:4], ev.name, ev.peer))
            if queue:
                spans.append((queue.popleft(), ev.t))
    return spans


@dataclass
class _Match:
    source: int
    dest: int
    name: str
    send_post: float
    send_complete: float | None
    recv_post: float | None
    recv_complete: float | None
    send_at: int  # positions in trace.events of the two posts and the receive's completion
    recv_at: int | None = None
    recv_done_at: int | None = None


def ref_match_messages(trace):
    """Pair sends with receives by (source, dest, tag), FIFO within a key.

    Returns (matches, unmatched_sends, unmatched_recvs); matches may have
    a missing completion if the trace was cut short.  Each match records
    where its two post events and its receive completion sit in
    trace.events.
    """
    sends = {}  # (source, dest, name) -> [posts in order, how many of them have completed]
    recvs = {}
    for pos, ev in enumerate(trace.events):
        if ev.kind == "send-post":
            key = (ev.rank, ev.peer, ev.name)
            fifo = sends.get(key) or sends.setdefault(key, [[], 0])
            fifo[0].append(_Match(ev.rank, ev.peer, ev.name, ev.t, None, None, None, pos))
        elif ev.kind == "send-complete":
            fifo = sends.get((ev.rank, ev.peer, ev.name))
            if fifo and fifo[1] < len(fifo[0]):
                fifo[0][fifo[1]].send_complete = ev.t
                fifo[1] += 1
        elif ev.kind == "recv-post":
            key = (ev.peer, ev.rank, ev.name)
            fifo = recvs.get(key) or recvs.setdefault(key, [[], 0])
            fifo[0].append([ev.t, None, pos, None])
        elif ev.kind == "recv-complete":
            fifo = recvs.get((ev.peer, ev.rank, ev.name))
            if fifo and fifo[1] < len(fifo[0]):
                entry = fifo[0][fifo[1]]
                entry[1], entry[3] = ev.t, pos
                fifo[1] += 1
    matches, unmatched_sends, unmatched_recvs = [], [], []
    for key, (send_list, _) in sends.items():
        recv_list = recvs.pop(key, [[]])[0]
        for i, m in enumerate(send_list):
            if i < len(recv_list):
                m.recv_post, m.recv_complete, m.recv_at, m.recv_done_at = recv_list[i]
                matches.append(m)
            else:
                unmatched_sends.append(m)
        unmatched_recvs.extend(recv_list[len(send_list):])
    for leftover, _ in recvs.values():
        unmatched_recvs.extend(leftover)
    return matches, unmatched_sends, unmatched_recvs


def ping_pong_trace(num_ranks, rounds):
    """Rank 0 and the last rank exchange `rounds` ping-pongs; the ranks
    between them wait the whole run for one message from rank 0.  A replay
    that revisits every waiting rank per pass does rounds x ranks work."""
    last = num_ranks - 1
    events = []
    for k in range(rounds):
        ping, pong = f"ping/{k}", f"pong/{k}"
        events += [
            ev(last, "send-post", ping, 2.0 * k, 8, 0),
            ev(last, "send-complete", ping, 2.0 * k, 8, 0),
            ev(last, "recv-post", pong, 2.0 * k, 0, 0),
            ev(last, "recv-complete", pong, 2.0 * k + 1.0, 8, 0),
            ev(0, "recv-post", ping, 2.0 * k, 0, last),
            ev(0, "recv-complete", ping, 2.0 * k, 8, last),
            ev(0, "send-post", pong, 2.0 * k + 1.0, 8, last),
            ev(0, "send-complete", pong, 2.0 * k + 1.0, 8, last),
        ]
    for r in range(1, last):
        events += [
            ev(0, "send-post", "done", 2.0 * rounds, 8, r),
            ev(0, "send-complete", "done", 2.0 * rounds, 8, r),
            ev(r, "recv-post", "done", 0.0, 0, 0),
            ev(r, "recv-complete", "done", 2.0 * rounds, 8, 0),
        ]
    return make_trace(events, num_ranks)


# The sweep layer as it was before each level's right-hand sides became
# one (2, M, ...) stack: it reads and writes the f_imp and f_exp views.


def ref_imex_sweep(state, tab, problem):
    """One IMEX SDC sweep with per-term loops over the new values."""
    dt = state.dt
    q, qdi, qde = tab.q, tab.qd_imp, tab.qd_exp
    # u0, tau and the integral terms from the previous iterate, per node
    rhs = node_integrals(q - qdi, state.f_imp) + node_integrals(q - qde, state.f_exp)
    rhs *= dt
    rhs += state.u0
    if state.tau is not None:
        rhs += state.tau
    for row in range(tab.m):
        for j in range(row):
            rhs[row] += dt * (qdi[row, j] * state.f_imp[j] + qde[row, j] * state.f_exp[j])
        factor = dt * qdi[row, row]
        try:
            u_new = problem.implicit_solve(rhs[row], factor)
        except Exception as exc:
            raise SolveFailure(f"implicit solve failed at node {row}: {exc}", node=row) from exc
        state.u[row] = u_new
        state.f_imp[row] = (u_new - rhs[row]) / factor if factor else problem.eval_implicit(u_new)
        state.f_exp[row] = problem.eval_explicit(u_new)
    return state


def ref_residual(state, tab):
    """Max-norm collocation residual, integrating f_imp + f_exp."""
    defect = node_integrals(tab.q, state.f_imp + state.f_exp)
    defect *= state.dt
    defect += state.u0
    if state.tau is not None:
        defect += state.tau
    defect -= state.u
    return float(np.max(np.abs(defect)))


def ref_compute_fas_tau(fine_state, coarse_state, pair):
    """FAS correction, integrating f_imp + f_exp on each level."""
    dt = fine_state.dt
    fine_integral = dt * node_integrals(pair.fine_table.q, fine_state.f_imp + fine_state.f_exp)
    coarse_integral = dt * node_integrals(pair.coarse_table.q, coarse_state.f_imp + coarse_state.f_exp)
    if fine_state.tau is not None:
        fine_integral += fine_state.tau
    restricted = np.stack([pair.restrict(v) for v in fine_integral])
    return restricted - coarse_integral


# AllenCahnProblem's kernels as they were before the pass-by-pass
# transforms, called with the problem as self.


def ref_eval_implicit(self, u):
    return np.fft.irfft2(self._symbol * np.fft.rfft2(u), s=(self.n, self.n))


def ref_eval_explicit(self, u):
    return -(2.0 / self.eps**2) * u * (1.0 - u) * (1.0 - 2.0 * u)


def ref_implicit_solve(self, rhs, factor):
    """Solve (I - factor*Lap) u = rhs diagonally in Fourier space."""
    if factor < 0:
        raise ValueError(f"implicit solve needs a nonnegative factor, got {factor}")
    return np.fft.irfft2(np.fft.rfft2(rhs) * self._solve_multiplier(factor), s=(self.n, self.n))


# run_sdc_serial's stepping as it was before one state served every step.


def ref_run_sdc_serial(problem, table, u0, dt, num_steps, tolerance):
    """(final values, sweeps per step, residual histories), spreading a
    fresh LevelState for each step; untraced, no divergence checks."""
    u = np.asarray(u0)
    values, counts, histories = [], [], []
    for _ in range(num_steps):
        state = LevelState.spread(u, table.m, dt, problem)
        history = []
        while True:
            imex_sweep(state, table, problem)
            history.append(residual(state, table))
            if history[-1] <= tolerance:
                break
        u = state.u[-1].copy()
        values.append(u)
        counts.append(len(history))
        histories.append(history)
    return values, counts, histories
