"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
The expensive runs are shared through module-scoped fixtures.
"""

import dataclasses
import functools
import sys
import textwrap

import numpy as np
import pytest

from conftest import fig5_trace, pop_hand_trace
from pitlab.analysis import audit_messages, detect_late_receiver, pop_metrics
from pitlab.collocation import build_Q, build_QDelta_LU, make_radau_table, radau_nodes
from pitlab.controller import allen_cahn_config, run, run_sdc_serial
from pitlab.problems import AllenCahnProblem, DahlquistProblem, Field2D, ac_initial_condition, measure_radius
from pitlab.sweeper import LevelState, collocation_solve_direct, imex_sweep
from pitlab.trace import build_profile, parse_region_name


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:2d} FAIL  {desc}")
                raise
            print(f"\nACCEPTANCE {num:2d} PASS  {desc}")

        return wrapper

    return deco


AC_SETUP = dict(n=128, coarse_n=32, eps=0.04, lpatches=1, seed=1, radius=0.25)


@pytest.fixture(scope="module")
def pfasst_parallel_run():
    cfg = allen_cahn_config(4, 1e-3, fine_sweeps=3, coarse_sweeps=1, tolerance=1e-8, **AC_SETUP)
    return run(cfg, mode="parallel")


@pytest.fixture(scope="module")
def serial_sdc_baseline():
    problem = AllenCahnProblem(AC_SETUP["n"], AC_SETUP["lpatches"], AC_SETUP["eps"])
    u0 = ac_initial_condition(
        AC_SETUP["lpatches"], AC_SETUP["eps"], AC_SETUP["n"], AC_SETUP["seed"], radius=AC_SETUP["radius"]
    ).values
    return run_sdc_serial(problem, make_radau_table(3), u0, 1e-3, 4, tolerance=1e-8)


@pytest.fixture(scope="module")
def backend_runs():
    small = dict(n=64, coarse_n=16, eps=0.04, lpatches=1, seed=1, radius=0.25)
    rendezvous = run(allen_cahn_config(4, 1e-3, rendezvous_bytes=0, **small), mode="parallel")
    eager = run(allen_cahn_config(4, 1e-3, rendezvous_bytes=1 << 62, **small), mode="parallel")
    return rendezvous, eager


@criterion(1, "quadrature tables match hand-derived values")
def test_quadrature_tables():
    nodes2 = radau_nodes(2)
    q2 = build_Q(nodes2)
    assert np.abs(q2 - np.array([[5 / 12, -1 / 12], [3 / 4, 1 / 4]])).max() <= 1e-13
    qd2 = build_QDelta_LU(q2)
    assert np.abs(qd2 - np.array([[5 / 12, 0.0], [3 / 4, 2 / 5]])).max() <= 1e-13
    tab3 = make_radau_table(3)
    for k in range(3):
        lhs = tab3.q @ tab3.nodes**k
        rhs = tab3.nodes ** (k + 1) / (k + 1)
        assert np.abs(lhs - rhs).max() <= 1e-12


@criterion(2, "collocation order >= 4.5 on the linear decay problem")
def test_collocation_order():
    problem = DahlquistProblem(-1.0, 0.0)
    table = make_radau_table(3)
    errors = []
    # every error stays well above the rounding floor (the smallest is about 5e-13)
    for dt in (0.2, 0.1, 0.05, 0.025):
        steps = round(1.0 / dt)
        result = run_sdc_serial(
            problem, table, np.array([1.0]), dt, steps, tolerance=1e-14, max_sweeps=200
        )
        errors.append(abs(result.final_values[-1][0] - np.exp(-1.0)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 4.5, f"observed orders {orders}"


@criterion(3, "sweep fixed point independent of the preconditioner")
def test_preconditioner_independence():
    problem = DahlquistProblem(-1.0, 0.0)
    lu_table = make_radau_table(3)
    exact = collocation_solve_direct(np.array([1.0]), lu_table, problem, 0.1)
    # replace the implicit preconditioner with the explicit Euler matrix:
    # zero diagonal, so the "implicit" solve degenerates to identity
    ee_table = dataclasses.replace(lu_table, qd_imp=lu_table.qd_exp)
    for table in (lu_table, ee_table):
        state = LevelState.spread(np.array([1.0]), 3, 0.1, problem)
        for _ in range(40):
            imex_sweep(state, table, problem)
        assert max(np.abs(a - b).max() for a, b in zip(state.u, exact)) <= 1e-10


@criterion(4, "serial and parallel controllers yield the same results")
def test_two_controller_equivalence():
    configs = [
        ("dahlquist", dict(m=2, steps=2)),
        ("dahlquist", dict(m=3, steps=2)),
        ("dahlquist", dict(m=2, steps=4)),
        ("dahlquist", dict(m=3, steps=4)),
        ("allen-cahn", dict(steps=2)),
        ("allen-cahn", dict(steps=4)),
    ]
    for problem, spec in configs:
        if problem == "dahlquist":
            make = lambda: __import__("pitlab.controller", fromlist=["dahlquist_config"]).dahlquist_config(
                spec["steps"], 0.1, m=spec["m"]
            )
        else:
            make = lambda: allen_cahn_config(
                spec["steps"], 1e-3, n=64, coarse_n=16, eps=0.04, seed=1
            )
        serial = run(make(), mode="serial")
        parallel = run(make(), mode="parallel")
        assert serial.iterations == parallel.iterations, (problem, spec)
        for a, b in zip(serial.final_values, parallel.final_values):
            assert np.abs(a - b).max() <= 1e-12, (problem, spec)


def circle_slope(n, dt, steps, radius=0.25, eps=0.04):
    problem = AllenCahnProblem(n, 1, eps)
    u0 = ac_initial_condition(1, eps, n, 1, radius=radius).values
    result = run_sdc_serial(problem, make_radau_table(3), u0, dt, steps, tolerance=1e-8)
    radii = [measure_radius(Field2D(u0, 1))]
    radii += [measure_radius(Field2D(u, 1)) for u in result.final_values]
    times = dt * np.arange(steps + 1)
    return np.polyfit(times, np.array(radii) ** 2, 1)[0]


@criterion(5, "shrinking circle follows r^2 = r0^2 - 2t within 15%")
def test_shrinking_circle():
    slope = circle_slope(128, 1e-3, 20)
    assert abs(slope / -2.0 - 1.0) <= 0.15, f"desk-scale slope {slope}"
    reference = circle_slope(256, 2.5e-4, 80)
    assert abs(reference / -2.0 - 1.0) <= 0.15, f"reference slope {reference}"


@criterion(6, "PFASST matches time-serial SDC and stays within the sweep budget")
def test_pfasst_desk_scale(pfasst_parallel_run, serial_sdc_baseline):
    parallel = pfasst_parallel_run
    baseline = serial_sdc_baseline
    for a, b in zip(parallel.final_values, baseline.final_values):
        assert np.abs(a - b).max() <= 1e-6
    for history in parallel.residual_histories:
        assert history[-1] <= 1e-8  # every worker converged
    assert parallel.iterations == sorted(parallel.iterations)  # prefix stopping
    for stats in parallel.comm_audit["channels"].values():
        assert stats["sent"] == stats["received"]
        assert stats["pending"] == 0
    assert all(v == 0 for v in parallel.comm_audit["unwaited"].values())
    assert parallel.fine_sweep_count <= 1.5 * baseline.fine_sweep_count, (
        parallel.fine_sweep_count,
        baseline.fine_sweep_count,
    )


@criterion(7, "profiles conserve time and match the schedule exactly")
def test_trace_profile_conservation(pfasst_parallel_run):
    result = pfasst_parallel_run
    profile = build_profile(result.trace)
    for rank, stats in profile.ranks.items():
        exclusive = sum(reg.exclusive for (r, _), reg in profile.regions.items() if r == rank)
        assert abs(exclusive + stats.untracked - stats.runtime) <= 1e-9
    for rank, iters in enumerate(result.iterations):
        counts = {}
        for (r, name), reg in profile.regions.items():
            if r == rank:
                counts[parse_region_name(name)[0]] = reg.count
        assert counts["PREDICT"] == 1
        assert counts["IT_FINE"] == 3 * iters
        for phase in ("IT_DOWN", "IT_COARSE", "IT_UP", "IT_CHECK"):
            assert counts[phase] == iters
    audit = audit_messages(result.trace)
    assert audit["send_posts"] == audit["recv_posts"]
    assert audit["unmatched_sends"] == 0 and audit["unmatched_recvs"] == 0
    # the fine sweep dominates the exclusive time of the iteration phases
    agg = {}
    for (r, name), reg in profile.regions.items():
        phase = parse_region_name(name)[0]
        agg[phase] = agg.get(phase, 0.0) + reg.exclusive
    fine = agg["IT_FINE"]
    assert all(fine >= val for phase, val in agg.items() if phase.startswith("IT_")), agg


@criterion(8, "wait-state search finds the constructed and emergent Late Receivers")
def test_wait_state_oracle(backend_runs):
    states = detect_late_receiver(fig5_trace())
    assert len(states) == 1
    assert states[0].wait_s == pytest.approx(3.0, abs=1e-12)

    rendezvous, eager = backend_runs
    lr_rdv = detect_late_receiver(rendezvous.trace)
    total_rdv = sum(w.wait_s for w in lr_rdv)
    assert total_rdv > 0.0
    forward = {(w.sender, w.receiver) for w in lr_rdv}
    assert forward and all(dst == src + 1 for src, dst in forward)
    total_eager = sum(w.wait_s for w in detect_late_receiver(eager.trace))
    assert total_eager < 0.05 * total_rdv, (total_eager, total_rdv)


@criterion(9, "efficiency metrics close their identities and the hand case")
def test_pop_metrics(pfasst_parallel_run, backend_runs):
    hand = pop_metrics(pop_hand_trace())
    assert hand.load_balance == pytest.approx(0.875, abs=1e-12)
    assert hand.communication_efficiency == pytest.approx(0.8, abs=1e-12)
    assert hand.serialisation_efficiency == pytest.approx(8 / 9, abs=1e-12)
    assert hand.transfer_efficiency == pytest.approx(0.9, abs=1e-12)
    assert hand.parallel_efficiency == pytest.approx(0.7, abs=1e-12)
    for trace in (pfasst_parallel_run.trace, backend_runs[0].trace, backend_runs[1].trace):
        report = pop_metrics(trace)
        assert abs(report.parallel_efficiency - report.load_balance * report.communication_efficiency) <= 1e-12
        assert abs(
            report.communication_efficiency
            - report.serialisation_efficiency * report.transfer_efficiency
        ) <= 1e-12


SWEEP_CONFIG = textwrap.dedent(
    """
    [benchmark]
    outpath = bench_run

    [parameters]
    i = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
    nnodes indexed-by i = 1, 1, 1, 1, 1, 1, 2, 4, 6, 12
    ntasks indexed-by i = 1, 2, 4, 6, 12, 24, 24, 24, 24, 24
    space_size indexed-by i = 1, 2, 4, 6, 12, 24, 24, 24, 24, 24
    mpi = intel, parastation

    [files]
    copy = run.tmpl

    [substitutions]
    run.tmpl -> run.sh

    [steps]
    do = sh run.sh
    done_file = ready

    [patterns]
    timing_pat = Time to solution: $jube_pat_fp sec.
    niter_pat = Mean number of iterations: $jube_pat_fp

    [analysis]
    file = run.out

    [result]
    sort = space_size
    columns = nnodes, ntasks, space_size, mpi, timing_pat, niter_pat
    """
)

SWEEP_TEMPLATE = """\
echo "# nnodes=#NNODES# ntasks=#NTASKS# space=#SPACE_SIZE# mpi=#MPI#" > run.out
{python} -m pitlab run --problem dahlquist --steps 2 --dt 0.1 \
 --mode serial --trace-out trace.trc >> run.out
touch ready
"""


@criterion(10, "benchmark harness drives 20 sandboxed runs into a sorted table")
def test_harness_workflow(tmp_path):
    from pitlab.harness import parse_config, run_benchmark

    (tmp_path / "bench.cfg").write_text(SWEEP_CONFIG)
    (tmp_path / "run.tmpl").write_text(SWEEP_TEMPLATE.format(python=sys.executable))
    cfg = parse_config(tmp_path / "bench.cfg")
    states, rows, csv_text, pretty = run_benchmark(cfg, jobs=4)
    assert len(states) == 20
    assert all(st.state == "done" for st in states), [st.stderr for st in states if st.state != "done"]
    assert all((st.spec.sandbox / "ready").exists() for st in states)
    for row in rows:
        float(row["timing_pat"])
        float(row["niter_pat"])
    header, *data = csv_text.splitlines()
    assert header == "nnodes,ntasks,space_size,mpi,timing_pat,niter_pat"
    assert len(data) == 20
    sizes = [int(line.split(",")[2]) for line in data]
    assert sizes == sorted(sizes)
