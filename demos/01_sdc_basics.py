"""Collocation tables and SDC sweeps on the scalar decay problem.

Builds right Radau quadrature tables, shows the hand-checkable two-node
matrices, then iterates preconditioned sweeps against the direct
collocation solve and measures the convergence order in the step size.
"""

import numpy as np

from pitlab.collocation import build_Q, build_QDelta_LU, make_radau_table, radau_nodes
from pitlab.controller import run_sdc_serial
from pitlab.problems import DahlquistProblem
from pitlab.sweeper import LevelState, collocation_solve_direct, imex_sweep, residual


def main():
    print("Right Radau nodes on [0, 1]:")
    for m in (1, 2, 3, 5):
        print(f"  M={m}: {np.round(radau_nodes(m), 10)}")

    nodes = radau_nodes(2)
    q = build_Q(nodes)
    print("\nTwo-node integration matrix Q (rows integrate to each node):")
    print(q)
    print("LU-trick preconditioner U^T from Q^T = L U:")
    print(build_QDelta_LU(q))

    print("\nSweeping u' = -u, u(0) = 1 over one step of dt = 0.1, M = 3:")
    problem = DahlquistProblem(-1.0, 0.0)
    table = make_radau_table(3)
    exact = collocation_solve_direct(np.array([1.0]), table, problem, 0.1)
    state = LevelState.spread(np.array([1.0]), 3, 0.1, problem)
    for sweep in range(1, 9):
        imex_sweep(state, table, problem)
        err = max(np.abs(a - b).max() for a, b in zip(state.u, exact))
        print(f"  sweep {sweep}: residual {residual(state, table):.3e}   error vs direct {err:.3e}")

    print("\nGlobal convergence order at T = 1 (fully converged sweeps):")
    errors = []
    for dt in (0.1, 0.05, 0.025):
        result = run_sdc_serial(
            problem, table, np.array([1.0]), dt, round(1 / dt), tolerance=1e-13, max_sweeps=100
        )
        errors.append(abs(result.final_values[-1][0] - np.exp(-1.0)))
        print(f"  dt={dt}: error {errors[-1]:.3e}")
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    print(f"  observed orders {np.round(orders, 2)} (theory: 2M-1 = 5)")


if __name__ == "__main__":
    main()
