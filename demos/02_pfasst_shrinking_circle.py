"""Time-parallel integration of the 2-D Allen-Cahn equation.

Runs the shrinking-circle benchmark with the time-serial baseline, then
integrates the same steps with PFASST on four concurrent workers and
with the serial emulation of the same schedule.  Both controllers must
produce the same iterates; the measured radius follows the
sharp-interface law r(t)^2 = r(0)^2 - 2t.
"""

import numpy as np

from pitlab.controller import allen_cahn_config, format_summary, run, run_sdc_serial
from pitlab.problems import Field2D, measure_radius

N, COARSE_N, EPS, DT, STEPS, R0 = 128, 32, 0.04, 1e-3, 4, 0.25


def main():
    config = allen_cahn_config(
        STEPS, DT, n=N, coarse_n=COARSE_N, eps=EPS, seed=1, radius=R0,
        fine_sweeps=3, coarse_sweeps=1, tolerance=1e-8,
    )
    pair, u0 = config.pair, config.u0
    print(f"grid {N}^2, coarse {COARSE_N}^2, eps={EPS}, initial radius {R0}")
    print(f"interface spans {pair.fine_problem.interface_cells():.1f} cells of width 7*eps\n")

    # the time-serial baseline runs the fine level of the same config
    baseline = run_sdc_serial(pair.fine_problem, pair.fine_table, u0, DT, STEPS, tolerance=config.tolerance)
    print("time-serial SDC sweeps per step:", baseline.iterations)
    radii = [measure_radius(Field2D(u0, 1))] + [
        measure_radius(Field2D(u, 1)) for u in baseline.final_values
    ]
    times = DT * np.arange(STEPS + 1)
    slope = np.polyfit(times, np.array(radii) ** 2, 1)[0]
    print(f"fitted d(r^2)/dt = {slope:.3f}  (sharp-interface law: -2)\n")

    parallel = run(config, mode="parallel")
    serial = run(config, mode="serial")
    print("PFASST iterations per step (parallel):", parallel.iterations)
    print("PFASST iterations per step (serial):  ", serial.iterations)
    cross = max(np.abs(a - b).max() for a, b in zip(parallel.final_values, serial.final_values))
    print(f"serial vs parallel max difference: {cross:.2e} (two-controller promise)")
    vs_base = max(np.abs(a - b).max() for a, b in zip(parallel.final_values, baseline.final_values))
    print(f"PFASST vs time-serial SDC: {vs_base:.2e}")
    print(
        f"total fine sweeps: PFASST {parallel.fine_sweep_count}, "
        f"serial SDC {baseline.fine_sweep_count}"
    )
    for line in format_summary(parallel):
        print(line)


if __name__ == "__main__":
    main()
