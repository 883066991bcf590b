"""Automated parameter sweep with the workflow harness.

Writes a benchmark config with an indexed parameter pair (stepped
together rather than crossed), a jobscript template, and drives the
expansion, sandboxed execution and result-table extraction end to end.
The pair keeps steps x dt at 0.4, so the sweep integrates the same
interval on 1, 2 and 4 ranks.
"""

import sys
import tempfile
import textwrap
from pathlib import Path

from pitlab.harness import parse_config, run_benchmark

CONFIG = """
[benchmark]
name = time-parallel scaling demo
outpath = bench_run

[parameters]
i = 0, 1, 2
steps indexed-by i = 1, 2, 4
dt indexed-by i = 0.4, 0.2, 0.1
mode = serial, parallel

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
sort = steps
columns = steps, dt, mode, timing_pat, niter_pat
"""

TEMPLATE = """\
{python} -m pitlab run --problem dahlquist --steps #STEPS# --dt #DT# \
 --mode #MODE# --trace-out trace.trc > run.out
touch ready
"""


def main():
    workdir = Path(tempfile.mkdtemp(prefix="pitlab-sweep-"))
    (workdir / "bench.cfg").write_text(textwrap.dedent(CONFIG))
    (workdir / "run.tmpl").write_text(TEMPLATE.format(python=sys.executable))
    print(f"sweep workspace: {workdir}")

    cfg = parse_config(workdir / "bench.cfg")
    states, rows, csv_text, pretty = run_benchmark(cfg, jobs=3)
    done = sum(1 for st in states if st.state == "done")
    print(f"{done}/{len(states)} runs completed (3 indexed settings x 2 modes)\n")
    print(pretty)
    print(f"result table also written to {workdir / 'bench_run' / 'result.csv'}")


if __name__ == "__main__":
    main()
