"""Command line front end: run, analyze, sweep, report.

`run` integrates a problem and writes the event trace plus the two
summary lines the harness scrapes; `analyze` turns a trace into POP
efficiency and wait-state reports; `sweep` drives a benchmark config
through the workflow harness; `report` re-renders result tables.

Exit codes: 0 success, 2 usage error, 3 divergence or non-convergence,
4 structural analysis error.  Every run flag has a config-file
equivalent (`key = value` lines, keys named like the long flags with
underscores); explicit flags win over the file.
"""

import argparse
import os
import sys
from pathlib import Path

from . import analysis, harness
from .comm import DEFAULT_RENDEZVOUS_BYTES
from .controller import (
    DivergedError,
    NotConvergedError,
    allen_cahn_config,
    dahlquist_config,
    format_summary,
    run,
    run_sdc_serial,
)
from .trace import StructuralError, TraceParseError, build_profile, read_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_ANALYSIS = 4

RUN_DEFAULTS = {
    "problem": "dahlquist",
    "steps": 4,
    "workers": None,
    "dt": 0.1,
    "mode": "parallel",
    "scheme": "pfasst",
    "num_nodes": 3,
    "fine_sweeps": 3,
    "coarse_sweeps": 1,
    "tol": 1e-8,
    "max_iters": 50,
    "lambda_implicit": -1.0,
    "lambda_explicit": 0.0,
    "implicit": "lu",
    "grid": 128,
    "coarse_grid": 32,
    "eps": 0.04,
    "lpatches": 1,
    "radius": None,
    "seed": 1,
    "backend": None,
    "rendezvous_bytes": DEFAULT_RENDEZVOUS_BYTES,
    "latency": 0.0,
    "trace_out": None,
}

_RUN_TYPES = {
    "steps": int, "workers": int, "dt": float, "num_nodes": int,
    "fine_sweeps": int, "coarse_sweeps": int, "tol": float, "max_iters": int,
    "lambda_implicit": float, "lambda_explicit": float, "grid": int,
    "coarse_grid": int, "eps": float, "lpatches": int, "radius": float,
    "seed": int, "rendezvous_bytes": int, "latency": float,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="pitlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a test problem and write a trace")
    p_run.add_argument("--config", help="config file with flag defaults")
    p_run.add_argument("--problem", choices=["dahlquist", "allen-cahn"])
    p_run.add_argument("--steps", type=int)
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--mode", choices=["serial", "parallel"])
    p_run.add_argument("--scheme", choices=["pfasst", "sdc"])
    p_run.add_argument("--num-nodes", type=int, dest="num_nodes", help="collocation nodes per step")
    p_run.add_argument("--fine-sweeps", type=int, dest="fine_sweeps")
    p_run.add_argument("--coarse-sweeps", type=int, dest="coarse_sweeps")
    p_run.add_argument("--tol", type=float)
    p_run.add_argument("--max-iters", type=int, dest="max_iters")
    p_run.add_argument("--lambda-implicit", type=float, dest="lambda_implicit")
    p_run.add_argument("--lambda-explicit", type=float, dest="lambda_explicit")
    p_run.add_argument("--implicit", choices=["lu", "be"], help="implicit preconditioner")
    p_run.add_argument("--grid", type=int, help="fine grid points per dimension")
    p_run.add_argument("--coarse-grid", type=int, dest="coarse_grid")
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--lpatches", type=int)
    p_run.add_argument("--radius", type=float, help="fixed initial circle radius")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--backend", choices=["eager", "rendezvous"])
    p_run.add_argument("--rendezvous-bytes", type=int, dest="rendezvous_bytes")
    p_run.add_argument("--latency", type=float)
    p_run.add_argument("--trace-out", dest="trace_out", help="trace path (else $PITLAB_TRACE_DIR)")

    p_an = sub.add_parser("analyze", help="POP metrics and wait states from a trace")
    p_an.add_argument("--trace", required=True)
    p_an.add_argument("--pop", action="store_true")
    p_an.add_argument("--wait-states", action="store_true", dest="wait_states")
    p_an.add_argument("--full-run", action="store_true", dest="full_run")
    p_an.add_argument("--format", choices=["csv", "text"], default="csv")
    p_an.add_argument("--out-dir", dest="out_dir")
    p_an.add_argument("--min-wait", type=float, default=0.0, dest="min_wait")

    p_sw = sub.add_parser("sweep", help="drive a benchmark config")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--workdir")
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--done-timeout", type=float, default=120.0, dest="done_timeout")

    p_rep = sub.add_parser("report", help="re-render a result table")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--sort")
    p_rep.add_argument("--format", choices=["csv", "text"], default="text")
    p_rep.add_argument("--out")
    return parser


def _read_flag_file(path):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values

def _resolve_run_options(args):
    from_file = _read_flag_file(args.config) if args.config else {}
    options = {}
    for key, default in RUN_DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            options[key] = flag
        elif key in from_file:
            caster = _RUN_TYPES.get(key, str)
            options[key] = caster(from_file[key])
        else:
            options[key] = default
    return options


def _trace_path(options):
    if options["trace_out"]:
        return Path(options["trace_out"])
    directory = Path(os.environ.get("PITLAB_TRACE_DIR", "."))
    name = f"{options['problem']}-{options['scheme']}-{options['mode']}-p{options['workers']}.trc.jsonl"
    return directory / name


def _cmd_run(args):
    options = _resolve_run_options(args)
    if options["backend"] == "eager":
        options["rendezvous_bytes"] = 1 << 62
    elif options["backend"] == "rendezvous":
        options["rendezvous_bytes"] = 0

    common = dict(
        fine_sweeps=options["fine_sweeps"],
        coarse_sweeps=options["coarse_sweeps"],
        tolerance=options["tol"],
        max_iterations=options["max_iters"],
        rendezvous_bytes=options["rendezvous_bytes"],
        latency=options["latency"],
    )
    try:
        if options["scheme"] == "sdc":
            if options["workers"] not in (None, 1):
                print("sdc scheme is the time-serial baseline; it uses one worker", file=sys.stderr)
                return EXIT_USAGE
            options["workers"] = 1
            result = _run_sdc(options)
        else:
            options["workers"] = options["workers"] or options["steps"]
            if options["problem"] == "dahlquist":
                config = dahlquist_config(
                    options["steps"], options["dt"], workers=options["workers"],
                    m=options["num_nodes"], lambda_implicit=options["lambda_implicit"],
                    lambda_explicit=options["lambda_explicit"], implicit=options["implicit"],
                    **common,
                )
            else:
                config = allen_cahn_config(
                    options["steps"], options["dt"], n=options["grid"],
                    coarse_n=options["coarse_grid"], eps=options["eps"],
                    lpatches=options["lpatches"], seed=options["seed"],
                    radius=options["radius"], workers=options["workers"],
                    m=options["num_nodes"], implicit=options["implicit"],
                    **common,
                )
            result = run(config, mode=options["mode"])
    except (DivergedError, NotConvergedError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    path = _trace_path(options)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(result.trace, path)
    for line in format_summary(result):
        print(line)
    print(f"Trace written to {path}")
    return EXIT_OK


def _run_sdc(options):
    from .collocation import make_radau_table
    from .problems import AllenCahnProblem, DahlquistProblem, ac_initial_condition
    import numpy as np

    table = make_radau_table(options["num_nodes"], implicit=options["implicit"])
    if options["problem"] == "dahlquist":
        problem = DahlquistProblem(options["lambda_implicit"], options["lambda_explicit"])
        u0 = np.array([1.0])
    else:
        problem = AllenCahnProblem(options["grid"], options["lpatches"], options["eps"])
        u0 = ac_initial_condition(
            options["lpatches"], options["eps"], options["grid"], options["seed"],
            radius=options["radius"],
        ).values
    return run_sdc_serial(
        problem, table, u0, options["dt"], options["steps"],
        tolerance=options["tol"], max_sweeps=options["max_iters"],
    )


def _cmd_analyze(args):
    do_pop = args.pop or not (args.pop or args.wait_states)
    do_wait = args.wait_states or not (args.pop or args.wait_states)
    suffix = "csv" if args.format == "csv" else "txt"
    try:
        trace = read_trace(args.trace)
        out_dir = Path(args.out_dir) if args.out_dir else Path(args.trace).parent
        out_dir.mkdir(parents=True, exist_ok=True)
        profile = build_profile(trace)  # also validates nesting and pairing structure
        audit = analysis.audit_messages(trace)
        print(
            "messages: {send_posts} sent, {recv_posts} received, "
            "{matched} matched, {unmatched_sends}/{unmatched_recvs} unmatched".format(**audit)
        )
        print("profile, summed over ranks:")
        print(f"  {'phase':<10} {'count':>7} {'inclusive_s':>12} {'exclusive_s':>12}")
        for phase, total in profile.phase_totals().items():
            print(f"  {phase:<10} {total.count:>7} {total.inclusive:>12.6f} {total.exclusive:>12.6f}")
        if do_pop:
            report = analysis.pop_metrics(trace, full_run=args.full_run)
            path = analysis.emit_report(report, out_dir / f"pop.{suffix}", fmt=args.format)
            print(f"POP report written to {path}")
            print(Path(path).read_text(), end="")
        if do_wait:
            states = analysis.detect_late_receiver(trace, min_wait=args.min_wait)
            states += analysis.detect_late_sender(trace, min_wait=args.min_wait)
            path = analysis.emit_report(states, out_dir / f"waitstates.{suffix}", fmt=args.format)
            print(f"Wait-state report written to {path}")
            print(Path(path).read_text(), end="")
    except (
        TraceParseError,
        StructuralError,
        analysis.CausalityError,
        analysis.EmptyPhaseError,
        analysis.ReplayError,
    ) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_sweep(args):
    try:
        cfg = harness.parse_config(args.config)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    states, rows, csv_text, pretty = harness.run_benchmark(
        cfg, base_dir=args.workdir, jobs=args.jobs, done_timeout=args.done_timeout
    )
    print(pretty, end="")
    failed = [st for st in states if st.state != "done"]
    if failed:
        for st in failed:
            print(f"run {st.spec.index} {st.state}: {st.stderr.strip()}", file=sys.stderr)
        return 1
    return EXIT_OK


def _cmd_report(args):
    import csv as csv_module

    with open(args.input, newline="") as fh:
        reader = csv_module.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    try:
        csv_text, pretty = harness.render_table(rows, header, sort=args.sort)
    except harness.ConfigError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = csv_text if args.format == "csv" else pretty
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.error(f"unknown command {args.command}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
