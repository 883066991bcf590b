"""Command line front end: run, analyze, sweep, report.

`run` integrates a problem and writes the event trace (trace format v3,
see `pitlab.trace`), by default to `<problem>-<scheme>-<mode>-p<N>.trc`
in $PITLAB_TRACE_DIR or the current directory, plus the two summary
lines the harness scrapes; `analyze` turns a trace into POP efficiency
and wait-state reports; `sweep` drives a benchmark config
through the workflow harness; `report` re-renders result tables.

Exit codes: 0 success, 2 usage error, 3 divergence or non-convergence,
4 structural analysis error or a trace that does not parse (a trace an
older pitlab wrote in format 1 or 2 among them: record the run again).  A trace
file or output directory that cannot be opened or made is a usage
error; `run` refuses a trace path that is a directory and makes the
trace's directory before it integrates.  `sweep`
exits 2 on a config error, which it reports before any run starts (a
run directory left by an earlier sweep is one), and 1 when some run is
not done; `report` exits 2 on a missing or empty input, a row with more
or fewer cells than the header, or an unknown sort column.

Each run option is declared once, as its flag.  A config file
(`--config`) holds `key = value` lines whose keys are the long flag
names, with `-` or `_`; each line is read as the flag `--key=value`
ahead of the command line, so keys are checked like flags, explicit
flags win, and unknown keys or rejected values exit 2.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

from . import analysis, harness
from .comm import DEFAULT_RENDEZVOUS_BYTES
from .controller import (
    ConvergenceFailure,
    allen_cahn_config,
    dahlquist_config,
    format_summary,
    run,
    run_sdc_serial,
)
from .analysis import CausalityError, EmptyPhaseError, ReplayError
from .trace import StructuralError, TraceParseError, build_profile, read_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_ANALYSIS = 4


def build_parser():
    parser = argparse.ArgumentParser(prog="pitlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="integrate a test problem and write a trace",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    opt = p_run.add_argument
    opt("--config", help="file of `key = value` lines, read as --key=value flags before the command line")
    opt("--problem", choices=["dahlquist", "allen-cahn"], default="dahlquist", help="test problem")
    opt("--steps", type=int, default=4, help="time steps")
    opt("--dt", type=float, default=0.1, help="step size")
    opt("--mode", choices=["serial", "parallel"], default="parallel", help="PFASST execution model")
    opt("--scheme", choices=["pfasst", "sdc"], default="pfasst", help="sdc: the time-serial baseline")
    opt("--num-nodes", type=int, default=3, help="collocation nodes per step")
    opt("--fine-sweeps", type=int, default=3, help="fine sweeps per iteration")
    opt("--coarse-sweeps", type=int, default=1, help="coarse sweeps per iteration")
    opt("--tol", type=float, default=1e-8, help="residual tolerance")
    opt("--max-iters", type=int, default=50, help="iterations (sdc: sweeps per step) before giving up")
    opt("--lambda-implicit", type=float, default=-1.0, help="Dahlquist implicit rate")
    opt("--lambda-explicit", type=float, default=0.0, help="Dahlquist explicit rate")
    opt("--implicit", choices=["lu", "be"], default="lu", help="implicit preconditioner")
    opt("--grid", type=int, default=128, help="fine grid points per dimension")
    opt("--coarse-grid", type=int, default=32, help="coarse grid points per dimension (pfasst only)")
    opt("--eps", type=float, default=0.04, help="Allen-Cahn interface width")
    opt("--lpatches", type=int, default=1, help="unit patches per side of the domain")
    opt("--radius", type=float, help="fixed initial circle radius; drawn from --seed if unset")
    opt("--seed", type=int, default=1, help="initial-condition seed")
    opt("--rendezvous-bytes", type=int, default=DEFAULT_RENDEZVOUS_BYTES,
        help="largest eager message; 0: all rendezvous; pfasst with --mode parallel only")
    opt("--latency", type=float, default=0.0,
        help="message delivery delay in seconds; pfasst with --mode parallel only")
    opt("--trace-out",
        help="trace path; else <problem>-<scheme>-<mode>-p<N>.trc in $PITLAB_TRACE_DIR or the current directory")

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

    p_rep = sub.add_parser("report", help="re-render a result table")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--sort")
    p_rep.add_argument("--format", choices=["csv", "text"], default="text")
    p_rep.add_argument("--out")
    return parser


def _config_flags(path):
    """The `key = value` lines of a run config file as `--key=value` flags."""
    flags = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}, line {lineno}: expected `key = value`, got {line!r}")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _usage_error(message):
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _workers(args):
    # PFASST runs one step per worker; the sdc baseline is time-serial
    return 1 if args.scheme == "sdc" else args.steps


def _run_config(args):
    """The RunConfig both schemes integrate; raises ValueError on rejected
    values, as do the factories and RunConfig.validate()."""
    if args.problem == "dahlquist":
        factory = dahlquist_config
        problem = dict(lambda_implicit=args.lambda_implicit, lambda_explicit=args.lambda_explicit)
    else:
        factory = allen_cahn_config
        problem = dict(
            n=args.grid,
            # the time-serial baseline never uses the coarse level
            coarse_n=args.grid if args.scheme == "sdc" else args.coarse_grid,
            eps=args.eps, lpatches=args.lpatches, seed=args.seed, radius=args.radius,
        )
    config = factory(
        args.steps, args.dt, m=args.num_nodes, implicit=args.implicit,
        fine_sweeps=args.fine_sweeps, coarse_sweeps=args.coarse_sweeps,
        tolerance=args.tol, max_iterations=args.max_iters,
        rendezvous_bytes=args.rendezvous_bytes,
        latency=args.latency, **problem,
    )
    config.validate()
    if args.scheme == "sdc" or args.mode == "serial":
        if args.scheme == "sdc":
            model = "the sdc baseline sends no messages"
        else:
            model = "the serial model sends every message eagerly and at once"
        for flag, value, default in (("--latency", args.latency, 0.0),
                                     ("--rendezvous-bytes", args.rendezvous_bytes, DEFAULT_RENDEZVOUS_BYTES)):
            if value != default:
                raise ValueError(f"{flag} {value} acts only on PFASST with --mode parallel; {model}")
    return config


def _cmd_run(args):
    try:
        cfg = _run_config(args)
    except ValueError as exc:
        return _usage_error(exc)
    if args.trace_out:
        path = Path(args.trace_out)
    else:
        name = f"{args.problem}-{args.scheme}-{args.mode}-p{_workers(args)}.trc"
        path = Path(os.environ.get("PITLAB_TRACE_DIR", ".")) / name
    try:  # before the run, so an unusable path fails at once
        if path.is_dir():
            return _usage_error(f"trace path {path} is a directory")
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _usage_error(exc)
    try:
        if args.scheme == "sdc":
            result = run_sdc_serial(
                cfg.pair.fine_problem, cfg.pair.fine_table, cfg.u0, cfg.dt, cfg.num_steps,
                tolerance=cfg.tolerance, max_sweeps=cfg.max_iterations,
            )
        else:
            result = run(cfg, mode=args.mode)
    except ConvergenceFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    try:
        write_trace(result.trace, path)
    except OSError as exc:
        return _usage_error(exc)
    for line in format_summary(result):
        print(line)
    print(f"Trace written to {path}")
    return EXIT_OK


def _cmd_analyze(args):
    if not 0 <= args.min_wait < float("inf"):
        return _usage_error(f"--min-wait must be finite and non-negative, got {args.min_wait}")
    do_pop = args.pop or not (args.pop or args.wait_states)
    do_wait = args.wait_states or not (args.pop or args.wait_states)
    suffix = "csv" if args.format == "csv" else "txt"
    try:
        trace = read_trace(args.trace)
        out_dir = Path(args.out_dir) if args.out_dir else Path(args.trace).parent
        out_dir.mkdir(parents=True, exist_ok=True)
        profile = build_profile(trace)  # builds the index, which refuses a broken trace for every step below
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
            print(f"makespan: {report.total_runtime:.6f} s measured, {report.ideal_runtime:.6f} s ideal replay")
            covered = len(report.comp_times)
            hint = "" if args.full_run or covered == trace.num_ranks else "; --full-run covers every rank"
            print(f"window: {covered} of {trace.num_ranks} ranks have events{hint}")
        if do_wait:
            states = analysis.detect_late_receiver(trace, min_wait=args.min_wait)
            states += analysis.detect_late_sender(trace, min_wait=args.min_wait)
            path = analysis.emit_report(states, out_dir / f"waitstates.{suffix}", fmt=args.format)
            print(f"Wait-state report written to {path}")
            print(Path(path).read_text(), end="")
    except (TraceParseError, StructuralError, CausalityError, EmptyPhaseError, ReplayError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        return _usage_error(exc)
    return EXIT_OK


def _cmd_sweep(args):
    if args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        cfg = harness.parse_config(args.config)
        states, rows, csv_text, pretty = harness.run_benchmark(cfg, base_dir=args.workdir, jobs=args.jobs)
    except (harness.ConfigError, harness.SubstitutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(pretty, end="")
    failed = [st for st in states if st.state != "done"]
    if failed:
        for st in failed:
            print(f"run {st.spec.index} {st.state}: {st.stderr.strip()}", file=sys.stderr)
        return 1
    return EXIT_OK


def _cmd_report(args):
    try:
        with open(args.input, newline="") as fh:
            lines = list(csv.reader(fh))
        if not lines:
            raise harness.ConfigError(f"{args.input} is empty")
        header, *data = lines
        for number, row in enumerate(data, start=1):
            if len(row) != len(header):
                raise harness.ConfigError(f"{args.input} row {number} has {len(row)} cells, the header {len(header)}")
        csv_text, pretty = harness.render_table([dict(zip(header, row)) for row in data], header, sort=args.sort)
    except (OSError, harness.ConfigError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = csv_text if args.format == "csv" else pretty
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.command == "run" and args.config:
        try:
            file_flags = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            return _usage_error(exc)
        # the file's flags first, so the command line's own flags win
        at = argv.index("run") + 1
        args = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])
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
