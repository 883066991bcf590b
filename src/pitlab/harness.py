"""Benchmark workflow manager: parameter trees, templates, sandboxes.

A declarative config file describes parameters (crossed or stepped
together through an index), files to copy, template substitutions,
shell steps with a done-file marker, output patterns and the result
table.  Expansion builds one sandboxed run per parameter combination;
extraction scrapes floats from the run outputs into a sortable table.

`run_benchmark` raises every error the config can cause, as
`ConfigError` or `SubstitutionError`, before it creates the first
sandbox.

Steps run through the shell with the sandbox as working directory and
inherit the caller's environment, except that every relative
`PYTHONPATH` entry (the empty entry included, which Python reads as the
current directory) is made absolute against the caller's working
directory, so that a step's Python imports what the caller's does.
A step ends when its output pipes close, so background work holding
them is waited for; the done-file is checked once, after the last step
(a detached job that redirects its own output is not waited for).

A run ends `done`, `failed` (a step exited non-zero, or the done-file
did not exist after the last step) or `incomplete` (its steps finished
but a configured pattern matched nothing in its output; `stderr` names
the patterns).

Config grammar (line based, `#` comments, `[section]` headers)::

    [benchmark]
    name = scaling test
    outpath = bench_run

    [parameters]          # `name = v1, v2, ...` is crossed;
    i = 0, 1, 2           # `name indexed-by i = ...` steps with i
    ntasks indexed-by i = 1, 2, 4

    [constants]
    steps = 4

    [files]               # copied into each sandbox, relative to config
    copy = run.tmpl

    [substitutions]       # template -> output, #NAME# placeholders
    run.tmpl -> run.sh

    [steps]               # executed in order inside the sandbox
    do = sh run.sh
    done_file = ready

    [patterns]            # $jube_pat_fp captures one float
    timing_pat = Time to solution: $jube_pat_fp sec.

    [analysis]
    file = run.out

    [result]
    sort = ntasks
    columns = i, ntasks, timing_pat
"""

import csv
import io
import itertools
import os
import re
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Param",
    "ParamSpace",
    "RunSpec",
    "RunState",
    "BenchConfig",
    "ConfigError",
    "SubstitutionError",
    "expand",
    "substitute",
    "execute",
    "extract",
    "render_table",
    "parse_config",
    "run_benchmark",
]

FLOAT_RE = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eEdD][-+]?\d+)?"
PLACEHOLDER_RE = re.compile(r"#([A-Za-z_][A-Za-z0-9_]*)#")


class ConfigError(ValueError):
    pass


class SubstitutionError(ValueError):
    pass


@dataclass
class Param:
    name: str
    values: list
    index_name: str = ""  # set: stepped with that parameter, not crossed


@dataclass
class ParamSpace:
    parameters: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)


@dataclass
class RunSpec:
    index: int
    values: dict
    sandbox: Path | None = None


@dataclass
class RunState:
    spec: RunSpec
    state: str = "pending"  # until the run ends: done | failed | incomplete
    returncode: int = 0
    stderr: str = ""


def expand(space):
    """All concrete runs of a parameter space, in document order.

    Crossed parameters form the cartesian product with the first
    parameter varying slowest; a parameter with an `index_name` follows
    the position chosen for that index parameter instead of multiplying
    the space.
    """
    crossed = [p for p in space.parameters if not p.index_name]
    indexed = [p for p in space.parameters if p.index_name]
    by_name = {p.name: p for p in crossed}
    for p in space.parameters:
        if not p.values:
            raise ConfigError(f"parameter {p.name!r} has no values")
    for p in indexed:
        ref = by_name.get(p.index_name)
        if ref is None:
            raise ConfigError(f"parameter {p.name!r} indexed by unknown parameter {p.index_name!r}")
        if len(p.values) != len(ref.values):
            raise ConfigError(
                f"parameter {p.name!r} has {len(p.values)} values but its index "
                f"{p.index_name!r} has {len(ref.values)}"
            )
    specs = []
    for combo in itertools.product(*(range(len(p.values)) for p in crossed)):
        position = {p.name: i for p, i in zip(crossed, combo)}
        values = dict(space.constants)
        for p, i in zip(crossed, combo):
            values[p.name] = p.values[i]
        for p in indexed:
            values[p.name] = p.values[position[p.index_name]]
        specs.append(RunSpec(index=len(specs), values=values))
    return specs


def substitute(template, spec):
    """Replace every #NAME# placeholder from the spec's parameter values.

    Placeholder names match parameter names case-insensitively.  Any
    placeholder without a parameter is an error; silent partial
    substitution is forbidden.
    """
    lookup = {name.upper(): str(value) for name, value in spec.values.items()}
    missing = []

    def repl(match):
        key = match.group(1).upper()
        if key not in lookup:
            missing.append(match.group(1))
            return match.group(0)
        return lookup[key]

    result = PLACEHOLDER_RE.sub(repl, template)
    if missing:
        raise SubstitutionError("unresolved placeholders: " + ", ".join(sorted(set(missing))))
    return result


def _step_environment():
    """The caller's environment with relative PYTHONPATH entries made absolute.

    The caller's Python resolved them against its own working directory
    at startup; steps run in their sandbox and must see the same paths.
    """
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            entry if os.path.isabs(entry) else os.path.abspath(entry)
            for entry in env["PYTHONPATH"].split(os.pathsep)
        )
    return env


def _run_one(spec, commands, files, substitutions, config_dir, done_file, env):
    state = RunState(spec)
    sandbox = spec.sandbox
    try:
        sandbox.mkdir(parents=True)  # never an earlier run's directory
        for name in files:
            shutil.copy(Path(config_dir) / name, sandbox / Path(name).name)
        for src, dst in substitutions:
            text = (sandbox / src).read_text()
            (sandbox / dst).write_text(substitute(text, spec))
        for command in commands:
            proc = subprocess.run(
                command, shell=True, cwd=sandbox, env=env, capture_output=True, text=True
            )
            if proc.returncode != 0:
                state.state = "failed"
                state.returncode = proc.returncode
                state.stderr = proc.stderr
                return state
        if done_file and not (sandbox / done_file).exists():
            state.state = "failed"
            state.stderr = f"done file {done_file!r} missing after the last step"
            return state
        state.state = "done"
    except (OSError, SubstitutionError) as exc:
        state.state = "failed"
        state.stderr = str(exc)
    return state


def execute(specs, steps, workdir, files=(), substitutions=(), config_dir=".", done_file=None, jobs=1):
    """Run every spec in its own sandbox directory under workdir.

    Steps are substituted for every spec before the first sandbox
    exists, and a sandbox left by an earlier sweep is refused as a
    `ConfigError` (an earlier run's files must not pass as this run's);
    then up to `jobs` runs go at once in a thread pool.  A run's steps
    go sequentially through the shell; a failing step marks the run
    failed and skips the rest.  A configured done-file must exist after
    the last step.  Steps see the caller's environment with relative
    PYTHONPATH entries made absolute against the caller's cwd.
    """
    commands = [[substitute(step, spec) for step in steps] for spec in specs]
    sandboxes = [Path(workdir) / f"{spec.index:06d}" for spec in specs]
    for sandbox in sandboxes:
        if sandbox.exists():
            raise ConfigError(f"run directory {sandbox} exists from an earlier sweep; move it or use another outpath")
    for spec, sandbox in zip(specs, sandboxes):
        spec.sandbox = sandbox
    env = _step_environment()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(
            lambda spec, cmds: _run_one(spec, cmds, files, substitutions, config_dir, done_file, env),
            specs, commands,
        ))


def compile_pattern(text):
    """Turn an anchored pattern with one $jube_pat_fp into a regex."""
    if text.count("$jube_pat_fp") != 1:
        raise ConfigError(f"pattern {text!r} needs exactly one $jube_pat_fp capture")
    # the escaped text plus one float group is always a valid regex
    return re.compile(re.escape(text).replace(re.escape("$jube_pat_fp"), f"({FLOAT_RE})"))


def extract(outputs, patterns):
    """Scrape one float per pattern from each run's output file.

    outputs: list of (spec, text).  Returns one row dict per run with
    the parameter values plus one column per pattern; when a pattern
    matches several times the last match wins, a missing match leaves
    the cell empty.
    """
    compiled = {name: compile_pattern(text) for name, text in patterns.items()}
    rows = []
    for spec, text in outputs:
        row = dict(spec.values)
        row["_index"] = spec.index
        for name, regex in compiled.items():
            matches = regex.findall(text)
            row[name] = matches[-1] if matches else ""
        rows.append(row)
    return rows


def _sort_key(value):
    try:
        return (0, float(value))
    except (TypeError, ValueError):
        return (1, str(value))


def render_table(rows, columns, sort=None):
    """Result table as (csv_text, pretty_text), optionally sorted."""
    for col in columns:
        if rows and any(col not in row for row in rows):
            raise ConfigError(f"result column {col!r} missing from some rows")
    if sort:
        if rows and sort not in rows[0]:
            raise ConfigError(f"sort column {sort!r} not in table")
        rows = sorted(rows, key=lambda row: _sort_key(row.get(sort)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])
    widths = [
        max([len(col)] + [len(str(row.get(col, ""))) for row in rows]) for col in columns
    ]
    lines = [
        " | ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(str(row.get(col, "")).ljust(w) for col, w in zip(columns, widths)))
    return buf.getvalue(), "\n".join(lines) + "\n"


@dataclass
class BenchConfig:
    name: str = "benchmark"
    outpath: str = "bench_run"
    space: ParamSpace = field(default_factory=ParamSpace)
    files: list = field(default_factory=list)
    substitutions: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    done_file: str | None = None
    patterns: dict = field(default_factory=dict)
    analysis_files: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    sort: str | None = None
    config_dir: Path = Path(".")


def _split_list(value):
    return [part.strip() for part in value.split(",") if part.strip()]


def parse_config(path):
    """Read a benchmark config file; see the module docstring for the grammar."""
    path = Path(path)
    cfg = BenchConfig(config_dir=path.parent)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if section == "substitutions":
            if "->" not in line:
                raise ConfigError(f"line {lineno}: substitutions need 'template -> output'")
            src, dst = (part.strip() for part in line.split("->", 1))
            cfg.substitutions.append((src, dst))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "benchmark":
            if key == "name":
                cfg.name = value
            elif key == "outpath":
                cfg.outpath = value
            else:
                raise ConfigError(f"line {lineno}: unknown benchmark key {key!r}")
        elif section == "parameters":
            match = re.fullmatch(r"(\w+)(?:\s+indexed-by\s+(\w+))?", key)
            if not match:
                raise ConfigError(f"line {lineno}: bad parameter declaration {key!r}")
            name, index_name = match.groups()
            cfg.space.parameters.append(Param(name, _split_list(value), index_name or ""))
        elif section == "constants":
            cfg.space.constants[key] = value
        elif section == "files":
            if key != "copy":
                raise ConfigError(f"line {lineno}: files section only knows 'copy'")
            cfg.files.extend(_split_list(value))
        elif section == "steps":
            if key == "do":
                cfg.steps.append(value)
            elif key == "done_file":
                cfg.done_file = value
            else:
                raise ConfigError(f"line {lineno}: steps section knows 'do' and 'done_file'")
        elif section == "patterns":
            cfg.patterns[key] = value
        elif section == "analysis":
            if key != "file":
                raise ConfigError(f"line {lineno}: analysis section only knows 'file'")
            cfg.analysis_files.append(value)
        elif section == "result":
            if key == "sort":
                cfg.sort = value
            elif key == "columns":
                cfg.columns = _split_list(value)
            else:
                raise ConfigError(f"line {lineno}: result section knows 'sort' and 'columns'")
        else:
            raise ConfigError(f"line {lineno}: content outside any known section")
    return cfg


def run_benchmark(cfg, base_dir=None, jobs=1):
    """Check, expand, execute and analyze one benchmark config.

    Every error the config can cause is raised before the first sandbox
    exists.  Returns (states, rows, csv_text, pretty_text) and writes
    result.csv and result.txt into the outpath directory.  A done run in
    which a pattern matched nothing becomes incomplete.
    """
    specs = expand(cfg.space)
    for name in cfg.files:
        if not (cfg.config_dir / name).is_file():
            raise ConfigError(f"file to copy {name!r} not found in {cfg.config_dir}")
    copied = {Path(name).name: cfg.config_dir / name for name in cfg.files}
    templates = [copied[src].read_text() for src, _ in cfg.substitutions if src in copied]
    for text in [*cfg.steps, *templates]:
        substitute(text, specs[0])  # every run has the same names
    for text in cfg.patterns.values():
        compile_pattern(text)
    names = list(specs[0].values)
    columns = cfg.columns or names + list(cfg.patterns)
    known = {*names, *cfg.patterns, "_index", "state"}
    for col in [*columns, cfg.sort] if cfg.sort else columns:
        if col not in known:
            raise ConfigError(f"[result] names unknown column {col!r}; known: {', '.join(sorted(known))}")

    workdir = (Path(base_dir) if base_dir else cfg.config_dir) / cfg.outpath
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the run directory: {exc}") from exc
    states = execute(specs, cfg.steps, workdir, files=cfg.files, substitutions=cfg.substitutions,
                     config_dir=cfg.config_dir, done_file=cfg.done_file, jobs=jobs)
    outputs = []
    for state in states:
        text = ""
        for name in cfg.analysis_files:
            out_path = state.spec.sandbox / name
            if out_path.exists():
                text += out_path.read_text()
        outputs.append((state.spec, text))
    rows = extract(outputs, cfg.patterns)
    for state, row in zip(states, rows):
        unmatched = [name for name in cfg.patterns if row[name] == ""]
        if state.state == "done" and unmatched:
            state.state = "incomplete"
            state.stderr = "patterns matched nothing: " + ", ".join(unmatched)
        row["state"] = state.state
    csv_text, pretty = render_table(rows, columns, sort=cfg.sort)
    (workdir / "result.csv").write_text(csv_text)
    (workdir / "result.txt").write_text(pretty)
    return states, rows, csv_text, pretty
