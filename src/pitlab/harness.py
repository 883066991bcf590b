"""Benchmark workflow manager: parameter trees, templates, sandboxes.

A declarative config file describes parameters (crossed or stepped
together through an index), files to copy, template substitutions,
shell steps with a done-file marker, output patterns and the result
table.  Expansion builds one sandboxed run per parameter combination;
extraction scrapes floats from the run outputs into a sortable table.

Steps run through the shell with the sandbox as working directory and
inherit the caller's environment, except that every relative
`PYTHONPATH` entry (the empty entry included, which Python reads as the
current directory) is made absolute against the caller's working
directory, so that a step's Python imports what the caller's does.

A run ends `done`, `failed` (a step exited non-zero, or the done-file
never appeared) or `incomplete` (its steps finished but a configured
pattern matched nothing in its output; `stderr` names the patterns).

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
import logging
import os
import re
import shutil
import subprocess
import time
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

log = logging.getLogger(__name__)

# seconds a run's done-file may take to appear after its steps finish
DONE_TIMEOUT_S = 60.0

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
    mode: str = "crossed"  # or "indexed"
    index_name: str = ""


@dataclass
class ParamSpace:
    parameters: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)


@dataclass
class RunSpec:
    index: int
    values: dict
    sandbox: Path | None = None
    steps: list = field(default_factory=list)
    done_file: str | None = None


@dataclass
class RunState:
    spec: RunSpec
    state: str = "pending"  # pending | running | done | failed | incomplete
    returncode: int = 0
    stderr: str = ""


def expand(space):
    """All concrete runs of a parameter space, in document order.

    Crossed parameters form the cartesian product with the first
    parameter varying slowest; parameters in indexed mode follow the
    position chosen for their index parameter instead of multiplying
    the space.
    """
    crossed = [p for p in space.parameters if p.mode == "crossed"]
    indexed = [p for p in space.parameters if p.mode == "indexed"]
    by_name = {p.name: p for p in crossed}
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


def _run_one(spec, workdir, files, substitutions, config_dir, done_timeout, env):
    state = RunState(spec)
    sandbox = Path(workdir) / f"{spec.index:06d}"
    sandbox.mkdir(parents=True, exist_ok=True)
    spec.sandbox = sandbox
    state.state = "running"
    try:
        for name in files:
            shutil.copy(Path(config_dir) / name, sandbox / Path(name).name)
        for src, dst in substitutions:
            text = (sandbox / src).read_text()
            (sandbox / dst).write_text(substitute(text, spec))
        for command in spec.steps:
            proc = subprocess.run(
                command, shell=True, cwd=sandbox, env=env, capture_output=True, text=True
            )
            if proc.returncode != 0:
                state.state = "failed"
                state.returncode = proc.returncode
                state.stderr = proc.stderr
                return state
        if spec.done_file:
            deadline = time.monotonic() + done_timeout
            while not (sandbox / spec.done_file).exists():
                if time.monotonic() > deadline:
                    state.state = "failed"
                    state.stderr = f"done file {spec.done_file!r} never appeared"
                    return state
                time.sleep(0.02)
        state.state = "done"
    except (OSError, SubstitutionError) as exc:
        state.state = "failed"
        state.stderr = str(exc)
    return state


def execute(specs, steps, workdir, files=(), substitutions=(), config_dir=".",
            done_file=None, jobs=1, done_timeout=DONE_TIMEOUT_S):
    """Run every spec in its own sandbox directory under workdir.

    Steps (after placeholder substitution) run sequentially through the
    shell; a failing step marks the run failed and skips the rest.  When
    a done-file is configured the run only counts as done once that
    marker exists.  Steps see the caller's environment with relative
    PYTHONPATH entries made absolute against the caller's cwd.
    """
    for spec in specs:
        spec.steps = [substitute(step, spec) for step in steps]
        spec.done_file = done_file
    env = _step_environment()
    if jobs <= 1:
        return [_run_one(s, workdir, files, substitutions, config_dir, done_timeout, env) for s in specs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_run_one, s, workdir, files, substitutions, config_dir, done_timeout, env)
            for s in specs
        ]
        return [f.result() for f in futures]


def compile_pattern(text):
    """Turn an anchored pattern with one $jube_pat_fp into a regex."""
    if "$jube_pat_fp" not in text:
        raise ConfigError(f"pattern {text!r} lacks the $jube_pat_fp capture")
    escaped = re.escape(text).replace(re.escape("$jube_pat_fp"), f"({FLOAT_RE})")
    try:
        return re.compile(escaped)
    except re.error as exc:
        raise ConfigError(f"bad pattern {text!r}: {exc}") from exc


def extract(outputs, patterns):
    """Scrape one float per pattern from each run's output file.

    outputs: list of (spec, text).  Returns one row dict per run with
    the parameter values plus one column per pattern; when a pattern
    matches several times the last match wins, a missing match leaves
    the cell empty and logs a warning.
    """
    compiled = {name: compile_pattern(text) for name, text in patterns.items()}
    rows = []
    for spec, text in outputs:
        row = dict(spec.values)
        row["_index"] = spec.index
        for name, regex in compiled.items():
            matches = regex.findall(text)
            if matches:
                row[name] = matches[-1]
            else:
                row[name] = ""
                log.warning("run %d: pattern %r matched nothing", spec.index, name)
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
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
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
            cfg.space.parameters.append(
                Param(
                    name=name,
                    values=_split_list(value),
                    mode="indexed" if index_name else "crossed",
                    index_name=index_name or "",
                )
            )
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


def run_benchmark(cfg, base_dir=None, jobs=1, done_timeout=DONE_TIMEOUT_S):
    """Expand, execute and analyze one benchmark config.

    Returns (states, rows, csv_text, pretty_text) and writes result.csv
    and result.txt into the outpath directory.  A done run in which a
    pattern matched nothing becomes incomplete.
    """
    base = Path(base_dir) if base_dir else cfg.config_dir
    workdir = base / cfg.outpath
    specs = expand(cfg.space)
    states = execute(
        specs,
        cfg.steps,
        workdir,
        files=cfg.files,
        substitutions=cfg.substitutions,
        config_dir=cfg.config_dir,
        done_file=cfg.done_file,
        jobs=jobs,
        done_timeout=done_timeout,
    )
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
    columns = cfg.columns or (list(specs[0].values) + list(cfg.patterns) if specs else [])
    csv_text, pretty = render_table(rows, columns, sort=cfg.sort)
    (workdir / "result.csv").write_text(csv_text)
    (workdir / "result.txt").write_text(pretty)
    return states, rows, csv_text, pretty
