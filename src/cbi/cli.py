"""Command-line front end.

Subcommands: validate, derive, laplace, mean, simulate, verify. Parameter
files follow the JSON schema in :mod:`cbi.config`; all numeric output uses
17 significant digits so repeated runs with the same seed produce
byte-identical artifacts.

Exit codes: 0 success/pass, 1 verification or validation failure, 2 schema
or input error, 3 admissibility failure blocking a computation, 4 numeric
failure (also a time grid too large to count or build).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import montecarlo, moments, riccati
from .config import (
    SchemaError, derived_to_json, dumps_canonical, format_float, params_from_json,
)
from .errors import (
    BudgetExceeded, DimensionMismatch, EmptyRegion, InfiniteMass, InvalidConfig,
    QuadratureFailure, StepSizeUnderflow,
)
from .params import DEFAULT_EPS_TRUNC, derive, validate
from .scenarios import load_scenario
from .simulate import SimConfig, block_generator, simulate_path

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_ADMISSIBILITY = 3
EXIT_NUMERIC = 4

# InvalidConfig, PreconditionViolated and json's decode error are ValueErrors
_INPUT_ERRORS = (SchemaError, DimensionMismatch, OSError, ValueError)
# a MemoryError is a grid or buffer too large to allocate
_NUMERIC_ERRORS = (QuadratureFailure, StepSizeUnderflow, OverflowError, MemoryError,
                   InfiniteMass, EmptyRegion, BudgetExceeded)


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise SchemaError(f"bad vector literal {text!r}: {exc}") from exc


def _load_params(path: str):
    with open(path) as fh:
        return params_from_json(json.load(fh))


def _require_admissible(p):
    report = validate(p)
    if not report.ok:
        names = ", ".join(ch.name for ch in report.failing())
        raise _Inadmissible(f"parameters fail admissibility checks: {names}")
    return report


class _Inadmissible(Exception):
    pass


def _write_json(blob, path: str | None):
    text = dumps_canonical(blob) + "\n"
    if path:
        Path(path).write_text(text)
    return text


def _csv_row(values):
    return ",".join(format_float(float(v)).strip('"') for v in values)


# The writers below fill one %-format per file. "%.17g" gives the bytes of
# format_float, whose quoted infinities _csv_row strips to inf and -inf; NaN,
# which format_float refuses, is rejected before formatting.

def _path_template(grid, d):
    """The %-format of a whole path file: the header, and per row its time
    formatted once per command and d state cells."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"
    row = ",%.17g" * d + "\n"
    return header + "".join(["%.17g" % t + row for t in grid.tolist()])


def _write_path_csv(template, states, out: Path):
    if np.isnan(states).any():
        raise ValueError("cannot serialise NaN")
    out.write_text(template % tuple(states.ravel().tolist()))


def _write_jump_csv(path_obj, out: Path, d: int):
    cells = ",%.17g" * d
    rows = ["t,kind,type" + "".join(f",z{i + 1}" for i in range(d)) + ",u\n"]
    values = []
    for ev in path_obj.jumps or ():
        values.append(ev.time)
        values += ev.size.tolist()
        if ev.type_index is None:
            rows.append(f"%.17g,{ev.kind},{cells},\n")
        else:
            rows.append(f"%.17g,{ev.kind},{ev.type_index + 1}{cells},%.17g\n")
            values.append(ev.u)
    if any(math.isnan(v) for v in values):
        raise ValueError("cannot serialise NaN")
    out.write_text("".join(rows) % tuple(values))


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _cmd_validate(opts) -> int:
    p = _load_params(opts.params)
    report = validate(p)
    for ch in report.checks:
        value = "divergent" if (ch.value is not None and np.isinf(ch.value)) else ch.value
        print(f"[{'PASS' if ch.passed else 'FAIL'}] {ch.name}: {ch.citation}"
              + (f" (value: {value})" if value is not None else ""))
    print(f"admissible: {report.ok}")
    if opts.json_out:
        _write_json(report.to_json(), opts.json_out)
    return EXIT_PASS if report.ok else EXIT_VERIFY_FAIL


def _cmd_derive(opts) -> int:
    p = _load_params(opts.params)
    _require_admissible(p)
    der = derive(p, eps_trunc=opts.eps)
    text = _write_json(derived_to_json(der), opts.json_out)
    sys.stdout.write(text)
    return EXIT_PASS


def _cmd_laplace(opts) -> int:
    p = _load_params(opts.params)
    _require_admissible(p)
    x, lam = _vector(opts.x), _vector(opts.lam)
    value = riccati.laplace_transform(p, x, lam, opts.t,
                                      rtol=opts.rtol, atol=opts.atol)
    print(format_float(value))
    return EXIT_PASS


def _cmd_mean(opts) -> int:
    p = _load_params(opts.params)
    _require_admissible(p)
    value = moments.mean(p, _vector(opts.m0), opts.t)
    print(_csv_row(value))
    return EXIT_PASS


def _cmd_simulate(opts) -> int:
    if opts.n < 1:
        raise InvalidConfig("--n must be at least 1")
    p = _load_params(opts.params)
    _require_admissible(p)
    cfg = SimConfig(T=opts.T, dt=opts.dt, eps_trunc=opts.eps,
                    positivity_mode=opts.positivity, record_jumps=opts.record_jumps)
    x0 = _vector(opts.x0)
    template = _path_template(cfg.grid(), p.d)
    out_dir = Path(opts.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(opts.n):
        rng = block_generator(opts.seed, k)
        path_obj = simulate_path(p, x0, cfg, rng)
        _write_path_csv(template, path_obj.states, out_dir / f"path_{k:05d}.csv")
        if opts.record_jumps:
            _write_jump_csv(path_obj, out_dir / f"jumps_{k:05d}.csv", p.d)
    print(f"wrote {opts.n} path file(s) to {out_dir}")
    return EXIT_PASS


def _cmd_verify(opts) -> int:
    scenario = load_scenario(opts.scenario)
    _require_admissible(scenario.params)
    runner = {
        "mean": montecarlo.verify_mean,
        "laplace": montecarlo.verify_laplace,
        "comparison": montecarlo.verify_comparison,
    }[opts.check]
    report = runner(scenario, threads=opts.threads, budget=opts.budget)
    print(report.table())
    if opts.json_out:
        _write_json(report.to_json(), opts.json_out)
    return EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbi",
        description="Multi-type branching processes with immigration: "
                    "validation, transforms, moments, simulation, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a parameter file for admissibility")
    pv.add_argument("params")
    pv.add_argument("--json-out", default=None)

    pd = sub.add_parser("derive", help="print modified drifts and jump-rate caches")
    pd.add_argument("params")
    pd.add_argument("--eps", type=float, default=DEFAULT_EPS_TRUNC,
                    help="small-jump truncation cutoff for the caches")
    pd.add_argument("--json-out", default=None)

    pl = sub.add_parser("laplace", help="Laplace transform via the Riccati flow")
    pl.add_argument("params")
    pl.add_argument("--x", required=True, help="initial state, comma-separated")
    pl.add_argument("--lam", required=True, help="transform argument, comma-separated")
    pl.add_argument("--t", type=float, required=True)
    pl.add_argument("--rtol", type=float, default=1e-8)
    pl.add_argument("--atol", type=float, default=1e-10)

    pm = sub.add_parser("mean", help="first moment via the matrix exponential")
    pm.add_argument("params")
    pm.add_argument("--m0", required=True, help="initial mean, comma-separated")
    pm.add_argument("--t", type=float, required=True)

    ps = sub.add_parser("simulate", help="simulate paths and write CSV artifacts")
    ps.add_argument("params")
    ps.add_argument("--x0", required=True, help="initial state, comma-separated")
    ps.add_argument("--T", type=float, required=True)
    ps.add_argument("--dt", type=float, required=True)
    ps.add_argument("--n", type=int, default=1, help="number of paths")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--eps", type=float, default=DEFAULT_EPS_TRUNC)
    ps.add_argument("--positivity", choices=("raw", "clamp"), default="raw")
    ps.add_argument("--record-jumps", action="store_true")

    pf = sub.add_parser("verify", help="run a statistical verification scenario")
    pf.add_argument("check", choices=("mean", "laplace", "comparison"))
    pf.add_argument("--scenario", required=True,
                    help="bundled name (S1..S5) or a scenario JSON path")
    pf.add_argument("--threads", type=int, default=None,
                    help=f"worker threads (default: ${montecarlo.THREADS_ENV_VAR} or 1)")
    pf.add_argument("--budget", type=int, default=None,
                    help="maximum path-steps before BudgetExceeded")
    pf.add_argument("--json-out", default=None)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "laplace": _cmd_laplace,
    "mean": _cmd_mean,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    """Parse and dispatch one command; exceptions map to documented exit codes."""
    opts = build_parser().parse_args(argv)
    try:
        return _HANDLERS[opts.command](opts)
    except _Inadmissible as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"schema error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
