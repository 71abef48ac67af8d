"""The two benchmark workloads, driven through the public API of cbi.

Each workload has an untimed ``setup`` (load the scenario, validate, derive),
an untimed ``prepare`` before each pass, a timed ``run`` that performs one
pass of operations, and an untimed ``check`` that turns the pass's outputs
into per-operation latencies, artifacts and failed checks. Every pass runs
the same inputs; the seed replaces the scenario's pinned Monte Carlo seed.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from cbi import cli, config, montecarlo, params, scenarios

clock = time.perf_counter

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Reference values were recorded at the benchmark's defining commit. A later
# change may move them by its solver tolerance, never by more than these.
LAPLACE_RTOL = 1e-7    # Riccati solves run at rtol 1e-10, atol 1e-12
MEAN_RTOL = 1e-10      # matrix exponential, accurate to about 1e-15


@dataclasses.dataclass
class Op:
    latency: float
    artifact: bytes
    failures: list


@dataclasses.dataclass
class PassResult:
    ops: list
    path_steps: int = 0
    transforms: int = 0
    bytes_written: int = 0
    latencies: list | None = None   # default: one per op

    def __post_init__(self):
        if self.latencies is None:
            self.latencies = [op.latency for op in self.ops]


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def _dump(blob) -> bytes:
    return config.dumps_canonical(blob).encode()


def _close(value, ref, rtol):
    value, ref = np.atleast_1d(value), np.atleast_1d(np.asarray(ref, dtype=float))
    return value.shape == ref.shape and bool(
        np.all(np.abs(value - ref) <= rtol * np.abs(ref) + 1e-300))


def _load_checked(name):
    """Set-up of one scenario: load, validate, derive (cached on the scenario)."""
    scenario = scenarios.load_scenario(name)
    report = params.validate(scenario.params)
    if not report.ok:
        raise RuntimeError(f"{name} fails validation: "
                           + ", ".join(ch.name for ch in report.failing()))
    scenario.derived()
    return scenario


class Verify:
    """The verification harness on the jump-heavy scenarios S3 and S4.

    One pass runs verify_mean and verify_laplace on S3 and S4, then
    verify_comparison on S3. The calls are smaller
    than the scenarios' own (100 000 paths, 10 000 coupled pairs) so that a
    run holds enough passes for its medians; each call is one Monte Carlo
    block.
    """

    name = "verify"
    N_PATHS = 10000
    N_PAIRS = 1000

    def __init__(self, seed=None):
        self.seed = seed

    def setup(self):
        s3, s4 = _load_checked("S3"), _load_checked("S4")
        comp = {**s3.comparison, "n_paths": self.N_PAIRS}
        seed = {}
        if self.seed is not None:
            comp["seed"] = self.seed
            seed = {"seed": self.seed}
        return [dataclasses.replace(s3, n_paths=self.N_PATHS, comparison=comp, **seed),
                dataclasses.replace(s4, n_paths=self.N_PATHS, **seed)]

    def prepare(self, state):
        pass

    def run(self, state, threads, on_op):
        s3, s4 = state
        reports = []
        for s, verify in ((s3, montecarlo.verify_mean), (s3, montecarlo.verify_laplace),
                          (s4, montecarlo.verify_mean), (s4, montecarlo.verify_laplace),
                          (s3, montecarlo.verify_comparison)):
            on_op(len(reports))
            start = clock()
            report = verify(s, threads=threads)
            reports.append((clock() - start, report))
        return reports

    def check(self, state, raw, reference):
        ops = []
        for latency, rep in raw:
            fails = [] if rep.passed else [f"{rep.quantity}: verification failed"]
            kind = rep.quantity.split("[")[0]
            if kind != "comparison" and not _close(
                    rep.analytic, reference["verify"][rep.quantity],
                    LAPLACE_RTOL if kind == "laplace" else MEAN_RTOL):
                fails.append(f"{rep.quantity}: analytic value off its reference")
            if kind == "laplace" and not np.all((rep.analytic > 0) & (rep.analytic <= 1)):
                fails.append(f"{rep.quantity}: Laplace value outside (0, 1]")
            ops.append(Op(latency, _dump(rep.to_json()), fails))
        steps = 2 * sum(s.n_paths * s.sim_config().n_steps for s in state)
        comp = state[0].comparison
        n_steps = round(comp["T"] / comp["dt"])
        steps += 2 * comp["n_paths"] * (n_steps + 2 * n_steps)   # a pair is two paths
        # The five calls differ in kind, so a percentile over them would fall
        # between two of them; the operation timed is the whole pass.
        return PassResult(ops, path_steps=steps, latencies=[sum(op.latency for op in ops)],
                          transforms=sum(len(s.laplace_points) for s in state))


class PathsCli:
    """`cbi simulate` in-process on S3's parameters, one path per operation."""

    name = "paths-cli"
    N_PATHS = 200

    def __init__(self, seed=None, workdir=None):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self):
        s = _load_checked("S3")
        params_file = self.workdir / "S3-params.json"
        params_file.write_text(config.dumps_canonical(config.params_to_json(s.params)))
        self.n_rows = s.sim_config().n_steps + 1
        seed = s.seed if self.seed is None else self.seed
        return ["simulate", str(params_file), "--x0", ",".join(repr(float(v)) for v in s.x0),
                "--T", repr(s.t), "--dt", repr(s.dt), "--n", str(self.N_PATHS),
                "--seed", str(seed), "--out", str(self.workdir / "paths"), "--record-jumps"]

    def prepare(self, argv):
        shutil.rmtree(self.workdir / "paths", ignore_errors=True)

    def run(self, argv, threads, on_op):
        stamps = []
        simulate_path = cli.simulate_path

        def stamped(*args, **kwargs):
            on_op(len(stamps))
            stamps.append(clock())
            return simulate_path(*args, **kwargs)

        cli.simulate_path = stamped
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            stamps.append(clock())
        finally:
            cli.simulate_path = simulate_path
        return code, stamps

    def check(self, argv, raw, reference):
        code, stamps = raw
        out = self.workdir / "paths"
        names = {f"{kind}_{k:05d}.csv" for k in range(self.N_PATHS)
                 for kind in ("path", "jumps")}
        found = {f.name for f in out.iterdir()} if out.is_dir() else set()
        run_fails = [] if code == 0 else [f"cbi simulate exited {code}"]
        if found != names:
            run_fails.append(f"{len(names ^ found)} unexpected or missing files")
        ops = []
        for k in range(self.N_PATHS):
            fails = list(run_fails)
            path_file, jumps_file = out / f"path_{k:05d}.csv", out / f"jumps_{k:05d}.csv"
            artifact = b""
            if path_file.name in found and jumps_file.name in found:
                artifact = path_file.read_bytes() + jumps_file.read_bytes()
                rows = path_file.read_bytes().count(b"\n") - 1
                if rows != self.n_rows:
                    fails.append(f"{path_file.name}: {rows} rows, expected {self.n_rows}")
            latency = stamps[k + 1] - stamps[k] if k + 1 < len(stamps) else float("nan")
            ops.append(Op(latency, artifact, fails))
        written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        return PassResult(ops, path_steps=self.N_PATHS * (self.n_rows - 1),
                          bytes_written=written)


WORKLOADS = {w.name: w for w in (Verify, PathsCli)}
