"""Layered benchmark of the cbi package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, one process each

Run from the root of a checkout; the package is imported from ./src. One
caller drives each workload closed-loop: the next operation starts when the
previous one returns, with one worker thread inside Monte Carlo calls.

--trace 0 repeats set-up and then whole passes of the workload for --seconds
(at least one pass), checks every output and prints the end-to-end metrics.
--trace 1 is the separate traced run: it wraps the package's public functions
from outside (see tracing.py), runs one untraced pass and two traced passes at
1 and 2 threads, checks that all three produce the same bytes and counts, and
prints the per-layer metrics. Human-readable lines come first; the last line
of standard output is one JSON object with correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import env

SETUP_REPS = 3          # set-up is repeated and its median reported
# Monte Carlo calls run at one worker thread: two workers sharing the
# interpreter lock made pass times swing by a third between runs on a 2-core
# machine. The traced run repeats a pass at TRACE_THREADS, where no count and
# no output byte may change.
THREADS, TRACE_THREADS = 1, 2

# Definitions of every metric are in perfbench/README.md.
END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mib": "MiB"}
# Printed with their sample counts but left out of the JSON: they are fixed
# work divided by run_s, do not apply to every workload, or are 0 when correct.
REPORTED_ONLY = {"path_steps_per_s": "1/s", "transforms_per_s": "1/s", "fail_frac": "frac"}
PER_LAYER = {
    "params.validate_s": "s", "params.derive_s": "s",
    "measures.nquad_calls": "count", "measures.quad_calls": "count",
    "scenarios.load_s": "s",
    "riccati.solve_s": "s", "riccati.solves": "count",
    "riccati.accepted_steps": "count", "riccati.rejected_steps": "count",
    "riccati.phi_calls": "count", "riccati.psi_calls": "count",
    "measures.exp_integral_s": "s",
    "moments.mean_s": "s", "moments.integrated_expm_s": "s",
    "simulate.block_s": "s", "simulate.blocks": "count",
    "simulate.normal_s": "s", "simulate.normals": "count",
    "simulate.poisson_s": "s", "simulate.poisson_calls": "count",
    "simulate.jump_sample_s": "s", "simulate.jumps_sampled": "count",
    "simulate.remainder_s": "s",
    "simulate.coupled_block_s": "s", "simulate.uniform_s": "s",
    "simulate.path_s": "s",
    "montecarlo.estimate_s": "s", "montecarlo.block_wait_s": "s",
    "montecarlo.parallel_efficiency": "frac",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
}

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "paths-cli", "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="Monte Carlo seed (default: the scenario's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced run keeps starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _op_latencies(per_pass):
    """Each operation's median latency over the passes of a run.

    Every pass runs the same operations on the same inputs, so operation k of
    one pass repeats operation k of the others; its median over the passes is
    less moved by a pass that met a slow spell of a shared machine.
    """
    import numpy as np

    per_op = np.nanmedian(np.asarray(per_pass, dtype=float), axis=0)
    return per_op[~np.isnan(per_op)]


def _emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


class _Tally:
    """Failed operations; each pass's outputs must match the first pass's bytes.

    Only the first pass's artifacts are kept, so memory does not grow with the
    number of passes and peak_rss_mib stays a property of one pass.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []
        self.first = None

    def add(self, label, result):
        if self.first is None:
            self.first = [op.artifact for op in result.ops]
        for k, op in enumerate(result.ops):
            fails = list(op.failures)
            if op.artifact != self.first[k]:
                fails.append(f"op {k}: output bytes differ from the first pass")
            self.attempted += 1
            if fails:
                self.failed += 1
                self.messages.extend(f"{label}: {m}" for m in fails)


def run_untraced(wl, seconds, reference):
    import numpy as np

    setups = []
    for _ in range(SETUP_REPS):
        start = clock()
        state = wl.setup()
        setups.append(clock() - start)

    tally = _Tally()
    times, per_pass = [], []
    begin = clock()
    while True:
        wl.prepare(state)
        start = clock()
        raw = wl.run(state, THREADS, lambda i: None)
        times.append(clock() - start)
        result = wl.check(state, raw, reference)
        tally.add(f"pass{len(times) - 1}", result)
        per_pass.append(result.latencies)
        if len(times) == 1:
            first = result
        # start another pass only if it is expected to end within --seconds
        if clock() - begin + times[-1] > seconds:
            break

    run_s = statistics.median(times)
    ops = _op_latencies(per_pass)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "op_p50_ms": 1e3 * float(np.percentile(ops, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(ops, 90)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = tally.attempted, tally.failed
    extra = {"fail_frac": failed / attempted}
    if first.path_steps:
        extra["path_steps_per_s"] = first.path_steps / run_s
    if first.transforms:
        extra["transforms_per_s"] = first.transforms / run_s
    op_samples = f"{len(ops)}x{len(times)}"   # operations x passes
    samples = {"setup_s": len(setups), "run_s": len(times), "op_p50_ms": op_samples,
               "op_p90_ms": op_samples, "peak_rss_mib": 1,
               "path_steps_per_s": len(times), "transforms_per_s": len(times),
               "fail_frac": attempted}
    for m in tally.messages[:20]:
        print(f"FAILED {m}")
    print("set-ups " + " ".join(f"{t:.4f}" for t in setups) + " s; passes "
          + " ".join(f"{t:.4f}" for t in times) + " s")
    units = END_TO_END | REPORTED_ONLY
    for name, value in (metrics | extra).items():
        print(f"{name:<20}{value:>14.6g} {units[name]:<6} n={samples[name]}")
    _emit(failed == 0, attempted, failed, metrics, units)


def run_traced(wl, reference):
    import tracing

    tracer = tracing.Tracer()
    spans_file = env.OUT / f"spans-{wl.name}.csv"
    with open(spans_file, "w") as fh:
        fh.write(tracing.CSV_HEADER)
        setups = []
        for rep in range(2):
            with tracing.install(tracer):
                state = wl.setup()
            spans = tracer.drain()
            spans.write_csv(fh, f"setup{rep}")
            setups.append(tracing.setup_metrics(spans))

        wl.prepare(state)
        start = clock()
        raw = wl.run(state, THREADS, lambda i: None)
        untraced_s = clock() - start
        untraced = wl.check(state, raw, reference)

        def set_op(i):
            tracer.op = i

        traced = []
        thread_counts = (THREADS, TRACE_THREADS)
        for label, threads in zip(("traced1", "traced2"), thread_counts):
            wl.prepare(state)
            with tracing.install(tracer):
                start = clock()
                raw = wl.run(state, threads, set_op)
                seconds = clock() - start
            tracer.op = -1
            result = wl.check(state, raw, reference)
            spans = tracer.drain()
            spans.write_csv(fh, label)
            traced.append((label, seconds, result, tracing.pass_metrics(spans, threads)))

    tally = _Tally()
    for label, result in [("untraced", untraced)] + [(t[0], t[2]) for t in traced]:
        tally.add(label, result)
    mismatches = [f"{key} differs between set-ups: {setups[0][key]} vs {setups[1][key]}"
                  for key in ("measures.nquad_calls", "measures.quad_calls")
                  if setups[0][key] != setups[1][key]]
    mismatches += [f"{key} differs between traced passes: {traced[0][3][key]} (threads "
                   f"{thread_counts[0]}) vs {traced[1][3][key]} (threads {thread_counts[1]})"
                   for key in tracing.DETERMINISTIC_COUNTS
                   if traced[0][3][key] != traced[1][3][key]]
    tally.failed += len(mismatches)
    tally.messages += mismatches

    _, traced_s, result, layer = traced[0]
    metrics = dict(setups[1]) | layer | {
        "cli.bytes_written": result.bytes_written,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for m in tally.messages[:20]:
        print(f"FAILED {m}")
    print(f"untraced pass {untraced_s:.4f} s, traced passes "
          + ", ".join(f"{s:.4f} s (threads {t})"
                      for (_, s, _, _), t in zip(traced, thread_counts)))
    print(f"spans written to {spans_file.relative_to(env.ROOT)}")
    for name in PER_LAYER:
        print(f"{name:<32}{metrics[name]:>16.6g} {PER_LAYER[name]}")
    _emit(tally.failed == 0, tally.attempted, tally.failed,
          {k: metrics[k] for k in PER_LAYER}, PER_LAYER)


def run_all(args):
    """Each workload in a process of its own, so peak memory is per workload."""
    results = {}
    for name in ("verify", "paths-cli"):
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    env.pin()
    if args.workload == "all":
        return run_all(args)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the cbi package from {env.ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    env.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.OUT)
    try:
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, workdir) if cls is workloads.PathsCli else cls(args.seed)
        print(f"workload {wl.name} seed {args.seed} threads {THREADS} "
              f"trace {args.trace} " + json.dumps(env.describe()))
        reference = workloads.load_reference()
        if args.trace:
            run_traced(wl, reference)
        else:
            run_untraced(wl, args.seconds, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
