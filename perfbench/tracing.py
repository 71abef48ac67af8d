"""Outside-in tracing of the cbi package for the traced benchmark run.

Nothing here edits the package: wrappers replace module attributes where the
package looks them up, a proxy random Generator is handed in through
``block_generator``, and every attribute is restored on exit. Spans live in
memory in per-thread buffers and are written out by the caller.

A span is (id, name, parent id, operation id, thread, start, end, qty), where
qty is the amount of work the call did (variates drawn, jumps sampled, steps
accepted) or -1 when the call has no natural size.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

from cbi import cli, measures, moments, montecarlo, params, riccati, scenarios

_clock = time.perf_counter


class _Buffer:
    """Column store of the spans one thread finished."""

    def __init__(self, thread_index):
        self.thread = thread_index
        self.sid = array("q")
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")


class Tracer:
    """Span recorder with one open-span stack per thread.

    A span opened on a worker thread with an empty stack takes the innermost
    open span of the thread that created the tracer as its parent, so Monte
    Carlo blocks hang under the estimate that scheduled them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self.op = -1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.stack = stack = []
            self._local.buffer = buf
        return stack

    def name_id(self, name: str) -> int:
        with self._lock:
            idx = self._name_index.get(name)
            if idx is None:
                idx = self._name_index[name] = len(self.names)
                self.names.append(name)
            return idx

    def open(self, name_id: int):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append((sid, name_id, parent, self.op, _clock()))
        return sid

    def close(self, qty=-1.0):
        end = _clock()
        sid, name_id, parent, op, start = self._local.stack.pop()
        buf = self._local.buffer
        buf.sid.append(sid)
        buf.name.append(name_id)
        buf.parent.append(parent)
        buf.op.append(op)
        buf.start.append(start)
        buf.end.append(end)
        buf.qty.append(qty)

    def drain(self) -> "Spans":
        """Spans finished since the last drain, sorted by start time."""
        with self._lock:
            buffers = list(self._buffers)
        cols = {k: [] for k in ("sid", "name", "parent", "op", "thread",
                                "start", "end", "qty")}
        for buf in buffers:
            n = len(buf.sid)
            for key in ("sid", "name", "parent", "op", "start", "end", "qty"):
                col = getattr(buf, key)
                cols[key].append(np.array(col, dtype=col.typecode))
                del col[:]
            cols["thread"].append(np.full(n, buf.thread))
        arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        order = np.argsort(arrays["start"], kind="stable")
        return Spans(self.names, {k: v[order] for k, v in arrays.items()})


class Spans:
    """A drained batch of spans with the queries the layer metrics need."""

    def __init__(self, names, cols):
        self.names = names
        self.cols = cols
        self.sid = cols["sid"].astype(np.int64)
        self.parent = cols["parent"].astype(np.int64)
        self.start = cols["start"]
        self.end = cols["end"]
        self.qty = cols["qty"]
        self.name = np.array([names[int(i)] for i in cols["name"]], dtype=object)
        self._row = {int(s): k for k, s in enumerate(self.sid)}

    def __len__(self):
        return len(self.sid)

    def rows(self, name):
        return np.flatnonzero(self.name == name)

    def duration(self, rows):
        return self.end[rows] - self.start[rows]

    def parent_name(self, row):
        k = self._row.get(int(self.parent[row]))
        return None if k is None else self.name[k]

    def children(self):
        """Map from span id to the rows of its direct children."""
        out: dict[int, list[int]] = {}
        for k, par in enumerate(self.parent):
            out.setdefault(int(par), []).append(k)
        return out

    def self_time(self, rows, children=None):
        """Duration minus the part of the interval covered by child spans."""
        children = self.children() if children is None else children
        total = 0.0
        for k in rows:
            lo, hi = self.start[k], self.end[k]
            covered, cursor = 0.0, lo
            kids = sorted(children.get(int(self.sid[k]), ()), key=lambda c: self.start[c])
            for c in kids:
                a, b = max(self.start[c], cursor), min(self.end[c], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            total += (hi - lo) - covered
        return total

    def write_csv(self, fh, label):
        ops = self.cols["op"].astype(np.int64)
        threads = self.cols["thread"].astype(np.int64)
        for k in range(len(self)):
            fh.write(f"{label},{self.sid[k]},{self.name[k]},{self.parent[k]},{ops[k]},"
                     f"{threads[k]},{self.start[k]:.9f},{self.end[k]:.9f},{self.qty[k]:g}\n")


CSV_HEADER = "unit,id,name,parent,op,thread,start_s,end_s,qty\n"


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------

def _wrap(tracer, name, fn, qty=None):
    """Span around fn; qty(args, kwargs, result) gives the span's work size."""
    nid = tracer.name_id(name)

    def wrapped(*args, **kwargs):
        tracer.open(nid)
        amount = -1.0
        try:
            result = fn(*args, **kwargs)
            if qty is not None:
                amount = float(qty(args, kwargs, result))
            return result
        finally:
            tracer.close(amount)

    wrapped.__wrapped__ = fn
    return wrapped


def _size(args, kwargs, result):
    return np.size(result)


class RngProxy:
    """Delegates to a real Generator, timing and counting each draw.

    The same underlying Generator produces every variate, so the random
    stream, and with it every artifact, is bit-identical to an untraced run.
    """

    _TRACED = ("standard_normal", "poisson", "uniform", "choice", "exponential")

    def __init__(self, rng, tracer):
        self._rng = rng
        for method in self._TRACED:
            setattr(self, method, _wrap(tracer, f"rng.{method}",
                                        getattr(rng, method), _size))

    def __getattr__(self, item):
        return getattr(self._rng, item)


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def wrap(self, tracer, obj, attr, name, qty=None):
        self.set(obj, attr, _wrap(tracer, name, getattr(obj, attr), qty))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


SAMPLE_FAMILIES = (measures.DiscreteAtoms, measures.ProductExponential,
                   measures.TemperedPowerLawAxis, measures.MeasureSum)


def _sample_qty(args, kwargs, result):
    return len(result)


def _solve_qty(args, kwargs, result):
    return len(result.grid) - 1


def install(tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics read; returns the undo."""
    p = Patches()
    w = p.wrap
    # params (also where other modules bound the names at import)
    validate = _wrap(tracer, "params.validate", params.validate)
    derive = _wrap(tracer, "params.derive", params.derive)
    for mod in (params, cli):
        p.set(mod, "validate", validate)
    for mod in (params, cli, scenarios, montecarlo):
        p.set(mod, "derive", derive)
    # scenarios and config
    w(tracer, scenarios, "load_scenario", "scenarios.load_scenario")
    w(tracer, cli, "params_from_json", "config.params_from_json")
    # measures: quadrature as bound in measures, jump integrals, samplers
    w(tracer, measures, "nquad_strict", "measures.nquad_strict")
    w(tracer, measures, "quad_strict", "measures.quad_strict")
    for fn in ("exp_branching_integral", "exp_branching_integral_full",
               "exp_immigration_integral"):
        w(tracer, measures, fn, f"measures.{fn}")
    for cls in SAMPLE_FAMILIES:
        w(tracer, cls, "sample_n", "measures.sample_n", _sample_qty)
    # riccati and moments
    w(tracer, riccati, "solve_v", "riccati.solve_v", _solve_qty)
    w(tracer, riccati, "phi", "riccati.phi")
    w(tracer, riccati, "psi", "riccati.psi")
    w(tracer, moments, "mean", "moments.mean")
    w(tracer, moments, "integrated_expm", "moments.integrated_expm")
    # simulate as bound in montecarlo and cli, with proxy generators
    w(tracer, montecarlo, "simulate_block", "simulate.simulate_block")
    w(tracer, montecarlo, "simulate_coupled_block", "simulate.simulate_coupled_block")
    w(tracer, cli, "simulate_path", "simulate.simulate_path")

    def proxied(factory):
        return lambda seed, index: RngProxy(factory(seed, index), tracer)

    p.set(montecarlo, "block_generator", proxied(montecarlo.block_generator))
    p.set(cli, "block_generator", proxied(cli.block_generator))
    # montecarlo estimators and the CLI entry point
    for fn in ("estimate_mean", "estimate_laplace_grid"):
        w(tracer, montecarlo, fn, "montecarlo.estimate")
    w(tracer, cli, "main", "cli.main")
    return p


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def setup_metrics(spans: Spans) -> dict:
    """Layer metrics of one traced set-up (load, validate, derive)."""
    return {
        "params.validate_s": float(spans.duration(spans.rows("params.validate")).sum()),
        "params.derive_s": float(spans.duration(spans.rows("params.derive")).sum()),
        "scenarios.load_s": float(spans.duration(spans.rows("scenarios.load_scenario")).sum()),
        "measures.nquad_calls": len(spans.rows("measures.nquad_strict")),
        "measures.quad_calls": len(spans.rows("measures.quad_strict")),
    }


def pass_metrics(spans: Spans, threads: int) -> dict:
    """Layer metrics of one traced pass of a workload."""
    children = spans.children()
    dur = spans.duration

    def total(name):
        return float(dur(spans.rows(name)).sum())

    def outside(rows, wrapper):
        return [k for k in rows if spans.parent_name(k) != wrapper]

    # riccati: counts read from the returned grid and the rhs evaluations
    solves = spans.rows("riccati.solve_v")
    phi_rows = spans.rows("riccati.phi")
    accepted = float(spans.qty[solves].sum())
    # one rhs evaluation to start, 6 per attempted step, 1 after each accepted step
    rejected = (len(phi_rows) - len(solves) - 7.0 * accepted) / 6.0

    blocks = np.concatenate([spans.rows("simulate.simulate_block"),
                             spans.rows("simulate.simulate_coupled_block")])
    paths = spans.rows("simulate.simulate_path")
    normals = spans.rows("rng.standard_normal")
    poisson = spans.rows("rng.poisson")
    samples = outside(spans.rows("measures.sample_n"), "measures.sample_n")
    uniforms = outside(spans.rows("rng.uniform"), "measures.sample_n")

    # montecarlo: blocks scheduled by an estimate
    estimates = spans.rows("montecarlo.estimate")
    est_wall = busy = wait = 0.0
    for e in estimates:
        kids = [k for k in children.get(int(spans.sid[e]), ())
                if spans.name[k] == "simulate.simulate_block"]
        est_wall += dur([e])[0]
        busy += float(dur(kids).sum())
        wait += float((spans.start[kids] - spans.start[e]).sum())

    cli_main = spans.rows("cli.main")
    return {
        "riccati.solve_s": total("riccati.solve_v"),
        "riccati.solves": len(solves),
        "riccati.accepted_steps": int(accepted),
        "riccati.rejected_steps": rejected,
        "riccati.phi_calls": len(phi_rows),
        "riccati.psi_calls": len(spans.rows("riccati.psi")),
        "measures.exp_integral_s": sum(total(f"measures.{fn}") for fn in (
            "exp_branching_integral", "exp_branching_integral_full",
            "exp_immigration_integral")),
        "moments.mean_s": total("moments.mean"),
        "moments.integrated_expm_s": total("moments.integrated_expm"),
        "simulate.block_s": float(dur(blocks).sum()),
        "simulate.blocks": len(blocks),
        "simulate.coupled_block_s": total("simulate.simulate_coupled_block"),
        "simulate.path_s": float(np.median(dur(paths))) if len(paths) else 0.0,
        "simulate.normal_s": float(dur(normals).sum()),
        "simulate.normals": int(spans.qty[normals].sum()),
        "simulate.poisson_s": float(dur(poisson).sum()),
        "simulate.poisson_calls": len(poisson),
        "simulate.jump_sample_s": float(dur(samples).sum()),
        "simulate.jumps_sampled": int(spans.qty[samples].sum()),
        "simulate.uniform_s": float(dur(uniforms).sum()),
        "simulate.remainder_s": spans.self_time(np.concatenate([blocks, paths]), children),
        "montecarlo.estimate_s": est_wall,
        "montecarlo.block_wait_s": wait,
        "montecarlo.parallel_efficiency": busy / (threads * est_wall) if est_wall else 0.0,
        "cli.write_s": spans.self_time(cli_main, children),
    }


# counts that must repeat exactly across traced passes and thread counts
DETERMINISTIC_COUNTS = (
    "simulate.normals", "simulate.poisson_calls", "simulate.jumps_sampled",
    "simulate.blocks", "riccati.phi_calls", "riccati.accepted_steps",
)
