"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
every tolerance and every seed is pinned here or in the bundled scenario
files, so outcomes are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np

from cbi.cli import main
from cbi.montecarlo import CoupledStats, verify_comparison, verify_laplace, verify_mean
from cbi.params import AdmissibleParams
from cbi.riccati import cir_closed_form_v, laplace_transform, solve_v
from cbi.scenarios import load_scenario
from cbi.simulate import SimConfig, block_generator, simulate_coupled_block, simulate_path

from helpers import A4_HALVING, mean_error_halving_ratio, random_discrete_params


def report(name, passed, elapsed, detail=""):
    line = f"{name} {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert passed, line


def test_a1_laplace_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    worst_t0, worst_cons = 0.0, 0.0
    for _ in range(50):
        p = random_discrete_params(rng)
        x = rng.uniform(0.0, 3.0, p.d)
        lam = rng.uniform(0.0, 3.0, p.d)
        t = rng.uniform(0.1, 2.0)
        worst_t0 = max(worst_t0, abs(
            laplace_transform(p, x, lam, 0.0) - math.exp(-float(x @ lam))))
        worst_cons = max(worst_cons, abs(
            laplace_transform(p, x, np.zeros(p.d), t) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_t0 <= 1e-12 and worst_cons <= 1e-12 and elapsed < 10.0
    report("A1", ok, elapsed, f"t0-identity {worst_t0:.2e}, conservativity {worst_cons:.2e}")


def test_a2_cir_oracle():
    start = time.perf_counter()
    worst = 0.0
    for c, b in [(1.0, 0.0), (1.0, -1.0), (0.5, 0.3)]:
        p = AdmissibleParams(d=1, c=[c], beta=[0.0], B=[[b]], nu=None, mu=(None,))
        for lam in (0.1, 1.0, 10.0):
            sol = solve_v(p, [lam], T=5.0, rtol=1e-10, atol=1e-12)
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                want = cir_closed_form_v(c, b, lam, t)
                worst = max(worst, abs(sol.v_at(t)[0] - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report("A2", ok, elapsed, f"worst relative error {worst:.2e}")


def test_a3_flow_property():
    start = time.perf_counter()
    rng = np.random.default_rng(2003)
    worst = 0.0
    for _ in range(100):
        p = random_discrete_params(rng)
        lam = rng.uniform(0.0, 2.5, p.d)
        s, t = rng.uniform(1e-3, 2.0, size=2)
        v_direct = solve_v(p, lam, T=s + t).v_at(s + t)
        v_s = np.maximum(solve_v(p, lam, T=s).v_at(s), 0.0)
        v_comp = solve_v(p, v_s, T=t).v_at(t)
        worst = max(worst, float(np.max(np.abs(v_direct - v_comp))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report("A3", ok, elapsed, f"worst flow defect {worst:.2e}")


def test_a4_mean_verification():
    start = time.perf_counter()
    details = []
    ok = True
    for name in ("S1", "S2", "S3", "S4", "S5"):
        rep = verify_mean(load_scenario(name))
        ok &= rep.passed
        details.append(f"{name}:{'ok' if rep.passed else 'FAIL'}")
    ratios = mean_error_halving_ratio(load_scenario("S3"), **A4_HALVING)
    ratio_ok = float(ratios.mean()) <= 0.75
    ok &= ratio_ok
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report("A4", ok, elapsed,
           f"{' '.join(details)} halving-ratio {ratios.mean():.3f}")


def test_a5_laplace_verification():
    start = time.perf_counter()
    details = []
    ok = True
    for name in ("S1", "S3", "S4"):
        rep = verify_laplace(load_scenario(name))
        ok &= rep.passed
        details.append(f"{name}:{'ok' if rep.passed else 'FAIL'}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report("A5", ok, elapsed, " ".join(details))


def test_a6_comparison_theorem():
    start = time.perf_counter()
    rep = verify_comparison(load_scenario("S3"))
    coarse, fine = rep.details["coarse"], rep.details["fine"]
    ok = rep.passed

    # jump-free deterministic sub-case: exactly zero violations
    p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=[0.2, 0.1],
                         B=[[-0.6, 0.2], [0.1, -0.7]], nu=None, mu=(None, None))
    cfg = SimConfig(T=1.0, dt=2.0 ** -10)
    x0 = np.tile([1.0, 0.5], (64, 1))
    stats = CoupledStats(cfg.n_steps + 1, p.d)
    simulate_coupled_block(p, p.beta + np.array([1.0, 1.0]), x0, x0, cfg,
                           block_generator(6001, 0), stats)
    ok &= stats.violations == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 180.0
    report("A6", ok, elapsed,
           f"fractions {coarse['fraction']:.2e}/{fine['fraction']:.2e}, "
           f"deterministic violations {stats.violations}")


def test_a7_degenerate_exactness():
    start = time.perf_counter()
    p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=[1.0, 0.25],
                         B=[[0.0, 0.0], [0.0, 0.0]], nu=None, mu=(None, None))
    cfg = SimConfig(T=1.0, dt=2.0 ** -8)
    path = simulate_path(p, [0.5, 2.0], cfg, block_generator(7001, 0))
    want = np.array([0.5, 2.0])[None, :] + path.grid[:, None] * np.array([1.0, 0.25])
    worst = float(np.max(np.abs(path.states - want)))
    elapsed = time.perf_counter() - start
    report("A7", worst <= 1e-12 and elapsed < 10.0, elapsed, f"worst gap {worst:.2e}")


def test_a8_validation_gate(tmp_path):
    start = time.perf_counter()

    def tpl(axis, alpha):
        return {"family": "tempered_power_law", "axis": axis, "alpha": alpha,
                "theta": 1.0, "scale": 1.0}

    base2 = {"d": 2, "c": [1.0, 1.0], "beta": [0.1, 0.1],
             "B": [[-1.0, 0.0], [0.0, -1.0]], "nu": None, "mu": [None, None]}
    named_cases = [
        (dict(base2, B=[[-1.0, -0.1], [0.0, -1.0]]), "B_essentially_nonnegative"),
        ({"d": 1, "c": [1.0], "beta": [0.1], "B": [[-1.0]],
          "nu": tpl(1, 1.5), "mu": [None]}, "nu.small_jump_integrable"),
        ({"d": 1, "c": [1.0], "beta": [0.1], "B": [[-1.0]],
          "nu": None, "mu": [tpl(1, 2.5)]}, "mu[0].small_jump_second_moment"),
        (dict(base2, mu=[tpl(2, 1.2), None]),
         "mu[0].cross_coordinate_integrable[1]"),
        (dict(base2, c=[-0.5, 1.0]), "c_nonnegative"),
        (dict(base2, beta=[-0.1, 0.1]), "beta_nonnegative"),
    ]
    ok = True
    for k, (blob, expected) in enumerate(named_cases):
        file = tmp_path / f"invalid_{k}.json"
        file.write_text(json.dumps(blob))
        out = tmp_path / f"report_{k}.json"
        code = main(["validate", str(file), "--json-out", str(out)])
        ok &= code == 1
        parsed = json.loads(out.read_text())
        failing = [ch["name"] for ch in parsed["checks"] if not ch["passed"]]
        ok &= expected in failing

    # structural mismatches surface as input errors, not reports
    for k, blob in enumerate([
            dict(base2, B=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
            dict(base2, mu=[None])]):
        file = tmp_path / f"mismatch_{k}.json"
        file.write_text(json.dumps(blob))
        ok &= main(["validate", str(file)]) == 2
    elapsed = time.perf_counter() - start
    report("A8", ok and elapsed < 30.0, elapsed, "8 invalid parameter files")


def test_a9_determinism(tmp_path, capsys):
    start = time.perf_counter()
    params_file = tmp_path / "cir.json"
    params_file.write_text(json.dumps(
        {"d": 1, "c": [1.0], "beta": [1.0], "B": [[-1.0]],
         "nu": {"family": "discrete", "atoms": [{"z": [0.5], "w": 0.4}]},
         "mu": [{"family": "discrete", "atoms": [{"z": [0.7], "w": 0.6}]}]}))
    scenario_file = tmp_path / "scen.json"
    scenario_file.write_text(json.dumps({
        "name": "det", "description": "", "params": json.loads(params_file.read_text()),
        "x0": [1.0], "t": 0.25, "dt": 2.0 ** -5, "n_paths": 20000, "seed": 909,
        "eps_trunc": 0.001, "bias_constant_mean": 3.0, "bias_constant_laplace": 3.0,
        "laplace_points": [{"t": 0.25, "lam": [1.0]}],
        "comparison": {"beta_shift": [0.5], "n_paths": 4000, "dt": 2.0 ** -6,
                       "T": 0.25, "seed": 11}}))

    def artifacts(tag, threads, capsys):
        out = tmp_path / tag
        out.mkdir()
        rc = 0
        rc |= main(["validate", str(params_file), "--json-out", str(out / "v.json")])
        rc |= main(["derive", str(params_file), "--json-out", str(out / "d.json")])
        rc |= main(["simulate", str(params_file), "--x0", "1.0", "--T", "0.25",
                    "--dt", "0.03125", "--n", "2", "--seed", "42",
                    "--out", str(out / "paths"), "--record-jumps"])
        for check in ("mean", "laplace", "comparison"):
            rc |= main(["verify", check, "--scenario", str(scenario_file),
                        "--threads", str(threads),
                        "--json-out", str(out / f"{check}.json")])
        capsys.readouterr()
        # stdout-only commands: capture their prints as artifacts too
        rc |= main(["laplace", str(params_file), "--x", "1.0", "--lam", "0.7",
                    "--t", "0.5"])
        rc |= main(["mean", str(params_file), "--m0", "1.0", "--t", "0.5"])
        stdout = capsys.readouterr().out
        assert rc == 0
        files = {
            rel.relative_to(out).as_posix(): rel.read_bytes()
            for rel in sorted(out.rglob("*")) if rel.is_file()
        }
        files["__stdout__"] = stdout.encode()
        return files

    first = artifacts("run1", 1, capsys)
    second = artifacts("run2", 1, capsys)
    third = artifacts("run4", 4, capsys)
    ok = first == second == third and len(first) >= 10
    elapsed = time.perf_counter() - start
    report("A9", ok and elapsed < 120.0, elapsed,
           f"{len(first)} artifacts byte-identical across runs and threads 1/4")
