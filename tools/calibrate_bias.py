#!/usr/bin/env python3
"""Calibrate the per-scenario discretisation-bias constants.

For each bundled scenario the Monte Carlo mean (and, where points are
defined, the Laplace statistics) is run at a path count large enough for the
statistical error to be well below the Euler bias; the constant C is then
frozen so that C * dt covers the measured bias with headroom, and the
scenario JSON file is rewritten in place.

Usage: python3 tools/calibrate_bias.py [--n-paths 400000] [--threads 4]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cbi import moments, riccati
from cbi.config import dumps_canonical
from cbi.montecarlo import estimate_laplace_grid, estimate_mean
from cbi.scenarios import BUNDLED_NAMES, load_scenario, scenario_to_json

CAL_SEED = 990_001  # separate from verification seeds: calibration is out-of-sample


def headroom(bias, se, dt):
    # cover the measured bias plus calibration noise, then add 50% margin
    return 1.5 * float(np.max(bias + 2.0 * se)) / dt


def calibrate(name, n_paths, threads):
    s = load_scenario(name)
    p, der = s.params, s.derived()
    cfg = s.sim_config()

    analytic = moments.mean(p, der, s.x0, s.t)
    est = estimate_mean(p, s.x0, s.t, n_paths, cfg, CAL_SEED, der=der,
                        threads=threads)
    bias = np.abs(est.value - analytic)
    c_mean = max(0.25, headroom(bias, est.stderr, s.dt))
    print(f"{name}: mean bias {bias} se {est.stderr} -> C_mean {c_mean:.3f}")

    c_laplace = 0.25
    if s.laplace_points:
        exact = riccati.laplace_grid(p, der, s.x0, s.laplace_points,
                                     rtol=1e-10, atol=1e-12)
        values, ses = estimate_laplace_grid(p, s.x0, s.laplace_points, n_paths,
                                            cfg, CAL_SEED, der=der, threads=threads)
        lbias = np.abs(values - exact)
        c_laplace = max(0.1, headroom(lbias, ses, s.dt))
        print(f"{name}: laplace bias {lbias} -> C_laplace {c_laplace:.3f}")

    s.bias_constant_mean = round(c_mean, 3)
    s.bias_constant_laplace = round(c_laplace, 3)
    out = Path(__file__).resolve().parents[1] / "src" / "cbi" / "data" / "scenarios" / f"{name}.json"
    out.write_text(dumps_canonical(scenario_to_json(s)) + "\n")
    print(f"{name}: wrote {out}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-paths", type=int, default=400_000)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--scenarios", nargs="*", default=list(BUNDLED_NAMES))
    args = ap.parse_args()
    for name in args.scenarios:
        calibrate(name, args.n_paths, args.threads)


if __name__ == "__main__":
    main()
