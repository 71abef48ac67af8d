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
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cbi.config import dumps_canonical
from cbi.montecarlo import verify_laplace, verify_mean
from cbi.scenarios import BUNDLED_NAMES, load_scenario

CAL_SEED = 990_001  # separate from verification seeds: calibration is out-of-sample


def headroom(bias, se, dt):
    # cover the measured bias plus calibration noise, then add 50% margin
    return 1.5 * float(np.max(bias + 2.0 * se)) / dt


def calibrate(name, n_paths, threads):
    """(C_mean, C_laplace) of one scenario, rounded as the file stores them,
    from the scenario's own verification run at n_paths and CAL_SEED."""
    s = dataclasses.replace(load_scenario(name), n_paths=n_paths, seed=CAL_SEED)

    report = verify_mean(s, threads=threads)
    bias = np.abs(report.estimate - report.analytic)
    c_mean = max(0.25, headroom(bias, report.stderr, s.dt))
    print(f"{name}: mean bias {bias} se {report.stderr} -> C_mean {c_mean:.3f}")

    c_laplace = 0.25
    if s.laplace_points:
        report = verify_laplace(s, threads=threads)
        lbias = np.abs(report.estimate - report.analytic)
        c_laplace = max(0.1, headroom(lbias, report.stderr, s.dt))
        print(f"{name}: laplace bias {lbias} -> C_laplace {c_laplace:.3f}")
    return round(c_mean, 3), round(c_laplace, 3)


def write_constants(path, c_mean, c_laplace):
    """Set the two bias constants in the scenario file at path, keeping every
    other field of its JSON object as it is."""
    path = Path(path)
    blob = json.loads(path.read_text())
    blob["bias_constant_mean"] = c_mean
    blob["bias_constant_laplace"] = c_laplace
    path.write_text(dumps_canonical(blob) + "\n")
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-paths", type=int, default=400_000)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--scenarios", nargs="*", default=list(BUNDLED_NAMES))
    args = ap.parse_args()
    scenarios = Path(__file__).resolve().parents[1] / "src" / "cbi" / "data" / "scenarios"
    for name in args.scenarios:
        write_constants(scenarios / f"{name}.json", *calibrate(name, args.n_paths, args.threads))


if __name__ == "__main__":
    main()
