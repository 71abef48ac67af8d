"""Bundled reference scenarios for the verification harness.

Five desk-scale instances cover the representative regimes: the scalar
square-root diffusion (S1), a coupled two-factor diffusion (S2), a two-type
finite-activity jump instance (S3), a one-type jump instance with immigration
(S4) and a pure-jump instance without any diffusion part (S5). Each scenario
file pins every knob of its verification runs (paths, step, seeds) together
with the Delta-t bias constants calibrated by tools/calibrate_bias.py, so
verification outcomes are reproducible bit for bit.

The package only reads scenario files; the calibration tool writes its two
constants into a file's own JSON object. Every field is checked on load:
name and description are strings, t and dt positive, x0 a point of R_+^d
(check_state of :mod:`cbi.params`), and the counts, seeds, constants,
Laplace points and comparison block are numbers of their kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .config import (
    _COUNT, _INTEGER, _NON_NEGATIVE, _POSITIVE, _REAL, SchemaError, _number, _reals,
    params_from_json,
)
from .errors import CbiError
from .params import DEFAULT_EPS_TRUNC, AdmissibleParams, DerivedParams, check_state, derive
from .simulate import SimConfig

BUNDLED_NAMES = ("S1", "S2", "S3", "S4", "S5")


@dataclass
class Scenario:
    name: str
    description: str
    params: AdmissibleParams
    x0: np.ndarray
    t: float
    dt: float
    n_paths: int
    seed: int
    eps_trunc: float
    bias_constant_mean: float
    bias_constant_laplace: float
    laplace_points: list          # [(t, lam array), ...]
    comparison: dict | None = None

    def sim_config(self) -> SimConfig:
        return SimConfig(T=self.t, dt=self.dt, eps_trunc=self.eps_trunc)

    def derived(self) -> DerivedParams:
        return derive(self.params, self.eps_trunc)


def _comparison_from_json(comp, d):
    """The comparison block with every field checked, in file order."""
    shift = comp["beta_shift"]
    if not (isinstance(shift, list) and len(shift) == d):
        raise SchemaError(f"comparison.beta_shift must have {d} components, got {shift!r}")
    return {"beta_shift": [float(_number(v, "comparison.beta_shift", _NON_NEGATIVE))
                           for v in shift],
            "n_paths": int(_number(comp["n_paths"], "comparison.n_paths", _COUNT)),
            "dt": float(_number(comp["dt"], "comparison.dt", _POSITIVE)),
            "T": float(_number(comp["T"], "comparison.T", _POSITIVE)),
            "seed": int(_number(comp["seed"], "comparison.seed", _INTEGER))}


def _text(value, name):
    if not isinstance(value, str):
        raise SchemaError(f"{name} must be a string, got {value!r}")
    return value


def scenario_from_json(obj) -> Scenario:
    """A scenario from its JSON object; malformed fields raise SchemaError."""
    try:
        params = params_from_json(obj["params"])
        comparison = obj.get("comparison")
        points = [(float(_number(pt["t"], "laplace_points t", _REAL)),
                   np.array(_reals(pt["lam"], "laplace_points lam")))
                  for pt in obj.get("laplace_points", [])]
        return Scenario(
            name=_text(obj["name"], "name"),
            description=_text(obj.get("description", ""), "description"),
            params=params,
            x0=check_state("x0", _reals(obj["x0"], "x0"), params.d),
            t=float(_number(obj["t"], "t", _POSITIVE)),
            dt=float(_number(obj["dt"], "dt", _POSITIVE)),
            n_paths=int(_number(obj["n_paths"], "n_paths", _COUNT)),
            seed=int(_number(obj["seed"], "seed", _INTEGER)),
            eps_trunc=float(_number(obj.get("eps_trunc", DEFAULT_EPS_TRUNC), "eps_trunc",
                                    _REAL)),
            bias_constant_mean=float(_number(obj["bias_constant_mean"],
                                             "bias_constant_mean", _NON_NEGATIVE)),
            bias_constant_laplace=float(_number(obj["bias_constant_laplace"],
                                                "bias_constant_laplace", _NON_NEGATIVE)),
            laplace_points=points,
            comparison=(None if comparison is None
                        else _comparison_from_json(comparison, params.d)),
        )
    except CbiError:
        # a SchemaError, or the error of a parameter tuple or of x0, as raised
        raise
    except KeyError as exc:
        raise SchemaError(f"bad scenario file: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad scenario file: {exc}") from exc


def load_scenario(name_or_path: str) -> Scenario:
    """Load a bundled scenario by name (S1..S5) or any scenario file by path."""
    if name_or_path in BUNDLED_NAMES:
        ref = resources.files("cbi").joinpath(f"data/scenarios/{name_or_path}.json")
        text = ref.read_text()
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise SchemaError(f"unknown scenario {name_or_path!r} "
                              f"(bundled: {', '.join(BUNDLED_NAMES)})")
        text = path.read_text()
    try:
        return scenario_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
