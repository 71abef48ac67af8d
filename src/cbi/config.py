"""JSON schemas for parameter files, measures and reports.

Parameter files look like

    {"d": 1, "c": [1.0], "beta": [1.0], "B": [[-1.0]],
     "nu": {"family": "discrete", "atoms": [{"z": [2.0], "w": 3.0}]},
     "mu": [null]}

with measure objects tagged by "family": "discrete", "product_exponential",
"tempered_power_law" (axis is 1-based in files) or "mixture". Serialisation
formats every float with 17 significant digits so artifacts are byte-stable
and round-trip exactly.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import CbiError, DimensionMismatch
from .measures import (
    DiscreteAtoms, JumpMeasure, MeasureSum, ProductExponential,
    TemperedPowerLawAxis,
)
from .params import AdmissibleParams, DerivedParams


class SchemaError(CbiError):
    """A config file does not match the expected schema."""


# --------------------------------------------------------------------------
# canonical JSON writing (fixed float format => byte-stable artifacts)
# --------------------------------------------------------------------------

def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("cannot serialise NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def dumps_canonical(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        # json escapes quotes, backslashes and control characters only
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            "  " * (indent + 1) + dumps_canonical(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + f'"{k}": ' + dumps_canonical(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


# what a numeric field of a parameter or scenario file must be: (description,
# test of a JSON number); a seed's range is checked where its substreams are keyed.
# A finite number is at most the largest float: JSON integers have no bound,
# and float() of a larger one overflows.
_INTEGER = ("an integer", lambda v: isinstance(v, int) or v.is_integer())
_COUNT = ("an integer of at least 1", lambda v: _INTEGER[1](v) and v >= 1)
_FLOAT_MAX = sys.float_info.max
_POSITIVE = ("a positive finite number", lambda v: 0 < v <= _FLOAT_MAX)
_NON_NEGATIVE = ("a non-negative finite number", lambda v: 0 <= v <= _FLOAT_MAX)
_REAL = ("a finite number", lambda v: -_FLOAT_MAX <= v <= _FLOAT_MAX)


def _number(value, name, kind):
    what, ok = kind
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise SchemaError(f"{name} must be {what}, got {value!r}")
    return value


def _reals(values, name):
    """The entries of a JSON list as floats, each a finite number."""
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of numbers, got {values!r}")
    return [float(_number(v, name, _REAL)) for v in values]


# --------------------------------------------------------------------------
# measures
# --------------------------------------------------------------------------

def measure_from_json(obj, dim: int) -> JumpMeasure | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "family" not in obj:
        raise SchemaError("measure objects need a 'family' tag")
    family = obj["family"]
    try:
        if family == "discrete":
            atoms = [(np.array(_reals(a["z"], "discrete atom z")),
                      float(_number(a["w"], "discrete atom w", _REAL)))
                     for a in obj.get("atoms", [])]
            return DiscreteAtoms(dim, atoms)
        if family == "product_exponential":
            rates = _reals(obj["rates"], "product_exponential rates")
            if len(rates) != dim:
                raise SchemaError("product_exponential rates must have length d")
            return ProductExponential(
                float(_number(obj["mass"], "product_exponential mass", _REAL)), rates)
        if family == "tempered_power_law":
            # 1-based in files
            axis = int(_number(obj["axis"], "tempered_power_law axis", _COUNT)) - 1
            return TemperedPowerLawAxis(dim, axis, **{
                key: float(_number(obj[key], f"tempered_power_law {key}", _REAL))
                for key in ("alpha", "theta", "scale")})
        if family == "mixture":
            comps = [measure_from_json(c, dim) for c in obj["components"]]
            return MeasureSum(comps)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad measure object ({family}): {exc}") from exc
    raise SchemaError(f"unknown measure family {family!r}")


def measure_to_json(m: JumpMeasure | None):
    if m is None:
        return None
    if isinstance(m, DiscreteAtoms):
        return {"family": "discrete",
                "atoms": [{"z": list(z), "w": w} for z, w in m.atoms]}
    if isinstance(m, ProductExponential):
        return {"family": "product_exponential", "mass": m.r,
                "rates": list(m.theta)}
    if isinstance(m, TemperedPowerLawAxis):
        return {"family": "tempered_power_law", "axis": m.axis + 1,
                "alpha": m.alpha, "theta": m.theta, "scale": m.scale}
    if isinstance(m, MeasureSum):
        return {"family": "mixture",
                "components": [measure_to_json(c) for c in m.components()]}
    raise TypeError(f"cannot serialise measure {type(m)!r}")


# --------------------------------------------------------------------------
# parameter tuples
# --------------------------------------------------------------------------

def params_from_json(obj) -> AdmissibleParams:
    if not isinstance(obj, dict):
        raise SchemaError("parameter file must hold a JSON object")
    try:
        d = int(_number(obj["d"], "d", _COUNT))
        # before anything of size d is built: a huge d would exhaust memory
        if d != len(obj["c"]):
            raise DimensionMismatch(f"c must have shape ({d},), got ({len(obj['c'])},)")
        c = _reals(obj["c"], "c")
        beta = _reals(obj["beta"], "beta")
        B = [_reals(row, "B") for row in obj["B"]]
        nu = measure_from_json(obj.get("nu"), d)
        mu_list = obj.get("mu")
        if mu_list is None:
            mu = (None,) * d
        else:
            mu = tuple(measure_from_json(m, d) for m in mu_list)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad parameter file: {exc}") from exc
    return AdmissibleParams(d=d, c=c, beta=beta, B=B, nu=nu, mu=mu)


def params_to_json(p: AdmissibleParams):
    return {
        "d": p.d,
        "c": list(p.c),
        "beta": list(p.beta),
        "B": [list(row) for row in p.B],
        "nu": measure_to_json(p.nu),
        "mu": [measure_to_json(m) for m in p.mu],
    }


def derived_to_json(der: DerivedParams):
    return {
        "beta_tilde": list(der.beta_tilde),
        "B_tilde": [list(row) for row in der.B_tilde],
        "D": [list(row) for row in der.D],
        "B_hat": [list(row) for row in der.B_hat],
        "eps_trunc": der.eps_trunc,
        "small_jump_mean": [list(row) for row in der.small_jump_mean],
        "branching_rates": list(der.branching_rates),
        "immigration_rate": der.immigration_rate,
        "drift_matrix": [list(row) for row in der.drift_matrix],
    }
