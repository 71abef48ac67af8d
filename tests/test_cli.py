"""Command-line interface: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy import integrate

import cbi
from cbi.cli import _path_template, _write_jump_csv, _write_path_csv, main
from cbi.config import dumps_canonical, format_float, params_to_json
from cbi.scenarios import load_scenario
from cbi.simulate import JumpEvent, Path

CIR = {
    "d": 1, "c": [1.0], "beta": [1.0], "B": [[-1.0]], "nu": None, "mu": [None],
}


@pytest.fixture
def cir_file(tmp_path):
    path = tmp_path / "cir.json"
    path.write_text(json.dumps(CIR))
    return str(path)


PAIR = {
    "d": 2, "c": [1.0, 1.0], "beta": [1.0, 1.0], "B": [[-1.0, 0.0], [0.0, -1.0]],
    "nu": None, "mu": [None, None],
}


def write_params(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def tiny_scenario(tmp_path, cir_file_path, **overrides):
    blob = {
        "name": "tiny",
        "description": "unit-test scenario",
        "params": CIR,
        "x0": [1.0],
        "t": 0.25,
        "dt": 2.0 ** -5,
        "n_paths": 3000,
        "seed": 77,
        "eps_trunc": 0.001,
        "bias_constant_mean": 3.0,
        "bias_constant_laplace": 3.0,
        "laplace_points": [{"t": 0.25, "lam": [1.0]}],
        "comparison": {"beta_shift": [0.5], "n_paths": 1000, "dt": 2.0 ** -6,
                       "T": 0.25, "seed": 5},
    }
    blob.update(overrides)
    path = tmp_path / "tiny_scenario.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestValidateCommand:
    def test_pass_exit_zero(self, cir_file, capsys):
        assert main(["validate", cir_file]) == 0
        assert "admissible: True" in capsys.readouterr().out

    def test_failing_check_named_exit_one(self, tmp_path, capsys):
        bad = dict(CIR, d=2, c=[1.0, 1.0], beta=[0.0, 0.0],
                   B=[[0.0, -0.1], [0.0, 0.0]], mu=[None, None])
        path = write_params(tmp_path, "bad.json", bad)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] B_essentially_nonnegative" in out

    def test_dimension_mismatch_exit_two(self, tmp_path, capsys):
        bad = dict(CIR, c=[1.0, 2.0])
        path = write_params(tmp_path, "dim.json", bad)
        assert main(["validate", path]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("params, d", [
        (PAIR, 2.5), (PAIR, "2"), (CIR, True), (CIR, 0),
    ], ids=["fraction", "string", "bool", "zero"])
    def test_non_count_dimension_exit_two(self, params, d, tmp_path, capsys):
        # d is not truncated or coerced to the count the file's arrays have
        path = write_params(tmp_path, "dim.json", dict(params, d=d))
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert (f"schema error: SchemaError: d must be an integer of at least 1, "
                f"got {d!r}") in captured.err
        assert not captured.out

    @pytest.mark.parametrize("d", [2, 10 ** 18, 1e18], ids=["two", "huge", "huge-float"])
    def test_dimension_beyond_the_arrays_exit_two(self, d, tmp_path, capsys):
        # d is compared with the length of c before anything of size d is
        # built, so no mu of 10^18 entries is attempted
        path = write_params(tmp_path, "dim.json",
                            {"d": d, "c": [1.0], "beta": [1.0], "B": [[-1.0]]})
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert (f"schema error: DimensionMismatch: c must have shape ({int(d)},), "
                f"got (1,)") in captured.err
        assert not captured.out

    @pytest.mark.parametrize("axis", [1.5, True, "1"], ids=["fraction", "bool", "string"])
    def test_non_count_axis_exit_two(self, axis, tmp_path, capsys):
        # a tempered leaf's axis is not truncated or coerced to an axis
        leaf = {"family": "tempered_power_law", "axis": axis, "alpha": 0.5,
                "theta": 1.0, "scale": 1.0}
        path = write_params(tmp_path, "axis.json", dict(PAIR, mu=[leaf, None]))
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert (f"schema error: SchemaError: tempered_power_law axis must be an "
                f"integer of at least 1, got {axis!r}") in captured.err
        assert not captured.out

    def test_json_artifact(self, cir_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["validate", cir_file, "--json-out", str(out)])
        capsys.readouterr()
        blob = json.loads(out.read_text())
        assert blob["ok"] is True


class TestScalarCommands:
    def test_laplace_t_zero(self, cir_file, capsys):
        assert main(["laplace", cir_file, "--x", "1.5", "--lam", "2.0",
                     "--t", "0.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_mean_matches_library(self, cir_file, capsys):
        assert main(["mean", cir_file, "--m0", "1.0", "--t", "1.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_numeric_failure_exit_four(self, cir_file, capsys):
        assert main(["mean", cir_file, "--m0", "1.0", "--t", "1e9"]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_mean_overflow_exit_four(self, tmp_path, capsys):
        # ||t B_tilde|| = 400 passes the norm guard; the result overflows,
        # which the command reports without a numpy warning
        path = write_params(tmp_path, "growth.json", dict(CIR, B=[[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mean", path, "--m0", "1e300", "--t", "400"]) == 4
        assert "overflowed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--t", "nan", "InvalidConfig: t must be finite and non-negative"),
        ("--t", "inf", "InvalidConfig: t must be finite and non-negative"),
        ("--m0", "4,nan", "PreconditionViolated: m0 must be finite"),
        ("--m0", "4,inf", "PreconditionViolated: m0 must be finite"),
        ("--m0", "-1,0", "PreconditionViolated: m0 must be componentwise non-negative"),
        ("--m0", "4", "InvalidConfig: m0 must have shape (2,)"),
    ])
    def test_bad_mean_input_exit_two(self, flag, value, message, tmp_path, capsys):
        # a mean of the process lies in R_+^d, as x and x0 do
        path = write_params(tmp_path, "pair.json", PAIR)
        args = {"--m0": "4,1", "--t": "1.0", flag: value}
        assert main(["mean", path, *(f"{k}={v}" for k, v in args.items())]) == 2
        captured = capsys.readouterr()
        assert f"schema error: {message}" in captured.err
        assert not captured.out

    def test_huge_horizon_exit_four_without_warning(self, s3_file, capsys):
        # ||t B_tilde|| overflows a float: the guard reports it, not numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mean", s3_file, "--m0=1,1", "--t=1e308"]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: OverflowError: ||t B_tilde|| too large" in err
        assert "Warning" not in err

    def test_inadmissible_exit_three(self, tmp_path, capsys):
        bad = dict(CIR, B=[[float("nan")]])
        # NaN fails essential non-negativity check semantics; craft cleanly:
        bad = dict(CIR, d=2, c=[1.0, 1.0], beta=[0.0, 0.0],
                   B=[[0.0, -0.5], [0.0, 0.0]], mu=[None, None])
        path = write_params(tmp_path, "bad2.json", bad)
        assert main(["laplace", path, "--x", "1,1", "--lam", "1,1", "--t", "1"]) == 3
        assert "admissibility failure" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["5", "1.0000001", "0", "-1e-3", "nan", "inf"])
    def test_derive_eps_out_of_range_exit_two(self, eps, cir_file, capsys):
        assert main(["derive", cir_file, f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert "schema error: InvalidConfig: eps_trunc must lie in (0, 1]" in captured.err
        assert not captured.out

    def test_derive_round_trip(self, tmp_path, capsys):
        nu = {"family": "discrete", "atoms": [{"z": [0.3], "w": 0.7}]}
        obj = dict(CIR, nu=nu)
        path = write_params(tmp_path, "p.json", obj)
        out = tmp_path / "derived.json"
        assert main(["derive", path, "--json-out", str(out)]) == 0
        capsys.readouterr()
        blob = json.loads(out.read_text())
        from cbi.params import derive
        from cbi.config import params_from_json
        der = derive(params_from_json(obj))
        assert float(blob["beta_tilde"][0]) == der.beta_tilde[0]


def scenario_sim_args(tmp_path, name):
    """simulate arguments for a bundled scenario's parameters, initial
    state, horizon, step, seed and cutoff."""
    s = load_scenario(name)
    path = tmp_path / f"{name}-params.json"
    path.write_text(dumps_canonical(params_to_json(s.params)))
    return [str(path), "--x0", ",".join(repr(float(v)) for v in s.x0),
            "--T", repr(s.t), "--dt", repr(s.dt), "--seed", str(s.seed),
            "--eps", repr(s.eps_trunc)]


def test_commands_do_not_import_scipy(tmp_path):
    # a fresh interpreter runs every view of S3 through the CLI, against the
    # same cbi package as this test (the checkout or the install), and never
    # imports scipy or numpy.polynomial, which only the tests need
    sim = scenario_sim_args(tmp_path, "S3")
    params = sim[0]
    commands = [
        ["validate", params],
        ["derive", params],
        ["mean", params, "--m0", "4,0.4", "--t", "1"],
        ["laplace", params, "--x", "4,0.4", "--lam", "1,0.5", "--t", "1"],
        ["simulate", *sim, "--n", "2", "--record-jumps", "--out", str(tmp_path / "paths")],
        ["verify", "comparison", "--scenario", "S3", "--budget", "1"],
    ]
    script = (
        "import json, sys\n"
        "from cbi.cli import main\n"
        f"codes = [main(args) for args in {commands!r}]\n"
        "heavy = sorted(m for m in sys.modules for top in ('scipy', 'numpy.polynomial')\n"
        "               if m == top or m.startswith(top + '.'))\n"
        "print(json.dumps({'codes': codes, 'heavy': heavy}))\n"
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cbi.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0, 4]
    assert result["heavy"] == []


class TestSimulateCommand:
    def run_sim(self, cir_file, out_dir, extra=()):
        return main(["simulate", cir_file, "--x0", "1.0", "--T", "0.25",
                     "--dt", "0.03125", "--n", "2", "--seed", "11",
                     "--out", str(out_dir), *extra])

    # S3 (d = 2) and S4 (d = 1) run the generated one-path step of their
    # dimension, S3 also in clamp mode
    @pytest.mark.parametrize("name, mode", [
        ("cir", "raw"), ("S3", "raw"), ("S3", "clamp"), ("S4", "raw")])
    def test_artifacts_byte_identical_across_runs(self, name, mode, cir_file, tmp_path,
                                                  capsys):
        # two recorded runs write the same bytes, and --record-jumps only adds
        # the jump files: the paths of an unrecorded run are the same bytes
        # (20 paths: of S4's, only paths 14 and 19 draw a branching mark)
        args = ([cir_file, "--x0", "1.0", "--T", "0.25", "--dt", "0.03125", "--seed", "11"]
                if name == "cir" else scenario_sim_args(tmp_path, name))
        runs = {}
        for run, extra in [("a", ["--record-jumps"]), ("b", ["--record-jumps"]), ("c", [])]:
            out = tmp_path / run
            assert main(["simulate", *args, "--n", "20", "--positivity", mode,
                         "--out", str(out), *extra]) == 0
            runs[run] = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert len(runs["a"]) == 40 and runs["a"] == runs["b"]
        assert runs["c"] == {k: v for k, v in runs["a"].items() if k.startswith("path_")}

    def test_header_format(self, cir_file, tmp_path, capsys):
        out = tmp_path / "c"
        self.run_sim(cir_file, out)
        capsys.readouterr()
        lines = (out / "path_00000.csv").read_text().splitlines()
        assert lines[0] == "t,x1"
        assert lines[1].startswith("0,1")

    def test_jump_log(self, tmp_path, capsys):
        obj = dict(CIR, c=[0.0],
                   mu=[{"family": "discrete", "atoms": [{"z": [0.5], "w": 2.0}]}])
        path = write_params(tmp_path, "j.json", obj)
        out = tmp_path / "jumps"
        assert main(["simulate", path, "--x0", "2.0", "--T", "1.0",
                     "--dt", "0.0625", "--n", "1", "--seed", "3",
                     "--out", str(out), "--record-jumps"]) == 0
        capsys.readouterr()
        lines = (out / "jumps_00000.csv").read_text().splitlines()
        assert lines[0] == "t,kind,type,z1,u"
        assert len(lines) > 1
        kinds = {row.split(",")[1] for row in lines[1:]}
        assert kinds <= {"immigration", "branching"}


class TestSimulateInputs:
    """Inputs the simulation cannot honour exit 2, and a time grid too large
    to count or to build exits 4, before any path is written."""

    @pytest.mark.parametrize("flag, value, code, message", [
        ("--x0", "4,nan", 2, "x0 must be finite"),
        ("--x0", "4,inf", 2, "x0 must be finite"),
        ("--T", "inf", 2, "T must be positive and finite"),
        ("--n", "0", 2, "--n must be at least 1"),
        ("--n", "-3", 2, "--n must be at least 1"),
        ("--seed", "1180591620717411303424", 2, "must lie in [0, 2**64)"),
        ("--seed", "-1", 2, "must lie in [0, 2**64)"),
        # 3.2e16 steps: numpy refuses the 256 PiB grid before allocating
        ("--T", "1e15", 4, "MemoryError: the grid of T = 1000000000000000.0 and "
                           "dt = 0.03125 has 32000000000000000 steps"),
        ("--T", "1e308", 4, "OverflowError: time 1e+308 holds too many steps of "
                            "dt = 0.03125"),
    ])
    def test_exit_code(self, flag, value, code, message, tmp_path, capsys):
        path = write_params(tmp_path, "pair.json", PAIR)
        args = {"--x0": "4,1", "--T": "0.25", "--dt": "0.03125", "--n": "2",
                "--seed": "11", "--out": str(tmp_path / "out"), flag: value}
        assert main(["simulate", path, *(x for kv in args.items() for x in kv)]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "wrote" not in captured.out
        assert not list(tmp_path.glob("out/*.csv"))



class TestNonFiniteParams:
    """A non-finite entry of c, beta or B, or a non-finite number in a
    measure field, is an input error (exit 2) for every command that reads
    a parameter file; so is a boolean, a numeric string or an integer past
    the float range."""

    ARGS = {
        "validate": [],
        "simulate": ["--x0", "1,1", "--T", "0.25", "--dt", "0.0625", "--seed", "1"],
        "laplace": ["--x", "1,1", "--lam", "1,1", "--t", "1"],
        "mean": ["--m0", "1,1", "--t", "1"],
    }

    @staticmethod
    def measure(field, value):
        """(key, measure object) with value in the named field."""
        tempered = {"family": "tempered_power_law", "axis": 1,
                    "alpha": 0.5, "theta": 1.0, "scale": 1.0}
        if field in tempered:
            return "mu", dict(tempered, **{field: value})
        return {
            "atom_z": ("nu", {"family": "discrete", "atoms": [{"z": [value, 0.5], "w": 1.0}]}),
            "atom_w": ("nu", {"family": "discrete", "atoms": [{"z": [1.0, 0.5], "w": value}]}),
            "mass": ("mu", {"family": "product_exponential", "mass": value, "rates": [1.0, 2.0]}),
            "rates": ("mu", {"family": "product_exponential", "mass": 1.0, "rates": [value, 2.0]}),
        }[field]

    # the name each field has in the schema's messages
    NAMES = {"atom_z": "discrete atom z", "atom_w": "discrete atom w",
             "mass": "product_exponential mass", "rates": "product_exponential rates",
             "alpha": "tempered_power_law alpha", "theta": "tempered_power_law theta",
             "scale": "tempered_power_law scale"}

    # json writes the floats as the tokens Infinity and NaN
    @pytest.mark.parametrize("command", ARGS)
    @pytest.mark.parametrize("value", [math.inf, math.nan, "inf", True, "0.5", 10 ** 400],
                             ids=["inf0", "nan", "inf1", "True", "0.5", "huge-int"])
    @pytest.mark.parametrize("field", ["c", "beta", "B", "atom_z", "atom_w", "mass",
                                       "rates", "alpha", "theta", "scale"])
    def test_exit_two(self, field, value, command, tmp_path, capsys):
        params = json.loads(json.dumps(PAIR))
        if field in ("c", "beta", "B"):
            (params["B"][1] if field == "B" else params[field])[1] = value
        else:
            key, measure = self.measure(field, value)
            if key == "nu":
                params["nu"] = measure
            else:
                params["mu"][0] = measure
        message = (f"schema error: SchemaError: {self.NAMES.get(field, field)} "
                   f"must be a finite number, got {value!r}")
        path = write_params(tmp_path, "params.json", params)
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path, *self.ARGS[command], *out]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "admissible" not in captured.out
        assert not list(tmp_path.glob("out/*.csv"))


class TestNumericOverflow:
    """A state or a rate that overflows is a numeric failure (exit 4),
    reported without a traceback or a numpy warning."""

    HUGE_ATOM = {"family": "discrete", "atoms": [{"z": [1.0], "w": 1e308}]}

    @pytest.mark.parametrize("command, params, message", [
        ("simulate", dict(CIR, B=[[1e308]]), "the Euler state overflowed"),
        ("simulate", dict(CIR, nu=HUGE_ATOM), "immigration rate overflowed"),
        ("simulate", dict(CIR, mu=[HUGE_ATOM]), "branching candidate rate overflowed"),
        ("laplace", dict(CIR, B=[[1e308]]), "StepSizeUnderflow"),
    ])
    def test_exit_four(self, command, params, message, tmp_path, capsys):
        path = write_params(tmp_path, "huge.json", params)
        args = (["--x0", "1", "--T", "1", "--dt", "0.25", "--seed", "1",
                 "--out", str(tmp_path / "out")] if command == "simulate"
                else ["--x", "1", "--lam", "1", "--t", "1"])
        assert main(["validate", path]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path, *args]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: " in err and message in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not list(tmp_path.glob("out/*.csv"))

    # integrals that converge by construction but overflow: nu's mass, and
    # the density scale of a product exponential with a huge rate
    HUGE_NU = dict(PAIR, nu={"family": "product_exponential", "mass": 1e308,
                             "rates": [1.0, 2.0]})
    HUGE_RATE = dict(PAIR, mu=[{"family": "product_exponential", "mass": 1.0,
                                "rates": [1e308, 2.0]}, None])
    # its small-jump shells are finite (about 1e-200), but the angular weight
    # of its large-jump first moment, about 1 / a^3 at a = 1e-200, is not
    TINY_RATE = dict(PAIR, mu=[{"family": "product_exponential", "mass": 1.0,
                                "rates": [1e-200, 2.0]}, None])

    @pytest.mark.parametrize("params", [HUGE_NU, HUGE_RATE, TINY_RATE],
                             ids=["nu-mass", "mu-rate", "mu-tiny-rate"])
    @pytest.mark.parametrize("command, args", [
        ("validate", []),
        ("derive", []),
        ("mean", ["--m0", "1,1", "--t", "1"]),
        ("laplace", ["--x", "1,1", "--lam", "1,1", "--t", "1"]),
        ("simulate", ["--x0", "1,1", "--T", "1", "--dt", "0.25", "--seed", "1"]),
    ])
    def test_overflowing_integral_exit_four(self, command, args, params, tmp_path, capsys):
        path = write_params(tmp_path, "huge.json", params)
        if command == "simulate":
            args = [*args, "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path, *args]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric failure: OverflowError")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        assert "divergent" not in captured.out

    @pytest.mark.parametrize("x0", ["1e20,0.5", "1e308,0.5"])
    def test_huge_candidate_count_exit_four(self, x0, tmp_path, capsys):
        # S3's type-1 clock at x0 = 1e20 has a mean of about 6e18, which
        # Generator.poisson draws but no float64 array of that length exists
        path = write_params(tmp_path, "S3.json",
                            params_to_json(load_scenario("S3").params))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", path, f"--x0={x0}", "--T=0.25", "--dt=0.03125",
                         "--seed=1", "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: OverflowError" in err
        assert "branching candidate rate overflowed" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not list(tmp_path.glob("out/*.csv"))

    def test_verify_comparison_exit_four(self, tmp_path, capsys):
        # the coupled pairs run the array lane of the Euler kernel (n > 1)
        blob = json.loads(resources.files("cbi").joinpath("data/scenarios/S3.json")
                          .read_text())
        blob["params"]["B"][0][0] = 1e308
        blob["comparison"]["n_paths"] = 50
        path = write_params(tmp_path, "S3-huge.json", blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "comparison", "--scenario", path]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: OverflowError" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err


def test_far_apart_rates_derive_matches_reference(tmp_path, capsys):
    # product-exponential rates 1e5 apart: D[1][0] = 1/2 - int z_2
    # 1{||z|| >= 1} mu_1(dz) against a one-dimensional reference in
    # u = 1e5 z_1 (the z_2 integral exact), or a numeric failure, never a
    # silently wrong value
    params = dict(PAIR, c=[0.5, 0.5], beta=[0.5, 0.5], mu=[
        {"family": "product_exponential", "mass": 1, "rates": [1e5, 2]}, None])
    path = write_params(tmp_path, "far-rates.json", params)
    out = tmp_path / "derived.json"
    code = main(["derive", path, "--json-out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    if code == 4:
        return
    assert code == 0

    def f(u):
        a = 2.0 * math.sqrt(max(1.0 - (u / 1e5) ** 2, 0.0))
        return math.exp(-u) * (1.0 + a) * math.exp(-a) / 2.0

    want = 0.5 - integrate.quad(f, 0.0, 800.0, epsabs=0.0, epsrel=1e-12, limit=500)[0]
    got = float(json.loads(out.read_text())["D"][1][0])
    assert abs(got - want) <= 1e-8


class TestTemperedEdgeFiles:
    """Tempered leaves whose region integrals quadrature could not take: a
    density z^(s-1) with s = p - alpha near 0, and a tail out to
    1/theta = 1e6; and a d = 2 mixture of tempered leaves and product
    exponentials, which runs the closed-form Laplace exponents and the
    rejection sampler. Every command runs them, and their paths repeat byte
    for byte."""

    LEAF = {"family": "tempered_power_law", "axis": 1, "alpha": 0.99999,
            "theta": 1.0, "scale": 0.1}
    BASE = dict(CIR, c=[0.5], beta=[0.5])
    FILES = {
        "nu-alpha-near-one": dict(BASE, nu=LEAF),
        "mu-alpha-near-two": dict(BASE, mu=[dict(LEAF, alpha=1.9999)]),
        "nu-long-tail": dict(BASE, nu=dict(LEAF, alpha=0.5, theta=1e-6)),
        "mixture-d2": {
            "d": 2, "c": [0.3, 0.0], "beta": [0.2, 0.5], "B": [[-1, 0.3], [0.2, -0.8]],
            "nu": {"family": "mixture", "components": [
                {"family": "product_exponential", "mass": 0.5, "rates": [2, 3]},
                {"family": "tempered_power_law", "axis": 1, "alpha": 0.6, "theta": 2,
                 "scale": 0.3}]},
            "mu": [{"family": "product_exponential", "mass": 0.2, "rates": [1, 4]},
                   {"family": "tempered_power_law", "axis": 2, "alpha": 1.5, "theta": 1,
                    "scale": 0.2}]},
    }

    @pytest.mark.parametrize("name", FILES)
    def test_every_command_exits_zero(self, name, tmp_path, capsys):
        path = write_params(tmp_path, f"{name}.json", self.FILES[name])
        x = ",".join(["1"] * self.FILES[name]["d"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", path]) == 0
            assert "admissible: True" in capsys.readouterr().out
            for command, args in [
                ("derive", []),
                ("mean", ["--m0", x, "--t", "1"]),
                ("laplace", ["--x", x, "--lam", x, "--t", "1"]),
                *(("simulate", ["--x0", x, "--T", "1", "--dt", "0.0625", "--seed", "3",
                                "--n", "2", "--record-jumps", "--out", str(tmp_path / run)])
                  for run in ("a", "b")),
            ]:
                assert main([command, path, *args]) == 0, command
        a, b = ({f.name: f.read_bytes() for f in (tmp_path / run).iterdir()} for run in "ab")
        assert len(a) == 4 and a == b


def reference_path_csv(path_obj) -> str:
    """The path file written one format_float call per value."""
    d = path_obj.states.shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(d))]
    for t, row in zip(path_obj.grid, path_obj.states):
        lines.append(",".join(format_float(float(v)).strip('"') for v in [t, *row]))
    return "\n".join(lines) + "\n"


class TestPathCsv:
    SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 5e-324, -2.5e-310, 1.7976931348623157e308,
               123456789.123456789, 1e16, 1e17, float("inf"), float("-inf")]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_value_writer(self, d, tmp_path):
        rng = np.random.default_rng(d)
        states = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-20, 20, (40, d))
        states.flat[:len(self.SPECIAL)] = self.SPECIAL[:states.size]
        path_obj = Path(grid=np.linspace(0.0, 1.0, 40), states=states)
        out = tmp_path / "path.csv"
        _write_path_csv(_path_template(path_obj.grid, d), states, out)
        assert out.read_text() == reference_path_csv(path_obj)

    def test_nan_rejected(self, tmp_path):
        states = np.array([[1.0, 2.0], [float("nan"), 0.5]])
        with pytest.raises(ValueError):
            _write_path_csv(_path_template(np.array([0.0, 0.5]), 2), states,
                            tmp_path / "nan.csv")


def reference_jump_csv(path_obj, d) -> str:
    """The jump file written one format_float call per value."""
    lines = ["t,kind,type," + ",".join(f"z{i + 1}" for i in range(d)) + ",u"]
    for ev in path_obj.jumps:
        cells = [format_float(v).strip('"') for v in [ev.time, *ev.size.tolist()]]
        lines.append(",".join([
            cells[0], ev.kind, "" if ev.type_index is None else str(ev.type_index + 1),
            *cells[1:], "" if ev.u is None else format_float(ev.u).strip('"')]))
    return "\n".join(lines) + "\n"


class TestJumpCsv:
    SPECIAL = TestPathCsv.SPECIAL

    def jumps(self, d, values):
        values = iter(values)
        events = []
        for k in range(12):
            branching = k % 3 != 0
            events.append(JumpEvent(
                time=next(values), kind="branching" if branching else "immigration",
                type_index=k % d if branching else None,
                size=np.array([next(values) for _ in range(d)]),
                u=next(values) if branching else None, size_class="large"))
        return Path(grid=np.linspace(0.0, 1.0, 3), states=np.zeros((3, d)),
                    jumps=tuple(events))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_value_writer(self, d, tmp_path):
        rng = np.random.default_rng(10 + d)
        values = rng.standard_normal(12 * (d + 2)) * 10.0 ** rng.uniform(-300, 300, 12 * (d + 2))
        values[:len(self.SPECIAL)] = self.SPECIAL
        path_obj = self.jumps(d, values.tolist())
        out = tmp_path / "jumps.csv"
        _write_jump_csv(path_obj, out, d)
        assert out.read_text() == reference_jump_csv(path_obj, d)

    def test_no_jumps(self, tmp_path):
        out = tmp_path / "jumps.csv"
        _write_jump_csv(Path(grid=np.zeros(1), states=np.zeros((1, 2)), jumps=()), out, 2)
        assert out.read_text() == "t,kind,type,z1,z2,u\n"

    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_nan_rejected(self, where, tmp_path):
        # a NaN time, size or mark
        values = [0.5] * 60
        values[where] = float("nan")
        out = tmp_path / "nan.csv"
        with pytest.raises(ValueError, match="NaN"):
            _write_jump_csv(self.jumps(2, values), out, 2)
        assert not out.exists()


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "S3-params.json"
    path.write_text(dumps_canonical(params_to_json(load_scenario("S3").params)))
    return str(path)


# the exit-code fuzz: each flag is set to each of these while the others
# keep the valid values of _FUZZ_BASE
_FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "wrong-length", "non-number")
_FUZZ_BASE = {
    "mean": {"--m0": "4,0.4", "--t": "1"},
    "laplace": {"--x": "4,0.4", "--lam": "1,0.5", "--t": "1",
                "--rtol": "1e-8", "--atol": "1e-10"},
    "simulate": {"--x0": "4,0.4", "--T": "0.25", "--dt": "0.03125", "--n": "2",
                 "--seed": "7", "--eps": "1e-3"},
    "derive": {"--eps": "1e-3"},
}
# one exit code per entry of _FUZZ_VALUES
_FUZZ_EXITS = {
    ("mean", "--m0"): "22220022",
    ("mean", "--t"): "22220422",
    ("laplace", "--x"): "22220022",
    ("laplace", "--lam"): "22220422",
    ("laplace", "--t"): "22220422",
    ("laplace", "--rtol"): "22220022",
    ("laplace", "--atol"): "22222022",
    ("simulate", "--x0"): "22220422",
    ("simulate", "--T"): "22222422",
    ("simulate", "--dt"): "22222222",
    ("simulate", "--n"): "22222222",
    ("simulate", "--seed"): "22220222",
    ("simulate", "--eps"): "22222222",
    ("derive", "--eps"): "22222222",
}
_FUZZ_CASES = [(command, flag, value, int(code))
               for (command, flag), codes in _FUZZ_EXITS.items()
               for value, code in zip(_FUZZ_VALUES, codes)]


class TestExitCodeFuzz:
    """Each state, lambda, time, tolerance, cutoff, seed and count flag of
    mean, laplace, simulate and derive, set to one bad or extreme value while
    the others stay valid, exits with the code of the table on S3's
    parameters (d = 2): 0 success, 2 input error, 4 numeric failure (a
    horizon or state whose arithmetic overflows). No command prints a
    traceback or a warning."""

    VECTORS = ("--m0", "--x", "--lam", "--x0")

    def test_table_covers_every_flag(self):
        assert set(_FUZZ_EXITS) == {(command, flag) for command, flags in _FUZZ_BASE.items()
                                    for flag in flags}

    @pytest.mark.parametrize("command, flag, value, code", _FUZZ_CASES,
                             ids=[f"{c}{f}={v}" for c, f, v, _ in _FUZZ_CASES])
    def test_documented_exit_code(self, command, flag, value, code, s3_file, tmp_path,
                                  capsys):
        if value == "wrong-length":
            value = "1,1,1" if flag in self.VECTORS else "1,1"
        elif value == "non-number":
            value = "abc"
        if flag in self.VECTORS and value != "1,1,1":
            value += ",0.5"
        args = dict(_FUZZ_BASE[command], **{flag: value})
        if command == "simulate":
            args["--out"] = str(tmp_path / "out")
        # values such as -1,0 are passed as --flag=value: argparse would read
        # a separate -1,0 as an option
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = main([command, s3_file, *(f"{k}={v}" for k, v in args.items())])
            except SystemExit as exc:   # argparse refuses the literal
                got = exc.code
        err = capsys.readouterr().err
        assert got == code, err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("flag, env, code, message", [
        ("0", None, 2, "threads must be at least 1, got 0"),
        ("-3", None, 2, "threads must be at least 1, got -3"),
        (None, "0", 2, "$CBI_NUM_THREADS must be at least 1, got 0"),
        (None, "-3", 2, "$CBI_NUM_THREADS must be at least 1, got -3"),
        (None, "abc", 2, "$CBI_NUM_THREADS must be an integer, got 'abc'"),
        ("1", "0", 4, "numeric failure: BudgetExceeded"),
        (None, "2", 4, "numeric failure: BudgetExceeded"),
    ])
    def test_verify_thread_count(self, flag, env, code, message, monkeypatch, capsys):
        # a thread count below 1, from --threads or from $CBI_NUM_THREADS
        # when the flag is absent, is an input error; a valid one reaches
        # the budget check
        if env is None:
            monkeypatch.delenv("CBI_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("CBI_NUM_THREADS", env)
        args = ["verify", "mean", "--scenario", "S1", "--budget", "1"]
        if flag is not None:
            args.append(f"--threads={flag}")
        assert main(args) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestLaplaceInputs:
    """Inputs the Riccati flow cannot honour exit 2 before it integrates."""

    @pytest.mark.parametrize("flag, value, kind, message", [
        ("--t", "inf", "InvalidConfig", "t must be finite and non-negative"),
        ("--t", "nan", "InvalidConfig", "t must be finite and non-negative"),
        ("--t", "-1", "InvalidConfig", "t must be finite and non-negative"),
        ("--lam", "1,nan", "PreconditionViolated", "lambda must be finite"),
        ("--lam", "1,-0.5", "PreconditionViolated",
         "lambda must be componentwise non-negative"),
        ("--lam", "1", "InvalidConfig", "lambda must have shape (2,)"),
        ("--x", "4,nan", "PreconditionViolated", "x must be finite"),
        ("--x", "-4,0.4", "PreconditionViolated", "x must be componentwise non-negative"),
        ("--x", "4", "InvalidConfig", "x must have shape (2,)"),
        ("--rtol", "-1", "ValueError", "rtol must be finite and non-negative"),
        ("--rtol", "nan", "ValueError", "rtol must be finite and non-negative"),
        ("--atol", "0", "ValueError", "atol finite and positive"),
        ("--atol", "inf", "ValueError", "atol finite and positive"),
    ])
    def test_exit_two(self, flag, value, kind, message, s3_file, capsys):
        args = {"--x": "4,0.4", "--lam": "1,0.5", "--t": "1", flag: value}
        assert main(["laplace", s3_file, *(f"{k}={v}" for k, v in args.items())]) == 2
        captured = capsys.readouterr()
        assert f"schema error: {kind}: " in captured.err and message in captured.err
        assert not captured.out

    def test_both_tolerances_zero_exit_two(self, s3_file, capsys):
        assert main(["laplace", s3_file, "--x", "4,0.4", "--lam", "1,0.5", "--t", "1",
                     "--rtol", "0", "--atol", "0"]) == 2
        assert "schema error: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["1e-300", "5e-324", "1e-15"])
    def test_horizon_below_smallest_step(self, t, s3_file, capsys):
        # one step of length t, cut to the span: the value is e^{-<x, lam>}
        # to within t times the flow's speed
        assert main(["laplace", s3_file, "--x", "4,0.4", "--lam", "1,0.5",
                     "--t", t]) == 0
        value = float(capsys.readouterr().out)
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(math.exp(-4.2), rel=1e-12)


class TestVerifyCommand:
    def test_verify_mean_tiny_scenario(self, tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file)
        out = tmp_path / "report.json"
        assert main(["verify", "mean", "--scenario", scen,
                     "--json-out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        blob = json.loads(out.read_text())
        assert blob["passed"] is True
        assert "runtime_seconds" not in blob

    def test_control_characters_in_name_stay_json(self, tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file, name="a\nb\t\"c\"")
        out = tmp_path / "report.json"
        assert main(["verify", "mean", "--scenario", scen, "--json-out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["quantity"] == "mean[a\nb\t\"c\"]"

    def test_verify_artifacts_thread_invariant(self, tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file)
        outs = []
        for threads, name in ((1, "r1.json"), (4, "r4.json")):
            out = tmp_path / name
            assert main(["verify", "laplace", "--scenario", scen,
                         "--threads", str(threads), "--json-out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_env_var_thread_default(self, tmp_path, cir_file, capsys, monkeypatch):
        scen = tiny_scenario(tmp_path, cir_file)
        out_env = tmp_path / "env.json"
        monkeypatch.setenv("CBI_NUM_THREADS", "3")
        assert main(["verify", "mean", "--scenario", scen,
                     "--json-out", str(out_env)]) == 0
        monkeypatch.delenv("CBI_NUM_THREADS")
        out_one = tmp_path / "one.json"
        assert main(["verify", "mean", "--scenario", scen,
                     "--json-out", str(out_one)]) == 0
        capsys.readouterr()
        assert out_env.read_bytes() == out_one.read_bytes()

    def test_unknown_scenario_exit_two(self, capsys):
        assert main(["verify", "mean", "--scenario", "S99"]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("check, name, block", [
        ("comparison", "S1", "comparison"), ("laplace", "S2", "laplace_points")])
    def test_missing_scenario_block_exit_two(self, check, name, block, capsys):
        assert main(["verify", check, "--scenario", name]) == 2
        err = capsys.readouterr().err
        assert "schema error: InvalidConfig" in err
        assert f"scenario {name} has no {block} block" in err

    @pytest.mark.parametrize("times", [[0.1, 0.25], [0.125, 0.3]])
    def test_off_grid_laplace_time_exit_two(self, times, tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file, laplace_points=[
            {"t": t, "lam": [1.0]} for t in times])
        assert main(["verify", "laplace", "--scenario", scen]) == 2
        err = capsys.readouterr().err
        assert "schema error: InvalidConfig" in err
        assert "multiple of dt" in err

    @pytest.mark.parametrize("check, overrides", [
        ("mean", {"seed": -1}),
        ("laplace", {"seed": 2 ** 64}),
        ("comparison", {"comparison": {"beta_shift": [0.5], "n_paths": 1000,
                                       "dt": 2.0 ** -6, "T": 0.25, "seed": -5}}),
    ])
    def test_seed_out_of_range_exit_two(self, check, overrides, tmp_path, cir_file,
                                        capsys):
        scen = tiny_scenario(tmp_path, cir_file, **overrides)
        assert main(["verify", check, "--scenario", scen]) == 2
        assert "schema error: InvalidConfig" in capsys.readouterr().err

    COMPARISON = {"beta_shift": [0.5], "n_paths": 1000, "dt": 2.0 ** -6,
                  "T": 0.25, "seed": 5}
    PAIR_SCENARIO = {"params": PAIR, "x0": [1.0, 1.0],
                     "laplace_points": [{"t": 0.25, "lam": [1.0, 1.0]}]}

    @pytest.mark.parametrize("check, overrides, message", [
        ("comparison", {"comparison": {k: v for k, v in COMPARISON.items() if k != "seed"}},
         "bad scenario file: missing field 'seed'"),
        ("comparison", {"comparison": dict(COMPARISON, n_paths="1000")},
         "comparison.n_paths must be an integer of at least 1, got '1000'"),
        ("comparison", {"comparison": dict(COMPARISON, dt="0.015625")},
         "comparison.dt must be a positive finite number, got '0.015625'"),
        ("comparison", {"comparison": dict(COMPARISON, n_paths=0)},
         "comparison.n_paths must be an integer of at least 1, got 0"),
        ("comparison", dict(PAIR_SCENARIO, comparison=COMPARISON),
         "comparison.beta_shift must have 2 components, got [0.5]"),
        ("mean", {"n_paths": 0}, "n_paths must be an integer of at least 1, got 0"),
        ("mean", {"n_paths": -3}, "n_paths must be an integer of at least 1, got -3"),
        ("mean", {"bias_constant_mean": math.nan},
         "bias_constant_mean must be a non-negative finite number, got nan"),
        ("mean", {"bias_constant_mean": -5},
         "bias_constant_mean must be a non-negative finite number, got -5"),
        ("laplace", {"bias_constant_laplace": math.inf},
         "bias_constant_laplace must be a non-negative finite number, got inf"),
        ("laplace", {"bias_constant_laplace": "0.5"},
         "bias_constant_laplace must be a non-negative finite number, got '0.5'"),
        ("mean", {"x0": [True]}, "x0 must be a finite number, got True"),
        ("mean", {"x0": ["1.0"]}, "x0 must be a finite number, got '1.0'"),
        ("mean", {"x0": "1.0"}, "x0 must be a list of numbers, got '1.0'"),
        ("mean", {"t": True}, "t must be a positive finite number, got True"),
        ("mean", {"t": "0.25"}, "t must be a positive finite number, got '0.25'"),
        ("mean", {"dt": True}, "dt must be a positive finite number, got True"),
        ("mean", {"dt": "0.03125"}, "dt must be a positive finite number, got '0.03125'"),
        ("mean", {"eps_trunc": True}, "eps_trunc must be a finite number, got True"),
        ("mean", {"eps_trunc": "0.001"}, "eps_trunc must be a finite number, got '0.001'"),
        ("laplace", {"laplace_points": [{"t": True, "lam": [1.0]}]},
         "laplace_points t must be a finite number, got True"),
        ("laplace", {"laplace_points": [{"t": "0.25", "lam": [1.0]}]},
         "laplace_points t must be a finite number, got '0.25'"),
        ("laplace", {"laplace_points": [{"t": 0.25, "lam": [True]}]},
         "laplace_points lam must be a finite number, got True"),
        ("laplace", {"laplace_points": [{"t": 0.25, "lam": ["0.3"]}]},
         "laplace_points lam must be a finite number, got '0.3'"),
        # JSON integers have no bound: one past the float range is no number
        ("mean", {"dt": 10 ** 400}, f"dt must be a positive finite number, got {10 ** 400}"),
        ("mean", {"bias_constant_mean": 10 ** 400},
         f"bias_constant_mean must be a non-negative finite number, got {10 ** 400}"),
        ("comparison", {"comparison": dict(COMPARISON, T=10 ** 400)},
         f"comparison.T must be a positive finite number, got {10 ** 400}"),
        ("mean", {"name": 5}, "name must be a string, got 5"),
        ("mean", {"name": ["a"]}, "name must be a string, got ['a']"),
        ("laplace", {"description": 3}, "description must be a string, got 3"),
        ("mean", {"t": 0}, "t must be a positive finite number, got 0"),
        ("mean", {"dt": -0.03125}, "dt must be a positive finite number, got -0.03125"),
        # x0 passes the shared state check on load, before any check runs
        ("mean", dict(PAIR_SCENARIO, x0=[1.0]), "InvalidConfig: x0 must have shape (2,)"),
        ("laplace", dict(PAIR_SCENARIO, x0=[1.0]), "InvalidConfig: x0 must have shape (2,)"),
        ("comparison", dict(PAIR_SCENARIO, x0=[1.0],
                            comparison=dict(COMPARISON, beta_shift=[0.5, 0.5])),
         "InvalidConfig: x0 must have shape (2,)"),
    ], ids=["comparison-without-seed", "string-n-paths", "string-dt",
            "zero-comparison-paths", "short-beta-shift", "zero-paths", "negative-paths",
            "nan-mean-bias", "negative-mean-bias", "inf-laplace-bias",
            "string-laplace-bias", "bool-x0", "string-x0", "scalar-x0", "bool-t", "string-t",
            "bool-dt", "string-dt-step", "bool-eps", "string-eps", "bool-point-t",
            "string-point-t", "bool-lam", "string-lam", "huge-dt", "huge-mean-bias",
            "huge-comparison-horizon", "number-name", "list-name", "number-description",
            "zero-t", "negative-dt", "short-x0-mean", "short-x0-laplace",
            "short-x0-comparison"])
    def test_malformed_scenario_fields_exit_two(self, check, overrides, message,
                                                tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file, **overrides)
        assert main(["verify", check, "--scenario", scen]) == 2
        err = capsys.readouterr().err
        kind = "" if message.startswith("InvalidConfig: ") else "SchemaError: "
        assert f"schema error: {kind}{message}" in err
        assert "Traceback" not in err

    def test_negative_budget_exit_two(self, capsys):
        assert main(["verify", "mean", "--scenario", "S3", "--budget", "-5"]) == 2
        assert "schema error: InvalidConfig: budget must be non-negative" \
            in capsys.readouterr().err

    def test_budget_exceeded_exit_four(self, tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file)
        assert main(["verify", "mean", "--scenario", scen, "--budget", "10"]) == 4
        assert "numeric failure" in capsys.readouterr().err
