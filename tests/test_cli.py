"""Command-line interface: exit codes, artifacts, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from cbi.cli import _time_cells, _write_path_csv, main
from cbi.config import format_float, parse_float
from cbi.simulate import Path

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

    @pytest.mark.parametrize("flag, value", [
        ("--t", "nan"), ("--t", "inf"), ("--m0", "4,nan"), ("--m0", "4,inf")])
    def test_non_finite_mean_input_exit_two(self, flag, value, tmp_path, capsys):
        path = write_params(tmp_path, "pair.json", PAIR)
        args = {"--m0": "4,1", "--t": "1.0", flag: value}
        assert main(["mean", path, *(x for kv in args.items() for x in kv)]) == 2
        err = capsys.readouterr().err
        assert "schema error: ValueError" in err and "finite" in err

    def test_inadmissible_exit_three(self, tmp_path, capsys):
        bad = dict(CIR, B=[[float("nan")]])
        # NaN fails essential non-negativity check semantics; craft cleanly:
        bad = dict(CIR, d=2, c=[1.0, 1.0], beta=[0.0, 0.0],
                   B=[[0.0, -0.5], [0.0, 0.0]], mu=[None, None])
        path = write_params(tmp_path, "bad2.json", bad)
        assert main(["laplace", path, "--x", "1,1", "--lam", "1,1", "--t", "1"]) == 3
        assert "admissibility failure" in capsys.readouterr().err

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
        assert parse_float(blob["beta_tilde"][0]) == der.beta_tilde[0]


class TestSimulateCommand:
    def run_sim(self, cir_file, out_dir, extra=()):
        return main(["simulate", cir_file, "--x0", "1.0", "--T", "0.25",
                     "--dt", "0.03125", "--n", "2", "--seed", "11",
                     "--out", str(out_dir), *extra])

    def test_artifacts_byte_identical_across_runs(self, cir_file, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_sim(cir_file, a) == 0
        assert self.run_sim(cir_file, b) == 0
        capsys.readouterr()
        for name in ("path_00000.csv", "path_00001.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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
    """Inputs the simulation cannot honour exit 2 before any path is written."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--x0", "4,nan", "x0 must be finite"),
        ("--x0", "4,inf", "x0 must be finite"),
        ("--T", "inf", "T must be positive and finite"),
        ("--n", "0", "--n must be at least 1"),
        ("--n", "-3", "--n must be at least 1"),
        ("--seed", "1180591620717411303424", "must lie in [0, 2**64)"),
        ("--seed", "-1", "must lie in [0, 2**64)"),
    ])
    def test_exit_two(self, flag, value, message, tmp_path, capsys):
        path = write_params(tmp_path, "pair.json", PAIR)
        args = {"--x0": "4,1", "--T": "0.25", "--dt": "0.03125", "--n": "2",
                "--seed": "11", "--out": str(tmp_path / "out"), flag: value}
        assert main(["simulate", path, *(x for kv in args.items() for x in kv)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "wrote" not in captured.out
        assert not list(tmp_path.glob("out/*.csv"))


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
        _write_path_csv(_time_cells(path_obj.grid), states, out)
        assert out.read_text() == reference_path_csv(path_obj)

    def test_nan_rejected(self, tmp_path):
        states = np.array([[1.0, 2.0], [float("nan"), 0.5]])
        with pytest.raises(ValueError):
            _write_path_csv(_time_cells(np.array([0.0, 0.5])), states,
                            tmp_path / "nan.csv")


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

    def test_budget_exceeded_exit_four(self, tmp_path, cir_file, capsys):
        scen = tiny_scenario(tmp_path, cir_file)
        assert main(["verify", "mean", "--scenario", scen, "--budget", "10"]) == 4
        assert "numeric failure" in capsys.readouterr().err
