"""The bias-calibration tool, run small enough for the suite."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "cbi" / "data" / "scenarios"


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "calibrate_bias", ROOT / "tools" / "calibrate_bias.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_calibrate_returns_constants_and_writes_nothing(capsys):
    before = {f.name: f.read_bytes() for f in SCENARIOS.glob("*.json")}
    c_mean, c_laplace = load_tool().calibrate("S4", n_paths=4000, threads=1)
    assert math.isfinite(c_mean) and c_mean >= 0.25
    assert math.isfinite(c_laplace) and c_laplace >= 0.1
    assert {f.name: f.read_bytes() for f in SCENARIOS.glob("*.json")} == before
    assert "S4: laplace bias" in capsys.readouterr().out
