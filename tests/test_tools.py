"""The repository tools: bias calibration, run small enough for the suite,
and the source line counter."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from cbi.scenarios import BUNDLED_NAMES, load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "cbi" / "data" / "scenarios"


def load_tool(name="calibrate_bias"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
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


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_write_constants_edits_only_the_two_constants(name, tmp_path, capsys):
    tool = load_tool()
    original = (SCENARIOS / f"{name}.json").read_bytes()
    copy = tmp_path / f"{name}.json"
    copy.write_bytes(original)
    blob = json.loads(original)
    # the file's own constants give its bytes back
    tool.write_constants(copy, blob["bias_constant_mean"], blob["bias_constant_laplace"])
    assert copy.read_bytes() == original
    # new constants change those two values and nothing else
    tool.write_constants(copy, 1.234, 0.567)
    lines = zip(original.splitlines(), copy.read_bytes().splitlines(), strict=True)
    assert [old for old, new in lines if old != new] == [
        line for line in original.splitlines() if b'"bias_constant_' in line]
    s = load_scenario(str(copy))
    assert (s.bias_constant_mean, s.bias_constant_laplace) == (1.234, 0.567)
    assert f"wrote {copy}" in capsys.readouterr().out


SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import math


class Box:
    """Class docstring."""

    def area(self, w,
             h):
        # the product
        text = """a string,
        not a docstring"""
        return (w *   # continued
                h)
'''


def test_src_lines_counts_code_only(capsys):
    tool = load_tool("src_lines")
    # 17 lines; code: import, class, def (2), text (2), return (2)
    assert tool.count(SOURCE) == (17, 8)
    assert tool.main() == 0
    *rows, total = capsys.readouterr().out.splitlines()[1:]
    counts = [tuple(map(int, row.split()[1:])) for row in rows]
    assert total.split()[0] == "total" and len(counts) >= 10
    assert tuple(map(int, total.split()[1:])) == tuple(map(sum, zip(*counts)))
