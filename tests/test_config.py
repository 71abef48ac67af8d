"""JSON schema round-trips and canonical serialisation."""

import json

import numpy as np
import pytest

from cbi.config import (
    SchemaError, dumps_canonical, format_float, measure_from_json,
    measure_to_json, params_from_json, params_to_json,
)
from cbi.measures import (
    DiscreteAtoms, MeasureSum, ProductExponential, TemperedPowerLawAxis,
)
from cbi.params import derive


class TestCanonicalJson:
    def test_floats_use_17_significant_digits(self):
        x = 1.0 / 3.0
        assert format_float(x) == f"{x:.17g}"
        assert float(format_float(x)) == x

    def test_round_trip_all_floats(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1e6, 1e6, size=200):
            assert float(format_float(float(x))) == float(x)

    def test_infinities_become_strings(self):
        assert format_float(float("inf")) == '"inf"'
        assert float(json.loads(format_float(float("-inf")))) == float("-inf")

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_output_is_valid_json_and_stable(self):
        blob = {"a": [1.5, 2], "b": {"c": None, "d": True}, "e": "x\"y"}
        text = dumps_canonical(blob)
        assert json.loads(text) == blob
        assert dumps_canonical(blob) == text

    @pytest.mark.parametrize("name", ["a\nb", "tab\there", 'say "hi"', "back\\slash",
                                      "Größe θ", "\x00\x1f\x7f"])
    def test_strings_round_trip(self, name):
        # a scenario name lands in the verify report as a string value
        text = dumps_canonical({"quantity": f"mean[{name}]", "names": [name]})
        assert json.loads(text) == {"quantity": f"mean[{name}]", "names": [name]}
        assert text.count("\n") == 5   # the layout's line breaks only

    def test_plain_strings_keep_their_bytes(self):
        # the bytes of every bundled artifact: quotes and backslashes escaped,
        # everything else as it is, non-ASCII included
        assert dumps_canonical('mean[S3] "x" \\ ü') == '"mean[S3] \\"x\\" \\\\ ü"'


class TestMeasureSchema:
    def test_discrete_round_trip(self):
        m = DiscreteAtoms(2, [(np.array([2.0, 0.0]), 3.0)])
        back = measure_from_json(measure_to_json(m), 2)
        assert isinstance(back, DiscreteAtoms)
        (z, w), = back.atoms
        assert np.array_equal(z, [2.0, 0.0]) and w == 3.0

    def test_product_exponential_round_trip(self):
        m = ProductExponential(5.0, [1.0, 2.0])
        back = measure_from_json(measure_to_json(m), 2)
        assert back.r == 5.0 and np.array_equal(back.theta, [1.0, 2.0])

    def test_tempered_power_law_round_trip_axis_one_based(self):
        m = TemperedPowerLawAxis(2, 1, alpha=0.5, theta=1.0, scale=0.7)
        blob = measure_to_json(m)
        assert blob["axis"] == 2
        back = measure_from_json(blob, 2)
        assert back.axis == 1 and back.alpha == 0.5

    def test_mixture_round_trip(self):
        m = MeasureSum([
            DiscreteAtoms(1, [(np.array([1.0]), 1.0)]),
            ProductExponential(0.5, [2.0]),
        ])
        back = measure_from_json(measure_to_json(m), 1)
        assert len(back.components()) == 2

    def test_unknown_family(self):
        with pytest.raises(SchemaError):
            measure_from_json({"family": "gamma"}, 1)

    def test_missing_fields(self):
        with pytest.raises(SchemaError):
            measure_from_json({"family": "product_exponential"}, 1)


class TestParamsSchema:
    def spec_example(self):
        return {
            "d": 1, "c": [1.0], "beta": [1.0], "B": [[-1.0]],
            "nu": {"family": "discrete", "atoms": [{"z": [2.0], "w": 3.0}]},
            "mu": [None],
        }

    def test_round_trip(self):
        p = params_from_json(self.spec_example())
        back = params_from_json(params_to_json(p))
        assert back.d == p.d
        assert np.array_equal(back.B, p.B)
        assert np.array_equal(back.nu.atoms[0][0], p.nu.atoms[0][0])

    def test_derived_serialisation_round_trips_exactly(self):
        p = params_from_json(self.spec_example())
        der = derive(p)
        from cbi.config import derived_to_json
        text = dumps_canonical(derived_to_json(der))
        blob = json.loads(text)
        assert float(blob["beta_tilde"][0]) == der.beta_tilde[0]
        assert float(blob["B_tilde"][0][0]) == der.B_tilde[0, 0]

    def test_bad_top_level(self):
        with pytest.raises(SchemaError):
            params_from_json([1, 2, 3])
        with pytest.raises(SchemaError):
            params_from_json({"d": 1, "c": [1.0]})
