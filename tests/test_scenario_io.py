import json
import os

import numpy as np
import pytest

from qcaloric.curves import Curve, CurveSet, emit_csv, emit_svg, render_csv, render_svg
from qcaloric.errors import (
    HeaderMismatchError,
    IoError,
    NonMonotonePressureError,
    OutOfRangeError,
    ScenarioSyntaxError,
    TableParseError,
    TooFewPointsError,
    UnknownKeyError,
    ValidationError,
)
from qcaloric.scenario import (
    load_exchange_table,
    parse_scenario,
    serialize_scenario,
)
from qcaloric.sweep import run_sweep, thread_count

from oracles import dimer_entropy


MINIMAL = """{
  "model": {"kind": "dimer", "J": 1.0, "b": 0.0},
  "parameter": "J",
  "sweep": {"from": 0.5, "to": 1.5, "points": 2},
  "temperatures": {"from": 1.0, "to": 1.0, "points": 1},
  "computations": ["entropy"],
  "output": {"csv": "out.csv"}
}"""


def scenario_text(**overrides):
    obj = json.loads(MINIMAL)
    obj.update(overrides)
    return json.dumps(obj)


class TestParseScenario:
    def test_roundtrip_identity(self):
        first = parse_scenario(MINIMAL)
        second = parse_scenario(serialize_scenario(first))
        assert first == second

    def test_defaults_applied(self):
        scn = parse_scenario(MINIMAL)
        assert scn.units.g == 2.0
        assert scn.output_svg is None
        assert scn.lattice is None

    def test_zero_temperature_rejected(self):
        text = scenario_text(temperatures={"from": 0.0, "to": 1.0, "points": 2})
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == "temperatures.from"
        assert "> 0" in err.value.reason

    def test_integer_beyond_the_float_range_rejected(self):
        # float() of it overflows: the parser raised TypeError from np.isfinite
        text = MINIMAL.replace('"J": 1.0', '"J": 1' + "0" * 400)
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert (err.value.field, err.value.reason) == ("model.J", "must be finite")

    def test_single_point_sweep_rejected(self):
        text = scenario_text(sweep={"from": 0.5, "to": 1.5, "points": 1})
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == "sweep.points"

    def test_unknown_key_rejected(self):
        obj = json.loads(MINIMAL)
        obj["surprise"] = 1
        with pytest.raises(UnknownKeyError):
            parse_scenario(json.dumps(obj))

    def test_unknown_nested_key_rejected(self):
        obj = json.loads(MINIMAL)
        obj["sweep"]["step"] = 0.1
        with pytest.raises(UnknownKeyError):
            parse_scenario(json.dumps(obj))

    def test_syntax_error_carries_location(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("{\n  'bad': 1\n}")
        assert err.value.line == 2

    def test_tesla_conversion_happens_once_at_parse(self):
        text = scenario_text(
            model={"kind": "single_spin", "b": 1.0},
            parameter="b",
            sweep={"from": 0.0, "to": 1.0, "points": 3},
            units={"g": 2.0, "field_in_tesla": True})
        scn = parse_scenario(text)
        assert scn.model.get("b") == pytest.approx(2.0 * 0.6717)
        assert scn.sweep.stop == pytest.approx(2.0 * 0.6717)
        # re-parse of the serialized (kelvin) form changes nothing
        assert parse_scenario(serialize_scenario(scn)) == scn

    @pytest.mark.parametrize("sweep, units", [
        ({"from": -1e308, "to": 1e308, "points": 3}, {}),
        ({"from": 1.5e308, "to": 1.0, "points": 3}, {"g": 2.0, "field_in_tesla": True}),
    ], ids=["span", "tesla_to_kelvin"])
    def test_sweep_whose_span_overflows_rejected(self, sweep, units):
        text = scenario_text(model={"kind": "single_spin", "b": 1.0}, parameter="b",
                             sweep=sweep, units=units, computations=["force"])
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == "sweep"
        assert err.value.reason == "the span to - from must be finite"

    def test_tabulated_model(self):
        text = scenario_text(
            model={"kind": "tabulated",
                   "lambda_grid": [0.0, 1.0, 2.0],
                   "energies": [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]},
            computations=["force"])
        obj = json.loads(text)
        del obj["parameter"]
        scn = parse_scenario(json.dumps(obj))
        assert scn.parameter is None
        assert parse_scenario(serialize_scenario(scn)) == scn

    def test_discord_requires_zero_field_dimer(self):
        text = scenario_text(model={"kind": "dimer", "J": 1.0, "b": 0.5},
                             computations=["discord"])
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_classical_adiabatic_requires_field_parameter(self):
        text = scenario_text(computations=["classical_adiabatic"])
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_single_spin_only_sweeps_field(self):
        text = scenario_text(model={"kind": "single_spin", "b": 1.0})
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_tabulated_sweep_must_stay_on_grid(self):
        obj = json.loads(scenario_text(
            model={"kind": "tabulated",
                   "lambda_grid": [0.0, 1.0, 2.0],
                   "energies": [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]},
            sweep={"from": 0.5, "to": 2.5, "points": 2},
            computations=["force"]))
        del obj["parameter"]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(obj))
        assert err.value.field == "sweep"


class TestExchangeTable:
    def test_three_row_table(self):
        table = load_exchange_table(
            "pressure_gpa,J_kelvin\n0.0,1.0\n1.0,1.3\n2.0,2.0\n")
        assert len(table.pressures) == 3
        assert table.lookup(1.0) == 1.3   # node value exact

    def test_midpoint_interpolation(self):
        table = load_exchange_table("pressure_gpa,J_kelvin\n0.0,1.0\n2.0,2.0\n")
        assert table.lookup(1.0) == pytest.approx(1.5)

    def test_non_monotone_pressure(self):
        with pytest.raises(NonMonotonePressureError):
            load_exchange_table("pressure_gpa,J_kelvin\n1.0,1.0\n0.5,2.0\n")

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatchError):
            load_exchange_table("pressure,J\n0.0,1.0\n1.0,2.0\n")

    def test_parse_error_carries_row_number(self):
        with pytest.raises(TableParseError) as err:
            load_exchange_table("pressure_gpa,J_kelvin\n0.0,1.0\n1.0,oops\n")
        assert err.value.row == 3

    def test_lookup_out_of_range(self):
        table = load_exchange_table("pressure_gpa,J_kelvin\n0.0,1.0\n2.0,2.0\n")
        with pytest.raises(OutOfRangeError):
            table.lookup(2.5)

    def test_lookup_of_nan_is_out_of_range(self):
        table = load_exchange_table("pressure_gpa,J_kelvin\n0.0,1.0\n2.0,2.0\n")
        with pytest.raises(OutOfRangeError):
            table.lookup(float("nan"))


class TestRunSweep:
    def test_single_entropy_point(self):
        curves = run_sweep(parse_scenario(MINIMAL))
        assert len(curves) == 1
        (curve,) = curves
        assert curve.name == "entropy_change"
        (t, value, err) = curve.points[0]
        assert t == 1.0
        expected = dimer_entropy(1.5, 1.0) - dimer_entropy(0.5, 1.0)
        assert value == pytest.approx(expected, abs=1e-6)
        assert value == pytest.approx(-0.8666, abs=1e-3)

    def test_entropy_curve_has_interior_peak(self):
        text = scenario_text(temperatures={"from": 0.2, "to": 5.0, "points": 25})
        curves = run_sweep(parse_scenario(text))
        values = np.abs([p[1] for p in curves.curves[0].points])
        maxima = [k for k in range(1, len(values) - 1)
                  if values[k] > values[k - 1] and values[k] >= values[k + 1]]
        assert len(maxima) == 1
        assert 0 < int(np.argmax(values)) < len(values) - 1

    def test_empty_computations(self):
        curves = run_sweep(parse_scenario(scenario_text(computations=[])))
        assert len(curves) == 0

    def test_discord_curves_one_per_coupling(self):
        text = scenario_text(
            sweep={"from": 0.5, "to": 1.5, "points": 3},
            temperatures={"from": 0.5, "to": 2.0, "points": 4},
            computations=["discord"])
        curves = run_sweep(parse_scenario(text))
        assert [c.name for c in curves] == [
            "discord_J=0.5", "discord_J=1", "discord_J=1.5"]
        assert all(len(c.points) == 4 for c in curves)

    def test_force_curves_one_per_temperature(self):
        text = scenario_text(temperatures={"from": 0.5, "to": 1.0, "points": 2},
                             computations=["force"])
        curves = run_sweep(parse_scenario(text))
        assert [c.name for c in curves] == ["force_T=0.5", "force_T=1"]

    def test_decompose_emits_three_curves(self):
        text = scenario_text(computations=["decompose"])
        curves = run_sweep(parse_scenario(text))
        assert [c.name for c in curves] == ["work", "heat", "energy_change"]
        w, h, du = (c.points[0][1] for c in curves)
        assert du == pytest.approx(w + h, abs=1e-10)

    def test_thread_determinism(self):
        # QCAL_THREADS is accepted and ignored: sweeps run on one thread
        text = scenario_text(
            temperatures={"from": 0.4, "to": 3.0, "points": 6},
            computations=["entropy", "adiabatic", "discord"])
        scn = parse_scenario(text)
        outputs = {}
        saved = os.environ.get("QCAL_THREADS")
        try:
            for n in ("1", "4"):
                os.environ["QCAL_THREADS"] = n
                assert thread_count() == 1
                outputs[n] = "".join(render_csv(c) for c in run_sweep(scn))
        finally:
            if saved is None:
                os.environ.pop("QCAL_THREADS", None)
            else:
                os.environ["QCAL_THREADS"] = saved
        assert outputs["1"] == outputs["4"]


class TestCsvEmission:
    def one_point_curve(self):
        return Curve(name="entropy_change", abscissa_unit="K", value_unit="kB",
                     points=((1.0, -0.25, 1e-9),))

    def test_one_point_curve_is_two_lines(self):
        text = render_csv(self.one_point_curve())
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == "abscissa_K,value_kB,error_estimate"
        assert lines[1].startswith("1.00000000000e+00,-2.50000000000e-01")

    def test_twelve_significant_digits(self):
        text = render_csv(Curve(name="x", abscissa_unit="K", value_unit="K",
                                points=((1.0 / 3.0, 2.0 / 3.0, 0.0),)))
        assert "3.33333333333e-01,6.66666666667e-01" in text

    def test_emit_single_curve_exact_path(self, tmp_path):
        target = tmp_path / "out.csv"
        written = emit_csv(CurveSet((self.one_point_curve(),)), target)
        assert written == [target]
        assert target.read_bytes().count(b"\r") == 0   # LF only

    def test_emit_multiple_curves_derived_paths(self, tmp_path):
        curves = CurveSet((
            Curve("discord_J=0.5", "K", "dimensionless", ((1.0, 0.4, 0.0),)),
            Curve("discord_J=1", "K", "dimensionless", ((1.0, 0.46, 0.0),)),
        ))
        written = emit_csv(curves, tmp_path / "out.csv")
        assert [p.name for p in written] == [
            "out__discord_J_0.5.csv", "out__discord_J_1.csv"]

    def test_rerun_is_byte_identical(self, tmp_path):
        scn = parse_scenario(MINIMAL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(scn), a)
        emit_csv(run_sweep(scn), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            emit_csv(CurveSet((self.one_point_curve(),)),
                     tmp_path / "missing-dir" / "out.csv")

    def test_non_monotone_abscissa_rejected(self):
        with pytest.raises(ValueError):
            Curve("bad", "K", "K", ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                                    (1.0, 0.0, 0.0)))


class TestSvgEmission:
    def curve(self, name="a", n=2):
        pts = tuple((float(k), float(k * k), 0.0) for k in range(n))
        return Curve(name=name, abscissa_unit="K", value_unit="kB", points=pts)

    def test_two_point_curve_single_polyline(self):
        text = render_svg(CurveSet((self.curve(),)))
        assert text.count("<polyline") == 1
        assert 'viewBox="0 0 800 600"' in text
        assert 'version="1.1"' in text

    def test_three_curves_three_polylines_and_legend(self):
        curves = CurveSet(tuple(self.curve(name, 3) for name in ("a", "b", "c")))
        text = render_svg(curves)
        assert text.count("<polyline") == 3
        for name in ("a", "b", "c"):
            assert f">{name}</text>" in text

    def test_single_point_curve_rejected(self):
        with pytest.raises(TooFewPointsError):
            render_svg(CurveSet((self.curve(n=1),)))

    def test_empty_set_rejected(self):
        with pytest.raises(TooFewPointsError):
            render_svg(CurveSet(()))

    def test_emit_writes_file(self, tmp_path):
        target = tmp_path / "plot.svg"
        emit_svg(CurveSet((self.curve(),)), target)
        assert target.read_text().startswith("<?xml")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            emit_svg(CurveSet((self.curve(),)),
                     tmp_path / "missing-dir" / "plot.svg")
