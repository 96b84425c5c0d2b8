"""Scenario configuration (JSON) and exchange-table (CSV) ingestion.

Scenario schema (all energies/temperatures in kelvin unless
``units.field_in_tesla`` is set, in which case field-like inputs are given
in tesla and converted once at parse time)::

    {
      "model": {"kind": "dimer", "J": 1.0, "b": 0.0},
      "parameter": "J",
      "sweep": {"from": 0.5, "to": 1.5, "points": 2},
      "temperatures": {"from": 0.2, "to": 5.0, "points": 25},
      "computations": ["entropy", "discord"],
      "lattice": {"a0": 0, "a1": 0, "a3": 0},
      "units": {"g": 2.0, "field_in_tesla": false},
      "output": {"csv": "out.csv", "svg": "out.svg"}
    }

Model kinds: ``dimer`` (fields J, b), ``single_spin`` (field b), and
``tabulated`` (fields lambda_grid, energies). Unknown keys anywhere are
rejected. The exchange-table CSV must carry the exact header
``pressure_gpa,J_kelvin``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .caloric import LatticeHeatSpec
from .errors import (
    HeaderMismatchError,
    NonMonotonePressureError,
    OutOfRangeError,
    ScenarioSyntaxError,
    TableParseError,
    UnknownKeyError,
    ValidationError,
)
from .models import ParamHamiltonian, SpectrumTable, UnitSystem, build_dimer, build_single_spin_zeeman, build_tabulated

COMPUTATIONS = ("entropy", "adiabatic", "classical_adiabatic",
                "discord", "force", "decompose")

EXCHANGE_TABLE_HEADER = "pressure_gpa,J_kelvin"


@dataclass(frozen=True)
class GridSpec:
    """A closed linear grid: ``points`` values from ``start`` to ``stop``."""

    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description; ``params`` holds kind-specific fields."""

    kind: str
    params: Tuple[Tuple[str, object], ...]

    def get(self, name):
        return dict(self.params)[name]


@dataclass(frozen=True)
class Scenario:
    """A fully validated sweep configuration."""

    model: ModelSpec
    parameter: Optional[str]
    sweep: GridSpec
    temperatures: GridSpec
    computations: Tuple[str, ...]
    lattice: Optional[LatticeHeatSpec]
    units: UnitSystem
    output_csv: str
    output_svg: Optional[str] = field(default=None)


def _require_keys(obj: dict, where: str, required, optional=()):
    for key in obj:
        if key not in required and key not in optional:
            raise UnknownKeyError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}.{key}", "missing required key")


def _number(obj, where, key, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ValidationError(f"{where}.{key}", "missing required key")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key}", "must be a number")
    if not np.isfinite(value):
        raise ValidationError(f"{where}.{key}", "must be finite")
    return float(value)


def _grid(obj, where, min_points) -> GridSpec:
    if not isinstance(obj, dict):
        raise ValidationError(where, "must be an object")
    _require_keys(obj, where, ("from", "to", "points"))
    start = _number(obj, where, "from")
    stop = _number(obj, where, "to")
    points = obj["points"]
    if isinstance(points, bool) or not isinstance(points, int):
        raise ValidationError(f"{where}.points", "must be an integer")
    if points < min_points:
        raise ValidationError(f"{where}.points", f"must be >= {min_points}")
    return GridSpec(start=start, stop=stop, points=points)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON text.

    Raises
    ------
    ScenarioSyntaxError
        Malformed JSON (with line/column).
    ValidationError, UnknownKeyError
        Schema violations, naming the offending field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ValidationError("scenario", "top level must be a JSON object")
    _require_keys(raw, "scenario",
                  ("model", "sweep", "temperatures", "computations", "output"),
                  optional=("parameter", "lattice", "units"))

    units_obj = raw.get("units", {})
    if not isinstance(units_obj, dict):
        raise ValidationError("units", "must be an object")
    _require_keys(units_obj, "units", (), optional=("g", "field_in_tesla"))
    g = _number(units_obj, "units", "g", default=2.0)
    if g <= 0:
        raise ValidationError("units.g", "must be > 0")
    field_in_tesla = units_obj.get("field_in_tesla", False)
    if not isinstance(field_in_tesla, bool):
        raise ValidationError("units.field_in_tesla", "must be a boolean")
    units = UnitSystem(g=g)

    def to_kelvin_field(value: float) -> float:
        return units.field_to_kelvin(value) if field_in_tesla else value

    model_obj = raw["model"]
    if not isinstance(model_obj, dict):
        raise ValidationError("model", "must be an object")
    kind = model_obj.get("kind")
    if kind == "dimer":
        _require_keys(model_obj, "model", ("kind", "J", "b"))
        params = (("J", _number(model_obj, "model", "J")),
                  ("b", to_kelvin_field(_number(model_obj, "model", "b"))))
    elif kind == "single_spin":
        _require_keys(model_obj, "model", ("kind", "b"))
        params = (("b", to_kelvin_field(_number(model_obj, "model", "b"))),)
    elif kind == "tabulated":
        _require_keys(model_obj, "model", ("kind", "lambda_grid", "energies"))
        try:
            table = SpectrumTable(
                lambda_grid=np.asarray(model_obj["lambda_grid"], dtype=float),
                energies=np.asarray(model_obj["energies"], dtype=float))
        except Exception as exc:
            raise ValidationError("model", f"bad spectrum table: {exc}") from exc
        params = (("lambda_grid", tuple(map(float, table.lambda_grid))),
                  ("energies", tuple(tuple(map(float, row))
                                     for row in table.energies)))
    else:
        raise ValidationError(
            "model.kind", "must be one of 'dimer', 'single_spin', 'tabulated'")
    model = ModelSpec(kind=kind, params=params)

    parameter = raw.get("parameter")
    if kind == "tabulated":
        if parameter is not None:
            raise ValidationError(
                "parameter", "tabulated models take no parameter name")
    else:
        if parameter not in ("J", "b"):
            raise ValidationError("parameter", "must be 'J' or 'b'")
        if kind == "single_spin" and parameter != "b":
            raise ValidationError("parameter", "single_spin only sweeps 'b'")

    sweep = _grid(raw["sweep"], "sweep", min_points=2)
    if sweep.start == sweep.stop:
        raise ValidationError("sweep", "from and to must differ")
    if parameter == "b" and field_in_tesla:
        sweep = GridSpec(start=to_kelvin_field(sweep.start),
                         stop=to_kelvin_field(sweep.stop),
                         points=sweep.points)
    if not np.isfinite(sweep.stop - sweep.start):   # the grid's step would overflow
        raise ValidationError("sweep", "the span to - from must be finite")
    if kind == "tabulated":
        grid = model.get("lambda_grid")
        lo, hi = grid[0], grid[-1]
        if not (lo <= sweep.start <= hi and lo <= sweep.stop <= hi):
            raise ValidationError(
                "sweep", f"must lie inside the tabulated range [{lo:g}, {hi:g}]")

    temperatures = _grid(raw["temperatures"], "temperatures", min_points=1)
    if temperatures.start <= 0:
        raise ValidationError("temperatures.from", "must be > 0")
    if temperatures.stop <= 0:
        raise ValidationError("temperatures.to", "must be > 0")
    if temperatures.points > 1 and temperatures.stop <= temperatures.start:
        raise ValidationError("temperatures.to", "must exceed 'from'")

    comps = raw["computations"]
    if not isinstance(comps, list):
        raise ValidationError("computations", "must be a list")
    for comp in comps:
        if comp not in COMPUTATIONS:
            raise ValidationError(
                "computations", f"unknown computation {comp!r}")
    if len(set(comps)) != len(comps):
        raise ValidationError("computations", "duplicate entries")
    if "discord" in comps and not (kind == "dimer" and parameter == "J"
                                   and model.get("b") == 0.0):
        raise ValidationError(
            "computations",
            "discord requires a zero-field dimer with parameter 'J'")
    if "classical_adiabatic" in comps and parameter != "b":
        raise ValidationError(
            "computations", "classical_adiabatic requires parameter 'b'")

    lattice = None
    if "lattice" in raw:
        lat_obj = raw["lattice"]
        if not isinstance(lat_obj, dict):
            raise ValidationError("lattice", "must be an object")
        _require_keys(lat_obj, "lattice", (), optional=("a0", "a1", "a3"))
        try:
            lattice = LatticeHeatSpec(
                a0=_number(lat_obj, "lattice", "a0", default=0.0),
                a1=_number(lat_obj, "lattice", "a1", default=0.0),
                a3=_number(lat_obj, "lattice", "a3", default=0.0))
        except ValueError as exc:
            raise ValidationError("lattice", str(exc)) from exc

    output_obj = raw["output"]
    if not isinstance(output_obj, dict):
        raise ValidationError("output", "must be an object")
    _require_keys(output_obj, "output", ("csv",), optional=("svg",))
    output_csv = output_obj["csv"]
    if not isinstance(output_csv, str) or not output_csv:
        raise ValidationError("output.csv", "must be a non-empty string")
    output_svg = output_obj.get("svg")
    if output_svg is not None and (not isinstance(output_svg, str) or not output_svg):
        raise ValidationError("output.svg", "must be a non-empty string")

    return Scenario(
        model=model,
        parameter=parameter,
        sweep=sweep,
        temperatures=temperatures,
        computations=tuple(comps),
        lattice=lattice,
        units=units,
        output_csv=output_csv,
        output_svg=output_svg,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Scenario back to a plain JSON-ready dict (kelvin everywhere)."""
    out = {
        "model": {"kind": scenario.model.kind, **dict(scenario.model.params)},
        "sweep": {"from": scenario.sweep.start, "to": scenario.sweep.stop,
                  "points": scenario.sweep.points},
        "temperatures": {"from": scenario.temperatures.start,
                         "to": scenario.temperatures.stop,
                         "points": scenario.temperatures.points},
        "computations": list(scenario.computations),
        "units": {"g": scenario.units.g, "field_in_tesla": False},
        "output": {"csv": scenario.output_csv},
    }
    if scenario.model.kind == "tabulated":
        out["model"]["lambda_grid"] = list(out["model"]["lambda_grid"])
        out["model"]["energies"] = [list(r) for r in out["model"]["energies"]]
    if scenario.parameter is not None:
        out["parameter"] = scenario.parameter
    if scenario.lattice is not None:
        out["lattice"] = {"a0": scenario.lattice.a0, "a1": scenario.lattice.a1,
                          "a3": scenario.lattice.a3}
    if scenario.output_svg is not None:
        out["output"]["svg"] = scenario.output_svg
    return out


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)


def build_model(scenario: Scenario) -> ParamHamiltonian:
    """Instantiate the ParamHamiltonian a scenario describes."""
    model = scenario.model
    if model.kind == "dimer":
        return build_dimer(J=model.get("J"), b=model.get("b"),
                           parameter=scenario.parameter)
    if model.kind == "single_spin":
        return build_single_spin_zeeman(b=model.get("b"))
    table = SpectrumTable(
        lambda_grid=np.asarray(model.get("lambda_grid"), dtype=float),
        energies=np.asarray(model.get("energies"), dtype=float))
    return build_tabulated(table)


@dataclass(frozen=True)
class ExchangeTable:
    """Pressure -> exchange-coupling table, strictly increasing pressure."""

    pressures: Tuple[float, ...]
    couplings: Tuple[float, ...]

    def __post_init__(self):
        if len(self.pressures) < 2:
            raise TableParseError("exchange table needs at least 2 rows")
        if any(b <= a for a, b in zip(self.pressures[:-1], self.pressures[1:])):
            raise NonMonotonePressureError(
                "pressures must be strictly increasing")
        if not all(np.isfinite(self.pressures)) or not all(np.isfinite(self.couplings)):
            raise TableParseError("exchange table contains non-finite values")

    def lookup(self, pressure: float) -> float:
        """J at a pressure by linear interpolation; no extrapolation."""
        if pressure < self.pressures[0] or pressure > self.pressures[-1]:
            raise OutOfRangeError(
                f"pressure {pressure:g} GPa outside table range "
                f"[{self.pressures[0]:g}, {self.pressures[-1]:g}]")
        return float(np.interp(pressure, self.pressures, self.couplings))


def load_exchange_table(text: str) -> ExchangeTable:
    """Parse exchange-table CSV with header ``pressure_gpa,J_kelvin``.

    Raises
    ------
    HeaderMismatchError, TableParseError (with row number),
    NonMonotonePressureError
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != EXCHANGE_TABLE_HEADER:
        head = lines[0] if lines else "<empty>"
        raise HeaderMismatchError(
            f"expected header {EXCHANGE_TABLE_HEADER!r}, got {head!r}")
    pressures, couplings = [], []
    for row_number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise TableParseError(
                f"row {row_number}: expected 2 columns, got {len(cells)}",
                row=row_number)
        try:
            pressures.append(float(cells[0]))
            couplings.append(float(cells[1]))
        except ValueError as exc:
            raise TableParseError(
                f"row {row_number}: {exc}", row=row_number) from exc
    return ExchangeTable(pressures=tuple(pressures), couplings=tuple(couplings))
