"""Command-line interface.

Subcommands::

    qcaloric entropy-sweep   --scenario FILE
    qcaloric adiabatic-sweep --scenario FILE
    qcaloric force           --scenario FILE
    qcaloric decompose       --scenario FILE
    qcaloric discord         --J K --T-from K --T-to K --points N
    qcaloric ingest          --exchange-table FILE --scenario FILE
    qcaloric validate        [--quick]

Exit codes: 0 success, 1 validation/invariant failure, 2 usage error,
3 computation error. Sweeps run on the calling thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .curves import emit_csv, emit_svg
from .discord import pair_correlation
from .errors import (
    ComputationError,
    HeaderMismatchError,
    NonMonotonePressureError,
    QCaloricError,
    ScenarioSyntaxError,
    TableParseError,
    UnknownKeyError,
    ValidationError,
)
from .scenario import load_exchange_table, parse_scenario
from .sweep import run_sweep
from .validate import run_checks

_USAGE_ERRORS = (ScenarioSyntaxError, ValidationError, UnknownKeyError,
                 HeaderMismatchError, NonMonotonePressureError, TableParseError,
                 FileNotFoundError, IsADirectoryError, PermissionError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(curves, scenario) -> None:
    emit_csv(curves, scenario.output_csv)
    if scenario.output_svg is not None:
        emit_svg(curves, scenario.output_svg)


def _run_scenario_command(args, computations) -> int:
    scenario = parse_scenario(_read(args.scenario))
    scenario = dataclasses.replace(scenario, computations=computations)
    _emit(run_sweep(scenario), scenario)
    return 0


def _run_ingest(args) -> int:
    table = load_exchange_table(_read(args.exchange_table))
    scenario = parse_scenario(_read(args.scenario))
    if scenario.model.kind != "dimer" or scenario.parameter != "J":
        raise ValidationError(
            "scenario", "ingest needs a dimer scenario with parameter 'J'")
    labels = [f"P={p:g}GPa_J={j:g}"
              for p, j in zip(table.pressures, table.couplings)]
    curves = run_sweep(scenario, sweep_values=table.couplings,
                       sweep_labels=labels)
    _emit(curves, scenario)
    return 0


def _run_discord(args) -> int:
    if args.points < 1:
        raise ValidationError("--points", "must be >= 1")
    for flag, value in (("--J", args.J), ("--T-from", args.t_from), ("--T-to", args.t_to)):
        if not np.isfinite(value):
            raise ValidationError(flag, "must be finite")
    if args.t_from <= 0 or args.t_to <= 0:
        raise ValidationError("--T-from/--T-to", "must be > 0")
    temps = np.linspace(args.t_from, args.t_to, args.points)
    print("T_K,discord")
    for t in temps:
        record = pair_correlation(args.J, float(t))
        print(f"{t:.11e},{record.discord:.11e}")
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    it holds only fixed configuration, and each parse returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="qcaloric",
        description="Quantum caloric potentials for spin Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("entropy-sweep", "adiabatic-sweep", "force", "decompose"):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} of a scenario")
        p.add_argument("--scenario", required=True, help="scenario JSON file")

    p = sub.add_parser("discord", help="print D(T) for a dimer coupling")
    p.add_argument("--J", type=float, required=True, help="exchange coupling, kelvin")
    p.add_argument("--T-from", dest="t_from", type=float, required=True)
    p.add_argument("--T-to", dest="t_to", type=float, required=True)
    p.add_argument("--points", type=int, required=True)

    p = sub.add_parser("ingest", help="table-driven J sweep (pressure -> J)")
    p.add_argument("--exchange-table", required=True,
                   help="CSV with header pressure_gpa,J_kelvin")
    p.add_argument("--scenario", required=True, help="scenario JSON file")

    p = sub.add_parser("validate", help="run the full invariant suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller grids and case counts")
    return parser


_SCENARIO_COMMANDS = {
    "entropy-sweep": ("entropy",),
    "adiabatic-sweep": ("adiabatic",),
    "force": ("force",),
    "decompose": ("decompose",),
}


def cli_main(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command in _SCENARIO_COMMANDS:
            return _run_scenario_command(args, _SCENARIO_COMMANDS[args.command])
        if args.command == "discord":
            return _run_discord(args)
        if args.command == "ingest":
            return _run_ingest(args)
        if args.command == "validate":
            return 0 if run_checks(quick=args.quick) else 1
    except _USAGE_ERRORS as exc:
        print(f"qcaloric: error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, QCaloricError, ValueError) as exc:
        print(f"qcaloric: computation error: {exc}", file=sys.stderr)
        return 3
    return 2   # pragma: no cover - unreachable with required subcommands


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
