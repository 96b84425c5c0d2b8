"""Cross-module contracts: the temperature guard at every public entry point
and the eigensolve budget of each route on a reference case."""

import dataclasses
import math

import pytest

from qcaloric.caloric import (
    LatticeHeatSpec,
    adiabatic_temperature_change,
    adiabatic_temperature_change_matching,
    classical_adiabatic_temperature_change,
    generalized_force,
    isothermal_entropy_change,
    isothermal_entropy_change_direct,
    maxwell_residual,
)
from qcaloric.discord import discord_from_susceptibility, entropy_change_from_discord
from qcaloric.errors import NonPositiveTemperatureError
from qcaloric.models import build_dimer, build_single_spin_zeeman
from qcaloric.thermal import process_decompose

INF = math.inf


@pytest.mark.parametrize("call", [
    lambda: isothermal_entropy_change(build_dimer(1.0, 0.3, "J"), 1.0, 1.0, INF),
    lambda: isothermal_entropy_change_direct(build_dimer(1.0, 0.3, "J"), 1.0, 1.0, INF),
    lambda: adiabatic_temperature_change(build_dimer(1.0, 0.3, "J"), 1.0, 1.0, INF),
    lambda: adiabatic_temperature_change_matching(
        build_dimer(1.0, 0.3, "J"), 1.0, 1.0, INF),
    lambda: classical_adiabatic_temperature_change(
        build_single_spin_zeeman(1.0), LatticeHeatSpec(), 1.0, 1.0, INF),
    lambda: entropy_change_from_discord(1.0, 1.0, INF),
    lambda: discord_from_susceptibility(0.3, INF),
    lambda: discord_from_susceptibility(0.0, INF),
], ids=["dS_quadrature_zero_length", "dS_direct_zero_length", "dT_ode_zero_length",
        "dT_matching_zero_length", "dT_classical_zero_length",
        "discord_entropy_zero_length", "discord_from_chi", "discord_from_zero_chi"])
def test_infinite_temperature_rejected_before_any_early_return(call):
    with pytest.raises(NonPositiveTemperatureError, match="inf"):
        call()


def counting_model():
    """The reference dimer with its ``evaluate`` calls, hence eigensolves, counted."""
    model = build_dimer(J=1.0, b=0.3, parameter="J")
    calls = []

    def counting(lam):
        calls.append(lam)
        return model.evaluate(lam)

    return dataclasses.replace(model, evaluate=counting), calls


@pytest.mark.parametrize("route, budget", [
    (lambda m: isothermal_entropy_change(m, 0.5, 1.5, 1.0), 129),
    (lambda m: isothermal_entropy_change_direct(m, 0.5, 1.5, 1.0), 2),
    (lambda m: adiabatic_temperature_change(m, 0.5, 1.5, 1.0), 257),
    (lambda m: adiabatic_temperature_change_matching(m, 0.5, 1.5, 1.0), 2),
    (lambda m: generalized_force(m, 0.7, 1.0), 1),
    (lambda m: maxwell_residual(m, 0.7, 1.0), 3),
    (lambda m: process_decompose(m, [(0.5, 4.0), (1.5, 4.0)]), 4097),
], ids=["quadrature", "direct", "ode", "matching", "force", "maxwell", "decompose"])
def test_eigensolve_budget(route, budget):
    # every lambda is diagonalized once per call; a lookup that stops
    # memoizing, or a route that refines further, shows up here
    model, calls = counting_model()
    route(model)
    assert len(calls) == budget
