"""Cross-module contracts: the temperature and lambda guards at every public
entry point and the eigensolve budget of each route on a reference case."""

import dataclasses
import json
import math
import re
import threading
import warnings

import numpy as np
import pytest

from qcaloric.caloric import (
    CaloricResult,
    LatticeHeatSpec,
    adiabatic_temperature_change,
    adiabatic_temperature_change_lanes,
    adiabatic_temperature_change_matching,
    classical_adiabatic_temperature_change,
    generalized_force,
    isothermal_entropy_change,
    isothermal_entropy_change_direct,
    isothermal_entropy_change_lanes,
    maxwell_residual,
)
from qcaloric import caloric, discord, models, sweep
from qcaloric.discord import (
    discord_from_susceptibility,
    discord_temperature_derivative,
    entropy_change_from_discord,
    pair_correlation,
)
from qcaloric.errors import (
    ComputationError,
    NonFiniteParameterError,
    NonPositiveTemperatureError,
    OutOfRangeError,
    QuadratureNoConvergenceError,
)
from qcaloric.models import build_dimer, build_single_spin_zeeman
from qcaloric.scenario import parse_scenario
from qcaloric.thermal import process_decompose, thermal_state
from qcaloric.validate import _ring_model, _tabulated_model

INF = math.inf
NAN = math.nan


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


def counting_model(model=None):
    """A model (default: the reference dimer) with its ``evaluate`` calls,
    hence eigensolves, counted."""
    model = model or build_dimer(J=1.0, b=0.3, parameter="J")
    calls = []

    def counting(lam):
        calls.append(lam)
        return model.evaluate(lam)

    return dataclasses.replace(model, evaluate=counting), calls


def family_counted(monkeypatch):
    """The reference dimer, read whole by its family fill, and the nodes
    handed to that fill: the eigensolve count of the family path."""
    nodes = []
    spectra = models._Affine.spectra

    def counting(family, lams):
        nodes.extend(lams)
        return spectra(family, lams)

    monkeypatch.setattr(models._Affine, "spectra", counting)
    return build_dimer(J=1.0, b=0.3, parameter="J"), nodes


BUDGETS = pytest.mark.parametrize("route, budget", [
    (lambda m: isothermal_entropy_change(m, 0.5, 1.5, 1.0), 33),
    (lambda m: isothermal_entropy_change_direct(m, 0.5, 1.5, 1.0), 2),
    (lambda m: adiabatic_temperature_change(m, 0.5, 1.5, 1.0), 33),
    (lambda m: adiabatic_temperature_change_matching(m, 0.5, 1.5, 1.0), 2),
    (lambda m: generalized_force(m, 0.7, 1.0), 1),
    (lambda m: maxwell_residual(m, 0.7, 1.0), 3),
    (lambda m: process_decompose(m, [(0.5, 4.0), (1.5, 4.0)]), 17),
    (lambda m: process_decompose(m, [(0.5, 1.0), (1.5, 1.0)]), 33),
    (lambda m: adiabatic_temperature_change(m, 0.5037, 1.4963, 1.0), 33),
    (lambda m: adiabatic_temperature_change(m, 1.4963, 0.5037, 1.0), 33),
], ids=["quadrature", "direct", "ode", "matching", "force", "maxwell", "decompose",
        "decompose_pinned_T1", "ode_non_dyadic", "ode_non_dyadic_reversed"])


@BUDGETS
def test_eigensolve_budget(route, budget):
    # every lambda is diagonalized once per call; a lookup that stops
    # memoizing, or a route that refines further, shows up here
    model, calls = counting_model()
    route(model)
    assert len(calls) == budget


@BUDGETS
def test_family_fill_eigensolve_budget(route, budget, monkeypatch):
    # the budgets of the per-node path, counted in the nodes the family fill solves
    model, nodes = family_counted(monkeypatch)
    route(model)
    assert len(nodes) == len(set(nodes)) == budget


LANE_BUDGETS = pytest.mark.parametrize("kernel, budget", [
    (isothermal_entropy_change_lanes, 33),
    (adiabatic_temperature_change_lanes, 33),
    # the endpoints of the benchmark's dimer sweep, in place of 0.5 -> 1.5
    (lambda m, _i, _f, temps: adiabatic_temperature_change_lanes(m, 0.5037, 1.4963, temps),
     33),
], ids=["quadrature_lanes", "ode_lanes", "ode_lanes_non_dyadic"])


@LANE_BUDGETS
def test_lane_kernel_eigensolve_budget(kernel, budget):
    # 25 temperatures share the lambda nodes: the deepest lane sets the count
    model, calls = counting_model()
    results = kernel(model, 0.5, 1.5, np.linspace(0.25, 5.0, 25))
    assert all(isinstance(r, CaloricResult) for r in results)
    assert len(calls) == budget


@LANE_BUDGETS
def test_family_fill_lane_kernel_eigensolve_budget(kernel, budget, monkeypatch):
    model, nodes = family_counted(monkeypatch)
    results = kernel(model, 0.5, 1.5, np.linspace(0.25, 5.0, 25))
    assert all(isinstance(r, CaloricResult) for r in results)
    assert len(nodes) == len(set(nodes)) == budget


@pytest.mark.parametrize("call, iterations", [
    (lambda: adiabatic_temperature_change_lanes(
        build_dimer(1.0, 0.3, "J"), 0.5037, 1.4963, np.linspace(0.25, 5.0, 25)), [7, 4, 2]),
    (lambda: adiabatic_temperature_change(build_dimer(1.0, 0.3, "J"), 0.5, 1.5, 1.0), [6, 4, 2]),
    (lambda: adiabatic_temperature_change(_ring_model(4, 0.35), 0.6037, 1.3963, 0.9009),
     [6, 3, 1]),
], ids=["dimer_25_lanes", "dimer", "ring4"])
def test_each_picard_level_starts_from_the_last(call, iterations, monkeypatch):
    # an iteration reads the slopes at every node of its level (9, 17, 33)
    # once; a cold start from ln T_start at every node takes 7, 6 and 6 per level
    nodes = []
    real = caloric._slopes

    def slopes(lattice, at, t):
        nodes.append(len(t))
        return real(lattice, at, t)

    monkeypatch.setattr(caloric, "_slopes", slopes)
    call()
    assert [nodes.count(n) for n in (9, 17, 33)] == iterations
    assert len(nodes) == sum(iterations)


ZEEMAN = build_single_spin_zeeman(1.0)


@pytest.mark.parametrize("model, call", [
    (None, lambda m: isothermal_entropy_change(m, NAN, 1.5, 1.0)),
    (None, lambda m: isothermal_entropy_change(m, 0.5, INF, 1.0)),
    (None, lambda m: isothermal_entropy_change_direct(m, 0.5, NAN, 1.0)),
    (None, lambda m: adiabatic_temperature_change(m, 0.5, INF, 1.0)),
    (None, lambda m: adiabatic_temperature_change(m, -INF, 1.5, 1.0)),
    (None, lambda m: adiabatic_temperature_change_matching(m, NAN, 1.5, 1.0)),
    (ZEEMAN, lambda m: classical_adiabatic_temperature_change(
        m, LatticeHeatSpec(), 0.5, NAN, 1.0)),
    (None, lambda m: generalized_force(m, NAN, 1.0)),
    (None, lambda m: maxwell_residual(m, INF, 1.0)),
    (None, lambda m: entropy_change_from_discord(0.5, NAN, 1.0)),
    (None, lambda m: isothermal_entropy_change(m, INF, INF, 1.0)),
    (None, lambda m: thermal_state(m, NAN, 1.0)),
    (None, lambda m: pair_correlation(NAN, 1.0)),
    (None, lambda m: discord_temperature_derivative(NAN, 1.0)),
], ids=["dS_quadrature_nan", "dS_quadrature_inf", "dS_direct_nan", "dT_ode_inf",
        "dT_ode_minus_inf", "dT_matching_nan", "dT_classical_nan", "force_nan",
        "maxwell_inf", "discord_entropy_nan", "dS_quadrature_inf_zero_length",
        "thermal_state_nan", "pair_correlation_nan", "discord_slope_nan"])
def test_non_finite_lambda_rejected_before_any_eigensolve(model, call):
    model, calls = counting_model(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteParameterError, match="nan|inf"):
            call(model)
    assert calls == []


@pytest.mark.parametrize("kernel", [isothermal_entropy_change_lanes,
                                    adiabatic_temperature_change_lanes])
def test_lane_kernels_reject_non_finite_lambda_in_every_lane(kernel):
    model, calls = counting_model()
    results = kernel(model, 0.5, NAN, [0.5, 1.0, 2.0])
    assert all(isinstance(r, NonFiniteParameterError) for r in results)
    assert calls == []


def test_force_sweep_diagonalizes_each_lambda_once(monkeypatch):
    # 5 lambdas x 25 temperatures: every temperature is a lane of one lookup
    model, calls = counting_model()
    monkeypatch.setattr(sweep, "build_model", lambda scenario: model)
    for threads in ("1", "2"):
        monkeypatch.setenv("QCAL_THREADS", threads)
        calls.clear()
        sweep.run_sweep(parse_scenario(json.dumps({
            "model": {"kind": "dimer", "J": 0.5, "b": 0.3}, "parameter": "J",
            "sweep": {"from": 0.5, "to": 1.5, "points": 5},
            "temperatures": {"from": 0.25, "to": 5.0, "points": 25},
            "computations": ["force"], "output": {"csv": "out.csv"}})))
        assert calls == [0.5, 0.75, 1.0, 1.25, 1.5]


def test_discord_sweep_diagonalizes_each_J_once(monkeypatch):
    # 5 J x 25 T: every temperature is a lane of one force-table row
    eigh, matrices = np.linalg.eigh, []

    def counting_eigh(m):
        matrices.append(int(np.prod(m.shape[:-2])))
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    curves = sweep.run_sweep(parse_scenario(json.dumps({
        "model": {"kind": "dimer", "J": 0.5, "b": 0.0}, "parameter": "J",
        "sweep": {"from": 0.5, "to": 1.5, "points": 5},
        "temperatures": {"from": 0.25, "to": 5.0, "points": 25},
        "computations": ["discord"], "output": {"csv": "out.csv"}})))
    assert len(curves) == 5 and sum(matrices) == 5


def test_discord_entropy_change_builds_one_dimer(monkeypatch):
    built, calls = [], []

    def counting_build(**kwargs):
        model, seen = counting_model(build_dimer(**kwargs))
        built.append(kwargs)
        calls.append(seen)
        return model

    monkeypatch.setattr(discord, "build_dimer", counting_build)
    entropy_change_from_discord(0.5, 1.5, 1.0)
    assert built == [{"J": 0.5, "b": 0.0, "parameter": "J"}]
    # each quadrature node is diagonalized once
    assert len(calls[0]) == len(set(calls[0])) > 3


@pytest.mark.parametrize("value", [None, "0", "abc", "2", "4"])
def test_sweeps_run_on_the_calling_thread_by_default(value, monkeypatch):
    # QCAL_THREADS is accepted and ignored
    if value is None:
        monkeypatch.delenv("QCAL_THREADS", raising=False)
    else:
        monkeypatch.setenv("QCAL_THREADS", value)
    assert sweep.thread_count() == 1

    def no_thread(self):
        raise AssertionError("the sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    temps = {"from": 0.5, "to": 2.0, "points": 3}
    dimer = parse_scenario(json.dumps({
        "model": {"kind": "dimer", "J": 0.5, "b": 0.0}, "parameter": "J",
        "sweep": {"from": 0.5, "to": 1.5, "points": 3}, "temperatures": temps,
        "computations": ["entropy", "adiabatic", "force", "discord", "decompose"],
        "output": {"csv": "out.csv"}}))
    spin = parse_scenario(json.dumps({
        "model": {"kind": "single_spin", "b": 1.0}, "parameter": "b",
        "sweep": {"from": 0.5, "to": 2.0, "points": 2}, "temperatures": temps,
        "computations": ["classical_adiabatic"], "lattice": {"a0": 0.1, "a1": 0.2, "a3": 0.05},
        "output": {"csv": "out.csv"}}))
    assert len(sweep.run_sweep(dimer).curves) == 1 + 1 + 3 + 3 + 3
    assert len(sweep.run_sweep(spin).curves) == 1
    # the guard is live: a thread pool would start its workers through it
    with pytest.raises(AssertionError, match="started a thread"):
        threading.Thread(target=lambda: None).start()


@pytest.mark.parametrize("kernel", [isothermal_entropy_change_lanes,
                                    adiabatic_temperature_change_lanes])
@pytest.mark.parametrize("temps", [[1.0], np.linspace(0.25, 5.0, 25).tolist()],
                         ids=["one_lane", "25_lanes"])
def test_each_level_or_pass_is_one_stacked_call_per_block(kernel, temps, monkeypatch):
    # the quadrature reads its 9 first nodes, then the nodes of each level,
    # of which it solves the new ones; the adiabat reads the nodes of each
    # level. The dimer's H(lambda) splits into sectors 1 + 2 + 1, so a read
    # makes one LAPACK call per block of at most _FILL_BLOCK new nodes, for
    # its 2 x 2 sector, and none for the others
    fills, stacks = [], []
    real_stack, real_eigh = caloric._SpectralCache.stack, np.linalg.eigh

    def stack(cache, lams):
        before, calls = len(cache._data), len(stacks)
        rows = real_stack(cache, lams)
        fills.append((len(cache._data) - before, len(stacks) - calls))
        return rows

    def eigh(m):
        stacks.append(m.shape)
        return real_eigh(m)

    monkeypatch.setattr(caloric._SpectralCache, "stack", stack)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    model, calls = counting_model()
    results = kernel(model, 0.5, 1.5, temps)
    assert len(fills) == 1 + max(r.refinement_levels for r in results)
    assert [n_stacks for _, n_stacks in fills] == [-(-new // caloric._FILL_BLOCK)
                                                   for new, _ in fills]
    assert {shape[1:] for shape in stacks} == {(2, 2)}
    # every node is built once and diagonalized inside a read
    assert (sum(shape[0] for shape in stacks) == sum(new for new, _ in fills)
            == len(calls) == len(set(calls)))
    assert max(shape[0] for shape in stacks) <= caloric._FILL_BLOCK


@pytest.mark.parametrize("call", [
    lambda m: generalized_force(m, 1e308, 1.0),
    lambda m: isothermal_entropy_change(m, 1.0, 1e308, 1.0),
    lambda m: thermal_state(m, 1e308, 1.0),
], ids=["force", "dS_quadrature", "thermal_state"])
def test_a_finite_lambda_that_overflows_h_is_named_without_a_warning(call):
    # the J-dimer's sigma1.sigma2 has entries 2: 2 * 1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteParameterError, match=r"not finite at lambda = [0-9.]+e\+30[78]"):
            call(build_dimer(1.0, 0.3, "J"))


# the error contract of the spectral cache's one read, on a table over [0, 2]
TABLE = _tabulated_model()
PAST_THE_GRID = "lambda = 2 outside tabulated range \\[0, 2\\]"


@pytest.mark.parametrize("call", [
    lambda: isothermal_entropy_change(TABLE, 0.3, 2.5, 1.0),
    lambda: adiabatic_temperature_change(TABLE, 0.3, 2.5, 1.0),
    lambda: process_decompose(TABLE, [(0.3, 1.0), (2.5, 1.0)]),
], ids=["dS_quadrature", "dT_ode", "decompose"])
def test_a_path_past_the_table_names_the_first_node_it_cannot_build(call):
    # the last piece, [2, 2.5], reads its start one ulp inside it
    with pytest.raises(OutOfRangeError, match=PAST_THE_GRID):
        call()


@pytest.mark.parametrize("kernel", [isothermal_entropy_change_lanes,
                                    adiabatic_temperature_change_lanes])
def test_every_lane_of_a_path_past_the_table_carries_its_error(kernel):
    results = kernel(TABLE, 0.3, 2.5, [0.5, 1.0, 2.0])
    assert all(isinstance(r, OutOfRangeError) and re.fullmatch(PAST_THE_GRID, str(r))
               for r in results)


@pytest.mark.parametrize("call, lam", [
    (lambda: isothermal_entropy_change_direct(TABLE, 2.5, -0.5, 1.0), "-0.5"),
    (lambda: adiabatic_temperature_change_matching(TABLE, -0.5, 2.5, 1.0), "-0.5"),
    (lambda: maxwell_residual(TABLE, 2.0, 1.0), "2.0002"),
], ids=["direct", "matching", "maxwell"])
def test_an_endpoint_route_names_the_first_node_it_reads(call, lam):
    with pytest.raises(OutOfRangeError, match=f"^lambda = {lam} outside"):
        call()


@pytest.mark.parametrize("values, message", [
    ([0.5, 1.0, 2.5, 3.0], "lambda = 2.5 K, T = 0.5 K: lambda = 2.5 outside tabulated range"),
    ([0.5, INF], "lambda = inf K, T = 0.5 K: lambda = inf must be finite"),
], ids=["past_the_grid", "inf"])
def test_a_force_sweep_names_the_first_lambda_it_cannot_build(values, message):
    grid = np.linspace(0.0, 2.0, 9)
    scenario = parse_scenario(json.dumps({
        "model": {"kind": "tabulated", "lambda_grid": grid.tolist(), "energies": np.column_stack(
            [0.5 * grid, 1.0 + 0.2 * grid, 2.0 - 0.1 * grid]).tolist()},
        "sweep": {"from": 0.5, "to": 1.5, "points": 3},
        "temperatures": {"from": 0.5, "to": 2.0, "points": 3},
        "computations": ["force"], "output": {"csv": "out.csv"}}))
    with pytest.raises(ComputationError, match=f"^force failed at {message}"):
        sweep.run_sweep(scenario, sweep_values=values)


def test_a_non_finite_quadrature_lane_fails_at_its_first_level_without_a_warning():
    # below T ~ 1e-162, T^2 is 0 and the integrand 0 / 0: the quadrature
    # warned and doubled to 131 073 nodes before it raised
    model, calls = counting_model(build_dimer(0.5, 0.3, "J"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureNoConvergenceError,
                           match=r"not converged at level 0 \(estimate nan is not finite\)$"):
            isothermal_entropy_change(model, 0.5, 1.5, 1e-200)
        assert len(calls) == 9   # level 0's nodes
        results = isothermal_entropy_change_lanes(model, 0.5, 1.5, [1e-200, 1.0])
        # the discord integral's -sign(J) Cov / (6 T^2) shares the kernel and its stop
        with pytest.raises(QuadratureNoConvergenceError,
                           match=r"not converged at level 0 \(estimate nan is not finite\)$"):
            entropy_change_from_discord(0.5, 1.5, 1e-200)
    assert isinstance(results[0], QuadratureNoConvergenceError)
    assert results[1] == isothermal_entropy_change(model, 0.5, 1.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda t: generalized_force(build_dimer(1.0, 0.3, "J"), 1.0, t),
    lambda t: thermal_state(build_dimer(1.0, 0.3, "J"), 1.0, t),
    lambda t: isothermal_entropy_change(build_dimer(1.0, 0.3, "J"), 0.5, 1.5, t),
    lambda t: adiabatic_temperature_change(build_dimer(1.0, 0.3, "J"), 0.5, 1.5, t),
    lambda t: adiabatic_temperature_change_matching(build_dimer(1.0, 0.3, "J"), 0.5, 1.5, t),
    lambda t: discord_from_susceptibility(0.3, t),
], ids=["force", "thermal_state", "dS_quadrature", "dT_ode", "dT_matching", "discord"])
@pytest.mark.parametrize("t", [1e-320, 5e-324])
def test_a_subnormal_temperature_is_rejected_without_a_warning(call, t):
    # 1 / T overflows there: the force warned "overflow encountered in divide"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonPositiveTemperatureError,
                           match=re.escape(f"= {t:g} K is subnormal: it must be at least 2.22507e-308 K")):
            call(t)
