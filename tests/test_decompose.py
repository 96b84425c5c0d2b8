"""process_decompose on the spectral kernel: closed-form work and heat on
isothermal strokes, the stop rule's error, breakpoint splitting on tabulated
models (decompose, entropy quadrature and Chebyshev-Picard adiabat), and the
decompose sweep: its error column, its one quadrature over every temperature
and its failures."""

import dataclasses
import time

import numpy as np
import pytest

from qcaloric import caloric, sweep
from qcaloric.caloric import (
    adiabatic_temperature_change,
    adiabatic_temperature_change_lanes,
    adiabatic_temperature_change_matching,
    isothermal_entropy_change,
    isothermal_entropy_change_direct,
)
from qcaloric.curves import render_csv
from qcaloric.errors import (
    ComputationError,
    NonFiniteParameterError,
    QuadratureNoConvergenceError,
)
from qcaloric.models import SpectrumTable, build_dimer, build_tabulated
from qcaloric.scenario import parse_scenario
from qcaloric.sweep import run_sweep
from qcaloric.thermal import process_decompose, thermal_state, thermo_point

PINNED = build_dimer(J=0.5, b=0.3, parameter="J")

# piecewise-linear levels with a kink at every interior node
GRID = np.array([0.0, 1.0, 2.0, 3.0])
ROWS = np.array([[0, 1, 2], [0, 1.5, 2.2], [0, 1.7, 2.9], [0, 2.5, 3.0]], dtype=float)
TABLE = build_tabulated(SpectrumTable(GRID, ROWS))


def counted(model):
    calls = []

    def evaluate(lam):
        calls.append(lam)
        return model.evaluate(lam)

    return dataclasses.replace(model, evaluate=evaluate), calls


def closed_form(model, lam_i, lam_f, t):
    """(W, Q, scale) of an isothermal stroke: W = dF, Q = T dS."""
    a = thermo_point(thermal_state(model, lam_i, t))
    z = thermo_point(thermal_state(model, lam_f, t))
    work, heat = z.free_energy - a.free_energy, t * (z.entropy - a.entropy)
    return work, heat, max(1.0, abs(work), abs(heat))


def table_work(path):
    """Sum p dE along a path over TABLE, 64-point Gauss-Legendre on each
    linear piece, from the table's own slopes: independent of the kernel."""
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for (la, ta), (lb, tb) in zip(path[:-1], path[1:]):
        if la == lb:
            continue
        lo, hi = sorted((la, lb))
        ends = [lo, *(g for g in GRID if lo < g < hi), hi]
        for a, b in zip(ends[:-1], ends[1:]):
            lam = (a + b) / 2 + (b - a) / 2 * x
            t = ta + (lam - la) / (lb - la) * (tb - ta)
            k = int(np.searchsorted(GRID, (a + b) / 2))
            slope = (ROWS[k] - ROWS[k - 1]) / (GRID[k] - GRID[k - 1])
            levels = ROWS[k - 1] + (lam[:, None] - GRID[k - 1]) * slope
            p = np.exp(-(levels - levels[:, :1]) / t[:, None])
            p /= p.sum(axis=1, keepdims=True)
            total += np.sign(lb - la) * (b - a) / 2 * np.dot(w, p @ slope)
    return total


@pytest.mark.parametrize("t", [1.0, 4.0, 7.0])
def test_pinned_stroke_matches_closed_form(t):
    d = process_decompose(PINNED, [(0.5, t), (1.5, t)])
    work, heat, scale = closed_form(PINNED, 0.5, 1.5, t)
    assert abs(d.work - work) <= 1e-10 * scale
    assert abs(d.heat - heat) <= 1e-10 * scale
    assert 0.0 < d.error_estimate <= 1e-9 * scale
    assert d.refinement_levels > 0


def test_unconverged_work_raises(monkeypatch):
    monkeypatch.setattr(caloric, "_QUAD_MAX_DOUBLINGS", 1)
    with pytest.raises(QuadratureNoConvergenceError, match="process work"):
        process_decompose(PINNED, [(0.5, 1.0), (1.5, 1.0)])


def test_non_finite_lambda_in_path_rejected_before_any_eigensolve():
    model, calls = counted(PINNED)
    for path in ([(0.5, 1.0), (np.nan, 1.0)], [(-np.inf, 1.0), (1.5, 1.0)]):
        with pytest.raises(NonFiniteParameterError):
            process_decompose(model, path)
    assert calls == []


def test_isochore_reports_no_refinement():
    d = process_decompose(PINNED, [(1.0, 0.5), (1.0, 2.5)])
    assert (d.work, d.error_estimate, d.refinement_levels) == (0.0, 0.0, 0)


def test_tabulated_model_breaks_at_its_nodes():
    assert TABLE.breakpoints == (0.0, 1.0, 2.0, 3.0)
    assert PINNED.breakpoints == ()


@pytest.mark.parametrize("path", [
    [(0.3, 0.5), (2.0, 0.5)],
    [(1.0, 2.0), (2.0, 2.0)],
    [(0.3, 0.5), (2.7, 0.5)],
    [(2.7, 2.0), (0.3, 2.0)],
    [(0.3, 0.5), (2.7, 2.0)],
], ids=["across_one_node", "node_to_node", "across_two_nodes", "reversed", "heated"])
def test_tabulated_paths_split_at_the_nodes(path):
    # a node is a kink of every level and, read on the node, dH/dlambda is a
    # central difference: unsplit, the quadrature converged at first order
    model, calls = counted(TABLE)
    d = process_decompose(model, path)
    (la, ta), (lb, tb) = path
    if ta == tb:
        work, heat, scale = closed_form(TABLE, la, lb, ta)
        assert abs(d.heat - heat) <= 1e-10 * scale
    else:
        work, scale = table_work(path), max(1.0, abs(d.work), abs(d.heat))
    assert abs(d.work - work) <= 1e-10 * scale
    assert d.work + d.heat == pytest.approx(d.energy_change, abs=1e-14)
    assert len(calls) <= 513


@pytest.mark.parametrize("lam_i, lam_f", [(0.3, 1.0), (1.0, 2.0), (2.7, 0.3)])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_tabulated_entropy_quadrature_splits_at_the_nodes(lam_i, lam_f, t):
    model, calls = counted(TABLE)
    quad = isothermal_entropy_change(model, lam_i, lam_f, t)
    direct = isothermal_entropy_change_direct(TABLE, lam_i, lam_f, t)
    assert abs(quad.value - direct.value) <= 1e-8
    assert len(calls) <= 129


@pytest.mark.parametrize("lam_i, lam_f", [(1.0, 2.0), (0.3, 2.7)])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_tabulated_adiabat_splits_at_the_nodes(lam_i, lam_f, t):
    # unsplit, RK4 stepped across the kinks and did not converge in 16 doublings
    start = time.perf_counter()
    ode = adiabatic_temperature_change(TABLE, lam_i, lam_f, t)
    elapsed = time.perf_counter() - start
    match = adiabatic_temperature_change_matching(TABLE, lam_i, lam_f, t)
    assert abs(ode.value - match.value) <= 1e-8
    assert elapsed < 1.0
    lams = [lam for lam, _ in ode.path]
    assert ode.path[0] == (lam_i, t) and ode.path[-1][1] == pytest.approx(t + ode.value)
    assert np.all(np.diff(lams) > 0)


def test_tabulated_adiabat_lanes_equal_single_calls():
    # each lane enters the next piece at its own converged temperature
    temps = [0.5, 1.0, 2.0]
    assert adiabatic_temperature_change_lanes(TABLE, 2.7, 0.3, temps) == [
        adiabatic_temperature_change(TABLE, 2.7, 0.3, t) for t in temps]


STROKE = """{
  "model": {"kind": "dimer", "J": 0.5, "b": 0.3}, "parameter": "J",
  "sweep": {"from": 0.5, "to": 1.5, "points": 2},
  "temperatures": {"from": 1.0, "to": 7.0, "points": 3},
  "computations": ["decompose"], "output": {"csv": "out.csv"}
}"""


def test_sweep_writes_the_work_error_estimate():
    work, heat, energy = run_sweep(parse_scenario(STROKE))
    for t, (_, w, w_err), (_, _, q_err), (_, _, du_err) in zip(
            (1.0, 4.0, 7.0), work.points, heat.points, energy.points):
        d = process_decompose(PINNED, [(0.5, t), (1.5, t)])
        assert (w, w_err, q_err, du_err) == (d.work, d.error_estimate, d.error_estimate, 0.0)
    assert "0.00000000000e+00" not in render_csv(work)


def test_decompose_sweep_failure_names_the_lowest_temperature(monkeypatch):
    monkeypatch.setattr(caloric, "_QUAD_MAX_DOUBLINGS", 0)
    with pytest.raises(QuadratureNoConvergenceError) as single:
        process_decompose(PINNED, [(0.5, 1.0), (1.5, 1.0)])
    with pytest.raises(ComputationError) as swept:
        run_sweep(parse_scenario(STROKE))
    assert str(swept.value) == f"decompose failed at T = 1 K, sweep 0.5 -> 1.5: {single.value}"
    assert isinstance(swept.value.__cause__, QuadratureNoConvergenceError)


def test_decompose_sweep_shares_one_cache_across_temperatures(monkeypatch):
    # T = 1, 4 and 7 are the lanes of one quadrature over nested Lobatto nodes
    # of one stroke: each distinct lambda is built once, the deepest
    # temperature's nodes hold the others', and each lane keeps its own bits
    model, calls = counted(PINNED)
    monkeypatch.setattr(sweep, "build_model", lambda scenario: model)
    refine, quadratures = caloric._refine, []

    def counted_refine(step, lanes, *args):
        quadratures.append(lanes.tolist())
        return refine(step, lanes, *args)

    monkeypatch.setattr(caloric, "_refine", counted_refine)
    work, heat, energy = run_sweep(parse_scenario(STROKE))
    assert quadratures == [[0, 1, 2]]
    assert len(calls) == len(set(calls))
    alone = []
    for t, w, q, du in zip((1.0, 4.0, 7.0), work.points, heat.points, energy.points):
        single, seen = counted(PINNED)
        d = process_decompose(single, [(0.5, t), (1.5, t)])
        alone.append(set(seen))
        assert (w, q, du) == ((t, d.work, d.error_estimate), (t, d.heat, d.error_estimate),
                              (t, d.energy_change, 0.0))
    assert set(calls) == set.union(*alone) == max(alone, key=len)


def test_entropy_quadrature_and_work_read_the_same_lambda_nodes():
    # both integrals read the Lobatto nodes mid + half * x of the stroke, so the
    # shallower one's nodes are a subset of the deeper one's final level
    lam_i, lam_f = 0.5037, 1.4963
    entropy_model, entropy_calls = counted(PINNED)
    work_model, work_calls = counted(PINNED)
    res = isothermal_entropy_change(entropy_model, lam_i, lam_f, 1.0)
    d = process_decompose(work_model, [(lam_i, 1.0), (lam_f, 1.0)])
    assert set(work_calls) == set(caloric._nodes(lam_i, lam_f, 8 << d.refinement_levels))
    assert set(entropy_calls) == set(caloric._nodes(lam_i, lam_f, 8 << res.refinement_levels))
    assert set(entropy_calls) <= set(work_calls)
