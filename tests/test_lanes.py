"""Temperature lanes: a sweep's endpoint computations run all temperatures
as lanes of one integration, and each lane must reproduce its single-T
public call exactly, whatever the grouping of lanes into chunks."""

import json

import numpy as np
import pytest

from qcaloric.caloric import (
    LatticeHeatSpec,
    _picard_lanes,
    adiabatic_temperature_change,
    adiabatic_temperature_change_lanes,
    classical_adiabatic_temperature_change,
    generalized_force,
    isothermal_entropy_change,
    isothermal_entropy_change_lanes,
)
from qcaloric.discord import pair_correlation
from qcaloric.errors import ComputationError, DegenerateVarianceError
from qcaloric.models import build_dimer, build_single_spin_zeeman
from qcaloric.scenario import parse_scenario
from qcaloric.sweep import run_sweep

DIMER = {"kind": "dimer", "J": 0.5037, "b": 0.3}
J_I, J_F = 0.5037, 1.4963
LATTICE = LatticeHeatSpec(a0=0.1, a1=0.2, a3=0.05)
B_I, B_F = 0.5, 2.0


def scenario(model, parameter, lam_i, lam_f, temps, computations, lattice=None):
    doc = {"model": model, "parameter": parameter,
           "sweep": {"from": lam_i, "to": lam_f, "points": 2},
           "temperatures": temps, "computations": computations,
           "output": {"csv": "out.csv"}}
    if lattice is not None:
        doc["lattice"] = {"a0": lattice.a0, "a1": lattice.a1, "a3": lattice.a3}
    return parse_scenario(json.dumps(doc))


DIMER_TEMPS = {"from": 0.25, "to": 5.0, "points": 9}
SPIN_TEMPS = {"from": 0.3, "to": 3.0, "points": 7}
DIMER_T = np.linspace(0.25, 5.0, 9)    # the grids' values
SPIN_T = np.linspace(0.3, 3.0, 7)


def single_calls():
    """Per-temperature public calls: curve name -> [CaloricResult per T]."""
    dimer = build_dimer(J=J_I, b=0.3, parameter="J")
    spin = build_single_spin_zeeman(1.0)
    return {
        "entropy_change": [isothermal_entropy_change(dimer, J_I, J_F, t)
                           for t in DIMER_T],
        "adiabatic_temperature_change": [adiabatic_temperature_change(dimer, J_I, J_F, t)
                                         for t in DIMER_T],
        "classical_adiabatic_temperature_change": [
            classical_adiabatic_temperature_change(spin, LATTICE, B_I, B_F, t)
            for t in SPIN_T],
    }


@pytest.fixture(scope="module")
def singles():
    return single_calls()


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_sweep_points_equal_single_temperature_calls_bitwise(threads, singles, monkeypatch):
    monkeypatch.setenv("QCAL_THREADS", threads)
    curves = list(run_sweep(scenario(DIMER, "J", J_I, J_F, DIMER_TEMPS,
                                     ["entropy", "adiabatic"])))
    curves += list(run_sweep(scenario({"kind": "single_spin", "b": 1.0}, "b", B_I, B_F,
                                      SPIN_TEMPS, ["classical_adiabatic"], LATTICE)))
    assert [c.name for c in curves] == list(singles)
    for curve in curves:
        expected = tuple((r.T_start, r.value, r.error_estimate) for r in singles[curve.name])
        assert curve.points == expected, curve.name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_force_sweep_points_equal_generalized_force_bitwise(threads, monkeypatch):
    # the sweep diagonalizes each lambda once with every temperature as a lane
    monkeypatch.setenv("QCAL_THREADS", threads)
    dimer = build_dimer(J=J_I, b=0.3, parameter="J")
    lams = np.linspace(J_I, J_F, 5).tolist()
    curves = run_sweep(scenario(DIMER, "J", J_I, J_F, DIMER_TEMPS, ["force"]),
                       sweep_values=lams)
    assert [c.name for c in curves] == [f"force_T={t:g}" for t in DIMER_T]
    for curve, t in zip(curves, DIMER_T):
        assert curve.points == tuple((lam, generalized_force(dimer, lam, t), 0.0)
                                     for lam in lams), curve.name


def test_discord_sweep_points_equal_pair_correlation():
    # read off the force table: D = |<sigma1.sigma2>| / 6 on the zero-field J-dimer
    temps = {"from": 0.05, "to": 50.0, "points": 25}
    lams = np.linspace(-3.0, 3.0, 20).tolist()
    curves = run_sweep(scenario({"kind": "dimer", "J": -3.0, "b": 0.0}, "J", -3.0, 3.0, temps,
                                ["discord"]), sweep_values=lams)
    assert len(curves) == len(lams)
    for curve, lam in zip(curves, lams):
        assert curve.name == f"discord_J={lam:g}"
        for t, d, err in curve.points:
            assert err == 0.0
            assert abs(d - pair_correlation(lam, t).discord) <= 1e-12 * d


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_lane_kernels_equal_single_temperature_calls_in_any_grouping(chunks, singles):
    # value, error_estimate, refinement_levels and the adiabat's path
    dimer = build_dimer(J=J_I, b=0.3, parameter="J")
    spin = build_single_spin_zeeman(1.0)
    kernels = {
        "entropy_change": (
            lambda ts: isothermal_entropy_change_lanes(dimer, J_I, J_F, ts), DIMER_T),
        "adiabatic_temperature_change": (
            lambda ts: adiabatic_temperature_change_lanes(dimer, J_I, J_F, ts), DIMER_T),
        "classical_adiabatic_temperature_change": (
            lambda ts: adiabatic_temperature_change_lanes(spin, B_I, B_F, ts, LATTICE),
            SPIN_T),
    }
    for name, (kernel, temps) in kernels.items():
        lanes = [r for chunk in np.array_split(temps, chunks) for r in kernel(chunk)]
        assert lanes == singles[name], name


FAILING = {"from": 0.002, "to": 1.0, "points": 7}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_sweep_error_names_the_failing_temperature(threads, monkeypatch):
    monkeypatch.setenv("QCAL_THREADS", threads)
    with pytest.raises(ComputationError) as err:
        run_sweep(scenario(DIMER, "J", J_I, J_F, FAILING, ["adiabatic"]))
    assert str(err.value) == (
        "adiabatic failed at T = 0.002 K, sweep 0.5037 -> 1.4963: var[H] = 0.000e+00 "
        "at lambda = 0.5037, T = 0.002 K (flat spectrum or populations frozen in the "
        "ground state)")
    assert isinstance(err.value.__cause__, DegenerateVarianceError)


def test_sweep_error_names_the_lowest_failing_temperature(monkeypatch):
    # all three lanes start with populations frozen in the ground state
    monkeypatch.setenv("QCAL_THREADS", "2")
    with pytest.raises(ComputationError) as err:
        run_sweep(scenario(DIMER, "J", J_I, J_F, {"from": 0.001, "to": 0.002, "points": 3},
                           ["adiabatic"]))
    assert str(err.value) == (
        "adiabatic failed at T = 0.001 K, sweep 0.5037 -> 1.4963: var[H] = 0.000e+00 "
        "at lambda = 0.5037, T = 0.001 K (flat spectrum or populations frozen in the "
        "ground state)")


def test_failing_lanes_carry_their_single_temperature_errors():
    dimer = build_dimer(J=J_I, b=0.3, parameter="J")
    temps = [0.002, 0.0015, 0.5, 0.001]
    lanes = adiabatic_temperature_change_lanes(dimer, J_I, J_F, temps)
    assert lanes[2] == adiabatic_temperature_change(dimer, J_I, J_F, 0.5)
    for t, lane in zip(temps, lanes):
        if t != 0.5:
            with pytest.raises(DegenerateVarianceError) as err:
                adiabatic_temperature_change(dimer, J_I, J_F, t)
            assert type(lane) is DegenerateVarianceError and str(lane) == str(err.value)


def test_a_lane_walking_halved_pieces_equals_its_single_call():
    # J 10 -> 0.1 from T = 0.5: the whole-path iterate does not converge and
    # the piece is halved; at T = 0.05 the start point itself is frozen;
    # T = 50 walks whole
    dimer = build_dimer(J=1.0, b=0.3, parameter="J")
    temps = [0.5, 0.05, 50.0]
    lanes = adiabatic_temperature_change_lanes(dimer, 10.0, 0.1, temps)
    assert len(lanes[0].path) > 8 * 2 ** lanes[0].refinement_levels + 1
    assert len(lanes[2].path) == 8 * 2 ** lanes[2].refinement_levels + 1
    for t, lane in zip(temps, lanes):
        if t == 0.05:
            with pytest.raises(DegenerateVarianceError) as err:
                adiabatic_temperature_change(dimer, 10.0, 0.1, t)
            assert str(lane) == str(err.value) and "at lambda = 10, T = 0.05 K" in str(lane)
        else:
            assert lane == adiabatic_temperature_change(dimer, 10.0, 0.1, t)


def decay_slopes(fail_start, fail_from):
    """du/dlambda = -1 (T = T_start e^-lambda); the lane starting at
    ``fail_start`` fails its guard at every node past ``fail_from``."""
    def slopes(lams, t):
        bad = (np.array(lams)[:, None] > fail_from) & (t[:1] == fail_start)
        return (np.full(t.shape, -1.0), bad,
                lambda k, c: DegenerateVarianceError(f"T_start {t[0, c]:g} at {lams[k]:.3f}"))
    return slopes


def test_a_lane_failing_mid_path_leaves_the_others_untouched():
    starts = np.array([1.0, 2.0, 3.0])
    mixed = _picard_lanes(decay_slopes(2.0, 0.5), 0.0, 1.0, starts, np.arange(3), list)
    alone = _picard_lanes(decay_slopes(2.0, 0.5), 0.0, 1.0, starts, np.array([0, 2]), list)
    # named at the first failing node in path order
    assert str(mixed[1]) == "T_start 2 at 0.691"
    assert mixed[0] == alone[0] and mixed[2] == alone[2]
    for lane in (0, 2):
        assert mixed[lane][0] == pytest.approx(starts[lane] * np.exp(-1.0), rel=1e-9)
