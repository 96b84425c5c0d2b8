import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from qcaloric import caloric
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
from qcaloric.discord import entropy_change_from_discord
from qcaloric.errors import (
    BracketFailureError,
    DegenerateVarianceError,
    NonPositiveTemperatureError,
    NoZeemanTermError,
    OdeNoConvergenceError,
    ZeroTotalHeatError,
)
from qcaloric.models import (
    SpectrumTable,
    build_dimer,
    build_single_spin_zeeman,
    build_tabulated,
)
from qcaloric.validate import _ring_model

from oracles import (
    dimer_entropy,
    dimer_exchange_average,
    dimer_matching_temperature,
    eigh_matching_temperature,
    mp_dimer_entropy,
    mp_dimer_matching_change,
    spin_entropy,
    spin_magnetization,
)


def constant_spectrum_model(levels=(0.0, 1.0, 2.5)):
    grid = np.array([0.0, 1.0, 2.0])
    rows = np.tile(levels, (3, 1))
    return build_tabulated(SpectrumTable(grid, rows))


def random_cases(seed, count):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        pick = rng.integers(0, 3)
        if pick == 0:
            model = build_dimer(J=1.0, b=rng.uniform(0.0, 0.6), parameter="J")
            lam_i, lam_f = sorted(rng.uniform(0.3, 2.0, size=2))
        elif pick == 1:
            model = build_dimer(J=rng.uniform(-1.0, 1.0), b=0.5, parameter="b")
            lam_i, lam_f = sorted(rng.uniform(0.2, 2.0, size=2))
        else:
            model = build_single_spin_zeeman(1.0)
            lam_i, lam_f = sorted(rng.uniform(0.3, 2.5, size=2))
        if lam_f - lam_i < 0.05:
            lam_f += 0.1
        cases.append((model, lam_i, lam_f, rng.uniform(0.3, 3.0)))
    return cases


class TestGeneralizedForce:
    def test_constant_spectrum_gives_zero(self):
        assert generalized_force(constant_spectrum_model(), 1.0, 1.0) == 0.0

    def test_single_spin_equals_magnetization(self):
        # dH/db = -Sz, so Y = +<Sz>
        y = generalized_force(build_single_spin_zeeman(1.0), 1.0, 1.0)
        assert y == pytest.approx(spin_magnetization(1.0, 1.0), abs=1e-13)

    def test_dimer_equals_minus_exchange_average(self):
        y = generalized_force(build_dimer(J=1.0, b=0.0, parameter="J"), 1.0, 1.0)
        assert y == pytest.approx(-dimer_exchange_average(1.0, 1.0), abs=1e-12)
        assert y == pytest.approx(2.791659975310062, abs=1e-12)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            generalized_force(build_single_spin_zeeman(1.0), 1.0, -0.5)

    def test_rejects_infinite_temperature(self):
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        with pytest.raises(NonPositiveTemperatureError, match="inf"):
            generalized_force(model, 1.0, np.inf)


class TestMaxwellResidual:
    def test_dimer_exchange(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        assert abs(maxwell_residual(model, 1.0, 1.0)) <= 1e-6

    def test_single_spin(self):
        model = build_single_spin_zeeman(2.0)
        assert abs(maxwell_residual(model, 2.0, 0.5)) <= 1e-6

    def test_tabulated_linear_spectrum(self):
        grid = np.linspace(0.0, 3.0, 7)
        rows = np.column_stack([np.zeros_like(grid), grid])   # E1(lambda) = lambda
        model = build_tabulated(SpectrumTable(grid, rows))
        assert abs(maxwell_residual(model, 1.5, 1.0)) <= 1e-6

    def test_grid(self):
        cases = [
            (build_dimer(J=1.0, b=0.3, parameter="J"), (0.3, 2.0)),
            (build_dimer(J=0.8, b=0.5, parameter="b"), (0.2, 1.5)),
            (build_single_spin_zeeman(1.0), (0.2, 3.0)),
        ]
        for model, (lo, hi) in cases:
            for lam in np.linspace(lo, hi, 6):
                for t in np.linspace(0.3, 4.0, 6):
                    assert abs(maxwell_residual(model, lam, t)) <= 1e-6


class TestIsothermalEntropyChange:
    def test_empty_sweep_is_exactly_zero(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        res = isothermal_entropy_change(model, 1.0, 1.0, 1.0)
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_dimer_sweep_against_direct_oracle(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        res = isothermal_entropy_change(model, 0.5, 1.5, 1.0)
        expected = dimer_entropy(1.5, 1.0) - dimer_entropy(0.5, 1.0)
        assert expected == pytest.approx(-0.8665868208157552)
        assert res.value == pytest.approx(expected, abs=1e-6)
        assert res.value == pytest.approx(-0.8666, abs=1e-3)
        assert res.method == "quadrature"
        assert res.error_estimate >= 0

    def test_single_spin_closed_form(self):
        model = build_single_spin_zeeman(0.0)
        res = isothermal_entropy_change(model, 0.0, 2.0, 1.0)
        expected = spin_entropy(2.0, 1.0) - spin_entropy(0.0, 1.0)
        assert res.value == pytest.approx(expected, abs=1e-7)
        assert res.value < 0

    def test_direction_reversal_flips_sign(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        fwd = isothermal_entropy_change(model, 0.5, 1.5, 1.0).value
        back = isothermal_entropy_change(model, 1.5, 0.5, 1.0).value
        assert fwd == pytest.approx(-back, abs=1e-9)

    @pytest.mark.parametrize("t", [0.02, 0.03, 0.05])
    def test_direct_route_at_low_temperature_matches_mpmath(self, t):
        # dS ~ 1e-41 at T = 0.02, far below 1 - p_0: every excited weight counts
        model = build_dimer(J=0.5, b=0.0, parameter="J")
        exact = float(mp_dimer_entropy(1.5, t) - mp_dimer_entropy(0.5, t))
        value = isothermal_entropy_change_direct(model, 0.5, 1.5, t).value
        assert abs(value - exact) <= 1e-8 * abs(exact)

    @pytest.mark.parametrize("t", [0.02, 0.03, 0.05])
    def test_quadrature_at_low_temperature_matches_mpmath(self, t):
        # the stop is relative to the quadrature of |integrand|, so a dS of
        # 1e-41 refines like one of order 1; the discord integral shares it
        model = build_dimer(J=0.5, b=0.0, parameter="J")
        exact = float(mp_dimer_entropy(1.5, t) - mp_dimer_entropy(0.5, t))
        res = isothermal_entropy_change(model, 0.5, 1.5, t)
        assert abs(res.value - exact) <= 1e-8 * abs(exact)
        assert res.refinement_levels <= 4
        assert abs(entropy_change_from_discord(0.5, 1.5, t) + exact) <= 1e-8 * abs(exact)

    def test_quadrature_of_an_exact_zero_stops_at_level_one(self):
        got = caloric._clenshaw_curtis_lanes(
            lambda nodes, lanes: np.zeros((len(nodes), len(lanes))), 0.0, 1.0,
            np.arange(2), "zero")
        assert got == {0: (0.0, 0.0, 1, None), 1: (0.0, 0.0, 1, None)}

    def test_direct_oracle_route(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        res = isothermal_entropy_change_direct(model, 0.5, 1.5, 1.0)
        assert res.method == "direct"
        assert res.value == pytest.approx(
            dimer_entropy(1.5, 1.0) - dimer_entropy(0.5, 1.0), abs=1e-12)
        assert isothermal_entropy_change_direct(model, 1.0, 1.0, 1.0).value == 0.0

    def test_oracle_equivalence_random_cases(self):
        for model, lam_i, lam_f, t in random_cases(31, 50):
            quad = isothermal_entropy_change(model, lam_i, lam_f, t).value
            direct = isothermal_entropy_change_direct(model, lam_i, lam_f, t).value
            assert abs(quad - direct) <= 1e-6

    def test_long_low_temperature_path_refines_past_1024_nodes(self):
        # J 0.02 -> 20 at T = 0.02 stops at n = 2 048, past the integration matrix's cap
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        res = isothermal_entropy_change(model, 0.02, 20.0, 0.02)
        direct = isothermal_entropy_change_direct(model, 0.02, 20.0, 0.02).value
        assert res.refinement_levels > 7
        assert res.value == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_clenshaw_curtis_weights_are_the_integration_matrix_row(self, n):
        weights = caloric._clenshaw_curtis_weights(n)
        assert np.max(np.abs(weights - caloric._integration_matrix(n)[:, -1, 0])) < 1e-15

    def test_clenshaw_curtis_weights_at_the_deepest_level(self):
        n = 8 * 2 ** caloric._QUAD_MAX_DOUBLINGS
        weights, x = caloric._clenshaw_curtis_weights(n), np.array(caloric._lobatto(n))
        assert weights.sum() == pytest.approx(2.0, abs=1e-13)
        assert weights @ x ** 2 == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert np.all(weights > 0) and np.array_equal(weights, weights[::-1])

    def test_rejects_non_positive_temperature(self):
        model = build_single_spin_zeeman(1.0)
        with pytest.raises(NonPositiveTemperatureError):
            isothermal_entropy_change(model, 0.5, 1.5, 0.0)

    def test_rejects_infinite_temperature(self):
        # used to integrate an all-zero integrand and return 0.0
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        with pytest.raises(NonPositiveTemperatureError, match="inf"):
            isothermal_entropy_change(model, 0.5, 1.5, np.inf)


class TestAdiabaticTemperatureChange:
    def test_empty_sweep_is_exactly_zero(self):
        model = build_single_spin_zeeman(1.0)
        res = adiabatic_temperature_change(model, 1.0, 1.0, 1.0)
        assert res.value == 0.0

    def test_zeeman_exact_scaling(self):
        # pure Zeeman: S depends only on b/T, so b 1 -> 2 doubles T exactly
        model = build_single_spin_zeeman(1.0)
        res = adiabatic_temperature_change(model, 1.0, 2.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_dimer_against_matching_oracle(self):
        model = build_dimer(J=1.0, b=0.4, parameter="J")
        ode = adiabatic_temperature_change(model, 0.5, 1.5, 1.0)
        t_oracle = dimer_matching_temperature(0.5, 1.5, 1.0, b=0.4)
        assert ode.value == pytest.approx(t_oracle - 1.0, abs=1e-7)

    def test_heats_up_when_positive_coupling_grows(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        res = adiabatic_temperature_change(model, 0.5, 1.5, 1.0)
        assert res.value == pytest.approx(2.0, abs=1e-8)   # J/T invariant

    def test_path_entropy_conservation(self):
        model = build_dimer(J=1.0, b=0.4, parameter="J")
        res = adiabatic_temperature_change(model, 0.5, 1.8, 0.8)
        target = dimer_entropy(0.5, 0.8, b=0.4)
        drift = max(abs(dimer_entropy(lam, t, b=0.4) - target)
                    for lam, t in res.path)
        assert drift <= 1e-7

    @pytest.mark.parametrize("lam_i, lam_f", [(0.5037, 1.4963), (1.4963, 0.5037),
                                              (0.3, 1.7)])
    def test_path_lambdas_are_exact_grid_nodes(self, lam_i, lam_f):
        # the path is the final level's Lobatto nodes, ends exact; every node of
        # a level is, bit for bit, a node of the next, so a refinement reuses it
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        res = adiabatic_temperature_change(model, lam_i, lam_f, 1.0)
        n = 8 * 2 ** res.refinement_levels
        assert [lam for lam, _ in res.path] == caloric._nodes(lam_i, lam_f, n)
        assert res.path[0] == (lam_i, 1.0) and res.path[-1][0] == lam_f
        for level in range(8):
            n = 8 * 2 ** level
            assert caloric._nodes(lam_i, lam_f, n) == caloric._nodes(lam_i, lam_f, 2 * n)[::2]

    @pytest.mark.parametrize("lam_i, lam_f, t", [
        (0.5, 1.5, 0.08), (0.3, 2.0, 0.05), (0.5, 1.5, 0.1), (0.5, 1.5, 1.0),
        (0.5, 1.5, 10.0), (0.5, 1.5, 100.0), (0.5, 1.5, 0.003), (0.5, 1.5, 0.006),
        (0.5, 1.5, 0.02), (0.5, 1.5, 0.05), (0.5, 1.5, 2000.0)])
    def test_zero_field_dimer_isentrope_is_exact_at_every_temperature(self, lam_i, lam_f, t):
        # b = 0: S depends on J/T only, so T_f = T J_f / J_i (dT = 2T for 0.5 -> 1.5),
        # reached within 65 nodes at every temperature
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        built = []
        model = dataclasses.replace(
            model, evaluate=lambda lam, build=model.evaluate: built.append(lam) or build(lam))
        res = adiabatic_temperature_change(model, lam_i, lam_f, t)
        assert res.value == pytest.approx(t * (lam_f / lam_i - 1.0), rel=1e-10, abs=0.0)
        assert res.refinement_levels <= 3 and len(built) == len(set(built)) <= 65

    @pytest.mark.parametrize("b_i, b_f, t", [(0.01, 100.0, 0.2), (0.001, 10.0, 1.0),
                                             (100.0, 0.05, 5.0)])
    def test_long_zeeman_isentrope_is_exact(self, b_i, b_f, t):
        # T = T_start b / b_i along the whole path. Over four decades of b one
        # Chebyshev level cannot resolve ln b, and a coarse 100 -> 0.05 level
        # passes through frozen populations: both pieces are halved until
        # they converge
        res = adiabatic_temperature_change(build_single_spin_zeeman(), b_i, b_f, t)
        assert res.value == pytest.approx(t * (b_f / b_i - 1.0), rel=1e-10, abs=0.0)
        lams = [lam for lam, _ in res.path]
        assert lams[0] == b_i and lams[-1] == b_f and len(lams) > 8 * 2 ** res.refinement_levels
        assert all((x - y) * (b_f - b_i) < 0 for x, y in zip(lams, lams[1:]))

    def test_stiff_dimer_isentrope_matches_entropy_matching(self):
        # J 10 -> 0.1 at T = 5 cools to T = 0.015 on one path
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        res = adiabatic_temperature_change(model, 10.0, 0.1, 5.0)
        ref = adiabatic_temperature_change_matching(model, 10.0, 0.1, 5.0)
        assert res.value == pytest.approx(ref.value, abs=1e-9)

    @pytest.mark.parametrize("t_over_gap", [1.5e-3, 1e-2, 3e-2, 1.0, 10.0, 1e3])
    def test_field_dimer_isentrope_matches_mpmath_down_to_the_ground_state(self, t_over_gap):
        # T/gap of the zero-field gap 4 J_i = 2; at T = 0.003 p_1 is ~1e-246 (true gap 1.7)
        t = 2.0 * t_over_gap
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        res = adiabatic_temperature_change(model, 0.5, 1.5, t)
        exact = float(mp_dimer_matching_change(0.5, 1.5, t, b=0.3))
        assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert res.refinement_levels <= 3

    def test_path_through_a_flat_spectrum_names_it(self):
        # the b = 0 dimer is flat at J = 0; halving lands a node on it. S(0, T)
        # = ln 4 exceeds the start entropy at every T, so no quasi-static
        # adiabat crosses J = 0 and the ODE refuses the path; entropy
        # matching compares the endpoint states only and ignores the path
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        with pytest.raises(DegenerateVarianceError,
                           match=r"at lambda = 0, .*\(flat spectrum or populations frozen"):
            adiabatic_temperature_change(model, -0.5, 0.5, 1.0)
        res = adiabatic_temperature_change_matching(model, -0.5, 0.5, 1.0)
        assert res.value == pytest.approx(0.744696858627, abs=1e-9)

    def test_picard_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(caloric, "_PICARD_MAX_ITERATIONS", 1)
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        with pytest.raises(OdeNoConvergenceError, match="not converged after 1 iterations"):
            adiabatic_temperature_change(model, 0.5, 1.5, 1.0)

    def test_degenerate_variance_flat_spectrum(self):
        model = constant_spectrum_model(levels=(1.0, 1.0, 1.0))
        with pytest.raises(DegenerateVarianceError):
            adiabatic_temperature_change(model, 0.2, 1.8, 1.0)

    def test_degenerate_variance_frozen_populations(self):
        # at T/gap = 1e-3 the excited populations underflow to zero: var is exactly 0
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        with pytest.raises(DegenerateVarianceError,
                           match=r"var\[H\] = 0\.000e\+00 at lambda = 1, T = 0\.004 K"):
            adiabatic_temperature_change(model, 1.0, 2.0, 0.004)

    def test_rejects_infinite_start_temperature(self):
        # used to spend the whole RK4 doubling budget before failing
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        with pytest.raises(NonPositiveTemperatureError, match="inf"):
            adiabatic_temperature_change(model, 0.5, 1.5, np.inf)


class TestEntropyMatching:
    def test_identity_sweep(self):
        model = build_single_spin_zeeman(1.0)
        res = adiabatic_temperature_change_matching(model, 1.0, 1.0, 1.0)
        assert res.value == 0.0

    def test_zeeman_exact(self):
        model = build_single_spin_zeeman(1.0)
        res = adiabatic_temperature_change_matching(model, 1.0, 2.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.method == "entropy_matching"

    def test_dimer_matches_closed_form_bisection(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        res = adiabatic_temperature_change_matching(model, 1.0, 2.0, 1.0)
        target = dimer_matching_temperature(1.0, 2.0, 1.0)
        assert 1.0 + res.value == pytest.approx(target, abs=1e-8)
        assert 1.0 + res.value == pytest.approx(2.0, abs=1e-8)

    def test_oracle_equivalence_random_cases(self):
        for model, lam_i, lam_f, t in random_cases(32, 50):
            ode = adiabatic_temperature_change(model, lam_i, lam_f, t).value
            matched = adiabatic_temperature_change_matching(
                model, lam_i, lam_f, t).value
            assert abs(ode - matched) <= 1e-6

    def test_low_temperature_matches_mpmath(self):
        # T/gap ~ 0.03: the excited populations are ~1e-15, which -sum p ln p
        # dropped once p_0 rounded to 1 (1.7e-5 K off)
        model = build_dimer(J=0.5, b=0.3, parameter="J")
        res = adiabatic_temperature_change_matching(model, 0.5, 1.5, 0.05)
        exact = float(mp_dimer_matching_change(0.5, 1.5, 0.05, b=0.3))
        assert exact == pytest.approx(0.11672460389, abs=1e-11)
        assert abs(res.value - exact) <= 1e-10

    def test_bracket_failure(self):
        # target entropy of a warm spin is unreachable at a huge final field
        model = build_single_spin_zeeman(1.0)
        with pytest.raises(BracketFailureError):
            adiabatic_temperature_change_matching(model, 1.0, 1e6, 1.0)

    @pytest.mark.parametrize("t_start, bracket", [
        (1e306, r"\[1e\+303, inf\]"), (1e-306, r"\[1e-309, 1e-303\]")])
    def test_a_bracket_off_the_normal_floats_names_t_start(self, t_start, bracket):
        # T_start * 1e3 overflowed and was named as "T = inf K", a
        # temperature the caller never passed
        model = build_dimer(J=0.5, b=0.3, parameter="J")
        with pytest.raises(BracketFailureError,
                           match=re.escape(f"T_start = {t_start:g} K") + f".*{bracket} K off"):
            adiabatic_temperature_change_matching(model, 0.5, 1.5, t_start)

    def test_a_bracket_wider_than_the_float_spacing_stops(self):
        # at T_f ~ 2e6 adjacent floats are 2.3e-10 K apart, wider than the
        # 1e-10 K bracket: a loop waiting for that width never ends
        model = build_dimer(J=0.5, b=0.3, parameter="J")
        res = adiabatic_temperature_change_matching(model, 0.5, 1.5, 1e6)
        assert math.isfinite(res.value) and res.refinement_levels <= 100


# a b = 0.35 spin ring J 0.6037 -> 1.3963, as the benchmark's ring_spectra
RINGS = {sites: _ring_model(sites, 0.35) for sites in (4, 6)}
RING_MATCHING = [pytest.param(model, t, id=f"{name}-T{t:g}")
                 for name, model in [("dimer", build_dimer(J=0.5, b=0.3, parameter="J")),
                                     ("ring4", RINGS[4]), ("ring6", RINGS[6])]
                 for t in (0.3, 1.0, 3.0, 10.0)]


def ends(model):
    return (0.5, 1.5) if model.dimension == 4 else (0.6037, 1.3963)


class TestBrentMatching:
    @pytest.mark.parametrize("model, t", RING_MATCHING)
    def test_counts_its_entropy_evaluations(self, model, t, monkeypatch):
        # bisection to the same bracket takes 42-47 here
        calls = []

        def counting(shifts, temperature):
            calls.append(temperature)
            return entropy(shifts, temperature)

        entropy = caloric._entropy
        monkeypatch.setattr(caloric, "_entropy", counting)
        res = adiabatic_temperature_change_matching(model, *ends(model), t)
        # one evaluation is the target S(lambda_i, T_start)
        assert res.refinement_levels == len(calls) - 1 <= 35

    @pytest.mark.parametrize("model, t", RING_MATCHING)
    def test_agrees_with_an_eigh_bisection(self, model, t):
        lam_i, lam_f = ends(model)
        res = adiabatic_temperature_change_matching(model, lam_i, lam_f, t)
        ref = eigh_matching_temperature(model.evaluate(lam_i).matrix,
                                        model.evaluate(lam_f).matrix, t)
        assert abs(t + res.value - ref) <= 1e-10
        assert 0.0 <= res.error_estimate <= caloric._MATCH_TOL

    @pytest.mark.parametrize("b", [0.0, 0.3])
    def test_low_temperature_matches_mpmath(self, b):
        model = build_dimer(J=0.5, b=b, parameter="J")
        res = adiabatic_temperature_change_matching(model, 0.5, 1.5, 0.05)
        assert abs(res.value - float(mp_dimer_matching_change(0.5, 1.5, 0.05, b=b))) <= 1e-10

    def test_an_exact_root_on_a_flat_entropy_is_returned(self):
        # at T = 100 S(lambda_f, T) is flat to its last bit over a stretch of
        # T; the midpoint of the bracket around such a root came out 0.245 K off
        model = RINGS[4]
        res = adiabatic_temperature_change_matching(model, 0.6037, 1.3963, 100.0)
        ref = eigh_matching_temperature(model.evaluate(0.6037).matrix,
                                        model.evaluate(1.3963).matrix, 100.0)
        assert res.error_estimate == 0.0 and abs(100.0 + res.value - ref) <= 1e-9

    def test_an_exact_zero_is_returned_as_it_is(self):
        # f is 0 on all of [1, 3]: Brent's first secant step lands there
        def flat(t):
            return min(t - 1.0, 0.0) + max(t - 3.0, 0.0)

        root, width, evaluations = caloric._brent(flat, 0.0, 10.0, flat(0.0), flat(10.0))
        assert flat(root) == 0.0 and width == 0.0 and evaluations >= 1

    @pytest.mark.parametrize("root", [1e-3, 0.1, 0.7, 1.0, 42.0, 999.0])
    def test_stops_on_a_bracket_of_the_match_tolerance(self, root):
        def f(t):
            return math.log(t / root)

        got, width, evaluations = caloric._brent(f, 1e-3, 1e3, f(1e-3), f(1e3))
        assert 0.0 <= width <= caloric._MATCH_TOL
        assert abs(got - root) <= 0.5 * width and evaluations <= 60


def node_by_node(matrix, rows):
    """sum_j matrix[j] * rows[j] with one node added at a time."""
    total = matrix[0] * rows[:1]
    for weights, row in zip(matrix[1:], rows[1:]):
        total = total + weights * row
    return total


class TestWeightedSum:
    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
    @pytest.mark.parametrize("lanes", [1, 25])
    @pytest.mark.parametrize("kind", ["integration", "refinement", "clenshaw_curtis"])
    def test_equals_the_node_by_node_loop_bit_for_bit(self, n, lanes, kind):
        rng = np.random.default_rng(n + lanes)
        rows = rng.standard_normal((n + 1, lanes)) * np.exp(rng.uniform(-30, 30, (n + 1, lanes)))
        quadrature = kind == "clenshaw_curtis"
        matrix = (caloric._clenshaw_curtis_weights(n)[:, None, None] if quadrature
                  else getattr(caloric, f"_{kind}_matrix")(n))

        def columns(g):   # the quadrature sums f and |f| side by side
            return np.hstack([g, np.abs(g)]) if quadrature else g

        got = caloric._weighted_sum(matrix, columns(rows))
        assert got.tobytes() == node_by_node(matrix, columns(rows)).tobytes()
        # each lane gets the bits of its single-lane sum
        for j in (0, lanes - 1):
            alone = caloric._weighted_sum(matrix, columns(rows[:, j:j + 1]))
            assert got[:, j::lanes].tobytes() == alone.tobytes()

    def test_its_product_stays_within_one_block(self):
        # unblocked, the product of the n = 1 024 integration matrix with
        # 25 lanes holds 1 025^2 * 25 floats, 210 MB
        n, lanes = 1024, 25
        matrix, rows = caloric._integration_matrix(n), np.ones((n + 1, lanes))
        tracemalloc.start()
        try:
            out = caloric._weighted_sum(matrix, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of the product, and the two buffers of numpy's multiply
        assert peak - out.nbytes <= 8 * (caloric._SUM_BLOCK + 2 * np.getbufsize())


class TestZeemanReversibility:
    def test_field_temperature_proportionality(self):
        rng = np.random.default_rng(33)
        model = build_single_spin_zeeman(1.0)
        for _ in range(20):
            b_i, b_f = rng.uniform(0.1, 10.0, size=2)
            t_start = rng.uniform(0.5, 5.0)
            res = adiabatic_temperature_change(model, b_i, b_f, t_start)
            t_end = t_start + res.value
            assert abs(t_end / t_start - b_f / b_i) <= 1e-9 * (b_f / b_i)


class TestClassicalAdiabat:
    def test_zero_lattice_matches_quantum(self):
        model = build_single_spin_zeeman(1.0)
        quantum = adiabatic_temperature_change(model, 0.5, 1.5, 1.0).value
        classical = classical_adiabatic_temperature_change(
            model, LatticeHeatSpec(), 0.5, 1.5, 1.0).value
        assert abs(classical - quantum) <= 1e-9

    def test_huge_lattice_suppresses_change(self):
        model = build_single_spin_zeeman(1.0)
        res = classical_adiabatic_temperature_change(
            model, LatticeHeatSpec(a0=1e9), 0.5, 1.5, 1.0)
        assert abs(res.value) <= 1e-6

    def test_added_heat_capacity_shrinks_change(self):
        model = build_single_spin_zeeman(1.0)
        bare = classical_adiabatic_temperature_change(
            model, LatticeHeatSpec(), 0.5, 1.5, 1.0).value
        cubic = classical_adiabatic_temperature_change(
            model, LatticeHeatSpec(a3=1.0), 0.5, 1.5, 1.0).value
        assert abs(cubic) < abs(bare)
        assert cubic * bare > 0   # same direction, smaller magnitude

    def test_requires_field_parameter(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        with pytest.raises(NoZeemanTermError):
            classical_adiabatic_temperature_change(
                model, LatticeHeatSpec(), 0.5, 1.5, 1.0)

    def test_zero_total_heat(self):
        # at b = 0 the single-spin spectrum is flat: c_B = 0 and c_l = 0
        model = build_single_spin_zeeman(0.0)
        with pytest.raises(ZeroTotalHeatError):
            classical_adiabatic_temperature_change(
                model, LatticeHeatSpec(), 0.0, 1.0, 1.0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            LatticeHeatSpec(a0=-1.0)

    @pytest.mark.parametrize("name", ["a0", "a1", "a3"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients(self, name, value):
        with pytest.raises(ValueError, match=f"LatticeHeatSpec.{name} must be finite and >= 0"):
            LatticeHeatSpec(**{name: value})


class TestSignStructure:
    def test_standard_caloric_effect(self):
        # growing antiferromagnetic coupling rejects heat: dS < 0
        for j_i, j_f in [(0.5, 1.5), (0.2, 0.8), (1.0, 3.0)]:
            model = build_dimer(J=j_i, b=0.0, parameter="J")
            for t in np.linspace(0.2, 5.0, 20):
                assert isothermal_entropy_change(model, j_i, j_f, t).value < 0

    def test_inverse_caloric_effect(self):
        # weakening ferromagnetic coupling absorbs heat: dS > 0
        for j_i, j_f in [(-1.5, -0.5), (-3.0, -1.0), (-0.8, -0.2)]:
            model = build_dimer(J=j_i, b=0.0, parameter="J")
            for t in np.linspace(0.2, 5.0, 20):
                assert isothermal_entropy_change(model, j_i, j_f, t).value > 0
