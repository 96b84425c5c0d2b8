import numpy as np
import pytest

from qcaloric.caloric import adiabatic_temperature_change
from qcaloric.errors import (
    DimensionMismatchError,
    EmptyPathError,
    NonPositiveTemperatureError,
    NoZeemanTermError,
)
from qcaloric.linalg import kron, spin_half_operators
from qcaloric.models import (
    SpectrumTable,
    build_dimer,
    build_single_spin_zeeman,
    build_tabulated,
)
from qcaloric.thermal import (
    magnetization,
    process_decompose,
    thermal_average,
    thermal_state,
    thermo_point,
    zero_field_susceptibility,
)

from oracles import (
    dimer_correlation,
    dimer_entropy,
    dimer_exchange_average,
    dimer_zero_field_chi,
    schottky_specific_heat,
    spin_internal_energy,
    spin_magnetization,
)


def two_level_model(gap=2.0):
    """Tabulated two-level system with a constant gap, levels +-gap/2."""
    grid = np.array([0.0, 1.0, 2.0])
    rows = np.tile([-gap / 2.0, gap / 2.0], (3, 1))
    return build_tabulated(SpectrumTable(grid, rows))


class TestThermalState:
    def test_infinite_temperature_equipartition(self):
        state = thermal_state(two_level_model(2.0), 1.0, 1e6)
        assert np.allclose(state.populations, [0.5, 0.5], atol=1e-5)

    def test_ground_state_saturation(self):
        state = thermal_state(two_level_model(2.0), 1.0, 1e-6)
        assert abs(state.populations[0] - 1.0) <= 1e-12
        assert state.populations[1] == 0.0

    def test_dimer_populations(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        state = thermal_state(model, 1.0, 1.0)
        assert state.populations[0] == pytest.approx(0.9479149938275155, abs=1e-12)
        assert np.allclose(state.populations[1:], 0.01736166872416146, atol=1e-12)

    def test_populations_normalized_and_monotone(self):
        model = build_dimer(J=0.8, b=0.4, parameter="J")
        for t in (0.05, 0.5, 5.0, 5e5):
            state = thermal_state(model, 0.8, t)
            assert abs(state.populations.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(state.populations) <= 1e-15)

    def test_rejects_non_positive_temperature(self):
        model = build_single_spin_zeeman(1.0)
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTemperatureError):
                thermal_state(model, 1.0, t)


class TestThermoPoint:
    def test_degenerate_levels_give_ln_n(self):
        grid = np.array([0.0, 1.0, 2.0])
        rows = np.tile([1.5, 1.5, 1.5, 1.5, 1.5], (3, 1))
        model = build_tabulated(SpectrumTable(grid, rows))
        for t in (0.1, 1.0, 100.0):
            pt = thermo_point(thermal_state(model, 1.0, t))
            assert pt.entropy == pytest.approx(np.log(5), abs=1e-12)

    def test_schottky_specific_heat(self):
        pt = thermo_point(thermal_state(two_level_model(2.0), 1.0, 1.0))
        expected = schottky_specific_heat(2.0, 1.0)
        assert expected == pytest.approx(0.4199743416140261)
        assert pt.specific_heat == pytest.approx(expected, rel=1e-12)
        # finite-difference cross-check dU/dT
        h = 1e-5
        u_plus = thermo_point(thermal_state(two_level_model(2.0), 1.0, 1.0 + h))
        u_minus = thermo_point(thermal_state(two_level_model(2.0), 1.0, 1.0 - h))
        fd = (u_plus.internal_energy - u_minus.internal_energy) / (2 * h)
        assert pt.specific_heat == pytest.approx(fd, rel=1e-7)

    def test_dimer_entropy(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        pt = thermo_point(thermal_state(model, 1.0, 1.0))
        assert pt.entropy == pytest.approx(dimer_entropy(1.0, 1.0), abs=1e-13)
        assert pt.entropy == pytest.approx(0.2618304743958712, abs=1e-12)

    def test_free_energy_identity(self):
        model = build_dimer(J=1.3, b=0.4, parameter="J")
        for t in (0.2, 1.0, 7.0):
            pt = thermo_point(thermal_state(model, 1.3, t))
            assert abs(pt.free_energy - (pt.internal_energy - t * pt.entropy)) \
                <= 1e-10 * max(1.0, abs(pt.internal_energy))

    def test_non_negative_invariants(self):
        model = build_dimer(J=-0.9, b=0.2, parameter="b")
        for t in (0.05, 0.7, 30.0):
            pt = thermo_point(thermal_state(model, 0.2, t))
            assert pt.entropy >= 0
            assert pt.specific_heat >= 0
            assert pt.energy_variance >= 0

    def test_specific_heat_consistency_sampled(self):
        # C = T dS/dT = dU/dT on random points, central differences
        rng = np.random.default_rng(3)
        cases = [
            (build_dimer(J=1.0, b=0.3, parameter="J"), 0.3, 2.0),
            (build_dimer(J=0.8, b=0.5, parameter="b"), 0.2, 1.5),
            (build_single_spin_zeeman(1.0), 0.2, 3.0),
        ]
        count = 0
        for model, lo, hi in cases:
            for _ in range(34):
                lam = rng.uniform(lo, hi)
                t = rng.uniform(0.4, 4.0)
                h = 1e-4 * t
                c = thermo_point(thermal_state(model, lam, t)).specific_heat
                s_p = thermo_point(thermal_state(model, lam, t + h)).entropy
                s_m = thermo_point(thermal_state(model, lam, t - h)).entropy
                u_p = thermo_point(thermal_state(model, lam, t + h)).internal_energy
                u_m = thermo_point(thermal_state(model, lam, t - h)).internal_energy
                scale = max(abs(c), 1e-10)
                assert abs(c - t * (s_p - s_m) / (2 * h)) <= 1e-5 * scale
                assert abs(c - (u_p - u_m) / (2 * h)) <= 1e-5 * scale
                count += 1
        assert count >= 100

    def test_entropy_monotone_in_temperature(self):
        model = build_dimer(J=1.0, b=0.4, parameter="J")
        ts = np.geomspace(0.05, 50.0, 40)
        entropies = [thermo_point(thermal_state(model, 1.0, t)).entropy for t in ts]
        assert np.all(np.diff(entropies) >= -1e-12)


class TestThermalAverage:
    def test_identity_normalization(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        state = thermal_state(model, 1.0, 1.0)
        assert thermal_average(state, np.eye(4, dtype=complex)) == pytest.approx(1.0, abs=1e-14)

    def test_hamiltonian_self_consistency(self):
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        state = thermal_state(model, 1.0, 0.7)
        pt = thermo_point(state)
        avg = thermal_average(state, model.evaluate(1.0))
        assert abs(avg - pt.internal_energy) <= 1e-12

    def test_exchange_average(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        state = thermal_state(model, 1.0, 1.0)
        _, _, _, sx, sy, sz = spin_half_operators()
        exchange = kron(sx, sx) + kron(sy, sy) + kron(sz, sz)
        expected = dimer_exchange_average(1.0, 1.0)
        assert expected == pytest.approx(3.0 * dimer_correlation(1.0, 1.0))
        assert thermal_average(state, exchange) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-2.791659975310062)

    def test_dimension_mismatch(self):
        model = build_single_spin_zeeman(1.0)
        state = thermal_state(model, 1.0, 1.0)
        with pytest.raises(DimensionMismatchError):
            thermal_average(state, np.eye(4, dtype=complex))

    def test_hellmann_feynman_identity(self):
        # <dH/dlambda> via the operator equals the population-weighted
        # finite-difference eigenvalue derivatives
        rng = np.random.default_rng(4)
        cases = [
            (build_dimer(J=1.0, b=0.3, parameter="J"), 0.3, 2.0),
            (build_dimer(J=0.8, b=0.5, parameter="b"), 0.2, 1.5),
            (build_single_spin_zeeman(1.0), 0.2, 3.0),
        ]
        for model, lo, hi in cases:
            for _ in range(20):
                lam = rng.uniform(lo, hi)
                t = rng.uniform(0.3, 3.0)
                state = thermal_state(model, lam, t)
                operator_route = thermal_average(state, model.derivative(lam))
                h = 1e-5 * max(1.0, abs(lam))
                e_plus = thermal_state(model, lam + h, t).spectrum.values
                e_minus = thermal_state(model, lam - h, t).spectrum.values
                fd_route = float(np.dot(state.populations,
                                        (e_plus - e_minus) / (2 * h)))
                assert abs(operator_route - fd_route) \
                    <= 1e-6 * max(abs(operator_route), 1e-8)


class TestMagnetization:
    def test_zero_field_symmetry(self):
        model = build_dimer(J=1.0, b=0.0, parameter="b")
        state = thermal_state(model, 0.0, 1.0)
        assert abs(magnetization(state, model)) <= 1e-12

    def test_single_spin_tanh(self):
        model = build_single_spin_zeeman(1.0)
        state = thermal_state(model, 1.0, 1.0)
        assert magnetization(state, model) == pytest.approx(
            spin_magnetization(1.0, 1.0), abs=1e-13)
        assert spin_magnetization(1.0, 1.0) == pytest.approx(0.23105857863000487)

    def test_saturation(self):
        model = build_single_spin_zeeman(1.0)
        state = thermal_state(model, 1e4, 1.0)
        assert magnetization(state, model) == pytest.approx(0.5, abs=1e-12)

    def test_no_zeeman_term(self):
        grid = np.array([0.0, 1.0, 2.0])
        model = build_tabulated(SpectrumTable(grid, np.zeros((3, 2))))
        state = thermal_state(model, 1.0, 1.0)
        with pytest.raises(NoZeemanTermError):
            magnetization(state, model)


class TestZeroFieldSusceptibility:
    def test_curie_law(self):
        model = build_single_spin_zeeman(1.0)
        for t in (0.3, 1.0, 4.0):
            assert zero_field_susceptibility(model, t) == pytest.approx(
                1.0 / (4.0 * t), rel=1e-12)

    def test_dimer_value(self):
        model = build_dimer(J=1.0, b=0.0, parameter="b")
        chi = zero_field_susceptibility(model, 1.0)
        assert chi == pytest.approx(dimer_zero_field_chi(1.0, 1.0), rel=1e-12)
        assert chi == pytest.approx(0.03472333744832292, abs=1e-10)
        # fluctuation identity 2*T*chi = 1 + c_z
        assert 2.0 * chi == pytest.approx(1.0 + dimer_correlation(1.0, 1.0),
                                          abs=1e-12)

    def test_high_temperature_free_spins(self):
        model = build_dimer(J=1.0, b=0.0, parameter="b")
        t = 1e6
        assert t * zero_field_susceptibility(model, t) == pytest.approx(0.5, abs=1e-5)

    def test_requires_field_parameter(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        with pytest.raises(NoZeemanTermError):
            zero_field_susceptibility(model, 1.0)

    def test_rejects_non_positive_temperature(self):
        model = build_single_spin_zeeman(1.0)
        with pytest.raises(NonPositiveTemperatureError):
            zero_field_susceptibility(model, 0.0)


class TestProcessDecompose:
    def test_isochoric_work_is_exactly_zero(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        d = process_decompose(model, [(1.0, 0.5), (1.0, 2.5)])
        assert d.work == 0.0
        assert d.heat == pytest.approx(d.energy_change, abs=1e-12)

    def test_first_law_closure_single_spin(self):
        model = build_single_spin_zeeman(1.0)
        d = process_decompose(model, [(1.0, 1.0), (2.0, 1.0)])
        expected_du = spin_internal_energy(2.0, 1.0) - spin_internal_energy(1.0, 1.0)
        assert d.energy_change == pytest.approx(expected_du, abs=1e-12)
        assert abs(d.energy_change - (d.work + d.heat)) \
            <= 1e-8 * max(1.0, abs(d.energy_change))

    def test_heat_vanishes_along_adiabat(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        adiabat = adiabatic_temperature_change(model, 0.6, 1.4, 1.0)
        d = process_decompose(model, adiabat.path)
        assert abs(d.heat) <= 1e-6
        assert abs(d.energy_change - (d.work + d.heat)) \
            <= 1e-8 * max(1.0, abs(d.energy_change))

    def test_step_records_sum_to_totals(self):
        model = build_single_spin_zeeman(1.0)
        d = process_decompose(model, [(0.5, 1.0), (1.0, 1.5), (2.0, 1.0)])
        assert d.work == pytest.approx(float(np.sum(d.work_steps)), abs=1e-15)
        assert d.heat == pytest.approx(float(np.sum(d.heat_steps)), abs=1e-15)

    def test_empty_path(self):
        model = build_single_spin_zeeman(1.0)
        with pytest.raises(EmptyPathError):
            process_decompose(model, [(1.0, 1.0)])

    def test_non_positive_temperature_in_path(self):
        model = build_single_spin_zeeman(1.0)
        with pytest.raises(NonPositiveTemperatureError):
            process_decompose(model, [(1.0, 1.0), (2.0, 0.0)])

    def test_infinite_temperature_in_path(self):
        # interpolating inf used to surface as "T = nan K"
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        for path in ([(0.5, np.inf), (1.5, np.inf)], [(0.5, 1.0), (1.5, np.inf)]):
            with pytest.raises(NonPositiveTemperatureError, match="inf K"):
                process_decompose(model, path)
