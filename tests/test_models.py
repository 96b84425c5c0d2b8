import numpy as np
import pytest

from qcaloric import linalg, models
from qcaloric.errors import (
    GridTooSmallError,
    NonFiniteParameterError,
    NonMonotoneGridError,
    OutOfRangeError,
)
from qcaloric.linalg import hermitian_eigen, spin_half_operators
from qcaloric.models import (
    SpectrumTable,
    UnitSystem,
    build_dimer,
    build_single_spin_zeeman,
    build_tabulated,
)
from qcaloric.thermal import thermal_state, thermo_point

from oracles import dimer_levels


def spectrum_of(model, lam):
    return hermitian_eigen(model.evaluate(lam)).values


class TestDimer:
    def test_heisenberg_spectrum(self):
        model = build_dimer(J=1.0, b=0.0, parameter="J")
        assert np.allclose(spectrum_of(model, 1.0), [-3.0, 1.0, 1.0, 1.0],
                           atol=1e-12)

    def test_zeeman_ladder(self):
        model = build_dimer(J=0.0, b=2.0, parameter="b")
        assert np.allclose(spectrum_of(model, 2.0), [-2.0, 0.0, 0.0, 2.0],
                           atol=1e-12)

    @pytest.mark.parametrize("J,b", [(0.7, 0.0), (1.3, 0.4), (-0.9, 1.1)])
    def test_levels_match_analytic_scheme(self, J, b):
        model = build_dimer(J=J, b=b, parameter="J")
        assert np.allclose(spectrum_of(model, J), np.sort(dimer_levels(J, b)),
                           atol=1e-12)

    def test_exchange_derivative_is_lambda_independent(self):
        model = build_dimer(J=1.0, b=0.3, parameter="J")
        d1 = model.derivative(0.2).matrix
        d2 = model.derivative(5.0).matrix
        assert np.array_equal(d1, d2)
        # dH/dJ is the bare exchange operator
        assert np.allclose(hermitian_eigen(model.derivative(1.0)).values,
                           [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_field_derivative(self):
        model = build_dimer(J=1.0, b=0.5, parameter="b")
        Sz = spin_half_operators()[2]
        eye = np.eye(2, dtype=complex)
        expected = -(np.kron(Sz, eye) + np.kron(eye, Sz))
        assert np.allclose(model.derivative(0.5).matrix, expected, atol=0)

    def test_frozen_parameter_recorded(self):
        assert build_dimer(J=1.0, b=0.7, parameter="J").frozen_params == {"b": 0.7}
        assert build_dimer(J=1.2, b=0.7, parameter="b").frozen_params == {"J": 1.2}

    def test_bad_parameter_name(self):
        with pytest.raises(ValueError):
            build_dimer(J=1.0, b=0.0, parameter="x")

    @pytest.mark.parametrize("J,b,parameter,name", [
        (1.0, np.inf, "J", "b"), (np.nan, 0.3, "b", "J"),
        (-np.inf, 0.3, "J", "J"), (1.0, np.nan, "b", "b")])
    def test_non_finite_inputs_are_rejected_by_name(self, J, b, parameter, name):
        # rejected at construction, before any arithmetic (a RuntimeWarning is an error)
        with pytest.raises(NonFiniteParameterError, match=f"^{name} = "):
            build_dimer(J=J, b=b, parameter=parameter)

    def test_builds_make_no_kronecker_product(self, monkeypatch):
        # the constant operators are built and validated once, at import
        def forbidden(*args):
            raise AssertionError("kron called by a model build")

        for module in (np, linalg, models):
            monkeypatch.setattr(module, "kron", forbidden)
        for model in (build_dimer(J=1.0, b=0.3, parameter="J"),
                      build_dimer(J=0.8, b=0.5, parameter="b"),
                      build_single_spin_zeeman(0.4)):
            model.evaluate(0.7)
            for op in (model.derivative(0.7), model.magnetization_operator):
                assert not op.matrix.flags.writeable
                with pytest.raises(ValueError):
                    op.matrix[0, 0] = 1.0
        first, second = (build_dimer(J=j, b=0.0, parameter="J") for j in (0.5, 1.5))
        assert first.derivative(0.0) is second.derivative(1.0)
        assert first.magnetization_operator is second.magnetization_operator


class TestSingleSpin:
    def test_spectrum(self):
        model = build_single_spin_zeeman(1.0)
        assert np.allclose(spectrum_of(model, 1.0), [-0.5, 0.5], atol=1e-15)

    def test_degenerate_at_zero_field(self):
        model = build_single_spin_zeeman()
        assert np.array_equal(spectrum_of(model, 0.0), [0.0, 0.0])

    @pytest.mark.parametrize("b", [np.nan, np.inf])
    def test_non_finite_field_is_rejected(self, b):
        with pytest.raises(NonFiniteParameterError, match="^b = "):
            build_single_spin_zeeman(b)

    def test_derivative_is_minus_sz(self):
        model = build_single_spin_zeeman(1.0)
        Sz = spin_half_operators()[2]
        assert np.array_equal(model.derivative(3.0).matrix, -Sz)


class TestTabulated:
    def make_table(self):
        return SpectrumTable(
            lambda_grid=np.array([0.0, 1.0, 2.0]),
            energies=np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))

    def test_linear_interpolation(self):
        model = build_tabulated(self.make_table())
        assert np.allclose(model.evaluate(0.5).matrix,
                           np.diag([0.0, 1.5]), atol=0)

    def test_derivative_at_node_is_central_difference(self):
        model = build_tabulated(self.make_table())
        assert np.allclose(model.derivative(1.0).matrix,
                           np.diag([0.0, 1.0]), atol=0)

    def test_no_extrapolation(self):
        model = build_tabulated(self.make_table())
        with pytest.raises(OutOfRangeError):
            model.evaluate(2.5)
        with pytest.raises(OutOfRangeError):
            model.derivative(-0.1)

    @pytest.mark.parametrize("read", ["evaluate", "derivative"])
    def test_nan_is_out_of_range(self, read):
        # NaN passed the range check and met a bare ValueError on the matrix
        model = build_tabulated(self.make_table())
        with pytest.raises(OutOfRangeError, match=r"lambda = nan outside tabulated range \[0, 2\]"):
            getattr(model, read)(np.nan)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            SpectrumTable(lambda_grid=np.array([0.0, 1.0]),
                          energies=np.zeros((2, 2)))

    def test_non_monotone_grid(self):
        with pytest.raises(NonMonotoneGridError):
            SpectrumTable(lambda_grid=np.array([0.0, 2.0, 1.0]),
                          energies=np.zeros((3, 2)))

    def test_row_shape_mismatch(self):
        with pytest.raises(ValueError):
            SpectrumTable(lambda_grid=np.array([0.0, 1.0, 2.0]),
                          energies=np.zeros((2, 2)))

    def test_no_magnetization_operator(self):
        assert build_tabulated(self.make_table()).magnetization_operator is None


class TestDerivativeConsistency:
    """Central finite differences of evaluate() match derivative()."""

    def cases(self):
        grid = np.linspace(0.0, 2.0, 9)
        rows = np.column_stack([0.3 * grid ** 1, 1.0 - 0.4 * grid, 0.1 * grid])
        return [
            (build_dimer(J=1.0, b=0.3, parameter="J"), 0.2, 2.0),
            (build_dimer(J=0.8, b=0.5, parameter="b"), 0.2, 1.8),
            (build_single_spin_zeeman(1.0), 0.2, 3.0),
            (build_tabulated(SpectrumTable(grid, rows)), 0.05, 1.95),
        ]

    def test_ten_sampled_lambdas_per_builder(self):
        for model, lo, hi in self.cases():
            for lam in np.linspace(lo + 0.013, hi - 0.013, 10):
                h = 1e-5 * max(1.0, abs(lam))
                fd = (model.evaluate(lam + h).matrix
                      - model.evaluate(lam - h).matrix) / (2.0 * h)
                an = model.derivative(lam).matrix
                scale = max(float(np.max(np.abs(an))), 1.0)
                assert np.max(np.abs(fd - an)) <= 1e-6 * scale


class TestDimerParamagnetEquivalence:
    def test_per_spin_entropy_identical_at_zero_coupling(self):
        dimer = build_dimer(J=0.0, b=1.0, parameter="b")
        single = build_single_spin_zeeman(1.0)
        for b in np.linspace(0.1, 3.0, 6):
            for t in np.geomspace(0.2, 5.0, 6):
                s_pair = thermo_point(thermal_state(dimer, b, t)).entropy
                s_one = thermo_point(thermal_state(single, b, t)).entropy
                assert abs(s_pair / 2.0 - s_one) <= 1e-10


class TestUnitSystem:
    def test_field_conversion_roundtrip(self):
        units = UnitSystem()
        b = units.field_to_kelvin(1.0)
        assert b == pytest.approx(2.0 * 0.6717)
        assert units.kelvin_to_field(b) == pytest.approx(1.0)

    def test_constants_positive(self):
        with pytest.raises(ValueError):
            UnitSystem(g=-2.0)

    @pytest.mark.parametrize("g", [np.inf, np.nan])
    def test_g_must_be_finite(self, g):
        with pytest.raises(ValueError, match="UnitSystem.g"):
            UnitSystem(g=g)

    def test_molar_susceptibility_reduction_recovers_curie(self):
        # free spin-1/2: chi_molar = N_A (g mu_B)^2 / (4 k_B T)
        units = UnitSystem()
        mu_b = units.mu_B_over_kB * units.k_B_SI
        temperature = 2.0
        chi_molar = units.N_A * (units.g * mu_b) ** 2 / (4 * units.k_B_SI * temperature)
        reduced = units.reduce_molar_susceptibility(chi_molar)
        assert reduced == pytest.approx(1.0 / (4.0 * temperature), rel=1e-12)
