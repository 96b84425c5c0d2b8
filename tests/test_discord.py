import mpmath
import numpy as np
import pytest

from qcaloric.caloric import isothermal_entropy_change
from qcaloric.discord import (
    CorrelationRecord,
    discord_from_correlation,
    discord_from_susceptibility,
    discord_temperature_derivative,
    entropy_change_from_discord,
    pair_correlation,
)
from qcaloric.errors import (
    AnisotropicStateError,
    NegativeSusceptibilityError,
    NonPositiveTemperatureError,
    SignCrossingError,
)
from qcaloric.models import build_dimer
from qcaloric.thermal import zero_field_susceptibility

from oracles import dimer_correlation, dimer_entropy


class TestPairCorrelation:
    def test_high_temperature_uncorrelated(self):
        rec = pair_correlation(1.0, 1e6)
        assert abs(rec.mean_correlation) <= 1e-5

    def test_reference_point(self):
        rec = pair_correlation(1.0, 1.0)
        assert rec.mean_correlation == pytest.approx(
            dimer_correlation(1.0, 1.0), abs=1e-12)
        assert rec.mean_correlation == pytest.approx(-0.9305533251033541, abs=1e-10)

    def test_singlet_limit(self):
        rec = pair_correlation(1.0, 0.02)
        assert rec.mean_correlation == pytest.approx(-1.0, abs=1e-12)

    def test_triplet_limit(self):
        rec = pair_correlation(-1.0, 0.02)
        assert rec.mean_correlation == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_isotropy(self):
        for j in (-1.3, 0.4, 2.0):
            for t in (0.2, 1.0, 8.0):
                rec = pair_correlation(j, t)
                assert rec.isotropy_defect <= 1e-10

    def test_range_constraints(self):
        for j in np.linspace(-2.0, 2.0, 9):
            if j == 0.0:
                continue
            for t in np.geomspace(0.1, 10.0, 8):
                rec = pair_correlation(j, t)
                c = rec.mean_correlation
                if j > 0:
                    assert -1.0 - 1e-12 <= c <= 1e-12
                else:
                    assert -1e-12 <= c <= 1.0 / 3.0 + 1e-12
                assert 0.0 <= rec.discord <= 0.5 + 1e-12

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            pair_correlation(1.0, 0.0)


class TestDiscordFromCorrelation:
    def test_uncorrelated_gives_zero(self):
        rec = CorrelationRecord(J=1.0, T=1.0, c_x=0.0, c_y=0.0, c_z=0.0,
                                discord=0.0)
        assert discord_from_correlation(rec) == 0.0

    def test_reference_point(self):
        d = discord_from_correlation(pair_correlation(1.0, 1.0))
        assert d == pytest.approx(abs(dimer_correlation(1.0, 1.0)) / 2.0, abs=1e-12)
        assert d == pytest.approx(0.46528, abs=1e-4)

    def test_ferromagnetic_low_temperature_limit(self):
        d = discord_from_correlation(pair_correlation(-1.0, 0.02))
        assert d == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_anisotropic_state_rejected(self):
        rec = CorrelationRecord(J=1.0, T=1.0, c_x=-0.5, c_y=-0.5, c_z=-0.3,
                                discord=0.0)
        with pytest.raises(AnisotropicStateError):
            discord_from_correlation(rec)


class TestDiscordFromSusceptibility:
    def test_uncorrelated_fixed_point(self):
        assert discord_from_susceptibility(0.5 / 1.0, 1.0) == 0.0

    def test_matches_correlation_route(self):
        model = build_dimer(J=1.0, b=0.0, parameter="b")
        chi = zero_field_susceptibility(model, 1.0)
        d_chi = discord_from_susceptibility(chi, 1.0)
        d_corr = discord_from_correlation(pair_correlation(1.0, 1.0))
        assert abs(d_chi - d_corr) <= 1e-10

    def test_singlet_limit(self):
        assert discord_from_susceptibility(0.0, 1.0) == 0.5

    def test_rejects_negative_susceptibility(self):
        with pytest.raises(NegativeSusceptibilityError):
            discord_from_susceptibility(-0.1, 1.0)

    def test_route_equivalence_grid(self):
        for j in np.linspace(-2.0, 2.0, 20):
            if j == 0.0:
                continue
            model = build_dimer(J=j, b=0.0, parameter="b")
            for t in np.linspace(0.3, 4.0, 20):
                d_corr = discord_from_correlation(pair_correlation(j, t))
                d_chi = discord_from_susceptibility(
                    zero_field_susceptibility(model, t), t)
                assert abs(d_corr - d_chi) <= 1e-10


class TestDiscordMonotonicity:
    @pytest.mark.parametrize("j", [-2.0, -0.5, 0.5, 2.0])
    def test_non_increasing_in_temperature(self, j):
        scale = abs(4.0 * j)
        ts = np.geomspace(0.05 * scale, 50.0 * scale, 40)
        values = [pair_correlation(j, t).discord for t in ts]
        assert np.all(np.diff(values) <= 1e-12)

    def test_derivative_sign(self):
        for j in (-1.0, 0.7, 2.0):
            assert discord_temperature_derivative(j, 1.0) <= 0.0


def discord_slope_mp(J, T):
    """dD/dT of the zero-field dimer to 40 digits: the singlet (-3J, sigma1.sigma2
    = -3) and the triplet (J, +1) weighted in closed form, c = <sigma1.sigma2>/3,
    D = |c| / 2 differentiated numerically at high precision."""
    with mpmath.workdps(40):
        J, T = mpmath.mpf(J), mpmath.mpf(T)

        def discord(t):
            singlet, triplet = mpmath.exp(3 * J / t), 3 * mpmath.exp(-J / t)
            return abs((-3 * singlet + triplet) / (singlet + triplet) / 3) / 2

        return float(mpmath.diff(discord, T))


class TestDiscordDerivativeOracle:
    @pytest.mark.parametrize("J, T", [(-1.3, 0.2), (-1.3, 0.1), (-2.0, 0.2), (0.7, 0.1),
                                      (-1.3, 1.0), (2.0, 3.0)])
    def test_matches_a_40_digit_closed_form(self, J, T):
        # at J = -1.3, T = 0.2 the raw moments <AE> - <A><E> cancelled to a
        # residue that summation order alone moved by 4.7e-6 relative
        exact = discord_slope_mp(J, T)
        assert discord_temperature_derivative(J, T) == pytest.approx(exact, rel=1e-9, abs=0.0)


class TestEntropyChangeFromDiscord:
    def test_identity_sweep(self):
        assert entropy_change_from_discord(1.0, 1.0, 1.0) == 0.0

    def test_antiferromagnetic_sweep_matches_direct_entropy(self):
        value = entropy_change_from_discord(0.5, 1.5, 1.0)
        expected = abs(dimer_entropy(1.5, 1.0) - dimer_entropy(0.5, 1.0))
        assert expected == pytest.approx(0.8665868208157552)
        assert value == pytest.approx(expected, abs=1e-6)

    def test_ferromagnetic_sweep_and_inverse_sign(self):
        value = entropy_change_from_discord(-1.5, -0.5, 1.0)
        expected = abs(dimer_entropy(-0.5, 1.0) - dimer_entropy(-1.5, 1.0))
        assert value == pytest.approx(expected, abs=1e-6)
        # the signed route marks this sweep as heat-absorbing
        model = build_dimer(J=-1.5, b=0.0, parameter="J")
        signed = isothermal_entropy_change(model, -1.5, -0.5, 1.0).value
        assert signed > 0
        assert value == pytest.approx(abs(signed), abs=1e-6)

    def test_magnitude_identity_random_sweeps(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            j_a, j_b = np.sort(rng.uniform(0.2, 2.5, size=2))
            if j_b - j_a < 0.05:
                j_b += 0.1
            j_i, j_f = sign * j_a, sign * j_b
            t = rng.uniform(0.3, 3.0)
            model = build_dimer(J=j_i, b=0.0, parameter="J")
            from_discord = entropy_change_from_discord(j_i, j_f, t)
            from_maxwell = abs(isothermal_entropy_change(model, j_i, j_f, t).value)
            assert abs(from_discord - from_maxwell) <= 1e-6

    def test_sign_crossing_rejected(self):
        with pytest.raises(SignCrossingError):
            entropy_change_from_discord(-0.5, 0.5, 1.0)
        with pytest.raises(SignCrossingError):
            entropy_change_from_discord(0.0, 1.0, 1.0)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            entropy_change_from_discord(0.5, 1.5, -1.0)
