"""Equilibrium statistical mechanics on a diagonalized H(lambda).

Populations and the log-partition function use max-shifted exponentials so
that T -> 0+ and large level spacings neither overflow nor lose the ground
state. All quantities are per system (dimer or single spin): energies in
kelvin, entropy and specific heat in k_B units.

Temperature derivatives are available analytically through diagonal
covariances, d<A>/dT = Cov(A, H) / T^2, which holds for any observable
evaluated through its energy-basis diagonal in a canonical state. Every
route reads the one population formula (``_boltzmann``) and the one moment
formula (``_moments``: <E>, <A>, var[H], Cov(A, H)), over temperature lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyPathError,
    NonFiniteParameterError,
    NonPositiveTemperatureError,
    NoZeemanTermError,
)
from .linalg import EigenDecomposition, HermitianOperator, eigenbasis_diagonal, hermitian_eigen
from .models import ParamHamiltonian

# populations below this are clamped to exact zero before entropy sums
_POPULATION_FLOOR = 1e-300


@dataclass(frozen=True)
class ThermalState:
    """Canonical state of H(lambda) at temperature T.

    ``populations`` are the Boltzmann weights ordered like ``spectrum``
    (ascending energies, hence non-increasing populations);
    ``log_partition`` is ln Z.
    """

    temperature: float
    lam: float
    populations: np.ndarray
    log_partition: float
    spectrum: EigenDecomposition
    model: ParamHamiltonian

    def __post_init__(self):
        self.populations.setflags(write=False)


@dataclass(frozen=True)
class ThermodynamicPoint:
    """Equilibrium scalars at one (lambda, T).

    ``internal_energy`` U and ``free_energy`` F in kelvin, ``entropy`` S and
    ``specific_heat`` C in k_B units, ``energy_variance`` var[H] in kelvin^2,
    ``generalized_force`` Y = -<dH/dlambda> in kelvin per unit lambda.
    """

    temperature: float
    lam: float
    internal_energy: float
    entropy: float
    free_energy: float
    specific_heat: float
    energy_variance: float
    generalized_force: float


@dataclass(frozen=True)
class ProcessDecomposition:
    """First-law split of a discretized process.

    ``work`` accumulates the population-weighted level shifts and ``heat``
    the level-weighted population shifts; ``energy_change`` is the exact
    endpoint difference of U. ``work_steps`` / ``heat_steps`` record the
    per-segment contributions at the final refinement.
    """

    work: float
    heat: float
    energy_change: float
    work_steps: np.ndarray
    heat_steps: np.ndarray

    def __post_init__(self):
        self.work_steps.setflags(write=False)
        self.heat_steps.setflags(write=False)


def _require_temperature(temperature: float, name: str = "T") -> None:
    """Raise NonPositiveTemperatureError unless 0 < T < inf (NaN fails too)."""
    if not 0 < temperature < math.inf:
        raise NonPositiveTemperatureError(
            f"{name} = {temperature:g} K must be finite and > 0")


def _require_lambda(*values: float) -> None:
    """Raise NonFiniteParameterError unless every lambda is finite."""
    for lam in values:
        if not math.isfinite(lam):
            raise NonFiniteParameterError(f"lambda = {lam:g} must be finite")


def _boltzmann(shifts: np.ndarray, temperatures):
    """Populations exp(shift / T) / Z0 and Z0 for shifts E_min - E <= 0 and one T
    or a column of them; each lane is summed along its own row."""
    weights = np.exp(shifts / temperatures)
    z0 = np.add.reduce(weights, -1, keepdims=True)
    populations = weights / z0
    populations[populations < _POPULATION_FLOOR] = 0.0
    return populations, z0


def populations_from_levels(levels: np.ndarray, temperature: float):
    """(populations, ln Z): Boltzmann weights of a level list, max-shifted."""
    _require_temperature(temperature)
    e_min = float(np.min(levels))
    populations, z0 = _boltzmann(e_min - levels, temperature)
    return populations, float(np.log(z0[0]) - e_min / temperature)


def thermal_state(model: ParamHamiltonian, lam: float, temperature: float) -> ThermalState:
    """Diagonalize H(lambda) and populate it canonically at T.

    Raises
    ------
    NonPositiveTemperatureError
        If T is not finite and > 0.
    NonFiniteParameterError
    """
    _require_lambda(lam)
    spectrum = hermitian_eigen(model.evaluate(lam))
    populations, log_z = populations_from_levels(spectrum.values, temperature)
    return ThermalState(
        temperature=float(temperature),
        lam=float(lam),
        populations=populations,
        log_partition=log_z,
        spectrum=spectrum,
        model=model,
    )


def entropy_from_populations(populations: np.ndarray) -> float:
    """Shannon entropy -sum p ln p in k_B units, with 0 ln 0 := 0."""
    p = populations[populations > 0.0]
    return max(float(-np.sum(p * np.log(p))), 0.0)


def _spectral_rows(levels: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """E, an observable's energy-basis diagonal A, E^2, A*E and E_0 - E."""
    return np.array((levels, diag, levels ** 2, diag * levels, levels[0] - levels))


def _moments(p: np.ndarray, rows: np.ndarray):
    """(<E>, <A>, var[H] = <E^2> - <E>^2 clamped at 0, Cov(A, H) = <AE> - <A><E>)
    for one lane's populations ``p`` or one row per lane."""
    means = np.add.reduce(p[..., None, :] * rows[:4], -1)   # <E>, <A>, <E^2>, <AE>
    central = means[..., 2:] - means[..., :2] * means[..., :1]
    return means[..., 0], means[..., 1], np.maximum(central[..., 0], 0.0), central[..., 1]


def thermo_point(state: ThermalState) -> ThermodynamicPoint:
    """All equilibrium scalars of a state.

    U = sum p_n E_n, S = -sum p_n ln p_n, F = -T ln Z,
    C = var[H] / T^2, Y = -sum p_n dE_n/dlambda through the analytic
    derivative operator.
    """
    p = state.populations
    t = state.temperature
    d_diag = eigenbasis_diagonal(state.model.derivative(state.lam), state.spectrum.vectors)
    u, mean_d, variance, _ = map(float, _moments(p, _spectral_rows(state.spectrum.values, d_diag)))
    return ThermodynamicPoint(
        temperature=t,
        lam=state.lam,
        internal_energy=u,
        entropy=entropy_from_populations(p),
        free_energy=-t * state.log_partition,
        specific_heat=variance / (t * t),
        energy_variance=variance,
        generalized_force=-mean_d,
    )


def thermal_average(state: ThermalState, operator) -> float:
    """Thermal average sum_n p_n <n|A|n> of an observable.

    ``operator`` can be a HermitianOperator or a plain square ndarray of the
    state's dimension.

    Raises
    ------
    DimensionMismatchError
        If the operator dimension differs from the spectrum's.
    """
    matrix = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator, dtype=complex)
    if matrix.shape[0] != state.spectrum.dim:
        raise DimensionMismatchError(
            f"operator dim {matrix.shape[0]} vs state dim {state.spectrum.dim}")
    diag = eigenbasis_diagonal(matrix, state.spectrum.vectors)
    return float(np.dot(state.populations, diag))


def magnetization(state: ThermalState, model: ParamHamiltonian) -> float:
    """Total magnetization <S1z + ... > in units of g mu_B.

    Equals -<dH/db> for models whose working parameter is the field.

    Raises
    ------
    NoZeemanTermError
        If the model carries no magnetization operator.
    """
    if model.magnetization_operator is None:
        raise NoZeemanTermError(
            f"model with parameter {model.parameter_name!r} has no Zeeman term")
    return thermal_average(state, model.magnetization_operator)


def zero_field_susceptibility(model: ParamHamiltonian, temperature: float) -> float:
    """Zero-field susceptibility chi = (<M^2> - <M>^2) / T, fluctuation form.

    The model's working parameter must be the field ("b"); the state is
    evaluated at b = 0. Units: (g mu_B)^2 / k_B per system, i.e. 1/kelvin
    in reduced form.
    """
    _require_temperature(temperature)
    if model.parameter_name != "b" or model.magnetization_operator is None:
        raise NoZeemanTermError(
            "zero-field susceptibility needs a field-parameterized model")
    state = thermal_state(model, 0.0, temperature)
    m_op = model.magnetization_operator.matrix
    m1 = thermal_average(state, m_op)
    m2 = thermal_average(state, m_op @ m_op)
    return (m2 - m1 * m1) / temperature


def _segment_sums(model, points, level_cache):
    """Midpoint work/heat sums over consecutive (lambda, T) points.

    ``level_cache`` memoizes eigenvalues per lambda; refinement revisits
    the coarser grids' points.
    """
    work = np.empty(len(points) - 1)
    heat = np.empty(len(points) - 1)
    e_a = p_a = None
    # populations live for one segment, not for the whole refined grid
    for k, (lam, t) in enumerate(points):
        e_b = level_cache.get(lam)
        if e_b is None:
            e_b = hermitian_eigen(model.evaluate(lam)).values
            level_cache[lam] = e_b
        p_b = populations_from_levels(e_b, t)[0]
        if k:
            work[k - 1] = float(np.dot((p_a + p_b) / 2.0, e_b - e_a))
            heat[k - 1] = float(np.dot((e_a + e_b) / 2.0, p_b - p_a))
        e_a, p_a = e_b, p_b
    return work, heat


def process_decompose(model: ParamHamiltonian,
                      path: Sequence[Tuple[float, float]]) -> ProcessDecomposition:
    """Split a discretized (lambda, T) process into quantum work and heat.

    Each input segment is subdivided (linearly in lambda and T), doubling
    the substep count until the work and heat totals stabilize; the
    midpoint rule makes W + Q equal the endpoint energy difference
    identically at every refinement.

    Raises
    ------
    EmptyPathError
        Fewer than two path points.
    NonPositiveTemperatureError
        Any path temperature not finite and > 0.
    """
    pts = [(float(lam), float(t)) for lam, t in path]
    if len(pts) < 2:
        raise EmptyPathError("process path needs at least 2 points")
    for _, t in pts:
        _require_temperature(t, "path T")

    def refine(n_sub):
        out = []
        for (la, ta), (lb, tb) in zip(pts[:-1], pts[1:]):
            seg = [(la + (lb - la) * j / n_sub, ta + (tb - ta) * j / n_sub)
                   for j in range(n_sub)]
            out.extend(seg)
        out.append(pts[-1])
        return out

    prev_w = prev_q = None
    n_sub = 1
    level_cache = {}
    for _ in range(15):
        work_steps, heat_steps = _segment_sums(model, refine(n_sub), level_cache)
        w, q = float(np.sum(work_steps)), float(np.sum(heat_steps))
        if prev_w is not None:
            scale = max(1.0, abs(w), abs(q))
            if max(abs(w - prev_w), abs(q - prev_q)) < 1e-9 * scale:
                break
        prev_w, prev_q = w, q
        n_sub *= 2

    def energy(lam, temperature):
        # refine() always visits both endpoints, so their levels are cached
        levels = level_cache[lam]
        return float(np.dot(populations_from_levels(levels, temperature)[0], levels))

    return ProcessDecomposition(
        work=w,
        heat=q,
        energy_change=energy(*pts[-1]) - energy(*pts[0]),
        work_steps=work_steps,
        heat_steps=heat_steps,
    )
