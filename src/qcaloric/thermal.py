"""Equilibrium statistical mechanics on a diagonalized H(lambda).

Populations and the log-partition function use max-shifted exponentials so
that T -> 0+ and large level spacings neither overflow nor lose the ground
state. All quantities are per system (dimer or single spin): energies in
kelvin, entropy and specific heat in k_B units.

Temperature derivatives are available analytically through diagonal
covariances, d<A>/dT = Cov(A, H) / T^2, which holds for any observable
evaluated through its energy-basis diagonal in a canonical state. Every
route reads the one population formula (``_boltzmann``) and the one moment
formula (``_moments``: <E>, <A>, and var[H], Cov(A, H) as centered sums that
keep their accuracy at low T), over temperature lanes and lambda nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteParameterError,
    NonPositiveTemperatureError,
    NoZeemanTermError,
    QCaloricError,
)
from .linalg import EigenDecomposition, HermitianOperator, eigenbasis_diagonal, hermitian_eigen
from .models import ParamHamiltonian

# populations below this are clamped to exact zero, which keeps the moments off
# denormals; below T/gap ~ 1/690 it makes var[H] exactly 0, where the adiabat raises
_POPULATION_FLOOR = 1e-300
# Clenshaw-Curtis stop for the work integral of a process segment, absolute
# and relative: W and Q then keep two orders of magnitude below 1e-9 of scale
_DECOMPOSE_TOL = 1e-10
_TINY = sys.float_info.min   # the smallest normal float, 2.2e-308


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
    """First-law split of a process through (lambda, T) points.

    ``work`` integrates the population-weighted level shifts,
    W = Int <dH/dlambda> dlambda; ``heat`` is Q = dU - W; ``energy_change``
    is the exact endpoint difference of U. ``work_steps`` / ``heat_steps``
    hold one integral per input segment and sum to the totals.
    ``error_estimate`` sums the last Clenshaw-Curtis differences of the work
    integrals, and ``refinement_levels`` is the deepest doubling used.
    """

    work: float
    heat: float
    energy_change: float
    work_steps: np.ndarray
    heat_steps: np.ndarray
    error_estimate: float = 0.0
    refinement_levels: int = 0

    def __post_init__(self):
        self.work_steps.setflags(write=False)
        self.heat_steps.setflags(write=False)


def _require_temperature(temperature: float, name: str = "T") -> None:
    """Raise NonPositiveTemperatureError unless 0 < T < inf (NaN fails too)
    and T is a normal float: below ``_TINY`` the shifts / T of
    ``_boltzmann`` overflow for any level spacing above about 1e-12 K."""
    if not 0 < temperature < math.inf:
        raise NonPositiveTemperatureError(
            f"{name} = {temperature:g} K must be finite and > 0")
    if temperature < _TINY:
        raise NonPositiveTemperatureError(
            f"{name} = {temperature:g} K is subnormal: it must be at least {_TINY:g} K, "
            f"the smallest normal float")


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


def _entropy(shifts: np.ndarray, temperature: float) -> float:
    """S = ln Z0 + <E - E_0> / T at T from the shifts E_0 - E of ascending
    levels, in k_B units. ln Z0 = log1p(sum_{n>0} w_n) with the shifted
    weights w_n = p_n Z0 of ``_boltzmann``: no population is lost once p_0
    rounds to 1, as in -sum p ln p, and S >= 0 holds term by term."""
    p, z0 = _boltzmann(shifts, temperature)
    return math.log1p(float(np.add.reduce(p[1:] * z0))) - float(p @ shifts) / temperature


def _spectral_rows(levels: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """E, an observable's energy-basis diagonal A and E_0 - E, stacked on the
    second-last axis: one (3, d) array per node of a stack of them."""
    return np.stack((levels, diag, levels[..., :1] - levels), axis=-2)


def _moments(p: np.ndarray, rows: np.ndarray):
    """(<E>, <A>, var[H], Cov(A, H)) for populations ``p`` over ``rows``, which
    broadcast by their leading (lane, node) axes; var = sum p (E - <E>)^2 and
    Cov = sum p (A - <A>)(E - <E>) do not cancel when populations freeze."""
    means = np.add.reduce(p[..., None, :] * rows[..., :2, :], -1)   # <E>, <A>
    u, a = means[..., 0], means[..., 1]
    p_de = p * (rows[..., 0, :] - u[..., None])
    return (u, a, np.add.reduce(p_de * (rows[..., 0, :] - u[..., None]), -1),
            np.add.reduce(p_de * (rows[..., 1, :] - a[..., None]), -1))


def _moments_at(rows: np.ndarray, temperatures: np.ndarray):
    """``_moments`` of the Boltzmann populations of ``rows`` (one node, or a
    stack of them) at ``temperatures``, each lane summed along its own row."""
    return _moments(_boltzmann(rows[..., 2, :], temperatures[..., None])[0], rows)


def thermo_point(state: ThermalState) -> ThermodynamicPoint:
    """All equilibrium scalars of a state.

    U = sum p_n E_n, S = log1p(sum_{n>0} w_n) + sum p_n (E_n - E_0) / T
    with the ground-shifted Boltzmann weights w_n = exp((E_0 - E_n) / T)
    (ln Z + U / T, accurate where p_0 rounds to 1), F = -T ln Z,
    C = var[H] / T^2, Y = -sum p_n dE_n/dlambda through the analytic
    derivative operator.
    """
    p, levels = state.populations, state.spectrum.values
    t = state.temperature
    d_diag = eigenbasis_diagonal(state.model.derivative(state.lam), state.spectrum.vectors)
    u, mean_d, variance, _ = map(float, _moments(p, _spectral_rows(levels, d_diag)))
    return ThermodynamicPoint(
        temperature=t,
        lam=state.lam,
        internal_energy=u,
        entropy=_entropy(levels[0] - levels, t),
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


def process_decompose(model: ParamHamiltonian,
                      path: Sequence[Tuple[float, float]]) -> ProcessDecomposition:
    """Split a (lambda, T) process, linear between its points, into quantum
    work and heat.

    The work of each input segment is the Alicki integral
    W = Int sum_n p_n dE_n = Int <dH/dlambda> dlambda, evaluated by
    Clenshaw-Curtis quadrature on the nested Chebyshev-Lobatto nodes of
    ``caloric._path_integrals``, the lambda grid of the entropy change: the
    segments, split at the model's breakpoints, are its lanes, each
    doubling its nodes until successive estimates differ by <= 1e-10 times
    the same level's quadrature of |<dH/dlambda>|. This is the
    one-path case of the decompose sweep, whose quadrature takes the
    strokes of all its temperatures as lanes, so each sweep point equals
    its own call bit for bit. The heat is the first-law remainder
    Q = dU - W per segment, with dU from the exact endpoint energies, so
    W + Q = dU holds to rounding and an isochore (dlambda = 0) does no
    work at all.

    Raises
    ------
    EmptyPathError
        Fewer than two path points.
    NonPositiveTemperatureError
        Any path temperature not finite and > 0.
    NonFiniteParameterError
        Any path lambda not finite.
    QuadratureNoConvergenceError
        A segment's work integral after 14 node doublings (n = 131 072).
    """
    # caloric imports this module, so its kernel is imported here
    from .caloric import _SpectralCache
    lams, temps = zip(*path) if len(path) else ((), ())
    got = _decompose(_SpectralCache(model), lams, [temps])[0]
    if isinstance(got, QCaloricError):
        raise got
    return got


def _decompose(cache, lams, temps) -> list:
    """``process_decompose`` of the paths through the points ``lams`` at the
    temperatures of each row of ``temps`` (path x point), on the spectral
    cache of their model, as the lanes of one ``_path_integrals``: every
    piece of every path is a lane with its own refinement level and bits,
    and the paths share the nodes. Their energies are read at the points in
    one pass. One entry per path: its ProcessDecomposition, or the
    QCaloricError its ``process_decompose`` call raises."""
    from .caloric import _path_integrals

    lams, temps = [float(lam) for lam in lams], np.array(temps, dtype=float)
    works = _path_integrals(cache, lams, temps, lambda rows, t: _moments_at(rows, t)[1],
                            "process work", _DECOMPOSE_TOL, "path T")
    live = [j for j, got in enumerate(works) if not isinstance(got, QCaloricError)]
    if live:
        try:
            energies = _moments_at(cache.stack(lams), temps[live])[0]
        except QCaloricError as exc:   # a point's lambda, shared by every path
            energies = [exc] * len(live)
        for j, u in zip(live, energies):
            works[j] = u if isinstance(u, QCaloricError) else _split(works[j], u)
    return works


def _split(works, energies) -> ProcessDecomposition:
    """One path's first-law split from its segments' (work, error, level) and
    the energies at its points."""
    work_steps, errors, levels = (np.array(x) for x in zip(*works))
    heat_steps = np.diff(energies) - work_steps
    return ProcessDecomposition(
        work=float(np.sum(work_steps)),
        heat=float(np.sum(heat_steps)),
        energy_change=float(energies[-1] - energies[0]),
        work_steps=work_steps,
        heat_steps=heat_steps,
        error_estimate=float(np.sum(errors)),
        refinement_levels=int(np.max(levels)),
    )
