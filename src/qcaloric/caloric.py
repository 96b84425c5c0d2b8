"""Caloric potentials: isothermal entropy change and adiabatic temperature
change for a parameterized quantum Hamiltonian in equilibrium.

Central identities (k_B = 1):

* generalized force        Y(lambda, T) = -<dH/dlambda>
* quantum Maxwell relation (dS/dlambda)_T = -d<dH/dlambda>/dT
* entropy change           dS_iso = -Int d<dH/dlambda>/dT dlambda
* isentrope slope          dT/dlambda = T * Cov(dH/dlambda, H) / var[H]

The temperature derivative of <dH/dlambda> is evaluated analytically as
Cov(dH/dlambda, H) / T^2. The isentrope slope above is the positive-C form:
with the thermodynamically standard C = var[H]/T^2 >= 0, eliminating dS = 0
gives dT/dlambda = -(dS/dlambda)_T / (dS/dT)_lambda = +T*Cov/var. Writing the
same change with a negative-variance specific-heat convention flips both
signs at once, so the two conventions produce identical temperature changes;
the Zeeman case (heating when the field grows) pins the physical sign.

Every potential ships with an independent oracle: the state-function entropy
difference for dS_iso, and entropy-matching root finding for dT_ad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import (
    BracketFailureError,
    DegenerateVarianceError,
    NonPositiveTemperatureError,
    NoZeemanTermError,
    OdeNoConvergenceError,
    QuadratureNoConvergenceError,
    ZeroTotalHeatError,
)
from .linalg import eigenbasis_diagonal, hermitian_eigen
from .models import ParamHamiltonian
from .thermal import (_moments, _require_temperature, entropy_from_populations,
                      populations_from_levels)

_QUAD_TOL = 1e-8          # successive-estimate tolerance, absolute and relative
_QUAD_MAX_DOUBLINGS = 16
_ODE_TOL = 1e-9           # kelvin, successive end-temperature difference
_ODE_MAX_DOUBLINGS = 16
_VARIANCE_FLOOR_REL = 1e-14   # of (E_max - E_min)^2
_MATCH_TOL = 1e-10        # kelvin, bisection bracket width


@dataclass(frozen=True)
class CaloricResult:
    """One caloric potential evaluation.

    ``kind`` is "entropy_change" (value in k_B) or "temperature_change"
    (value in kelvin); ``method`` records the route; ``error_estimate`` is
    the last refinement difference; ``path`` optionally carries the
    integrated (lambda, T) trajectory of an adiabat.
    """

    kind: str
    value: float
    lambda_i: float
    lambda_f: float
    T_start: float
    method: str
    error_estimate: float
    refinement_levels: int
    path: Optional[Tuple[Tuple[float, float], ...]] = None


@dataclass(frozen=True)
class LatticeHeatSpec:
    """Power-law lattice specific heat c_l(T) = a0 + a1*T + a3*T^3, k_B units.

    All coefficients must be non-negative, which keeps c_l >= 0 on any
    positive temperature range.
    """

    a0: float = 0.0
    a1: float = 0.0
    a3: float = 0.0

    def __post_init__(self):
        for name in ("a0", "a1", "a3"):
            if getattr(self, name) < 0:
                raise ValueError(f"LatticeHeatSpec.{name} must be >= 0")

    def __call__(self, temperature: float) -> float:
        return self.a0 + self.a1 * temperature + self.a3 * temperature ** 3


class _SpectralCache:
    """Eigen-data of one model, memoized per lambda.

    Adiabat integration and interval-doubling quadrature revisit the same
    lambda values across refinement levels; caching the levels and the
    derivative's energy-basis diagonal makes each revisit free. ``at`` is the
    one lookup: it adds the populations at T, which are cheap and recomputed
    per call; ``entropy`` and ``force`` are views of it.
    """

    def __init__(self, model: ParamHamiltonian):
        self.model = model
        self._data: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    def at(self, lam: float, temperature: float):
        """(populations, levels, dH/dlambda diagonal), as ``_moments`` takes them."""
        got = self._data.get(lam)
        if got is None:
            spectrum = hermitian_eigen(self.model.evaluate(lam))
            d_diag = eigenbasis_diagonal(
                self.model.derivative(lam), spectrum.vectors)
            got = (spectrum.values, d_diag)
            self._data[lam] = got
        levels, d_diag = got
        return populations_from_levels(levels, temperature)[0], levels, d_diag

    def entropy(self, lam: float, temperature: float) -> float:
        return entropy_from_populations(self.at(lam, temperature)[0])

    def force(self, lam: float, temperature: float) -> float:
        p, _, d_diag = self.at(lam, temperature)
        return -float(np.dot(p, d_diag))


def generalized_force(model: ParamHamiltonian, lam: float, temperature: float) -> float:
    """Y = -<dH/dlambda>, the thermal-average (Ehrenfest) form.

    Evaluated through the analytic derivative operator, kelvin per unit
    lambda.
    """
    _require_temperature(temperature)
    return _SpectralCache(model).force(lam, temperature)


def maxwell_residual(model: ParamHamiltonian, lam: float, temperature: float) -> float:
    """(dS/dlambda)_T + d<dH/dlambda>/dT, both by central finite differences.

    The quantum Maxwell relation makes this zero; the returned value is the
    numerical residual (k_B per unit lambda). Steps are
    ``h_lambda = 1e-4 * max(1, |lambda|)`` and ``h_T = 1e-4 * T``.
    """
    _require_temperature(temperature)
    cache = _SpectralCache(model)
    h_lam = 1e-4 * max(1.0, abs(lam))
    h_t = 1e-4 * temperature
    ds_dlam = (cache.entropy(lam + h_lam, temperature)
               - cache.entropy(lam - h_lam, temperature)) / (2.0 * h_lam)
    davg_dt = (-cache.force(lam, temperature + h_t)
               + cache.force(lam, temperature - h_t)) / (2.0 * h_t)
    return ds_dlam + davg_dt


def _simpson_doubling(f: Callable[[float], float], a: float, b: float,
                      what: str):
    """Composite Simpson on [a, b] with interval doubling.

    Stops when successive estimates differ by less than 1e-8 absolutely or
    relatively; reuses all previous integrand evaluations via the midpoint
    sums. Returns (value, error_estimate, doublings_used).
    """
    n = 2
    h = (b - a) / n
    end_sum = f(a) + f(b)
    odd_sum = f(a + h)          # nodes with odd index at current n
    even_sum = 0.0              # interior nodes with even index
    estimate = h / 3.0 * (end_sum + 4.0 * odd_sum + 2.0 * even_sum)
    for level in range(1, _QUAD_MAX_DOUBLINGS + 1):
        n *= 2
        h = (b - a) / n
        even_sum += odd_sum
        odd_sum = sum(f(a + h * k) for k in range(1, n, 2))
        new_estimate = h / 3.0 * (end_sum + 4.0 * odd_sum + 2.0 * even_sum)
        diff = abs(new_estimate - estimate)
        estimate = new_estimate
        if diff < max(_QUAD_TOL, _QUAD_TOL * abs(estimate)):
            return estimate, diff, level
    raise QuadratureNoConvergenceError(
        f"{what}: Simpson not converged after {_QUAD_MAX_DOUBLINGS} doublings "
        f"(last difference {diff:.3e})")


def isothermal_entropy_change(model: ParamHamiltonian, lambda_i: float,
                              lambda_f: float, temperature: float) -> CaloricResult:
    """dS_iso = -Int_{lambda_i}^{lambda_f} d<dH/dlambda>/dT dlambda, in k_B.

    The integrand is computed analytically as -Cov(dH/dlambda, H) / T^2 and
    integrated by composite Simpson with interval doubling.

    Raises
    ------
    NonPositiveTemperatureError
    QuadratureNoConvergenceError
        After 16 interval doublings.
    """
    _require_temperature(temperature)
    if lambda_i == lambda_f:
        return CaloricResult("entropy_change", 0.0, lambda_i, lambda_f,
                             temperature, "quadrature", 0.0, 0)
    cache = _SpectralCache(model)
    t_sq = temperature * temperature

    def integrand(lam: float) -> float:
        return -_moments(*cache.at(lam, temperature))[3] / t_sq

    value, err, levels = _simpson_doubling(
        integrand, lambda_i, lambda_f, "isothermal entropy change")
    return CaloricResult("entropy_change", value, lambda_i, lambda_f,
                         temperature, "quadrature", err, levels)


def isothermal_entropy_change_direct(model: ParamHamiltonian, lambda_i: float,
                                     lambda_f: float, temperature: float) -> CaloricResult:
    """Oracle route: dS = S(lambda_f, T) - S(lambda_i, T) as a state function."""
    _require_temperature(temperature)
    if lambda_i == lambda_f:
        return CaloricResult("entropy_change", 0.0, lambda_i, lambda_f,
                             temperature, "direct", 0.0, 0)
    cache = _SpectralCache(model)
    value = cache.entropy(lambda_f, temperature) - cache.entropy(lambda_i, temperature)
    return CaloricResult("entropy_change", value, lambda_i, lambda_f,
                         temperature, "direct", 0.0, 0)


def _isentrope_rhs(cache: _SpectralCache, lam: float, temperature: float) -> float:
    if not temperature > 0:
        raise NonPositiveTemperatureError(
            f"temperature left the positive domain at lambda = {lam:g}")
    p, levels, d_diag = cache.at(lam, temperature)
    _, var, _, cov = _moments(p, levels, d_diag)
    spread = float(levels[-1] - levels[0])
    if spread == 0.0 or var < _VARIANCE_FLOOR_REL * spread * spread:
        raise DegenerateVarianceError(
            f"var[H] = {var:.3e} at lambda = {lam:g}, T = {temperature:g} K "
            "(flat spectrum or effectively infinite temperature)")
    return temperature * cov / var


def _rk4_adiabat(rhs, lambda_i: float, lambda_f: float, t_start: float):
    """Integrate dT/dlambda by classical RK4 with step doubling.

    Doubles the step count until successive end temperatures agree to
    1e-9 K. Returns (T_f, error, doublings, nodes of the final pass).
    """
    def integrate(n_steps: int):
        h = (lambda_f - lambda_i) / n_steps
        lam, t = lambda_i, t_start
        nodes = [(lam, t)]
        for _ in range(n_steps):
            k1 = rhs(lam, t)
            k2 = rhs(lam + h / 2.0, t + h / 2.0 * k1)
            k3 = rhs(lam + h / 2.0, t + h / 2.0 * k2)
            k4 = rhs(lam + h, t + h * k3)
            t += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            lam += h
            nodes.append((lam, t))
        return t, nodes

    n = 16
    t_end, nodes = integrate(n)
    for level in range(1, _ODE_MAX_DOUBLINGS + 1):
        n *= 2
        t_new, nodes = integrate(n)
        diff = abs(t_new - t_end)
        t_end = t_new
        if diff < _ODE_TOL:
            return t_end, diff, level, nodes
    raise OdeNoConvergenceError(
        f"RK4 end temperature not stable after {_ODE_MAX_DOUBLINGS} doublings "
        f"(last difference {diff:.3e} K)")


def adiabatic_temperature_change(model: ParamHamiltonian, lambda_i: float,
                                 lambda_f: float, T_start: float) -> CaloricResult:
    """dT_ad by integrating the isentrope dT/dlambda = T*Cov(dH/dlambda,H)/var[H].

    Classical 4th-order Runge-Kutta with step doubling to 1e-9 K; the
    result's ``path`` carries the final (lambda, T) trajectory so entropy
    conservation can be audited.

    Raises
    ------
    NonPositiveTemperatureError
    DegenerateVarianceError
        var[H] below 1e-14 * (E_max - E_min)^2 anywhere along the path.
    OdeNoConvergenceError
    """
    _require_temperature(T_start, "T_start")
    if lambda_i == lambda_f:
        return CaloricResult("temperature_change", 0.0, lambda_i, lambda_f,
                             T_start, "ode", 0.0, 0,
                             path=((lambda_i, T_start),))
    cache = _SpectralCache(model)
    _isentrope_rhs(cache, lambda_i, T_start)   # reject degenerate start early

    def rhs(lam, t):
        return _isentrope_rhs(cache, lam, t)

    t_end, err, levels, nodes = _rk4_adiabat(rhs, lambda_i, lambda_f, T_start)
    return CaloricResult("temperature_change", t_end - T_start, lambda_i,
                         lambda_f, T_start, "ode", err, levels,
                         path=tuple(nodes))


def adiabatic_temperature_change_matching(model: ParamHamiltonian, lambda_i: float,
                                          lambda_f: float, T_start: float) -> CaloricResult:
    """Oracle route: find T_f with S(lambda_f, T_f) = S(lambda_i, T_start).

    Bracketing bisection on T in [T_start*1e-3, T_start*1e3] to a bracket
    width of 1e-10 K; entropy grows monotonically with temperature, so the
    bracket test is two endpoint evaluations.

    Raises
    ------
    BracketFailureError
        Target entropy not attained inside the bracket.
    """
    _require_temperature(T_start, "T_start")
    if lambda_i == lambda_f:
        return CaloricResult("temperature_change", 0.0, lambda_i, lambda_f,
                             T_start, "entropy_matching", 0.0, 0)
    cache = _SpectralCache(model)
    target = cache.entropy(lambda_i, T_start)
    lo, hi = T_start * 1e-3, T_start * 1e3
    s_lo, s_hi = cache.entropy(lambda_f, lo), cache.entropy(lambda_f, hi)
    if not (s_lo <= target <= s_hi):
        raise BracketFailureError(
            f"entropy {target:.6g} k_B not bracketed on T in [{lo:g}, {hi:g}] K "
            f"(S range [{s_lo:.6g}, {s_hi:.6g}])")
    iterations = 0
    while hi - lo > _MATCH_TOL:
        mid = 0.5 * (lo + hi)
        if cache.entropy(lambda_f, mid) < target:
            lo = mid
        else:
            hi = mid
        iterations += 1
    t_end = 0.5 * (lo + hi)
    return CaloricResult("temperature_change", t_end - T_start, lambda_i,
                         lambda_f, T_start, "entropy_matching",
                         hi - lo, iterations)


def classical_adiabatic_temperature_change(model: ParamHamiltonian,
                                           lattice: LatticeHeatSpec,
                                           b_i: float, b_f: float,
                                           T_start: float) -> CaloricResult:
    """Adiabat of the magnetic case with a lattice heat reservoir.

    Integrates ``dT/db = [T / (c_B + c_l)] * d<dH/db>/dT`` where
    ``c_B = var[H]/T^2`` is the magnetic specific heat and
    ``d<dH/db>/dT = -dM/dT`` by the covariance identity. With c_l = 0 this
    is exactly the quantum isentrope equation; a large lattice term pins the
    temperature.

    Raises
    ------
    NoZeemanTermError
        Working parameter is not the field.
    ZeroTotalHeatError
        c_B + c_l below 1e-14 somewhere on the path.
    """
    _require_temperature(T_start, "T_start")
    if model.parameter_name != "b":
        raise NoZeemanTermError(
            "classical adiabat needs the field as working parameter")
    if b_i == b_f:
        return CaloricResult("temperature_change", 0.0, b_i, b_f, T_start,
                             "ode", 0.0, 0, path=((b_i, T_start),))
    cache = _SpectralCache(model)

    def rhs(lam, t):
        if not t > 0:
            raise NonPositiveTemperatureError(
                f"temperature left the positive domain at b = {lam:g}")
        _, var, _, cov = _moments(*cache.at(lam, t))
        c_total = var / (t * t) + lattice(t)
        if c_total < 1e-14:
            raise ZeroTotalHeatError(
                f"c_B + c_l = {c_total:.3e} at b = {lam:g}, T = {t:g} K")
        return cov / (t * c_total)   # T/(c_B+c_l) * cov/T^2

    t_end, err, levels, nodes = _rk4_adiabat(rhs, b_i, b_f, T_start)
    return CaloricResult("temperature_change", t_end - T_start, b_i, b_f,
                         T_start, "ode", err, levels, path=tuple(nodes))
