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

The quadrature and the adiabat integrate temperatures as lanes: the
``*_lanes`` routes evaluate a whole temperature array in one integration
whose lanes share the lambda nodes, so each node is diagonalized once for
all of them. Each lane keeps its own refinement level, and the
single-temperature routes are the one-lane case of the same kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    BracketFailureError,
    DegenerateVarianceError,
    NonPositiveTemperatureError,
    NoZeemanTermError,
    OdeNoConvergenceError,
    QCaloricError,
    QuadratureNoConvergenceError,
    ZeroTotalHeatError,
)
# hermitian_eigen is not called here; the benchmark's tracer checks this binding
from .linalg import eigenbasis_diagonal, hermitian_eigen, hermitian_eigen_stack  # noqa: F401
from .models import ParamHamiltonian
from .thermal import (_boltzmann, _moments, _require_lambda, _require_temperature,
                      _spectral_rows, entropy_from_populations, populations_from_levels)

_QUAD_TOL = 1e-8          # successive-estimate tolerance, absolute and relative
_QUAD_MAX_DOUBLINGS = 16
_ODE_TOL = 1e-9           # kelvin, successive end-temperature difference
_ODE_MAX_DOUBLINGS = 16
_VARIANCE_FLOOR_REL = 1e-14   # of (E_max - E_min)^2
_MATCH_TOL = 1e-10        # kelvin, bisection bracket width
_FILL_BLOCK = 64          # lambda nodes per stacked eigensolve: bounds the stack's memory


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

    All coefficients must be finite and non-negative, which keeps c_l >= 0
    and finite on any positive temperature range.
    """

    a0: float = 0.0
    a1: float = 0.0
    a3: float = 0.0

    def __post_init__(self):
        for name in ("a0", "a1", "a3"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"LatticeHeatSpec.{name} must be finite and >= 0")

    def __call__(self, temperature: float) -> float:
        return self.a0 + self.a1 * temperature + self.a3 * temperature ** 3


class _SpectralCache:
    """Eigen-data of one model as ``thermal._spectral_rows``, memoized per lambda:
    refinement levels and temperature lanes revisit a node, which is
    diagonalized once. ``fill`` diagonalizes many nodes in stacked LAPACK
    calls, so the integrations fill each Simpson level or RK4 pass before
    they read it. ``lanes`` reads thermal's population and moment formulas
    at an array of T; ``force`` is its one-lane view, and ``entropy`` the
    one-lane view of ``populations_from_levels``."""

    def __init__(self, model: ParamHamiltonian):
        self.model = model
        self._data: Dict[float, np.ndarray] = {}

    def fill(self, lams) -> None:
        """Diagonalize H at each lam not cached yet, ``_FILL_BLOCK`` matrices
        per stacked call; H(lam) is built and validated once per node.

        The fill stops before a node whose H cannot be built: ``rows`` raises
        that error where a caller reads the node, as if unfilled."""
        block = {}
        for lam in lams:
            if lam in self._data or lam in block:
                continue
            try:
                block[lam] = self.model.evaluate(lam)
            except QCaloricError:
                break
            if len(block) == _FILL_BLOCK:
                self._solve(block)
                block = {}
        if block:
            self._solve(block)

    def _solve(self, operators: Dict[float, object]) -> None:
        lams = list(operators)
        spectra = hermitian_eigen_stack(list(operators.values()))
        derivatives = np.array([self.model.derivative(lam).matrix for lam in lams])
        diags = eigenbasis_diagonal(derivatives, spectra.vectors)
        for lam, levels, diag in zip(lams, spectra.values, diags):
            self._data[lam] = _spectral_rows(levels, diag)

    def rows(self, lam: float) -> np.ndarray:
        """The packed rows at lam; H(lam) is diagonalized on first use."""
        got = self._data.get(lam)
        if got is None:
            self._solve({lam: self.model.evaluate(lam)})
            got = self._data[lam]
        return got

    def lanes(self, lam: float, temps: np.ndarray):
        """(<E>, <dH/dlambda>, var[H], Cov(dH/dlambda, H)) at lam, one entry per T."""
        rows = self.rows(lam)
        return _moments(_boltzmann(rows[4], temps[:, None])[0], rows)

    def entropy(self, lam: float, temperature: float) -> float:
        return entropy_from_populations(populations_from_levels(self.rows(lam)[0], temperature)[0])

    def force(self, lam: float, temperature: float) -> float:
        return -float(self.lanes(lam, np.array([temperature]))[1][0])


def _open_lanes(temperatures, name: str, *lambdas: float):
    """Guard each lane of an endpoint computation before any eigensolve.

    Returns the temperatures as an array, one slot per lane and the indices
    of the live lanes. A slot holds the QCaloricError the temperature or
    lambda guard raised for that lane, or None where the lane is live.
    """
    temps = np.asarray(temperatures, dtype=float)
    slots = []
    for t in temps.tolist():
        try:
            _require_temperature(t, name)
            _require_lambda(*lambdas)
            slots.append(None)
        except QCaloricError as exc:
            slots.append(exc)
    live = np.array([j for j, slot in enumerate(slots) if slot is None], dtype=int)
    return temps, slots, live


def _single(slots) -> CaloricResult:
    """The one lane of a scalar call: its result, or its error raised."""
    if isinstance(slots[0], QCaloricError):
        raise slots[0]
    return slots[0]


def generalized_force(model: ParamHamiltonian, lam: float, temperature: float) -> float:
    """Y = -<dH/dlambda>, the thermal-average (Ehrenfest) form.

    Evaluated through the analytic derivative operator, kelvin per unit
    lambda.
    """
    _require_temperature(temperature)
    _require_lambda(lam)
    return _SpectralCache(model).force(lam, temperature)


def maxwell_residual(model: ParamHamiltonian, lam: float, temperature: float) -> float:
    """(dS/dlambda)_T + d<dH/dlambda>/dT, both by central finite differences.

    The quantum Maxwell relation makes this zero; the returned value is the
    numerical residual (k_B per unit lambda). Steps are
    ``h_lambda = 1e-4 * max(1, |lambda|)`` and ``h_T = 1e-4 * T``.
    """
    _require_temperature(temperature)
    _require_lambda(lam)
    cache = _SpectralCache(model)
    h_lam = 1e-4 * max(1.0, abs(lam))
    h_t = 1e-4 * temperature
    ds_dlam = (cache.entropy(lam + h_lam, temperature)
               - cache.entropy(lam - h_lam, temperature)) / (2.0 * h_lam)
    davg_dt = (-cache.force(lam, temperature + h_t)
               + cache.force(lam, temperature - h_t)) / (2.0 * h_t)
    return ds_dlam + davg_dt


def _simpson_lanes(f, a: float, b: float, lanes: np.ndarray, what: str,
                   tol: float = _QUAD_TOL):
    """Composite Simpson on [a, b] with interval doubling, lane by lane.

    ``f(nodes, lanes)`` returns the integrand at each of ``nodes`` (one
    row per node) for each lane index in ``lanes``; it is asked once for all
    the new nodes of a level, so that it can diagonalize them together. A
    lane stops when its successive estimates differ by less than ``tol``
    absolutely or relatively and is frozen there; later doublings evaluate
    only the lanes still active. All previous integrand evaluations are
    reused via the midpoint sums. Returns {lane: (value, error_estimate,
    doublings_used)}, or the lane's QCaloricError.
    """
    out = {}
    if not lanes.size:
        return out
    try:
        n = 2
        h = (b - a) / n
        f_a, f_b, odd_sum = f([a, b, a + h], lanes)   # odd_sum: nodes with odd index
        end_sum = f_a + f_b
        even_sum = np.zeros(len(lanes))    # interior nodes with even index
        estimate = h / 3.0 * (end_sum + 4.0 * odd_sum + 2.0 * even_sum)
        for level in range(1, _QUAD_MAX_DOUBLINGS + 1):
            n *= 2
            h = (b - a) / n
            even_sum = even_sum + odd_sum
            odd_sum = 0.0
            for row in f([a + h * k for k in range(1, n, 2)], lanes):   # in node order
                odd_sum = odd_sum + row
            new_estimate = h / 3.0 * (end_sum + 4.0 * odd_sum + 2.0 * even_sum)
            diff = np.abs(new_estimate - estimate)
            estimate = new_estimate
            done = diff < np.maximum(tol, tol * np.abs(estimate))
            for lane, value, err in zip(lanes[done].tolist(), estimate[done].tolist(),
                                        diff[done].tolist()):
                out[lane] = (value, err, level)
            lanes, end_sum, odd_sum, even_sum, estimate, diff = (
                x[~done] for x in (lanes, end_sum, odd_sum, even_sum, estimate, diff))
            if not lanes.size:
                return out
        for lane, err in zip(lanes.tolist(), diff.tolist()):
            out[lane] = QuadratureNoConvergenceError(
                f"{what}: Simpson not converged after {_QUAD_MAX_DOUBLINGS} "
                f"doublings (last difference {err:.3e})")
    except QCaloricError as exc:
        out.update(dict.fromkeys(lanes.tolist(), exc))
    return out


def _pieces(model: ParamHamiltonian, lambda_i: float, lambda_f: float):
    """[lambda_i, lambda_f] split at the model's interior breakpoints, in path
    order: one (a, b, read) per piece. ``read(lam)`` is where the model is
    read for a node lam of the piece: an end that is a breakpoint reads the
    float next to it inside the piece, where H(lambda) and its derivative
    follow the piece's own slope; any other node reads itself. The nodes
    a + step * k of the quadrature and the adiabat never pass an end."""
    lo, hi = min(lambda_i, lambda_f), max(lambda_i, lambda_f)
    cuts = sorted((x for x in model.breakpoints if lo < x < hi), reverse=bool(lambda_i > lambda_f))
    ends = [lambda_i, *cuts, lambda_f]
    pieces = []
    for a, b in zip(ends[:-1], ends[1:]):
        inner = {x: float(np.nextafter(x, y)) for x, y in ((a, b), (b, a))
                 if x in model.breakpoints}
        pieces.append((a, b, lambda lam, inner=inner: inner.get(lam, lam)))
    return pieces


def isothermal_entropy_change_lanes(model: ParamHamiltonian, lambda_i: float,
                                    lambda_f: float, temperatures) -> list:
    """``isothermal_entropy_change`` at each of ``temperatures``, evaluated
    as the lanes of one Simpson quadrature.

    The lanes share the lambda nodes and one spectral cache, so each node
    is diagonalized once for all temperatures. Each lane stops at its own
    refinement level and equals the single-temperature call bit for bit.
    Returns one entry per temperature: its CaloricResult, or the
    QCaloricError its single call raises. On a model with breakpoints each
    piece between them is integrated on its own; the value and the error
    estimate are the sums over the pieces, the level the deepest one.
    """
    temps, slots, live = _open_lanes(temperatures, "T", lambda_i, lambda_f)
    if lambda_i == lambda_f:
        done = dict.fromkeys(live.tolist(), (0.0, 0.0, 0))
    else:
        cache = _SpectralCache(model)
        t_sq = temps * temps
        done = {}
        for a, b, read in _pieces(model, lambda_i, lambda_f):
            def integrand(nodes, lanes, read=read):
                nodes = [read(lam) for lam in nodes]
                cache.fill(nodes)
                return [-cache.lanes(lam, temps[lanes])[3] / t_sq[lanes] for lam in nodes]

            for j, got in _simpson_lanes(integrand, a, b, live,
                                         "isothermal entropy change").items():
                prev = done.get(j)
                done[j] = got if prev is None or isinstance(got, QCaloricError) else (
                    prev[0] + got[0], prev[1] + got[1], max(prev[2], got[2]))
            live = np.array([j for j in live.tolist()
                             if not isinstance(done[j], QCaloricError)], dtype=int)
    for j, got in done.items():
        slots[j] = got if isinstance(got, QCaloricError) else CaloricResult(
            "entropy_change", got[0], lambda_i, lambda_f, float(temps[j]),
            "quadrature", got[1], got[2])
    return slots


def isothermal_entropy_change(model: ParamHamiltonian, lambda_i: float,
                              lambda_f: float, temperature: float) -> CaloricResult:
    """dS_iso = -Int_{lambda_i}^{lambda_f} d<dH/dlambda>/dT dlambda, in k_B.

    The integrand is computed analytically as -Cov(dH/dlambda, H) / T^2 and
    integrated by composite Simpson with interval doubling.

    Raises
    ------
    NonPositiveTemperatureError
    NonFiniteParameterError
    QuadratureNoConvergenceError
        After 16 interval doublings.
    """
    return _single(isothermal_entropy_change_lanes(
        model, lambda_i, lambda_f, [temperature]))


def isothermal_entropy_change_direct(model: ParamHamiltonian, lambda_i: float,
                                     lambda_f: float, temperature: float) -> CaloricResult:
    """Oracle route: dS = S(lambda_f, T) - S(lambda_i, T) as a state function."""
    _require_temperature(temperature)
    _require_lambda(lambda_i, lambda_f)
    cache = _SpectralCache(model)
    value = 0.0 if lambda_i == lambda_f else (
        cache.entropy(lambda_f, temperature) - cache.entropy(lambda_i, temperature))
    return CaloricResult("entropy_change", value, lambda_i, lambda_f,
                         temperature, "direct", 0.0, 0)


def _positive_or_one(t: np.ndarray) -> np.ndarray:
    """``t`` itself when every lane temperature is > 0, else a copy in which
    the others (NaN included) are 1, so that their moments stay finite."""
    return t if np.minimum.reduce(t) > 0 else np.where(t > 0, t, 1.0)


def _fail_lanes(failed: dict, lanes: np.ndarray, bad: np.ndarray, t: np.ndarray,
                where: str, error) -> None:
    """Record the error of each ``bad`` lane in ``failed``, unless it has one.

    A lane whose temperature left the positive domain fails for that;
    any other bad lane fails with ``error(j)``, j its position in ``bad``.
    """
    for j in np.flatnonzero(bad).tolist():
        lane = int(lanes[j])
        if lane not in failed:
            failed[lane] = error(j) if t[j] > 0 else NonPositiveTemperatureError(
                f"temperature left the positive domain at {where}")


def _isentrope_slopes(cache: _SpectralCache, lam: float, t: np.ndarray,
                      lanes: np.ndarray, failed: dict) -> np.ndarray:
    """dT/dlambda = T*Cov/var for the lane temperatures ``t`` at lam.

    A lane that cannot go on gets NaN, and its error goes into ``failed``.
    """
    levels = cache.rows(lam)[0]
    spread = float(levels[-1] - levels[0])
    floor = _VARIANCE_FLOOR_REL * spread * spread if spread else math.inf
    t_ok = _positive_or_one(t)
    _, _, var, cov = cache.lanes(lam, t_ok)
    if t_ok is t and np.minimum.reduce(var) >= floor:
        return t * cov / var
    bad = (var < floor) | ~(t > 0)
    _fail_lanes(failed, lanes, bad, t, f"lambda = {lam:g}",
                lambda j: DegenerateVarianceError(
                    f"var[H] = {var[j]:.3e} at lambda = {lam:g}, T = {t[j]:g} K "
                    "(flat spectrum or effectively infinite temperature)"))
    return t * cov / np.where(bad, np.nan, var)


def _rk4_lanes(slopes, lambda_i: float, lambda_f: float, t_start: np.ndarray,
               lanes: np.ndarray, fill=lambda nodes: None):
    """Integrate dT/dlambda by classical RK4 with step doubling, lane by lane.

    ``slopes(lam, t, lanes, failed)`` returns dT/dlambda at lam for the
    lane temperatures ``t`` (lanes index ``t_start``) and records the lanes
    that cannot go on in ``failed``. A pass of n steps, h = (lambda_f -
    lambda_i) / n, reads the nodes lambda_i + (h/2) * k for k < 2n and
    lambda_f itself, the rule of ``_simpson_lanes``; ``fill(nodes)`` is given
    them before the pass reads them. Step s takes k1 at node 2s - 2, k2 and
    k3 at node 2s - 1 and k4 at node 2s, and the path is every other node.
    n is 16 * 2^level, so each node of a pass is a node of the next, bit for
    bit, and a final pass of n steps costs 2n + 1 lambda nodes in all.

    A lane doubles its step count until successive end temperatures agree to
    1e-9 K and is then frozen; later passes integrate only the active lanes.
    A failed lane carries NaN to the end of its pass (a pass in which every
    lane failed stops there) and is dropped with the first error it met.
    Returns {lane: (T_f, error, doublings, path of the final pass)}, or the
    lane's QCaloricError.
    """
    out = {}
    if not lanes.size:
        return out

    def integrate(n_steps: int):
        h = (lambda_f - lambda_i) / n_steps
        half, sixth = h / 2.0, h / 6.0
        nodes = [lambda_i + half * k for k in range(2 * n_steps)] + [lambda_f]
        fill(nodes)
        t = t_start[lanes]
        ts = np.full((n_steps + 1, len(lanes)), np.nan)   # node temperatures per lane
        ts[0] = t
        failed_before = len(out)
        for step in range(1, n_steps + 1):
            if len(out) - failed_before == len(lanes):
                break
            mid = nodes[2 * step - 1]
            k1 = slopes(nodes[2 * step - 2], t, lanes, out)
            k2 = slopes(mid, t + half * k1, lanes, out)
            k3 = slopes(mid, t + half * k2, lanes, out)
            k4 = slopes(nodes[2 * step], t + h * k3, lanes, out)
            t = t + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ts[step] = t
        alive = np.array([lane not in out for lane in lanes.tolist()], dtype=bool)
        return alive, nodes[::2], ts

    try:
        n = 16
        alive, _, ts = integrate(n)
        lanes, t_end = lanes[alive], ts[-1, alive]
        for level in range(1, _ODE_MAX_DOUBLINGS + 1):
            if not lanes.size:
                return out
            n *= 2
            alive, lams, ts = integrate(n)
            diff = np.abs(ts[-1] - t_end)
            done = alive & (diff < _ODE_TOL)
            for j in np.flatnonzero(done).tolist():
                out[int(lanes[j])] = (float(ts[-1, j]), float(diff[j]), level,
                                      tuple(zip(lams, ts[:, j].tolist())))
            keep = alive & ~done
            lanes, t_end, diff = lanes[keep], ts[-1, keep], diff[keep]
        for lane, err in zip(lanes.tolist(), diff.tolist()):
            out[lane] = OdeNoConvergenceError(
                f"RK4 end temperature not stable after {_ODE_MAX_DOUBLINGS} "
                f"doublings (last difference {err:.3e} K)")
    except QCaloricError as exc:
        for lane in lanes.tolist():
            out.setdefault(lane, exc)
    return out


def _classical_slopes(cache: _SpectralCache, lattice: LatticeHeatSpec, lam: float,
                      t: np.ndarray, lanes: np.ndarray, failed: dict) -> np.ndarray:
    """dT/db = Cov / (T * (c_B + c_l)) for the lane temperatures ``t`` at b = lam.

    Lanes fail as in ``_isentrope_slopes``.
    """
    t_ok = _positive_or_one(t)
    _, _, var, cov = cache.lanes(lam, t_ok)
    c_total = var / (t_ok * t_ok) + lattice(t_ok)
    if t_ok is t and np.minimum.reduce(c_total) >= 1e-14:
        return cov / (t * c_total)   # T/(c_B+c_l) * cov/T^2
    bad = (c_total < 1e-14) | ~(t > 0)
    _fail_lanes(failed, lanes, bad, t, f"b = {lam:g}",
                lambda j: ZeroTotalHeatError(
                    f"c_B + c_l = {c_total[j]:.3e} at b = {lam:g}, T = {t[j]:g} K"))
    return cov / (t * np.where(bad, np.nan, c_total))


def adiabatic_temperature_change_lanes(
        model: ParamHamiltonian, lambda_i: float, lambda_f: float, temperatures,
        lattice: Optional[LatticeHeatSpec] = None) -> list:
    """``adiabatic_temperature_change`` from each of ``temperatures``, or
    with a ``lattice`` ``classical_adiabatic_temperature_change``,
    integrated as the lanes of one RK4 adiabat.

    The lanes share the lambda nodes and one spectral cache, so each node
    is diagonalized once for all start temperatures. Each lane stops at its
    own refinement level and equals the single-temperature call bit for
    bit, path included. Returns one entry per temperature: its
    CaloricResult, or the QCaloricError its single call raises. On a model
    with breakpoints each piece between them is integrated on its own, each
    lane starting a piece from its converged end temperature of the one
    before; the error estimates add up, the level is the deepest one and
    the paths are joined.
    """
    temps, slots, live = _open_lanes(temperatures, "T_start", lambda_i, lambda_f)
    if lattice is not None and model.parameter_name != "b":
        done = dict.fromkeys(live.tolist(), NoZeemanTermError(
            "classical adiabat needs the field as working parameter"))
    elif lambda_i == lambda_f:
        done = {j: (temps[j], 0.0, 0, ((lambda_i, float(temps[j])),))
                for j in live.tolist()}
    else:
        cache = _SpectralCache(model)
        slopes = (functools.partial(_isentrope_slopes, cache) if lattice is None
                  else functools.partial(_classical_slopes, cache, lattice))
        done, t_start = {}, temps.copy()
        for a, b, read in _pieces(model, lambda_i, lambda_f):
            piece = _rk4_lanes(lambda lam, *rest, read=read: slopes(read(lam), *rest),
                               a, b, t_start, live,
                               lambda nodes, read=read: cache.fill(map(read, nodes)))
            for j, got in piece.items():
                prev = done.get(j)
                if isinstance(got, QCaloricError):
                    done[j] = got
                    continue
                done[j] = got if prev is None else (
                    got[0], prev[1] + got[1], max(prev[2], got[2]), prev[3] + got[3][1:])
                t_start[j] = got[0]
            live = np.array([j for j in live.tolist()
                             if not isinstance(done[j], QCaloricError)], dtype=int)
    for j, got in done.items():
        slots[j] = got if isinstance(got, QCaloricError) else CaloricResult(
            "temperature_change", float(got[0] - temps[j]), lambda_i, lambda_f,
            float(temps[j]), "ode", got[1], got[2], path=got[3])
    return slots


def adiabatic_temperature_change(model: ParamHamiltonian, lambda_i: float,
                                 lambda_f: float, T_start: float) -> CaloricResult:
    """dT_ad by integrating the isentrope dT/dlambda = T*Cov(dH/dlambda,H)/var[H].

    Classical 4th-order Runge-Kutta with step doubling to 1e-9 K; the
    result's ``path`` carries the final (lambda, T) trajectory so entropy
    conservation can be audited.

    Raises
    ------
    NonPositiveTemperatureError
    NonFiniteParameterError
    DegenerateVarianceError
        var[H] below 1e-14 * (E_max - E_min)^2 anywhere along the path.
    OdeNoConvergenceError
    """
    return _single(adiabatic_temperature_change_lanes(
        model, lambda_i, lambda_f, [T_start]))


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
    _require_lambda(lambda_i, lambda_f)
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
    return _single(adiabatic_temperature_change_lanes(
        model, b_i, b_f, [T_start], lattice))
