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
difference for dS_iso, and entropy-matching root finding for dT_ad. Every
route reads its nodes' eigen-data from one ``_SpectralCache.stack`` call
per level or evaluation.

dS_iso (Clenshaw-Curtis) and the adiabat (Picard iteration on u = ln T)
read one grid, the nested Chebyshev-Lobatto nodes of each piece of the path
(the adiabat halves a piece it cannot walk whole), and integrate
temperatures as lanes: the ``*_lanes`` routes share the nodes
among a temperature array, each lane keeping its own refinement level, and
the single-temperature routes are their one-lane case. Every lambda
quadrature -- dS_iso, the discord integral and the work of
``thermal.process_decompose`` -- is one kernel, ``_path_integrals``, on paths
of (lambda, T) points; its callers supply only the integrand.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    BracketFailureError,
    DegenerateVarianceError,
    EmptyPathError,
    NoZeemanTermError,
    OdeNoConvergenceError,
    QCaloricError,
    QuadratureNoConvergenceError,
    ZeroTotalHeatError,
)
# hermitian_eigen is not called here; the benchmark's tracer checks this binding
from .linalg import _sector_spectra, hermitian_eigen  # noqa: F401
from .models import ParamHamiltonian, _Affine
from .thermal import (
    _TINY, _entropy, _moments_at, _require_lambda, _require_temperature, _spectral_rows)

_BASE_NODES = 8           # Lobatto intervals of level 0; level L has 8 * 2^L
_QUAD_MAX_DOUBLINGS = 14  # n = 131 072
_ODE_MAX_DOUBLINGS = 7    # n = 1 024: the integration matrix holds (n + 1)^2 floats
_ODE_MAX_BISECTIONS = 16  # an adiabat piece is halved at most this often
_QUAD_TOL = 1e-8          # successive-estimate tolerance, relative to the quadrature of |f|
_ODE_TOL = 1e-9           # kelvin, successive end-temperature difference
_PICARD_TOL = 1e-11       # largest change of ln T at a node between iterates
_PICARD_MAX_ITERATIONS = 100
_MATCH_TOL = 1e-10        # kelvin, width of the sign-change bracket where Brent's method stops
_FILL_BLOCK = 64          # new lambda nodes per stacked eigensolve: bounds the stack's memory
_SUM_BLOCK = 1 << 17      # floats in one block of a weighted sum's product (1 MiB)
_EPS = sys.float_info.epsilon


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
    diagonalized once. ``stack`` is its one read: every route takes its
    nodes' rows from it and applies ``thermal._entropy`` or
    ``thermal._moments_at`` itself."""

    def __init__(self, model: ParamHamiltonian):
        self.model = model
        self._data: Dict[float, np.ndarray] = {}
        family = model.evaluate
        # a family is read whole only where neither read is wrapped: a wrapper sees every node
        self._fill = family.spectra if (
            isinstance(family, _Affine) and model.derivative == family.derivative
        ) else functools.partial(_per_node, model)   # not a method: a cache holds no cycle

    def stack(self, lams) -> np.ndarray:
        """The rows of each of lams, in order. Uncached nodes are filled once
        each, in order, ``_FILL_BLOCK`` at a time: an affine family's by
        ``models._Affine.spectra``, any other model's built one by one and
        diagonalized together by ``linalg._sector_spectra``. The first node
        that cannot be built raises; the blocks before it stay cached."""
        lams = list(lams)
        new = list(dict.fromkeys(lam for lam in lams if lam not in self._data))
        for k in range(0, len(new), _FILL_BLOCK):
            block = new[k:k + _FILL_BLOCK]
            self._data.update(zip(block, _spectral_rows(*self._fill(block))))
        return np.array([self._data[lam] for lam in lams])


def _per_node(model: ParamHamiltonian, block) -> np.ndarray:
    """The fill of any model: each node's H and derivative read on their own."""
    return _sector_spectra(np.array([model.evaluate(lam).matrix for lam in block]),
                           np.array([model.derivative(lam).matrix for lam in block]))


def _guarded(lams, temps: np.ndarray, name: str) -> list:
    """The paths through the points ``lams`` at the temperatures of each row
    of ``temps`` (path x point), guarded before any eigensolve: per path
    None or its first failing guard's QCaloricError -- fewer than two
    points, a temperature (named ``name``) not finite and > 0, or a lambda
    not finite, T first at one point. Each lambda is checked once."""
    if len(lams) < 2:
        return [EmptyPathError("process path needs at least 2 points") for _ in temps]
    first = None
    try:
        for stop, lam in enumerate(lams, 1):
            _require_lambda(lam)
    except QCaloricError as exc:
        first = exc
    out = []
    for row in temps.tolist():
        try:
            for t in row[:stop]:   # the temperatures up to the first bad lambda
                _require_temperature(t, name)
            out.append(first)
        except QCaloricError as exc:
            out.append(exc)
    return out


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
    rows = _SpectralCache(model).stack([lam])[0]
    return -float(_moments_at(rows, np.array([temperature]))[1][0])


def maxwell_residual(model: ParamHamiltonian, lam: float, temperature: float) -> float:
    """(dS/dlambda)_T + d<dH/dlambda>/dT, both by central finite differences.

    The quantum Maxwell relation makes this zero; the returned value is the
    numerical residual (k_B per unit lambda). Steps are
    ``h_lambda = 1e-4 * max(1, |lambda|)`` and ``h_T = 1e-4 * T``.
    """
    _require_temperature(temperature)
    _require_lambda(lam)
    h_lam = 1e-4 * max(1.0, abs(lam))
    h_t = 1e-4 * temperature
    up, down, mid = _SpectralCache(model).stack([lam + h_lam, lam - h_lam, lam])
    ds_dlam = (_entropy(up[2], temperature) - _entropy(down[2], temperature)) / (2.0 * h_lam)
    hot, cold = map(float, _moments_at(mid, np.array([temperature + h_t, temperature - h_t]))[1])
    return ds_dlam + (hot - cold) / (2.0 * h_t)


@functools.lru_cache(maxsize=None)
def _lobatto(n: int) -> Tuple[float, ...]:
    """The Chebyshev-Lobatto points -cos(pi k / n), k = 0..n, of [-1, 1]. As
    pi * 2k / 2n rounds to pi * k / n, point k of n is point 2k of 2n, bit
    for bit: a refinement reuses every node."""
    return tuple(-math.cos(math.pi * k / n) for k in range(n + 1))


def _nodes(a: float, b: float, n: int) -> list:
    """The Lobatto points of [a, b] in path order, a and b exact."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return [a, *(mid + half * x for x in _lobatto(n)[1:-1]), b]


@functools.lru_cache(maxsize=None)
def _integration_matrix(n: int) -> np.ndarray:
    """Q[k, j] = Int_{-1}^{x_k} l_j, l_j the Lagrange polynomial of Lobatto
    point j, stored as an (n + 1, n + 1, 1) array indexed [j, k]: Q g
    integrates the interpolant of g from -1 to every point (Clenshaw &
    Norton 1963)."""
    k = np.arange(n + 1)
    cheb = np.cos(np.pi / n * (np.outer(k[::-1], np.arange(n + 2)) % (2 * n)))   # T_m(x_k)
    ends = np.where((k == 0) | (k == n), 0.5, 1.0)
    coeffs = (2.0 / n) * ends[:, None] * cheb[:, :-1].T * ends   # values -> T_m coefficients
    up, down = 0.5 / (k + 1), np.where(k > 1, 0.5 / np.maximum(k - 1, 1), 0.0)
    up[0] = 1.0
    anti = cheb[:, 1:] * up - cheb[:, abs(k - 1)] * down   # Int T_m up to a constant
    return np.ascontiguousarray(((anti - anti[0]) @ coeffs).T)[:, :, None]


@functools.lru_cache(maxsize=None)
def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """The Clenshaw-Curtis weights of the n + 1 Lobatto points: the exact
    integrals 2 / (1 - m^2) of the even T_m, cosine-transformed by one real
    FFT of their even extension (Waldvogel 2006), O(n log n) with no matrix."""
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2.0)
    weights = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / n
    weights[[0, -1]] *= 0.5
    return weights


def _weighted_sum(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j matrix[j, k] * rows[j] for each k, for a (J, K, 1) matrix and
    (J, lanes) rows, as one np.add.reduce over j per block of k. numpy
    accumulates a leading-axis reduction node by node wherever a block has
    more than one output (a lone one it sums pairwise: the quadrature passes
    f and |f|), so every lane (column of a row) gets the same bits however
    many lanes there are; the blocks keep the product under _SUM_BLOCK
    floats (one k at least)."""
    rows = rows[:, None]
    out = np.empty((matrix.shape[1], rows.shape[2]))
    step = max(1, _SUM_BLOCK // rows.size)
    for k in range(0, len(out), step):
        np.add.reduce(matrix[:, k:k + step] * rows, 0, out=out[k:k + step])
    return out


def _refine(step, lanes: np.ndarray, close, fail, max_level: int):
    """The refinement loop of every lambda integral, lane by lane: level L
    integrates the live lanes (an index array) on 8 * 2^L + 1 Lobatto nodes.
    ``step(level, lanes)`` returns each lane's estimate, the scale its
    difference is measured against, and its payload or QCaloricError; a lane
    is frozen once ``close(difference, scale)`` holds. ``fail(why)`` makes
    the route's error for a lane still open after ``max_level``, and at once
    for a lane whose estimate is not finite, which no level would mend.
    Returns {lane: (estimate, difference, level, payload)} or its error."""
    out, last = {}, None
    try:
        for level in range(max_level + 1):
            if not lanes.size:
                return out
            estimate, scale, payloads = step(level, lanes)
            ok = np.array([not isinstance(p, QCaloricError) for p in payloads], dtype=bool)
            for j in np.flatnonzero(ok & ~np.isfinite(estimate)).tolist():
                ok[j], payloads[j] = False, fail(
                    f"at level {level} (estimate {estimate[j]:g} is not finite)")
            diff = np.abs(estimate - last) if level else np.full(len(lanes), np.inf)
            done = ok & close(diff, scale)
            stop = np.flatnonzero(done | ~ok)
            for lane, good, value, change, j in zip(*(x[stop].tolist() for x in (
                    lanes, ok, estimate, diff)), stop.tolist()):
                out[lane] = (value, change, level, payloads[j]) if good else payloads[j]
            lanes, last, diff = (x[ok & ~done] for x in (lanes, estimate, diff))
        out.update((lane, fail(f"after {max_level} doublings (last difference {err:.3e})"))
                   for lane, err in zip(lanes.tolist(), diff.tolist()))
    except QCaloricError as exc:
        out.update(dict.fromkeys(lanes.tolist(), exc))
    return out


def _pieces(model: ParamHamiltonian, lambda_i: float, lambda_f: float):
    """[lambda_i, lambda_f] split at the model's interior breakpoints, in path
    order: one (a, b, inner) per piece. A node lam of the piece is read at
    ``inner.get(lam, lam)``: an end that is a breakpoint at the float next to
    it inside the piece, where H(lambda) and its derivative follow the
    piece's own slope, and any other node at itself. The Lobatto nodes of
    ``_nodes`` hold both ends exactly and never pass them."""
    lo, hi = min(lambda_i, lambda_f), max(lambda_i, lambda_f)
    cuts = sorted((x for x in model.breakpoints if lo < x < hi), reverse=bool(lambda_i > lambda_f))
    ends = [lambda_i, *cuts, lambda_f]
    return [(a, b, {x: float(np.nextafter(x, y)) for x, y in ((a, b), (b, a))
                    if x in model.breakpoints}) for a, b in zip(ends[:-1], ends[1:])]


def _path_integrals(cache: _SpectralCache, lams, temps, integrand, what: str,
                    tol: float = _QUAD_TOL, name: str = "T") -> list:
    """Int f dlambda along each segment of the paths through the points
    ``lams`` at the temperatures of each row of ``temps`` (path x point), T
    linear in lambda between them: Clenshaw-Curtis quadrature on the levels
    of ``_refine``, one lane per path and piece (``_pieces``) of a segment
    that moves lambda, each stopping once successive estimates differ by <=
    ``tol`` times the same level's quadrature of |f| (relative at any
    magnitude, at once where f is exactly zero). A level reads each live
    piece's ``_nodes`` from ``cache`` once; ``integrand(rows, temps)`` gives
    f there (node x lane) for the lanes' temperatures (node x lane, or one
    per lane on an isotherm). Per path: per segment (value, error, deepest
    level), pieces added in path order (an isochore is (0.0, 0.0, 0)), or
    its first error, ``_guarded``'s first (T named ``name``)."""
    lams, temps = [float(lam) for lam in lams], np.array(temps, dtype=float)
    out = _guarded(lams, temps, name)
    live = [j for j, slot in enumerate(out) if slot is None]
    # one block of lanes (one per live path) per segment and piece, in path order
    pieces = [(k, a, b, inner) for k, (la, lb) in enumerate(zip(lams, lams[1:]))
              for a, b, inner in (_pieces(cache.model, la, lb) if la != lb else ())]
    width, ks = len(live), [k for k, *_ in pieces]
    lam0, dlam, half = np.repeat(np.array([(lams[k], lams[k + 1] - lams[k], 0.5 * (b - a))
                                           for k, a, b, _ in pieces]).reshape(-1, 3), width, 0).T
    temps = (temps if width == len(temps) else temps[live]).T
    t0, dt = temps[ks].ravel(), (temps[1:] - temps[:-1])[ks].ravel()
    starts = np.arange(len(pieces) + 1) * width
    # a piece whose lanes all hold T fixed reads their temperatures as they are:
    # the bits of T linear in lambda, without a (node x lane) map
    flat = [not dt[lo:hi].any() for lo, hi in zip(starts, starts[1:])]

    def step(level, at_level):
        n = _BASE_NODES << level
        bounds, cols = at_level.searchsorted(starts).tolist(), []
        for (_, a, b, inner), iso, lo, hi in zip(pieces, flat, bounds, bounds[1:]):
            if lo < hi:
                nodes, at = _nodes(a, b, n), at_level[lo:hi]
                t = t0[at] if iso else (
                    t0[at] + (np.array(nodes)[:, None] - lam0[at]) / dlam[at] * dt[at])
                cols.append(integrand(cache.stack(map(inner.get, nodes, nodes))[:, None], t))
        # f and |f| summed in one pass; the weights are positive
        sums = half[at_level] * _weighted_sum(_clenshaw_curtis_weights(n)[:, None, None], np.concatenate(
            [*cols, *map(np.abs, cols)], axis=1))[0].reshape(2, -1)
        return sums[0], np.abs(sums[1]), [None] * len(at_level)

    # below T ~ 1e-162, T^2 is 0 and an integrand over T^2 is 0 / 0: _refine fails the lane
    with np.errstate(divide="ignore", invalid="ignore"):
        done = _refine(step, np.arange(len(t0)), lambda diff, scale: diff <= tol * scale,
                       lambda why: QuadratureNoConvergenceError(
                           f"{what}: Clenshaw-Curtis not converged {why}"), _QUAD_MAX_DOUBLINGS)
    for i, j in enumerate(live):
        segs = [None] * (len(lams) - 1)
        for g, k in enumerate(ks):
            got = done[g * width + i]
            if isinstance(got, QCaloricError):
                segs = got
                break
            segs[k] = got[:3] if segs[k] is None else (
                segs[k][0] + got[0], segs[k][1] + got[1], max(segs[k][2], got[2]))
        out[j] = segs if isinstance(segs, QCaloricError) else [
            got or (0.0, 0.0, 0) for got in segs]
    return out


def isothermal_entropy_change_lanes(model: ParamHamiltonian, lambda_i: float,
                                    lambda_f: float, temperatures) -> list:
    """``isothermal_entropy_change`` at each of ``temperatures``, evaluated
    as the lanes of one ``_path_integrals`` that share the lambda nodes and
    one spectral cache. Each lane equals its single-temperature call bit for
    bit: one entry per temperature, its CaloricResult or the QCaloricError
    its single call raises. Pieces between breakpoints are lanes of their
    own; values and error estimates add up, the level is the deepest.
    """
    temps = np.asarray(temperatures, dtype=float)
    got = _path_integrals(_SpectralCache(model), (lambda_i, lambda_f), temps[:, None].repeat(2, 1),
                          lambda rows, t: -_moments_at(rows, t)[3] / (t * t),
                          "isothermal entropy change")
    return [segs if isinstance(segs, QCaloricError) else CaloricResult(
        "entropy_change", segs[0][0], lambda_i, lambda_f, t, "quadrature", *segs[0][1:])
        for t, segs in zip(temps.tolist(), got)]


def isothermal_entropy_change(model: ParamHamiltonian, lambda_i: float,
                              lambda_f: float, temperature: float) -> CaloricResult:
    """dS_iso = -Int_{lambda_i}^{lambda_f} d<dH/dlambda>/dT dlambda, in k_B.

    The integrand is computed analytically as -Cov(dH/dlambda, H) / T^2 and
    integrated by Clenshaw-Curtis quadrature on 8 * 2^L + 1 nested
    Chebyshev-Lobatto nodes, doubling n until successive estimates differ
    by <= 1e-8 times the same level's quadrature of |integrand|.

    Raises
    ------
    NonPositiveTemperatureError
    NonFiniteParameterError
    QuadratureNoConvergenceError
        After 14 node doublings (n = 131 072).
    """
    return _single(isothermal_entropy_change_lanes(
        model, lambda_i, lambda_f, [temperature]))


def isothermal_entropy_change_direct(model: ParamHamiltonian, lambda_i: float,
                                     lambda_f: float, temperature: float) -> CaloricResult:
    """Oracle route: dS = S(lambda_f, T) - S(lambda_i, T) as a state function."""
    _require_temperature(temperature)
    _require_lambda(lambda_i, lambda_f)
    value = 0.0
    if lambda_i != lambda_f:
        end, start = _SpectralCache(model).stack([lambda_f, lambda_i])
        value = _entropy(end[2], temperature) - _entropy(start[2], temperature)
    return CaloricResult("entropy_change", value, lambda_i, lambda_f,
                         temperature, "direct", 0.0, 0)


@functools.lru_cache(maxsize=None)
def _refinement_matrix(n: int) -> np.ndarray:
    """B[j, i] = l_j(y_i), l_j the Lagrange polynomial of Lobatto point j of n
    and y_i = -cos(pi (2i + 1) / 2n) the points that n -> 2n adds, stored as
    an (n + 1, n, 1) array indexed [j, i]: B g interpolates g to the new
    points (barycentric form, Berrut & Trefethen 2004)."""
    k = np.arange(n + 1)
    w = np.where(k % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    c = w / (-np.cos(np.pi * (2 * k[:-1, None] + 1) / (2 * n)) + np.cos(np.pi * k / n))
    interpolate = np.ascontiguousarray((c / c.sum(axis=1, keepdims=True)).T)[:, :, None]
    interpolate.setflags(write=False)
    return interpolate


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # a diverging lane stops on NaN
def _picard(slopes, at, q: np.ndarray, half: float, t0: np.ndarray, u: np.ndarray):
    """Picard iteration u <- ln t0 + half * Q g(u) of u = ln T on one level's
    nodes, lane by lane, from the iterate ``u`` (node x lane); node 0 holds
    t0. ``slopes(at, t)`` returns du/dlambda for the lane temperatures ``t``
    (node x lane) in one call, where each lane's guard fails, and
    ``error(node, column)``. A lane stops once no node moves by
    ``_PICARD_TOL``; the first failing node of its last iterate names its
    error. Returns the node temperatures, their last iterate u and per lane
    None or its error."""
    u0 = np.log(t0)
    last = np.full(u.shape, np.nan)
    errors, live = [None] * len(t0), np.arange(len(t0))
    for iteration in range(1, _PICARD_MAX_ITERATIONS + 1):
        t = np.exp(u)
        t[0] = t0[live]
        g, bad, error = slopes(at, t)
        new = u0[live] + half * _weighted_sum(q, g)
        step = np.max(np.abs(new - u), axis=0)
        done = step < _PICARD_TOL
        stop = done | np.isnan(step) | (iteration == _PICARD_MAX_ITERATIONS)
        last[:, live[stop]] = new[:, stop]
        for c in np.flatnonzero(stop & (~done | bad.any(0))).tolist():
            failed = np.flatnonzero(bad[:, c])
            errors[live[c]] = error(failed[0], c) if failed.size else OdeNoConvergenceError(
                f"Picard iteration not converged after {iteration} iterations "
                f"(last change {step[c]:.3e} in ln T)")
        live, u = live[~stop], new[:, ~stop]
        if not live.size:
            break
    t_nodes = np.exp(last)
    t_nodes[0] = t0
    return t_nodes, last, errors


def _picard_lanes(slopes, a: float, b: float, t_start: np.ndarray, lanes: np.ndarray, prepare):
    """The isentrope as u = ln T on [a, b]: ``_picard`` on the levels of
    ``_refine``, until successive end temperatures agree to 1e-9 K; T = e^u
    stays > 0. Level 0 starts from u = ln T_start at every node, and each
    later level from the lane's last iterate of the level before: its nodes
    as they were, the new ones interpolated. ``prepare(nodes)`` is given
    each level's nodes and returns what ``slopes`` reads; lanes index
    ``t_start``. Returns {lane: (T_f, error, levels, path of the final
    level)}, or the lane's QCaloricError.
    """
    last = {}

    def step(level, live):
        n = _BASE_NODES << level
        lams = _nodes(a, b, n)
        if level:
            before = np.array([last[j] for j in live.tolist()]).T
            u = np.empty((n + 1, len(live)))
            u[::2] = before
            u[1::2] = _weighted_sum(_refinement_matrix(n // 2), before)
        else:
            u = np.tile(np.log(t_start[live]), (n + 1, 1))
        ts, us, errors = _picard(slopes, prepare(lams), _integration_matrix(n),
                                 0.5 * (b - a), t_start[live], u)
        last.update(zip(live.tolist(), us.T))
        return ts[-1], None, [err or tuple(zip(lams, path))
                              for err, path in zip(errors, ts.T.tolist())]

    return _refine(step, lanes, lambda diff, _: diff < _ODE_TOL,
                   lambda why: OdeNoConvergenceError(f"end temperature not stable {why}"),
                   _ODE_MAX_DOUBLINGS)


def _join_walks(done: dict, got: dict, live: np.ndarray) -> np.ndarray:
    """Fold one stretch's {lane: walk or QCaloricError} into ``done``, a walk
    joined to the one before: the second's end temperature, errors added,
    the deeper level, the paths joined. Returns the lanes still live."""
    for j, after in got.items():
        before = done.get(j)
        done[j] = after if before is None or isinstance(after, QCaloricError) else (
            after[0], before[1] + after[1], max(before[2], after[2]), before[3] + after[3][1:])
    return np.array([j for j in live.tolist() if not isinstance(done[j], QCaloricError)],
                    dtype=int)


def _walk(slopes, stretches, t_start: np.ndarray, lanes: np.ndarray, depth: int = 0) -> dict:
    """``_picard_lanes`` over consecutive stretches (a, b, prepare), each lane
    entering one at its end temperature of the one before. A lane that fails
    a stretch walks its two halves instead, down to 2^-16 of it: halving
    quarters the contraction Picard needs and shortens what the nodes must
    resolve. A lane keeps its error where its model fails, where the start
    point fails the guard (no walk moves it) or at the deepest half."""
    done, t = {}, t_start.copy()
    for a, b, prepare in stretches:
        got = _picard_lanes(slopes, a, b, t, lanes, prepare)
        retry = np.array([j for j in lanes.tolist() if isinstance(got[j], (
            OdeNoConvergenceError, DegenerateVarianceError, ZeroTotalHeatError))], dtype=int)
        if retry.size and depth < _ODE_MAX_BISECTIONS:
            retry = retry[~slopes(prepare([a]), t[retry][None])[1][0]]
            mid = 0.5 * (a + b)
            got.update(_walk(slopes, [(a, mid, prepare), (mid, b, prepare)], t, retry, depth + 1))
        lanes = _join_walks(done, got, lanes)
        t[lanes] = [done[j][0] for j in lanes.tolist()]
    return done


def _slopes(lattice: Optional[LatticeHeatSpec], at, t: np.ndarray):
    """du/dlambda = Cov / heat at the nodes ``at`` = (lambdas, rows), with the
    heat capacity times T^2, heat = var[H] + T^2 c_l (c_l = 0 without a
    ``lattice``); a node fails where heat is not positive."""
    lams, rows = at
    _, _, var, cov = _moments_at(rows, t)
    if lattice is None:
        heat = shown = var
        error, text = DegenerateVarianceError, (
            "var[H] = {:.3e} at lambda = {:g}, T = {:g} K (flat spectrum or populations "
            "frozen in the ground state)")
    else:
        c_l = lattice(t)
        heat, shown = var + t * t * c_l, var / (t * t) + c_l
        error, text = ZeroTotalHeatError, "c_B + c_l = {:.3e} at b = {:g}, T = {:g} K"
    return (cov / np.where(heat > 0, heat, np.inf), ~(heat > 0),
            lambda k, c: error(text.format(shown[k, c], lams[k], t[k, c])))


def adiabatic_temperature_change_lanes(
        model: ParamHamiltonian, lambda_i: float, lambda_f: float, temperatures,
        lattice: Optional[LatticeHeatSpec] = None) -> list:
    """``adiabatic_temperature_change`` from each of ``temperatures``, or
    with a ``lattice`` ``classical_adiabatic_temperature_change``, as the
    lanes of one adiabat that share the lambda nodes and one spectral
    cache. Each lane equals its single-temperature call bit for bit, path
    included: one entry per temperature, its CaloricResult or the
    QCaloricError its single call raises. Pieces between breakpoints are
    integrated one by one, each lane entering a piece at its end
    temperature of the one before; error estimates add up, the level is
    the deepest and the paths are joined.
    """
    temps = np.asarray(temperatures, dtype=float)
    slots = _guarded((lambda_i, lambda_f), temps[:, None].repeat(2, 1), "T_start")
    live = np.array([j for j, slot in enumerate(slots) if slot is None], dtype=int)
    if lattice is not None and model.parameter_name != "b":
        done = dict.fromkeys(live.tolist(), NoZeemanTermError(
            "classical adiabat needs the field as working parameter"))
    elif lambda_i == lambda_f:
        done = {j: (temps[j], 0.0, 0, ((lambda_i, float(temps[j])),))
                for j in live.tolist()}
    else:
        cache = _SpectralCache(model)

        def prepare(inner, nodes):
            at = list(map(inner.get, nodes, nodes))
            return at, cache.stack(at)[:, None]

        done = _walk(functools.partial(_slopes, lattice), [
            (a, b, functools.partial(prepare, inner))
            for a, b, inner in _pieces(model, lambda_i, lambda_f)], temps, live)
    for j, got in done.items():
        slots[j] = got if isinstance(got, QCaloricError) else CaloricResult(
            "temperature_change", float(got[0] - temps[j]), lambda_i, lambda_f,
            float(temps[j]), "ode", got[1], got[2], path=got[3])
    return slots


def adiabatic_temperature_change(model: ParamHamiltonian, lambda_i: float,
                                 lambda_f: float, T_start: float) -> CaloricResult:
    """dT_ad by integrating the isentrope dT/dlambda = T*Cov(dH/dlambda,H)/var[H].

    Integrates u = ln T, du/dlambda = Cov/var, by Chebyshev-Picard iteration
    on 8 * 2^L + 1 nested Chebyshev-Lobatto nodes until no node moves by
    1e-11 in ln T, doubling n until successive end temperatures agree to
    1e-9 K; T = e^u stays positive. A piece the iteration cannot walk whole
    (no convergence, or a variance failure past its start) is walked as two
    halves, down to 2^-16 of it. ``path`` holds the final level's nodes and
    temperatures of each stretch walked, so that entropy conservation can be
    audited.

    Raises
    ------
    NonPositiveTemperatureError
    NonFiniteParameterError
    DegenerateVarianceError
        var[H] not positive at a node of the converged iterate (the first in
        path order is named), at the start point or on the deepest half: a
        flat spectrum, or populations frozen in the ground state (T/gap below
        about 1/690, where the excited ones are clamped to zero).
    OdeNoConvergenceError
        After 100 Picard iterations or 7 node doublings (n = 1 024) on the
        deepest half.
    """
    return _single(adiabatic_temperature_change_lanes(
        model, lambda_i, lambda_f, [T_start]))


def _brent(f, a: float, b: float, fa: float, fb: float):
    """A root of f in the sign-change bracket [a, b] (fa, fb of opposite sign
    or zero) by Brent's method (Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4): inverse quadratic or secant steps, and a
    bisection wherever they would not shrink the bracket fast enough; no
    step is shorter than half the stopping width. Stops once the bracket
    [b, c] is at most ``_MATCH_TOL`` wide (4 ulps of b where the floats are
    coarser) and returns its midpoint; an exact zero f(b) = 0 returns b,
    where f may be flat. Returns (root, bracket width, evaluations of f)."""
    c, fc, evaluations = a, fa, 0
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):   # the root lies between a and b: c takes a's side
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):      # b is the best estimate so far
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = max(0.5 * _MATCH_TOL, 2.0 * _EPS * abs(b))
        m = 0.5 * (c - b)
        if fb == 0:
            return b, 0.0, evaluations
        if abs(m) <= tol:
            return b + m, abs(c - b), evaluations
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:             # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:                  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0 else q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb, evaluations = f(b), evaluations + 1


def adiabatic_temperature_change_matching(model: ParamHamiltonian, lambda_i: float,
                                          lambda_f: float, T_start: float) -> CaloricResult:
    """Oracle route: find T_f with S(lambda_f, T_f) = S(lambda_i, T_start).

    Brent's method on T in [T_start*1e-3, T_start*1e3] to a bracket width
    of 1e-10 K; entropy grows monotonically with temperature, so the
    bracket test is two endpoint evaluations. ``refinement_levels`` counts
    the entropy evaluations at lambda_f, the two bracket ends included, and
    ``error_estimate`` is the final bracket width (0 where S(lambda_f, T)
    hits the target exactly).

    Raises
    ------
    BracketFailureError
        Target entropy not attained inside the bracket, or the bracket
        leaves the normal floats (T_start above about 1.8e305 K or below
        about 2.2e-305 K).
    """
    _require_temperature(T_start, "T_start")
    _require_lambda(lambda_i, lambda_f)
    if lambda_i == lambda_f:
        return CaloricResult("temperature_change", 0.0, lambda_i, lambda_f,
                             T_start, "entropy_matching", 0.0, 0)
    lo, hi = T_start * 1e-3, T_start * 1e3
    if not _TINY <= lo < hi < math.inf:
        raise BracketFailureError(
            f"T_start = {T_start:g} K puts the matching bracket [T_start*1e-3, T_start*1e3] "
            f"= [{lo:g}, {hi:g}] K off the normal floats")
    start, end = _SpectralCache(model).stack([lambda_i, lambda_f])
    target = _entropy(start[2], T_start)
    s_lo, s_hi = _entropy(end[2], lo), _entropy(end[2], hi)
    if not (s_lo <= target <= s_hi):
        raise BracketFailureError(
            f"entropy {target:.6g} k_B not bracketed on T in [{lo:g}, {hi:g}] K "
            f"(S range [{s_lo:.6g}, {s_hi:.6g}])")
    t_end, width, evaluations = _brent(lambda t: _entropy(end[2], t) - target,
                                       lo, hi, s_lo - target, s_hi - target)
    return CaloricResult("temperature_change", t_end - T_start, lambda_i,
                         lambda_f, T_start, "entropy_matching",
                         width, evaluations + 2)


def classical_adiabatic_temperature_change(model: ParamHamiltonian,
                                           lattice: LatticeHeatSpec,
                                           b_i: float, b_f: float,
                                           T_start: float) -> CaloricResult:
    """Adiabat of the magnetic case with a lattice heat reservoir.

    Integrates ``dT/db = [T / (c_B + c_l)] * d<dH/db>/dT`` where
    ``c_B = var[H]/T^2`` is the magnetic specific heat and
    ``d<dH/db>/dT = -dM/dT`` by the covariance identity. With c_l = 0 this
    is exactly the quantum isentrope equation; a large lattice term pins the
    temperature. The Chebyshev-Picard scheme of
    ``adiabatic_temperature_change`` runs on du/db = Cov / (var + T^2 c_l).

    Raises
    ------
    NoZeemanTermError
        Working parameter is not the field.
    ZeroTotalHeatError
        c_B + c_l not positive at a node of the converged iterate.
    OdeNoConvergenceError
    """
    return _single(adiabatic_temperature_change_lanes(
        model, b_i, b_f, [T_start], lattice))
