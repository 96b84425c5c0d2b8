"""Sweep orchestration: evaluate the requested computations over the
scenario's (lambda, T) grids and gather curves.

The endpoint computations (entropy, adiabatic, classical_adiabatic) run
their temperatures as lanes of one integration: the lanes share the lambda
nodes and one spectral cache, so each node is diagonalized once, not once
per temperature, and the nodes of a level are diagonalized together. Both
read nested Chebyshev-Lobatto nodes, so each refinement reuses every node of
the one before. Each lane keeps its own convergence level, and every point
equals the single-temperature public call bit for bit; the force
computation takes them as lanes of each lambda, and the decompose strokes
of all temperatures are the lanes of one work quadrature on one cache.

Sweeps run on the calling thread: every model here is small enough that
numpy holds the interpreter lock throughout, so worker threads would only
contend. The discord curves are read off the force table: on the
zero-field J-dimer dH/dJ = sigma1.sigma2, so D = |<dH/dJ>| / 6 and each J is
diagonalized once with every T as a lane. A failing grid point aborts the
whole run -- partial curves are never emitted; its error names the failing
temperature, the lowest one when several fail.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .caloric import (
    LatticeHeatSpec,
    _SpectralCache,
    adiabatic_temperature_change_lanes,
    isothermal_entropy_change_lanes,
)
from .curves import Curve, CurveSet
from .errors import ComputationError, QCaloricError
from .scenario import Scenario, build_model
from .thermal import _decompose, _moments_at, _require_lambda, _require_temperature


def thread_count() -> int:
    """Threads a sweep runs on: always 1, the calling thread. QCAL_THREADS
    is accepted and ignored."""
    return 1


def _failure(comp, axis, x, lam_desc, exc):
    return ComputationError(f"{comp} failed at {axis} = {x:g} K, {lam_desc}: {exc}")


def _wrap(fn, comp, t):
    """``fn(lam)``, its QCaloricError named as ``comp`` failing at lam and T = t."""
    def evaluated(lam):
        try:
            return fn(lam)
        except QCaloricError as exc:
            raise _failure(comp, "lambda", lam, f"T = {t:g} K", exc) from exc
    return evaluated


def _raise_first(comp, lam_desc, temps, results):
    """``results``, one per temperature, unless one is a QCaloricError: the
    first in grid order, at the lowest temperature, aborts the sweep."""
    for t, r in zip(temps, results):
        if isinstance(r, QCaloricError):
            raise _failure(comp, "T", t, lam_desc, r) from r
    return results


def _force_table(model, lams, temps, comp) -> np.ndarray:
    """-<dH/dlambda> per (lambda, T) from one read of a spectral cache, each
    lambda diagonalized once with every T as a lane; each entry equals
    ``generalized_force`` bit for bit. Errors name ``comp`` and the lambda."""
    for t in temps:
        _wrap(lambda _: _require_temperature(t), comp, t)(lams[0])

    def build(lam):   # the cache builds each H(lambda) here, so a failure names its lambda
        _require_lambda(lam)
        return model.evaluate(lam)

    cache = _SpectralCache(dataclasses.replace(model, evaluate=_wrap(build, comp, temps[0])))
    return -_moments_at(cache.stack(lams)[:, None], np.array(temps, dtype=float))[1]


def run_sweep(scenario: Scenario, *,
              sweep_values: Optional[Sequence[float]] = None,
              sweep_labels: Optional[Sequence[str]] = None) -> CurveSet:
    """Run all computations a scenario requests and collect the curves.

    ``sweep_values`` overrides the scenario's linear lambda grid (used by
    exchange-table ingestion); ``sweep_labels`` names the per-lambda curves.

    Curve layout per computation:

    * ``entropy`` / ``adiabatic`` / ``classical_adiabatic``: one curve over
      the temperature grid for the sweep endpoints lambda_from -> lambda_to.
    * ``discord``: one curve D(T) per lambda grid value (dimer J).
    * ``force``: one curve Y(lambda) over the sweep grid per temperature.
    * ``decompose``: work / heat / energy-change curves over temperature for
      the isothermal stroke lambda_from -> lambda_to.
    """
    model = build_model(scenario)
    temps = list(scenario.temperatures.values())
    lams = list(sweep_values) if sweep_values is not None else list(scenario.sweep.values())
    lam_i, lam_f = lams[0], lams[-1]
    lam_desc = f"sweep {lam_i:g} -> {lam_f:g}"
    if sweep_labels is None:
        sweep_labels = [f"J={lam:g}" for lam in lams]

    # endpoint computations: curve name, value unit and the lane route over
    # the temperatures; the lambdas resolve their callee when called, not
    # when built
    lattice = scenario.lattice or LatticeHeatSpec()
    endpoint = {
        "entropy": ("entropy_change", "kB",
                    lambda ts: isothermal_entropy_change_lanes(model, lam_i, lam_f, ts)),
        "adiabatic": ("adiabatic_temperature_change", "K",
                      lambda ts: adiabatic_temperature_change_lanes(model, lam_i, lam_f, ts)),
        "classical_adiabatic": (
            "classical_adiabatic_temperature_change", "K",
            lambda ts: adiabatic_temperature_change_lanes(model, lam_i, lam_f, ts, lattice)),
    }

    curves = []
    for comp in scenario.computations:
        if comp in endpoint:
            name, unit, fn = endpoint[comp]
            results = _raise_first(comp, lam_desc, temps, fn(temps))
            curves.append(Curve(
                name=name, abscissa_unit="K", value_unit=unit,
                points=tuple((t, r.value, r.error_estimate)
                             for t, r in zip(temps, results))))
        elif comp == "discord":
            # the scenario is the zero-field J-dimer: D = |<sigma1.sigma2>| / 6
            table = _force_table(model, lams, temps, comp)
            for label, values in zip(sweep_labels, table.tolist()):
                curves.append(Curve(
                    name=f"discord_{label}", abscissa_unit="K",
                    value_unit="dimensionless",
                    points=tuple((t, abs(y) / 6.0, 0.0) for t, y in zip(temps, values))))
        elif comp == "force":
            for t, values in zip(temps, _force_table(model, lams, temps, comp).T.tolist()):
                curves.append(Curve(
                    name=f"force_T={t:g}", abscissa_unit="K", value_unit="K_per_lambda",
                    points=tuple((lam, y, 0.0) for lam, y in zip(lams, values))))
        elif comp == "decompose":
            # every temperature's stroke is a lane of one quadrature on one cache
            results = _raise_first(comp, lam_desc, temps, _decompose(
                _SpectralCache(model), (lam_i, lam_f), [(t, t) for t in temps]))
            for name, pick in (("work", lambda d: (d.work, d.error_estimate)),
                               ("heat", lambda d: (d.heat, d.error_estimate)),
                               ("energy_change", lambda d: (d.energy_change, 0.0))):
                curves.append(Curve(
                    name=name, abscissa_unit="K", value_unit="K",
                    points=tuple((t, *pick(d)) for t, d in zip(temps, results))))
    return CurveSet(curves=tuple(curves))
