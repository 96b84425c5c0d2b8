"""The benchmark's workloads: seeded inputs, the ops of one pass, their oracles.

``prepare(name, seed)`` draws a workload's inputs from the seed, writes the
scenario files the CLI reads into the current directory and builds the
models, and returns the ops of one pass. Each op has a ``run`` that is timed
and a ``check`` that is not: it reads the op's output back (CSV files or
captured stdout for CLI ops) and compares every point with an independent
oracle, returning the number of points delivered and a list of failures.

The J endpoints of the dimer sweep and of the rings are fixed, non-dyadic
values; the seed draws the field and the temperatures. The adiabat's
spectral cache hits only where refinement levels reproduce a lambda node to
the last bit, so its eigensolve count depends on the endpoints' low bits:
seeded endpoints moved it between 14k and 22k per dimer pass, and the pass
time with it, while a fixed pair keeps every seed's work the same.

Program functions are always called through their module attribute
(``qcal.caloric.isothermal_entropy_change``), so that a traced run sees the
calls the tracer wrapped.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracles
import qcaloric as qcal
import qcaloric.cli  # noqa: F401  (binds qcal.cli)


@dataclass
class Op:
    """One call of a pass: ``run`` is timed, ``check(result)`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[int, List[str]]]


@dataclass
class Prepared:
    """A workload ready to run: its inputs, ops and what was fed to the program."""

    name: str
    inputs: dict
    ops: List[Op]
    models: Dict[str, object]      # models the ops look up at call time
    scenario_sha256: Dict[str, str]

    @property
    def inputs_sha256(self):
        return hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode()).hexdigest()


def _draw(rng, lo, hi):
    """A 4-decimal value in [lo, hi] that is not a short binary fraction."""
    while True:
        x = round(rng.uniform(lo, hi), 4)
        if x * 1024 != int(x * 1024):
            return x


# -- spin operators built by the benchmark ----------------------------------

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def spin_operators(n, ring, kron=np.kron):
    """(sum over bonds of sigma_i . sigma_j, total S_z) for n spins-1/2.

    Bonds join neighbours, plus n-1 to 0 when ``ring``. ``kron`` is numpy's
    for the oracles and qcaloric's public ``kron`` for the program's models.
    """
    eye = np.eye(2, dtype=complex)

    def site(op, i):
        out = op if i == 0 else eye
        for k in range(1, n):
            out = kron(out, op if k == i else eye)
        return out

    bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if ring else [])
    exchange = sum(site(s, i) @ site(s, j) for i, j in bonds for s in _PAULI)
    total_sz = sum(site(_PAULI[2] / 2, i) for i in range(n))
    return exchange, total_sz


def ring_model(n, b):
    """Heisenberg ring H(J) = J sum sigma_i . sigma_i+1 - b S_z as a ParamHamiltonian."""
    exchange, total_sz = spin_operators(n, True, kron=qcal.kron)
    x_op = qcal.HermitianOperator(exchange)
    m_op = qcal.HermitianOperator(total_sz)

    def evaluate(lam):
        return qcal.HermitianOperator(lam * x_op.matrix - b * m_op.matrix)

    def derivative(lam):
        return x_op

    return qcal.ParamHamiltonian(
        dimension=2 ** n, parameter_name="J", frozen_params={"b": float(b)},
        evaluate=evaluate, derivative=derivative, magnetization_operator=m_op)


# -- checks -----------------------------------------------------------------

def _read_csv(path):
    """Data rows of a CSV the program wrote; the file is then removed, so that
    the next pass is checked against what it wrote itself."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    os.remove(path)
    return [tuple(float(c) for c in row) for row in rows[1:]]


def _relative(x, ref):
    return abs(ref)


def _absolute(x, ref):
    return 1.0


def _compare(what, rows, xs, oracle, tol, scale):
    """Compare rows of (abscissa, value, ...) read back from text with oracle(x).

    A value passes within ``tol * max(1, scale(x, oracle(x)))`` plus its CSV
    rounding.
    """
    failures = []
    if len(rows) != len(xs):
        failures.append(f"{what}: {len(rows)} rows, expected {len(xs)}")
    for row, x in zip(rows, xs):
        a, v = row[0], row[1]
        if not oracles.within(a, x, 0.0, rounded=True):
            failures.append(f"{what}: abscissa {a!r}, expected {x!r}")
            continue
        ref = oracle(x)
        if not oracles.within(v, ref, tol, scale(x, ref), rounded=True):
            failures.append(f"{what} at {x:.6g}: {v!r}, oracle {ref!r}")
    return len(rows), failures


def _cli(*argv):
    return qcal.cli.cli_main(list(argv))


def _exit_ok(rc, what):
    return [] if rc == 0 else [f"{what}: exit code {rc}"]


# -- dimer_sweep --------------------------------------------------------------

def _scenario(path, model, sweep, temps, computations, output):
    doc = {"model": model, "parameter": "J", "sweep": sweep, "temperatures": temps,
           "computations": computations, "output": output}
    text = json.dumps(doc, indent=2)
    with open(path, "w") as handle:
        handle.write(text)
    scenario = qcal.parse_scenario(text)
    return scenario, hashlib.sha256(qcal.serialize_scenario(scenario).encode()).hexdigest()


def _dimer_sweep(seed):
    rng = random.Random(seed)
    inputs = {"J_from": 0.5037, "J_to": 1.4963,
              "b": _draw(rng, 0.295, 0.305), "T_from": _draw(rng, 0.245, 0.255),
              "T_to": _draw(rng, 4.95, 5.05), "sweep_points": 5, "T_points": 25}
    j_i, j_f, b = inputs["J_from"], inputs["J_to"], inputs["b"]
    scenario, digest = _scenario(
        "dimer.json", {"kind": "dimer", "J": j_i, "b": b},
        {"from": j_i, "to": j_f, "points": inputs["sweep_points"]},
        {"from": inputs["T_from"], "to": inputs["T_to"], "points": inputs["T_points"]},
        ["entropy", "adiabatic", "force"], {"csv": "dimer.csv", "svg": "dimer.svg"})
    temps = [float(t) for t in scenario.temperatures.values()]
    lams = [float(j) for j in scenario.sweep.values()]
    model = qcal.build_dimer(J=j_i, b=b, parameter="J")
    exchange, total_sz = spin_operators(2, False)

    def entropy_check(rc):
        n, failures = _compare(
            "dS quadrature vs direct", _read_csv("dimer.csv"), temps,
            lambda t: qcal.isothermal_entropy_change_direct(model, j_i, j_f, t).value,
            oracles.QUAD_TOL, _relative)
        return n, _exit_ok(rc, "entropy-sweep") + failures

    def adiabatic_check(rc):
        n, failures = _compare(
            "dT ODE vs matching", _read_csv("dimer.csv"), temps,
            lambda t: qcal.adiabatic_temperature_change_matching(model, j_i, j_f, t).value,
            oracles.ODE_TOL + oracles.MATCH_TOL, _absolute)
        return n, _exit_ok(rc, "adiabatic-sweep") + failures

    def force_check(rc):
        names = [qcal.Curve(f"force_T={t:g}", "K", "K_per_lambda", ()) for t in temps]
        paths = qcal.curves.csv_paths(qcal.CurveSet(tuple(names)), "dimer.csv")
        total, failures = 0, _exit_ok(rc, "force")
        for t, path in zip(temps, paths):
            n, f = _compare(
                f"force at T={t:.6g} vs eigh", _read_csv(path), lams,
                lambda lam, t=t: oracles.generalized_force(
                    lam * exchange - b * total_sz, exchange, t),
                oracles.SPECTRAL_TOL, _relative)
            total += n
            failures += f
        return total, failures

    discord_argv = ("discord", "--J", repr(j_i), "--T-from", repr(inputs["T_from"]),
                    "--T-to", repr(inputs["T_to"]), "--points", str(inputs["T_points"]))

    def discord_run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = _cli(*discord_argv)
        return rc, out.getvalue()

    def discord_check(result):
        rc, text = result
        lines = text.splitlines()
        failures = _exit_ok(rc, "discord")
        if not lines or lines[0] != "T_K,discord":
            return 0, failures + ["discord: missing header T_K,discord"]
        rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        xs = [float(t) for t in np.linspace(inputs["T_from"], inputs["T_to"], inputs["T_points"])]
        zf_model = qcal.build_dimer(J=j_i, b=0.0, parameter="b")
        n, f = _compare(
            "discord vs susceptibility", rows, xs,
            lambda t: qcal.discord_from_susceptibility(
                qcal.zero_field_susceptibility(zf_model, t), t),
            oracles.SPECTRAL_TOL, _relative)
        return n, failures + f

    ops = [
        Op("entropy-sweep", lambda: _cli("entropy-sweep", "--scenario", "dimer.json"),
           entropy_check),
        Op("adiabatic-sweep", lambda: _cli("adiabatic-sweep", "--scenario", "dimer.json"),
           adiabatic_check),
        Op("force", lambda: _cli("force", "--scenario", "dimer.json"), force_check),
        Op("discord", discord_run, discord_check),
    ]
    return Prepared("dimer_sweep", inputs, ops, {}, {"dimer.json": digest})


# -- ring_spectra -------------------------------------------------------------

def _ring_spectra(seed):
    rng = random.Random(seed)
    inputs = {"J_from": 0.6037, "J_to": 1.3963, "b": _draw(rng, 0.345, 0.355),
              "T_ring4": [_draw(rng, t - 0.01, t + 0.01) for t in (0.9, 1.7, 3.0)],
              "T_ring6": [_draw(rng, t - 0.01, t + 0.01) for t in (0.8, 1.3, 2.2, 3.2)]}
    j_i, j_f, b = inputs["J_from"], inputs["J_to"], inputs["b"]
    models = {"ring4": ring_model(4, b), "ring6": ring_model(6, b)}
    oracle_ops = {key: spin_operators(n, True) for key, n in (("ring4", 4), ("ring6", 6))}

    def matrices(key):
        exchange, total_sz = oracle_ops[key]
        return j_i * exchange - b * total_sz, j_f * exchange - b * total_sz

    def check(what, oracle, tol, scale):
        def run_check(result):
            ref = oracle()
            ok = oracles.within(result.value, ref, tol, scale(None, ref))
            return 1, [] if ok else [f"{what}: {result.value!r}, oracle {ref!r}"]
        return run_check

    def call(route, key, t):
        return lambda: getattr(qcal.caloric, route)(models[key], j_i, j_f, t)

    ops = []
    for key, temps, routes in (
            ("ring4", inputs["T_ring4"], ("quad", "direct", "ode", "match")),
            # dim-64 quadrature costs about half a minute per point; left out
            ("ring6", inputs["T_ring6"], ("direct", "match"))):
        for t in temps:
            h_i, h_f = matrices(key)
            table = {
                "quad": ("isothermal_entropy_change", check(
                    f"{key} dS quadrature vs direct at T={t}",
                    lambda key=key, t=t: qcal.isothermal_entropy_change_direct(
                        models[key], j_i, j_f, t).value, oracles.QUAD_TOL, _relative)),
                "direct": ("isothermal_entropy_change_direct", check(
                    f"{key} dS direct vs eigh at T={t}",
                    lambda h_i=h_i, h_f=h_f, t=t: oracles.entropy(h_f, t) - oracles.entropy(h_i, t),
                    oracles.SPECTRAL_TOL, _relative)),
                "ode": ("adiabatic_temperature_change", check(
                    f"{key} dT ODE vs matching at T={t}",
                    lambda key=key, t=t: qcal.adiabatic_temperature_change_matching(
                        models[key], j_i, j_f, t).value,
                    oracles.ODE_TOL + oracles.MATCH_TOL, _absolute)),
                "match": ("adiabatic_temperature_change_matching", check(
                    f"{key} dT matching vs eigh bisection at T={t}",
                    lambda h_i=h_i, h_f=h_f, t=t: oracles.matching_temperature(h_i, h_f, t) - t,
                    oracles.MATCH_TOL, _absolute)),
            }
            for route in routes:
                fn, checker = table[route]
                ops.append(Op(f"{key}.{route}@T={t}", call(fn, key, t), checker))
    return Prepared("ring_spectra", inputs, ops, models, {})


# -- decompose_stroke ---------------------------------------------------------

def _decompose_stroke(seed):
    rng = random.Random(seed)
    inputs = {
        # the pinned reference: at T = 1 K process_decompose spends all 15
        # doublings and returns without converging
        "reference": {"J_from": 0.5, "J_to": 1.5, "b": 0.3, "T_from": 1.0, "T_to": 7.0},
        "seeded": {"J_from": _draw(rng, 0.55, 0.65), "J_to": _draw(rng, 1.35, 1.45),
                   "b": _draw(rng, 0.25, 0.35), "T_from": _draw(rng, 4.0, 4.4),
                   "T_to": _draw(rng, 5.5, 6.0)},
        "T_points": 3,
    }
    ops, digests = [], {}
    for stroke in ("reference", "seeded"):
        p = inputs[stroke]
        scenario, digests[f"{stroke}.json"] = _scenario(
            f"{stroke}.json", {"kind": "dimer", "J": p["J_from"], "b": p["b"]},
            {"from": p["J_from"], "to": p["J_to"], "points": 2},
            {"from": p["T_from"], "to": p["T_to"], "points": inputs["T_points"]},
            ["decompose"], {"csv": f"{stroke}.csv"})
        temps = [float(t) for t in scenario.temperatures.values()]
        model = qcal.build_dimer(J=p["J_from"], b=p["b"], parameter="J")

        def closed_form(t, p=p, model=model):
            a = qcal.thermo_point(qcal.thermal_state(model, p["J_from"], t))
            z = qcal.thermo_point(qcal.thermal_state(model, p["J_to"], t))
            work = z.free_energy - a.free_energy
            heat = t * (z.entropy - a.entropy)
            return {"work": work, "heat": heat,
                    "energy_change": z.internal_energy - a.internal_energy,
                    "scale": max(1.0, abs(work), abs(heat))}

        def check(rc, stroke=stroke, temps=temps, closed_form=closed_form):
            failures = _exit_ok(rc, f"decompose {stroke}")
            refs = {t: closed_form(t) for t in temps}
            counts = []
            for part, label in (("work", "W vs dF"), ("heat", "Q vs T dS"),
                                ("energy_change", "dU vs U_f - U_i")):
                n, f = _compare(
                    f"{stroke} {label}", _read_csv(f"{stroke}__{part}.csv"), temps,
                    lambda t, part=part: refs[t][part], oracles.DECOMPOSE_TOL,
                    lambda t, ref: refs[t]["scale"])
                counts.append(n)
                failures += f
            return min(counts), failures

        ops.append(Op(f"decompose {stroke}",
                      lambda stroke=stroke: _cli("decompose", "--scenario", f"{stroke}.json"),
                      check))
    return Prepared("decompose_stroke", inputs, ops, {}, digests)


WORKLOADS = {
    "dimer_sweep": _dimer_sweep,
    "ring_spectra": _ring_spectra,
    "decompose_stroke": _decompose_stroke,
}


def prepare(name, seed) -> Prepared:
    """Inputs, scenario files (in the current directory) and ops of a workload."""
    return WORKLOADS[name](seed)
