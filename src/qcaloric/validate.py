"""Named invariant checks covering every module, run by ``qcaloric validate``.

Each check is a pure function returning (passed, detail). ``run_checks``
executes all of them (smaller grids and case counts with ``quick=True``)
and reports one line per check. All randomness is seeded, so the suite is
deterministic.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple

import numpy as np

from . import caloric, discord, linalg, models, scenario, sweep, thermal
from .curves import render_csv

Check = Tuple[str, Callable[[bool], Tuple[bool, str]]]


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def _charpoly_roots(h):
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients from the Faddeev-LeVerrier recursion, roots from
    numpy.roots -- a route fully independent of LAPACK's ``eigh``.
    """
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(float(-np.trace(h @ m).real / k))
    return np.sort(np.real(np.roots(coeffs)))


def _sample_models():
    return [
        ("dimer(J)", models.build_dimer(J=1.0, b=0.3, parameter="J"), (0.3, 2.0)),
        ("dimer(b)", models.build_dimer(J=0.8, b=0.5, parameter="b"), (0.2, 1.5)),
        ("single_spin", models.build_single_spin_zeeman(1.0), (0.2, 3.0)),
    ]


def _tabulated_model():
    grid = np.linspace(0.0, 2.0, 9)
    rows = np.column_stack([0.5 * grid, 1.0 + 0.2 * grid, 2.0 - 0.1 * grid])
    return models.build_tabulated(models.SpectrumTable(grid, rows))


# --- linalg ------------------------------------------------------------------

def check_trace_identities(quick):
    rng = np.random.default_rng(11)
    sizes = (2, 3, 4, 6) if quick else (2, 3, 4, 6, 8, 12)
    worst = 0.0
    for n in sizes:
        for _ in range(5):
            h = _random_hermitian(rng, n)
            dec = linalg.hermitian_eigen(h)
            norm = np.linalg.norm(h)
            worst = max(
                worst,
                abs(np.sum(dec.values) - np.trace(h).real) / norm,
                abs(np.sum(dec.values ** 2) - np.trace(h @ h).real) / norm)
    return worst <= 1e-10, f"worst trace-identity residual {worst:.2e} (tol 1e-10)"


def check_charpoly_agreement(quick):
    rng = np.random.default_rng(12)
    cases = 10 if quick else 40
    worst = 0.0
    for _ in range(cases):
        for n in (2, 4):
            h = _random_hermitian(rng, n)
            ours = linalg.hermitian_eigen(h).values
            ref = _charpoly_roots(h)
            worst = max(worst, float(np.max(np.abs(ours - ref))))
    return worst <= 1e-9, f"worst |eigh - charpoly| {worst:.2e} (tol 1e-9)"


def check_eigen_residuals(quick):
    rng, labels = np.random.default_rng(13), np.random.default_rng(15)
    sizes = (2, 4) if quick else (2, 4, 8, 16)
    worst_res = worst_ortho = 0.0
    for n in sizes:
        for _ in range(5):
            dense = _random_hermitian(rng, n)
            sector = labels.integers(0, n // 2 + 1, size=n)   # hidden blocks, solved by sector
            for h in (dense, dense * (sector[:, None] == sector)):
                dec = linalg.hermitian_eigen(h)
                norm = np.linalg.norm(h)
                res = np.linalg.norm(h @ dec.vectors - dec.vectors * dec.values)
                worst_res = max(worst_res, res / norm)
                worst_ortho = max(worst_ortho, float(np.max(np.abs(
                    dec.vectors.conj().T @ dec.vectors - np.eye(n)))))
    ok = worst_res <= 1e-10 and worst_ortho <= 1e-10
    return ok, (f"residual {worst_res:.2e}, orthonormality {worst_ortho:.2e} "
                "(tol 1e-10) on dense and hidden-block matrices")


def _ring_model(sites, b):
    """Heisenberg ring H(J) = J sum_i sigma_i . sigma_i+1 - b S_z, periodic,
    with J the working parameter; dimension 2^sites."""
    _, _, sz, *paulis = linalg.spin_half_operators()
    eye = np.eye(2, dtype=complex)

    def on(ops):   # the product of site operators {site: op}
        out = np.ones((1, 1), dtype=complex)
        for k in range(sites):
            out = linalg.kron(out, ops.get(k, eye))
        return out

    exchange = sum(on({i: p, (i + 1) % sites: p}) for p in paulis for i in range(sites))
    total_sz = sum(on({i: sz}) for i in range(sites))
    return models._affine("J", {"b": b}, -b * total_sz, linalg.HermitianOperator(exchange),
                          linalg.HermitianOperator(total_sz))


def _level_groups(levels, values, tol):
    """Where each group of levels within ``tol`` of its neighbour starts, and
    the sum of ``values`` over each group: invariant under any choice of
    eigenbasis inside a degenerate level."""
    starts = np.r_[0, np.flatnonzero(np.diff(levels) > tol) + 1]
    return starts, np.add.reduceat(values, starts)


def check_sector_fill(quick):
    """The spectral cache's sector fill against whole-matrix ``eigh``: levels,
    and the dH/dlambda diagonal summed over each degenerate level; and each
    affine family's fill from its sector blocks against the per-node fill of
    the same model, bit for bit."""
    cases = [("dimer", models.build_dimer(J=1.0, b=0.3, parameter="J")),
             ("ring4", _ring_model(4, 0.35)), ("ring6", _ring_model(6, 0.35))]
    lams = np.linspace(0.6037, 1.3963, 3 if quick else 9)
    worst_e = worst_a = 0.0
    for name, model in cases:
        rows = caloric._SpectralCache(model).stack(lams)
        per_node = dataclasses.replace(model, evaluate=lambda lam, read=model.evaluate: read(lam))
        if rows.tobytes() != caloric._SpectralCache(per_node).stack(lams).tobytes():
            return False, f"{name}: the family fill differs from the per-node fill"
        for lam, (levels, diag, _) in zip(lams, rows):
            values, vectors = np.linalg.eigh(model.evaluate(lam).matrix)
            ref = np.real(np.sum(vectors.conj() * (model.derivative(lam).matrix @ vectors), axis=0))
            spread = values[-1] - values[0]
            starts, sums = _level_groups(values, ref, 1e-9 * spread)
            starts_got, sums_got = _level_groups(levels, diag, 1e-9 * spread)
            if not np.array_equal(starts, starts_got):
                return False, f"{name} at J = {lam:g}: degenerate levels grouped differently"
            worst_e = max(worst_e, float(np.max(np.abs(levels - values))) / spread)
            worst_a = max(worst_a, float(np.max(np.abs(sums_got - sums))) / max(
                1.0, float(np.max(np.abs(ref)))))
    ok = worst_e <= 1e-13 and worst_a <= 1e-12
    return ok, (f"worst level gap {worst_e:.2e} of the spread (tol 1e-13), worst dH/dJ "
                f"group-sum gap {worst_a:.2e} (tol 1e-12) on the dimer, ring4 and ring6; "
                "family fill = per-node fill bit for bit")


def check_kron_associativity(quick):
    rng = np.random.default_rng(14)
    for _ in range(3 if quick else 10):
        a = rng.integers(-3, 4, size=(2, 2)).astype(complex)
        b = rng.integers(-3, 4, size=(3, 3)).astype(complex)
        c = rng.integers(-3, 4, size=(2, 2)).astype(complex)
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        if not np.array_equal(left, right):
            return False, "kron associativity violated on integer matrices"
    return True, "kron associative (exact) on integer-entry samples"


# --- models ------------------------------------------------------------------

def check_derivative_consistency(quick):
    worst = 0.0
    builders = _sample_models() + [("tabulated", _tabulated_model(), (0.1, 1.9))]
    for name, model, (lo, hi) in builders:
        for lam in np.linspace(lo + 0.017, hi - 0.017, 10):
            h = 1e-5 * max(1.0, abs(lam))
            fd = (model.evaluate(lam + h).matrix
                  - model.evaluate(lam - h).matrix) / (2.0 * h)
            an = model.derivative(lam).matrix
            scale = max(float(np.max(np.abs(an))), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - an))) / scale)
    return worst <= 1e-6, f"worst derivative FD deviation {worst:.2e} (tol 1e-6)"


def check_dimer_paramagnet_equivalence(quick):
    dimer = models.build_dimer(J=0.0, b=1.0, parameter="b")
    single = models.build_single_spin_zeeman(1.0)
    worst = 0.0
    bs = np.linspace(0.1, 3.0, 4 if quick else 8)
    ts = np.geomspace(0.2, 5.0, 4 if quick else 8)
    for b in bs:
        for t in ts:
            s_pair = thermal.thermo_point(thermal.thermal_state(dimer, b, t)).entropy
            s_one = thermal.thermo_point(thermal.thermal_state(single, b, t)).entropy
            worst = max(worst, abs(s_pair / 2.0 - s_one))
    return worst <= 1e-10, f"worst per-spin entropy gap {worst:.2e} (tol 1e-10)"


# --- thermal engine ----------------------------------------------------------

def _thermo(model, lam, t):
    return thermal.thermo_point(thermal.thermal_state(model, lam, t))


def check_specific_heat_consistency(quick):
    rng = np.random.default_rng(21)
    per_model = 8 if quick else 34
    worst = 0.0
    for name, model, (lo, hi) in _sample_models():
        for _ in range(per_model):
            lam = rng.uniform(lo, hi)
            t = rng.uniform(0.4, 4.0)
            h = 1e-4 * t
            c_var = _thermo(model, lam, t).specific_heat
            ds_dt = (_thermo(model, lam, t + h).entropy
                     - _thermo(model, lam, t - h).entropy) / (2 * h)
            du_dt = (_thermo(model, lam, t + h).internal_energy
                     - _thermo(model, lam, t - h).internal_energy) / (2 * h)
            scale = max(abs(c_var), 1e-10)
            worst = max(worst, abs(c_var - t * ds_dt) / scale,
                        abs(c_var - du_dt) / scale)
    return worst <= 1e-5, f"worst C-consistency deviation {worst:.2e} (tol 1e-5)"


def check_entropy_monotone_in_temperature(quick):
    ts = np.geomspace(0.05, 50.0, 16 if quick else 48)
    for name, model, (lo, hi) in _sample_models():
        for lam in np.linspace(lo, hi, 3):
            entries = [_thermo(model, lam, t).entropy for t in ts]
            diffs = np.diff(entries)
            if np.any(diffs < -1e-12):
                return False, f"{name}: entropy decreases in T at lambda={lam:g}"
    return True, "entropy non-decreasing in T for all sampled models"


def check_hellmann_feynman(quick):
    rng = np.random.default_rng(22)
    per_model = 9 if quick else 34
    worst = 0.0
    for name, model, (lo, hi) in _sample_models():
        for _ in range(per_model):
            lam = rng.uniform(lo, hi)
            t = rng.uniform(0.3, 3.0)
            state = thermal.thermal_state(model, lam, t)
            gaps = np.diff(state.spectrum.values)
            spread = state.spectrum.values[-1] - state.spectrum.values[0]
            if np.any((gaps > 0) & (gaps < 1e-8 * max(1.0, spread))):
                lam += 1e-9   # nudge off a crossing
                state = thermal.thermal_state(model, lam, t)
            operator_route = thermal.thermal_average(
                state, model.derivative(lam))
            h = 1e-5 * max(1.0, abs(lam))
            e_plus = thermal.thermal_state(model, lam + h, t).spectrum.values
            e_minus = thermal.thermal_state(model, lam - h, t).spectrum.values
            fd_route = float(np.dot(state.populations,
                                    (e_plus - e_minus) / (2 * h)))
            worst = max(worst, abs(operator_route - fd_route)
                        / max(abs(operator_route), 1e-8))
    return worst <= 1e-6, f"worst Hellmann-Feynman deviation {worst:.2e} (tol 1e-6)"


def check_free_energy_identity(quick):
    rng = np.random.default_rng(23)
    worst = 0.0
    for name, model, (lo, hi) in _sample_models():
        for _ in range(10 if quick else 30):
            lam = rng.uniform(lo, hi)
            t = rng.uniform(0.2, 5.0)
            pt = _thermo(model, lam, t)
            worst = max(worst, abs(pt.free_energy
                                   - (pt.internal_energy - t * pt.entropy))
                        / max(1.0, abs(pt.internal_energy)))
    return worst <= 1e-10, f"worst |F - (U - TS)| {worst:.2e} (tol 1e-10)"


def check_first_law_closure(quick):
    single = models.build_single_spin_zeeman(1.0)
    dimer = models.build_dimer(J=1.0, b=0.0, parameter="J")
    worst = 0.0
    # isothermal stroke
    d = thermal.process_decompose(single, [(1.0, 1.0), (2.0, 1.0)])
    worst = max(worst, abs(d.energy_change - (d.work + d.heat))
                / max(1.0, abs(d.energy_change)))
    # isochoric stroke: constant lambda, work must vanish identically
    d = thermal.process_decompose(dimer, [(1.0, 0.5), (1.0, 2.5)])
    if d.work != 0.0:
        return False, f"isochoric work {d.work:.2e} is not exactly zero"
    worst = max(worst, abs(d.energy_change - (d.work + d.heat))
                / max(1.0, abs(d.energy_change)))
    # adiabat: follow the integrated isentrope, heat must vanish
    adiabat = caloric.adiabatic_temperature_change(dimer, 0.6, 1.4, 1.0)
    d = thermal.process_decompose(dimer, adiabat.path)
    worst = max(worst, abs(d.energy_change - (d.work + d.heat))
                / max(1.0, abs(d.energy_change)))
    if abs(d.heat) > 1e-6:
        return False, f"adiabat heat {d.heat:.2e} exceeds 1e-6"
    return worst <= 1e-8, (f"worst first-law closure {worst:.2e} (tol 1e-8), "
                           f"adiabat heat {abs(d.heat):.2e}")


def check_decompose_closed_form(quick):
    """W = dF and Q = T dS on isothermal strokes, T from 0.1 to 10 gaps."""
    strokes = (("dimer(J)", models.build_dimer(J=1.0, b=0.3, parameter="J"), 0.5, 1.5),
               ("dimer(b)", models.build_dimer(J=0.8, b=0.5, parameter="b"), 0.2, 1.5),
               ("single_spin", models.build_single_spin_zeeman(1.0), 0.5, 2.0))
    worst = 0.0
    for name, model, lam_i, lam_f in strokes:
        levels = thermal.thermal_state(model, lam_i, 1.0).spectrum.values
        gap = float(levels[1] - levels[0])
        for ratio in ((0.1, 1.0, 10.0) if quick else (0.1, 0.3, 1.0, 3.0, 10.0)):
            t = ratio * gap
            a = _thermo(model, lam_i, t)
            z = _thermo(model, lam_f, t)
            work, heat = z.free_energy - a.free_energy, t * (z.entropy - a.entropy)
            d = thermal.process_decompose(model, [(lam_i, t), (lam_f, t)])
            worst = max(worst, max(abs(d.work - work), abs(d.heat - heat))
                        / max(1.0, abs(work), abs(heat)))
    return worst <= 1e-9, f"worst |W - dF|, |Q - T dS| {worst:.2e} of scale (tol 1e-9)"


def check_susceptibility_fd_crosscheck(quick):
    worst = 0.0
    for model in (models.build_single_spin_zeeman(1.0),
                  models.build_dimer(J=1.0, b=0.0, parameter="b"),
                  models.build_dimer(J=-0.7, b=0.0, parameter="b")):
        for t in (0.5, 1.0, 2.0):
            chi = thermal.zero_field_susceptibility(model, t)
            h = 1e-5
            m_plus = thermal.magnetization(
                thermal.thermal_state(model, h, t), model)
            m_minus = thermal.magnetization(
                thermal.thermal_state(model, -h, t), model)
            fd = (m_plus - m_minus) / (2 * h)
            worst = max(worst, abs(chi - fd) / max(abs(chi), 1e-10))
    return worst <= 1e-6, f"worst chi deviation vs dM/db {worst:.2e} (tol 1e-6)"


# --- caloric potentials ------------------------------------------------------

def _random_caloric_cases(rng, count):
    cases = []
    for _ in range(count):
        pick = rng.integers(0, 3)
        if pick == 0:
            model = models.build_dimer(J=1.0, b=rng.uniform(0.0, 0.6),
                                       parameter="J")
            lam_i, lam_f = sorted(rng.uniform(0.3, 2.0, size=2))
        elif pick == 1:
            model = models.build_dimer(J=rng.uniform(-1.0, 1.0), b=0.5,
                                       parameter="b")
            lam_i, lam_f = sorted(rng.uniform(0.2, 2.0, size=2))
        else:
            model = models.build_single_spin_zeeman(1.0)
            lam_i, lam_f = sorted(rng.uniform(0.3, 2.5, size=2))
        if lam_f - lam_i < 0.05:
            lam_f += 0.1
        cases.append((model, lam_i, lam_f, rng.uniform(0.3, 3.0)))
    return cases


def check_entropy_oracle_equivalence(quick):
    rng = np.random.default_rng(31)
    worst = 0.0
    for model, lam_i, lam_f, t in _random_caloric_cases(rng, 10 if quick else 50):
        quad = caloric.isothermal_entropy_change(model, lam_i, lam_f, t).value
        direct = caloric.isothermal_entropy_change_direct(
            model, lam_i, lam_f, t).value
        worst = max(worst, abs(quad - direct))
    return worst <= 1e-6, f"worst |quadrature - direct| {worst:.2e} k_B (tol 1e-6)"


def check_temperature_oracle_equivalence(quick):
    rng = np.random.default_rng(32)
    worst = 0.0
    for model, lam_i, lam_f, t in _random_caloric_cases(rng, 10 if quick else 50):
        ode = caloric.adiabatic_temperature_change(model, lam_i, lam_f, t).value
        matched = caloric.adiabatic_temperature_change_matching(
            model, lam_i, lam_f, t).value
        worst = max(worst, abs(ode - matched))
    return worst <= 1e-6, f"worst |ODE - entropy matching| {worst:.2e} K (tol 1e-6)"


def check_zeeman_reversibility(quick):
    rng = np.random.default_rng(33)
    model = models.build_single_spin_zeeman(1.0)
    worst = 0.0
    for _ in range(5 if quick else 20):
        b_i, b_f = rng.uniform(0.1, 10.0, size=2)
        t_start = rng.uniform(0.5, 5.0)
        res = caloric.adiabatic_temperature_change(model, b_i, b_f, t_start)
        t_end = t_start + res.value
        worst = max(worst, abs(t_end / t_start - b_f / b_i) / (b_f / b_i))
    return worst <= 1e-9, f"worst |T_f/T_i - b_f/b_i| relative {worst:.2e} (tol 1e-9)"


def check_adiabat_entropy_conservation(quick):
    rng = np.random.default_rng(34)
    worst = 0.0
    for model, lam_i, lam_f, t in _random_caloric_cases(rng, 6 if quick else 20):
        res = caloric.adiabatic_temperature_change(model, lam_i, lam_f, t)
        start, *rows = caloric._SpectralCache(model).stack([lam_i, *(lam for lam, _ in res.path)])
        target = thermal._entropy(start[2], t)
        drift = max(abs(thermal._entropy(row[2], temp) - target)
                    for row, (_, temp) in zip(rows, res.path))
        worst = max(worst, drift)
    return worst <= 1e-7, f"worst entropy drift along adiabats {worst:.2e} k_B (tol 1e-7)"


def check_zero_field_isentrope(quick):
    # b = 0: S depends on J/T only, so J 0.5 -> 1.5 doubles T at every T/gap (gap 4J = 2)
    zero, field = (models.build_dimer(J=1.0, b=b, parameter="J") for b in (0.0, 0.3))
    ratios = (1.5e-3, 1e-2, 1, 1e3) if quick else (1.5e-3, 3e-3, 1e-2, 3e-2, 0.1, 1, 10, 1e2, 1e3)
    worst = max(abs(caloric.adiabatic_temperature_change(zero, 0.5, 1.5, 2.0 * r).value
                    / (4.0 * r) - 1.0) for r in ratios)
    off = abs(caloric.adiabatic_temperature_change(field, 0.5, 1.5, 0.01).value
              - caloric.adiabatic_temperature_change_matching(field, 0.5, 1.5, 0.01).value)
    return worst <= 1e-12 and off <= 1e-9, (
        f"worst |dT / 2T - 1| {worst:.2e} at T/gap 1.5e-3..1e3 (tol 1e-12); b = 0.3, "
        f"T = 0.01: |ODE - matching| {off:.2e} K (tol 1e-9)")


def check_maxwell_grid(quick):
    n = 6 if quick else 20
    worst = 0.0
    cases = [
        (models.build_dimer(J=1.0, b=0.3, parameter="J"), (0.3, 2.0)),
        (models.build_dimer(J=0.8, b=0.5, parameter="b"), (0.2, 1.5)),
        (models.build_single_spin_zeeman(1.0), (0.2, 3.0)),
    ]
    for model, (lo, hi) in cases:
        for lam in np.linspace(lo, hi, n):
            for t in np.linspace(0.3, 4.0, n):
                worst = max(worst, abs(caloric.maxwell_residual(model, lam, t)))
    return worst <= 1e-6, f"worst Maxwell residual {worst:.2e} (tol 1e-6)"


def check_sign_structure(quick):
    ts = np.linspace(0.2, 5.0, 8 if quick else 20)
    standard = [(0.5, 1.5), (0.2, 0.8), (1.0, 3.0)]
    inverse = [(-1.5, -0.5), (-3.0, -1.0), (-0.8, -0.2)]
    for j_i, j_f in standard:
        model = models.build_dimer(J=j_i, b=0.0, parameter="J")
        for t in ts:
            if not caloric.isothermal_entropy_change(model, j_i, j_f, t).value < 0:
                return False, f"standard effect violated at J {j_i}->{j_f}, T={t:g}"
    for j_i, j_f in inverse:
        model = models.build_dimer(J=j_i, b=0.0, parameter="J")
        for t in ts:
            if not caloric.isothermal_entropy_change(model, j_i, j_f, t).value > 0:
                return False, f"inverse effect violated at J {j_i}->{j_f}, T={t:g}"
    return True, "dS_iso < 0 for growing J > 0 and > 0 for weakening J < 0"


def check_classical_limits(quick):
    model = models.build_single_spin_zeeman(1.0)
    quantum = caloric.adiabatic_temperature_change(model, 0.5, 1.5, 1.0).value
    no_lattice = caloric.classical_adiabatic_temperature_change(
        model, caloric.LatticeHeatSpec(), 0.5, 1.5, 1.0).value
    heavy = caloric.classical_adiabatic_temperature_change(
        model, caloric.LatticeHeatSpec(a0=1e9), 0.5, 1.5, 1.0).value
    cubic = caloric.classical_adiabatic_temperature_change(
        model, caloric.LatticeHeatSpec(a3=1.0), 0.5, 1.5, 1.0).value
    ok = (abs(no_lattice - quantum) <= 1e-9 and abs(heavy) <= 1e-6
          and abs(cubic) < abs(no_lattice))
    return ok, (f"|classical(c_l=0) - quantum| = {abs(no_lattice - quantum):.2e}, "
                f"|dT(a0=1e9)| = {abs(heavy):.2e}, monotone under added heat: "
                f"{abs(cubic) < abs(no_lattice)}")


# --- correlations / discord --------------------------------------------------

def check_discord_monotone(quick):
    for j in (-2.0, -0.5, 0.5, 2.0):
        scale = abs(4.0 * j)
        ts = np.geomspace(0.05 * scale, 50.0 * scale, 12 if quick else 40)
        values = [discord.pair_correlation(j, t).discord for t in ts]
        if np.any(np.diff(values) > 1e-12):
            return False, f"discord increases with T at J={j:g}"
    return True, "D(T) non-increasing on geometric grids for both signs of J"


def check_discord_route_equivalence(quick):
    n = 6 if quick else 20
    worst = 0.0
    for j in np.linspace(-2.0, 2.0, n):
        if j == 0.0:
            continue
        model = models.build_dimer(J=j, b=0.0, parameter="b")
        for t in np.linspace(0.3, 4.0, n):
            rec = discord.pair_correlation(j, t)
            d_corr = discord.discord_from_correlation(rec)
            chi = thermal.zero_field_susceptibility(model, t)
            d_chi = discord.discord_from_susceptibility(chi, t)
            worst = max(worst, abs(d_corr - d_chi))
    return worst <= 1e-10, f"worst |D_corr - D_chi| {worst:.2e} (tol 1e-10)"


def check_discord_integral_identity(quick):
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10 if quick else 50):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        j_a, j_b = np.sort(rng.uniform(0.2, 2.5, size=2))
        if j_b - j_a < 0.05:
            j_b += 0.1
        j_i, j_f = sign * j_a, sign * j_b
        t = rng.uniform(0.3, 3.0)
        model = models.build_dimer(J=j_i, b=0.0, parameter="J")
        from_discord = discord.entropy_change_from_discord(j_i, j_f, t)
        from_maxwell = abs(caloric.isothermal_entropy_change(
            model, j_i, j_f, t).value)
        worst = max(worst, abs(from_discord - from_maxwell))
    return worst <= 1e-6, f"worst |discord integral - dS_iso| {worst:.2e} k_B (tol 1e-6)"


def check_discord_ranges(quick):
    for j in np.linspace(-2.0, 2.0, 9):
        if j == 0.0:
            continue
        for t in np.geomspace(0.1, 10.0, 8):
            rec = discord.pair_correlation(j, t)
            c = rec.mean_correlation
            if j > 0 and not -1.0 - 1e-12 <= c <= 1e-12:
                return False, f"c={c:g} out of [-1, 0] at J={j:g}, T={t:g}"
            if j < 0 and not -1e-12 <= c <= 1.0 / 3.0 + 1e-12:
                return False, f"c={c:g} out of [0, 1/3] at J={j:g}, T={t:g}"
            if not 0.0 <= rec.discord <= 0.5 + 1e-12:
                return False, f"D={rec.discord:g} out of [0, 1/2]"
            if abs(rec.discord - abs(c) / 2.0) > 1e-12:
                return False, "record discord differs from |c|/2"
    return True, "correlation and discord ranges hold on the sampled grid"


# --- scenario / IO -----------------------------------------------------------

_DEMO_SCENARIO = """{
  "model": {"kind": "dimer", "J": 1.0, "b": 0.0},
  "parameter": "J",
  "sweep": {"from": 0.5, "to": 1.5, "points": 3},
  "temperatures": {"from": 0.4, "to": 3.0, "points": 5},
  "computations": ["entropy", "discord"],
  "output": {"csv": "out.csv"}
}"""


def check_scenario_roundtrip(quick):
    first = scenario.parse_scenario(_DEMO_SCENARIO)
    second = scenario.parse_scenario(scenario.serialize_scenario(first))
    return first == second, "parse -> serialize -> parse is the identity"


def check_csv_determinism(quick):
    scn = scenario.parse_scenario(_DEMO_SCENARIO)
    first, second = ("".join(render_csv(c) for c in sweep.run_sweep(scn)).encode()
                     for _ in range(2))
    return first == second, "CSV bytes identical over two runs"


def check_entropy_peak_shape(quick):
    model = models.build_dimer(J=0.5, b=0.0, parameter="J")
    ts = np.linspace(0.2, 5.0, 25 if quick else 49)
    values = np.array([abs(caloric.isothermal_entropy_change(
        model, 0.5, 1.5, t).value) for t in ts])
    interior = range(1, len(values) - 1)
    maxima = [k for k in interior
              if values[k] > values[k - 1] and values[k] >= values[k + 1]]
    k_max = int(np.argmax(values))
    ok = len(maxima) == 1 and 0 < k_max < len(values) - 1
    return ok, (f"|dS_iso|(T) has {len(maxima)} interior maximum/maxima, "
                f"peak at T = {ts[k_max]:.2f} K")


CHECKS: List[Check] = [
    ("linalg.trace_identities", check_trace_identities),
    ("linalg.charpoly_agreement", check_charpoly_agreement),
    ("linalg.eigen_residuals", check_eigen_residuals),
    ("linalg.kron_associativity", check_kron_associativity),
    ("linalg.sector_fill", check_sector_fill),
    ("models.derivative_consistency", check_derivative_consistency),
    ("models.dimer_paramagnet_equivalence", check_dimer_paramagnet_equivalence),
    ("thermal.specific_heat_consistency", check_specific_heat_consistency),
    ("thermal.entropy_monotone_in_temperature", check_entropy_monotone_in_temperature),
    ("thermal.hellmann_feynman", check_hellmann_feynman),
    ("thermal.free_energy_identity", check_free_energy_identity),
    ("thermal.first_law_closure", check_first_law_closure),
    ("thermal.decompose_closed_form", check_decompose_closed_form),
    ("thermal.susceptibility_fd_crosscheck", check_susceptibility_fd_crosscheck),
    ("caloric.entropy_oracle_equivalence", check_entropy_oracle_equivalence),
    ("caloric.temperature_oracle_equivalence", check_temperature_oracle_equivalence),
    ("caloric.zeeman_reversibility", check_zeeman_reversibility),
    ("caloric.adiabat_entropy_conservation", check_adiabat_entropy_conservation),
    ("caloric.zero_field_isentrope", check_zero_field_isentrope),
    ("caloric.maxwell_grid", check_maxwell_grid),
    ("caloric.sign_structure", check_sign_structure),
    ("caloric.classical_limits", check_classical_limits),
    ("discord.monotone_in_temperature", check_discord_monotone),
    ("discord.route_equivalence", check_discord_route_equivalence),
    ("discord.integral_identity", check_discord_integral_identity),
    ("discord.range_constraints", check_discord_ranges),
    ("io.scenario_roundtrip", check_scenario_roundtrip),
    ("io.csv_determinism", check_csv_determinism),
    ("io.entropy_peak_shape", check_entropy_peak_shape),
]


def run_checks(quick: bool = False, report=print) -> bool:
    """Run every invariant check; report one line each; True iff all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(quick)
        except Exception as exc:   # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        report(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
