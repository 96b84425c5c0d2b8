"""
Adiabatic temperature change along isentropes
=============================================

This example demonstrates how to:
1. Integrate the isentrope ODE for a field sweep of a single spin and verify
   the exact Zeeman scaling T_f / T_i = b_f / b_i.
2. Cross-check the dimer adiabat against entropy-matching root finding.
3. Add a lattice heat reservoir and watch the temperature change shrink.

To run:
    python demos/03_adiabatic_temperature_change.py
"""

from qcaloric import (
    LatticeHeatSpec,
    adiabatic_temperature_change,
    adiabatic_temperature_change_matching,
    build_dimer,
    build_single_spin_zeeman,
    classical_adiabatic_temperature_change,
)


def main():
    # 1. Pure Zeeman spin: entropy depends on b/T only, so doubling the field
    # along an isentrope doubles the temperature exactly.
    spin = build_single_spin_zeeman(1.0)
    res = adiabatic_temperature_change(spin, 1.0, 2.0, T_start=1.0)
    print(f"single spin, b: 1 -> 2 K from T = 1 K: dT = {res.value:+.9f} K "
          f"(exact: +1)")

    # 2. Dimer with a frozen field: the isentrope is nontrivial; the ODE and
    # the entropy-matching oracle must land on the same final temperature.
    dimer = build_dimer(J=1.0, b=0.4, parameter="J")
    ode = adiabatic_temperature_change(dimer, 0.5, 1.5, T_start=1.0)
    matched = adiabatic_temperature_change_matching(dimer, 0.5, 1.5, T_start=1.0)
    print(f"\ndimer (b = 0.4 K), J: 0.5 -> 1.5 K from T = 1 K")
    print(f"  ODE route       : dT = {ode.value:+.9f} K "
          f"({ode.refinement_levels} node doublings)")
    print(f"  entropy matching: dT = {matched.value:+.9f} K")
    print(f"  gap             : {abs(ode.value - matched.value):.2e} K")

    # 3. Classical variant: a lattice reservoir c_l(T) = a0 + a1 T + a3 T^3
    # absorbs part of the work, so |dT| decreases as c_l grows.
    print("\nsingle spin, b: 0.5 -> 1.5 K from T = 1 K, with lattice heat:")
    for a3 in (0.0, 0.5, 2.0, 10.0):
        res = classical_adiabatic_temperature_change(
            spin, LatticeHeatSpec(a3=a3), 0.5, 1.5, T_start=1.0)
        print(f"  a3 = {a3:5.1f}: dT = {res.value:+.6f} K")


if __name__ == "__main__":
    main()
