"""
Isothermal entropy change of a coupling sweep
=============================================

This example demonstrates how to:
1. Compute dS_iso for an exchange sweep J: 0.5 -> 1.5 K by the Maxwell-route
   quadrature and verify it against the direct state-function difference.
2. Scan |dS_iso|(T) and find the peak temperature (the caloric sweet spot).
3. Show the standard vs inverse caloric effect for the two signs of J.

To run:
    python demos/02_isothermal_entropy_change.py
"""

import numpy as np

from qcaloric import (
    build_dimer,
    isothermal_entropy_change,
    isothermal_entropy_change_direct,
)


def main():
    model = build_dimer(J=1.0, b=0.0, parameter="J")

    # 1. Quadrature route (integrating -d<dH/dJ>/dT over J) vs direct route.
    quad = isothermal_entropy_change(model, 0.5, 1.5, temperature=1.0)
    direct = isothermal_entropy_change_direct(model, 0.5, 1.5, temperature=1.0)
    print(f"dS_iso quadrature : {quad.value:+.9f} k_B "
          f"(error estimate {quad.error_estimate:.1e}, "
          f"{quad.refinement_levels} node doublings)")
    print(f"dS_iso direct     : {direct.value:+.9f} k_B")
    print(f"agreement         : {abs(quad.value - direct.value):.2e} k_B")

    # 2. Peak of the caloric response over temperature.
    temperatures = np.linspace(0.2, 5.0, 33)
    magnitudes = [abs(isothermal_entropy_change(model, 0.5, 1.5, t).value)
                  for t in temperatures]
    k = int(np.argmax(magnitudes))
    print(f"\n|dS_iso| peaks at T = {temperatures[k]:.2f} K "
          f"with {magnitudes[k]:.4f} k_B")

    # 3. Sign structure: growing J > 0 rejects heat (standard effect),
    # weakening J < 0 absorbs heat (inverse effect).
    afm = isothermal_entropy_change(model, 0.5, 1.5, 1.0).value
    fm_model = build_dimer(J=-1.5, b=0.0, parameter="J")
    fm = isothermal_entropy_change(fm_model, -1.5, -0.5, 1.0).value
    print(f"\nJ: +0.5 -> +1.5 at 1 K: dS = {afm:+.4f} k_B  (standard, heat out)")
    print(f"J: -1.5 -> -0.5 at 1 K: dS = {fm:+.4f} k_B  (inverse, heat in)")


if __name__ == "__main__":
    main()
