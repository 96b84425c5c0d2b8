"""
Quantum discord and the pressure -> coupling pipeline
=====================================================

This example demonstrates how to:
1. Compute the dimer pair correlation and its geometric discord two ways
   (directly and from the zero-field susceptibility).
2. Recover the isothermal entropy change from the discord integral.
3. Run the full exchange-table pipeline: a tabulated pressure -> J map feeds
   discord and entropy curves, written as CSV and an SVG plot.

To run:
    python demos/04_discord_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from qcaloric import (
    build_dimer,
    discord_from_correlation,
    discord_from_susceptibility,
    entropy_change_from_discord,
    isothermal_entropy_change,
    load_exchange_table,
    pair_correlation,
    parse_scenario,
    run_sweep,
    emit_csv,
    emit_svg,
    zero_field_susceptibility,
)


def main():
    # 1. Two routes to the same discord. The fluctuation identity
    # 2*T*chi = 1 + c ties the susceptibility to the pair correlation.
    record = pair_correlation(J=1.0, T=1.0)
    chi = zero_field_susceptibility(build_dimer(J=1.0, b=0.0, parameter="b"), 1.0)
    print(f"pair correlation c = {record.mean_correlation:+.6f}")
    print(f"discord (correlation)    : {discord_from_correlation(record):.6f}")
    print(f"discord (susceptibility) : {discord_from_susceptibility(chi, 1.0):.6f}")

    # 2. The coupling-integral of dD/dT carries the entropy change magnitude.
    model = build_dimer(J=1.0, b=0.0, parameter="J")
    from_discord = entropy_change_from_discord(0.5, 1.5, T=1.0)
    signed = isothermal_entropy_change(model, 0.5, 1.5, 1.0).value
    print(f"\n6 Int dD/dT dJ = {from_discord:.6f} k_B, "
          f"dS_iso = {signed:+.6f} k_B")

    # 3. Pressure-driven pipeline with a synthetic exchange table, written to
    # a temporary directory that is removed when the demo is done.
    with tempfile.TemporaryDirectory(prefix="qcaloric_demo_") as tmp:
        workdir = Path(tmp)
        table_text = "pressure_gpa,J_kelvin\n0.0,0.60\n1.5,0.95\n3.0,1.30\n4.9,1.80\n"
        table = load_exchange_table(table_text)
        scenario = parse_scenario(json.dumps({
            "model": {"kind": "dimer", "J": 0.6, "b": 0.0},
            "parameter": "J",
            "sweep": {"from": 0.6, "to": 1.8, "points": 4},
            "temperatures": {"from": 0.2, "to": 5.0, "points": 25},
            "computations": ["discord", "entropy"],
            "output": {"csv": str(workdir / "pipeline.csv"),
                       "svg": str(workdir / "pipeline.svg")},
        }))
        labels = [f"P={p:g}GPa" for p in table.pressures]
        curves = run_sweep(scenario, sweep_values=table.couplings,
                           sweep_labels=labels)
        written = emit_csv(curves, scenario.output_csv)
        emit_svg(curves, scenario.output_svg)
        print(f"\nwrote {len(written)} CSV curves and one SVG under {workdir}:")
        for path in written:
            print(f"  {path.name}")


if __name__ == "__main__":
    main()
