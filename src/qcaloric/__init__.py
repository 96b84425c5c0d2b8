"""qcaloric: quantum caloric potentials for parameterized spin Hamiltonians.

A numerical engine for isothermal entropy change and adiabatic temperature
change of quantum systems in thermal equilibrium, built on exact
diagonalization of small Hamiltonian families H(lambda), the thermal-average
(Ehrenfest) form of the generalized force, and the resulting quantum Maxwell
relation. Includes the quantum-discord route to the entropy change for
spin-1/2 dimers, work/heat process decomposition, scenario-driven sweeps
with CSV/SVG output, and a self-contained invariant validation suite.

Units: k_B = 1; energies, fields and temperatures in kelvin; entropy and
specific heat in k_B; magnetization in g*mu_B.
"""

from .caloric import (
    CaloricResult,
    LatticeHeatSpec,
    adiabatic_temperature_change,
    adiabatic_temperature_change_lanes,
    adiabatic_temperature_change_matching,
    classical_adiabatic_temperature_change,
    generalized_force,
    isothermal_entropy_change,
    isothermal_entropy_change_direct,
    isothermal_entropy_change_lanes,
    maxwell_residual,
)
from .curves import Curve, CurveSet, emit_csv, emit_svg, render_csv, render_svg
from .discord import (
    CorrelationRecord,
    discord_from_correlation,
    discord_from_susceptibility,
    discord_temperature_derivative,
    entropy_change_from_discord,
    pair_correlation,
)
from .linalg import (
    EigenDecomposition,
    HermitianOperator,
    hermitian_eigen,
    hermitian_eigen_stack,
    kron,
    spin_half_operators,
)
from .models import (
    ParamHamiltonian,
    SpectrumTable,
    UnitSystem,
    build_dimer,
    build_single_spin_zeeman,
    build_tabulated,
)
from .scenario import (
    ExchangeTable,
    Scenario,
    build_model,
    load_exchange_table,
    parse_scenario,
    serialize_scenario,
)
from .sweep import run_sweep
from .thermal import (
    ProcessDecomposition,
    ThermalState,
    ThermodynamicPoint,
    magnetization,
    process_decompose,
    thermal_average,
    thermal_state,
    thermo_point,
    zero_field_susceptibility,
)
from .validate import run_checks

__version__ = "0.1.0"

__all__ = [
    "CaloricResult",
    "CorrelationRecord",
    "Curve",
    "CurveSet",
    "EigenDecomposition",
    "ExchangeTable",
    "HermitianOperator",
    "LatticeHeatSpec",
    "ParamHamiltonian",
    "ProcessDecomposition",
    "Scenario",
    "SpectrumTable",
    "ThermalState",
    "ThermodynamicPoint",
    "UnitSystem",
    "adiabatic_temperature_change",
    "adiabatic_temperature_change_lanes",
    "adiabatic_temperature_change_matching",
    "build_dimer",
    "build_model",
    "build_single_spin_zeeman",
    "build_tabulated",
    "classical_adiabatic_temperature_change",
    "discord_from_correlation",
    "discord_from_susceptibility",
    "discord_temperature_derivative",
    "emit_csv",
    "emit_svg",
    "entropy_change_from_discord",
    "generalized_force",
    "hermitian_eigen",
    "hermitian_eigen_stack",
    "isothermal_entropy_change",
    "isothermal_entropy_change_direct",
    "isothermal_entropy_change_lanes",
    "kron",
    "load_exchange_table",
    "magnetization",
    "maxwell_residual",
    "pair_correlation",
    "parse_scenario",
    "process_decompose",
    "render_csv",
    "render_svg",
    "run_checks",
    "run_sweep",
    "serialize_scenario",
    "spin_half_operators",
    "thermal_average",
    "thermal_state",
    "thermo_point",
    "zero_field_susceptibility",
]
