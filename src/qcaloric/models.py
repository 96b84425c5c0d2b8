"""Parameterized Hamiltonian families H(lambda) with analytic derivatives.

Covers the two-spin Heisenberg-plus-Zeeman dimer, the single-spin Zeeman
paramagnet, and a tabulated-spectrum escape hatch for externally supplied
level schemes. The caloric parameter enters every built-in family linearly,
so each is H(lambda) = H0 + lambda * V with the constant derivative V, made
by one constructor from the pair (H0, V).

Conventions
-----------
Energies and temperatures in kelvin, k_B = 1. The exchange term uses Pauli
operators, ``H_int = J * sigma1.sigma2``, so the singlet-triplet spectrum of
the dimer is ``(-3J, J, J, J)`` and the pair correlation ``<sigma1^a
sigma2^a>`` ranges over [-1, 1]. Magnetization uses spin-1/2 operators
``S = sigma/2``; the Zeeman term is ``-b * (S1z + S2z)`` with the reduced
field ``b = g * mu_B * B / k_B`` in kelvin. To translate to the
``J_spin * S1.S2`` convention use ``J_spin = 4 * J``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Optional, Tuple

import numpy as np

from .errors import (
    GridTooSmallError,
    NonFiniteParameterError,
    NonMonotoneGridError,
    OutOfRangeError,
)
from .linalg import HermitianOperator, kron, spin_half_operators


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants for I/O conversions. The engine itself uses k_B = 1.

    ``g`` is the isotropic Lande factor, the one setting. The class constants
    ``mu_B_over_kB`` (Bohr magneton over the Boltzmann constant, kelvin per
    tesla), ``N_A`` and ``k_B_SI`` only enter unit conversions.
    """

    g: float = 2.0
    mu_B_over_kB: ClassVar[float] = 0.6717        # K/T
    N_A: ClassVar[float] = 6.02214076e23          # 1/mol
    k_B_SI: ClassVar[float] = 1.380649e-23        # J/K

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError("UnitSystem.g must be positive")

    def field_to_kelvin(self, b_tesla: float) -> float:
        """Reduced field b = g * mu_B * B / k_B in kelvin."""
        return self.g * self.mu_B_over_kB * b_tesla

    def kelvin_to_field(self, b_kelvin: float) -> float:
        return b_kelvin / (self.g * self.mu_B_over_kB)

    def reduce_molar_susceptibility(self, chi_molar: float) -> float:
        """Molar susceptibility (J/T^2 per mole) -> per-dimer reduced units.

        Divides out N_A (g mu_B)^2 / k_B so that ``2*T*chi`` is the
        dimensionless combination the discord formula consumes.
        """
        mu_B = self.mu_B_over_kB * self.k_B_SI
        return chi_molar * self.k_B_SI / (self.N_A * (self.g * mu_B) ** 2)


@dataclass(frozen=True)
class SpectrumTable:
    """Externally supplied level scheme E_n(lambda) on a parameter grid.

    ``lambda_grid`` must be strictly increasing with at least 3 points;
    ``energies`` has one row of levels per grid point, all rows the same
    length, in kelvin.
    """

    lambda_grid: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=float)
        rows = np.asarray(self.energies, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise GridTooSmallError(
                f"need at least 3 grid points, got {grid.size}")
        if np.any(np.diff(grid) <= 0):
            raise NonMonotoneGridError("lambda grid must be strictly increasing")
        if rows.ndim != 2 or rows.shape[0] != grid.size:
            raise ValueError(
                f"energies must be shape (n_grid, n_levels); got {rows.shape} "
                f"for {grid.size} grid points")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(rows))):
            raise ValueError("table contains non-finite values")
        grid.setflags(write=False)
        rows.setflags(write=False)
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "energies", rows)

    @property
    def n_levels(self) -> int:
        return self.energies.shape[1]


@dataclass(frozen=True)
class ParamHamiltonian:
    """A Hamiltonian family H(lambda) with its analytic derivative dH/dlambda.

    Attributes
    ----------
    dimension : int
        Hilbert-space dimension.
    parameter_name : str
        "J", "b", or "tabulated" -- which symbol was promoted to lambda.
    frozen_params : mapping
        The non-promoted symbols, name -> value in kelvin.
    evaluate, derivative : callable
        lambda (kelvin) -> HermitianOperator. The built-in families are
        H0 + lambda * V from one constructor, so ``derivative`` is the
        exact constant V; tabulated models use grid differences.
    magnetization_operator : HermitianOperator or None
        Total S_z in spin-1/2 units, present when the model carries a
        Zeeman structure.
    breakpoints : tuple of float
        Parameter values where H(lambda) has a kink (the table nodes of a
        tabulated model). Integrations split their intervals there and read
        each piece's endpoints one ulp inside it, where ``derivative`` is
        the piece's own slope.
    """

    dimension: int
    parameter_name: str
    frozen_params: Mapping[str, float]
    evaluate: Callable[[float], HermitianOperator]
    derivative: Callable[[float], HermitianOperator]
    magnetization_operator: Optional[HermitianOperator] = field(default=None)
    breakpoints: Tuple[float, ...] = ()


def _affine(parameter: str, frozen: Mapping[str, float], h0: np.ndarray,
            v: HermitianOperator, magnetization: HermitianOperator) -> ParamHamiltonian:
    """The family H(lambda) = h0 + lambda * v with the validated constant
    derivative v; only H(lambda) itself is validated, once per evaluation. A
    lambda at which H overflows raises NonFiniteParameterError."""
    def evaluate(lam: float) -> HermitianOperator:
        with np.errstate(over="ignore", invalid="ignore"):
            h = h0 + lam * v.matrix
        try:
            return HermitianOperator(h)
        except ValueError:   # h is square, so its entries are not finite
            raise NonFiniteParameterError(f"H(lambda) is not finite at lambda = {lam:g}") from None

    return ParamHamiltonian(
        dimension=v.dim,
        parameter_name=parameter,
        frozen_params=frozen,
        evaluate=evaluate,
        derivative=lambda lam: v,
        magnetization_operator=magnetization,
    )


def _constant_operators():
    """The dimer's sigma1.sigma2 and S1z + S2z and one spin's S_z, each with
    its negation, as read-only validated operators."""
    _, _, sz, sx, sy, sz_pauli = spin_half_operators()
    eye = np.eye(2, dtype=complex)
    exchange = kron(sx, sx) + kron(sy, sy) + kron(sz_pauli, sz_pauli)
    total_sz = kron(sz, eye) + kron(eye, sz)
    return tuple(map(HermitianOperator, (exchange, total_sz, -total_sz, sz, -sz)))


# built and validated once: a model build makes no Kronecker product
_EXCHANGE, _TOTAL_SZ, _MINUS_TOTAL_SZ, _SPIN_SZ, _MINUS_SPIN_SZ = _constant_operators()


def build_dimer(J: float, b: float, parameter: str) -> ParamHamiltonian:
    """Two spin-1/2 sites: H = J * sigma1.sigma2 - b * (S1z + S2z).

    Parameters
    ----------
    J, b : float
        Exchange coupling and reduced Zeeman field, kelvin. The symbol
        named by ``parameter`` is promoted to the working parameter lambda
        (its value here is only a nominal starting point); the other is
        frozen into the family.
    parameter : {"J", "b"}

    Returns
    -------
    ParamHamiltonian
        4-dimensional family with exact derivative ``sigma1.sigma2`` (for
        "J") or ``-(S1z + S2z)`` (for "b"). Both, and the magnetization
        operator, are read-only operators shared by every dimer.
    """
    if parameter == "J":
        return _affine("J", {"b": float(b)}, -float(b) * _TOTAL_SZ.matrix, _EXCHANGE, _TOTAL_SZ)
    if parameter == "b":
        return _affine("b", {"J": float(J)}, float(J) * _EXCHANGE.matrix, _MINUS_TOTAL_SZ,
                       _TOTAL_SZ)
    raise ValueError(f"parameter must be 'J' or 'b', got {parameter!r}")


def build_single_spin_zeeman(b: float = 0.0) -> ParamHamiltonian:
    """Single spin-1/2 in a field: H(b) = -b * Sz, levels -b/2 and +b/2.

    ``b`` is a nominal starting value; the field is the working parameter.
    """
    return _affine("b", {}, np.zeros((2, 2), dtype=complex), _MINUS_SPIN_SZ, _SPIN_SZ)


def build_tabulated(table: SpectrumTable) -> ParamHamiltonian:
    """Diagonal Hamiltonian family from a tabulated spectrum.

    ``evaluate`` interpolates each level piecewise-linearly between grid
    points; no extrapolation (OutOfRangeError beyond the grid).
    ``derivative`` returns the exact segment slope between nodes and the
    grid central difference exactly at interior nodes (one-sided at the
    ends), so finite differences of ``evaluate`` match it everywhere off
    the nodes. The grid is the model's ``breakpoints``.
    """
    grid = table.lambda_grid
    rows = table.energies
    lo, hi = float(grid[0]), float(grid[-1])

    # per-node derivative: central differences, one-sided at the ends
    node_deriv = np.empty_like(rows)
    node_deriv[0] = (rows[1] - rows[0]) / (grid[1] - grid[0])
    node_deriv[-1] = (rows[-1] - rows[-2]) / (grid[-1] - grid[-2])
    for k in range(1, grid.size - 1):
        node_deriv[k] = (rows[k + 1] - rows[k - 1]) / (grid[k + 1] - grid[k - 1])
    node_deriv.setflags(write=False)

    def _check_range(lam: float):
        if not lo <= lam <= hi:   # NaN is out of range too
            raise OutOfRangeError(
                f"lambda = {lam:g} outside tabulated range [{lo:g}, {hi:g}]")

    def evaluate(lam: float) -> HermitianOperator:
        _check_range(lam)
        levels = np.array(
            [np.interp(lam, grid, rows[:, j]) for j in range(rows.shape[1])])
        return HermitianOperator(np.diag(levels).astype(complex))

    def derivative(lam: float) -> HermitianOperator:
        _check_range(lam)
        k = int(np.searchsorted(grid, lam))
        if k < grid.size and grid[k] == lam:
            slope = node_deriv[k]
        else:
            slope = (rows[k] - rows[k - 1]) / (grid[k] - grid[k - 1])
        return HermitianOperator(np.diag(slope).astype(complex))

    return ParamHamiltonian(
        dimension=table.n_levels,
        parameter_name="tabulated",
        frozen_params={},
        evaluate=evaluate,
        derivative=derivative,
        magnetization_operator=None,
        breakpoints=tuple(grid.tolist()),
    )
