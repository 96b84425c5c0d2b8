"""Dense complex Hermitian linear algebra for small spin Hamiltonians.

Provides Kronecker products, spin-1/2 operator sets, and a Hermitian
eigensolver on top of LAPACK. Everything targets dimensions <= 64.

Conventions: matrices are complex128 throughout, even for models that happen
to be real symmetric. Energies carried by these operators are in kelvin
(k_B = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NonHermitianError

# Relative Hermiticity tolerance: max|A - A'| entrywise vs max|A|.
HERMITICITY_RTOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square complex matrices.

    The block at block-row i, block-col j is ``a[i, j] * b``. Thin wrapper
    over ``numpy.kron`` that enforces square inputs and a complex result.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"kron: first factor is not square, shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"kron: second factor is not square, shape {b.shape}")
    return np.kron(a, b)


def spin_half_operators():
    """Spin-1/2 operator set.

    Returns
    -------
    (Sx, Sy, Sz, sigma_x, sigma_y, sigma_z) : tuple of 2x2 complex arrays
        Spin operators S = sigma/2 and the standard Pauli matrices.
    """
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return (0.5 * sigma_x, 0.5 * sigma_y, 0.5 * sigma_z,
            sigma_x, sigma_y, sigma_z)


@dataclass(frozen=True)
class HermitianOperator:
    """A dense complex matrix validated to be Hermitian.

    Parameters
    ----------
    matrix : ndarray
        Square complex matrix. Checked entrywise against its adjoint;
        ``hermiticity_defect`` records max|A - A'|.

    Raises
    ------
    NonHermitianError
        If the defect exceeds ``HERMITICITY_RTOL * max|A|``.
    """

    matrix: np.ndarray
    hermiticity_defect: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("operator matrix has non-finite entries")
        defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if defect > HERMITICITY_RTOL * max(scale, 1e-300):
            raise NonHermitianError(
                f"hermiticity defect {defect:.3e} exceeds "
                f"{HERMITICITY_RTOL:.0e} * max|A| = {HERMITICITY_RTOL * scale:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "hermiticity_defect", defect)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a Hermitian operator.

    ``values`` are real and ascending (tied levels of a diagonal input keep
    their original order); ``vectors`` holds the matching eigenvectors as columns of a
    unitary matrix.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def hermitian_eigen(a) -> EigenDecomposition:
    """Diagonalize a Hermitian operator with LAPACK (``numpy.linalg.eigh``).

    Input that is already diagonal (every tabulated model, the zero matrix)
    skips the solver: its diagonal is sorted stably, so degenerate levels
    keep their original order, and the eigenvectors are the matching
    columns of the identity.

    Parameters
    ----------
    a : HermitianOperator or ndarray
        Raw arrays are validated first (may raise ``NonHermitianError``).

    Returns
    -------
    EigenDecomposition
        Ascending eigenvalues and unitary eigenvector columns.

    Raises
    ------
    NoConvergenceError
        LAPACK reports that the eigenvalue iteration failed to converge.
    """
    if not isinstance(a, HermitianOperator):
        a = HermitianOperator(np.asarray(a, dtype=complex))
    m = a.matrix
    diag = np.diag(m)
    if np.count_nonzero(m) == np.count_nonzero(diag):
        raw = np.real(diag)
        order = np.argsort(raw, kind="stable")
        return EigenDecomposition(values=raw[order],
                                  vectors=np.eye(a.dim, dtype=complex)[:, order])
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors)


def eigenbasis_diagonal(operator, basis: np.ndarray) -> np.ndarray:
    """Diagonal matrix elements <n|A|n> in the given eigenbasis columns."""
    m = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator, dtype=complex)
    if m.shape[0] != basis.shape[0]:
        raise ValueError(
            f"operator dim {m.shape[0]} does not match basis dim {basis.shape[0]}")
    return np.real(np.sum(basis.conj() * (m @ basis), axis=0))
