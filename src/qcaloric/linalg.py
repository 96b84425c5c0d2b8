"""Dense complex Hermitian linear algebra for small spin Hamiltonians.

Provides Kronecker products, spin-1/2 operator sets, and one Hermitian
eigensolver rule on top of LAPACK (``_sector_solves``): each matrix of a
stack is solved by the connected components of its own sparsity pattern (for
spin Hamiltonians that conserve total S_z, the S_z sectors), so an 8-site
ring (d = 256) costs eigensolves of width <= 70. ``hermitian_eigen_stack``
and ``_sector_spectra``, which the caloric routes read, are its two views.

Conventions: matrices are complex128 throughout, even for models that happen
to be real symmetric. Energies carried by these operators are in kelvin
(k_B = 1).
"""

from __future__ import annotations

import functools
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
        # array methods, not np.all/np.max: every H(lambda) is validated here.
        # max|A| is finite whenever every entry is (|a + ib| overflows only
        # past 1.8e308); checked before A - A', where inf - inf would warn
        scale = float(np.abs(m).max()) if m.size else 0.0
        if not scale < np.inf and not np.isfinite(m.view(float)).all():
            raise ValueError("operator matrix has non-finite entries")
        defect = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
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
    """Spectrum of a Hermitian operator, or of a stack of them.

    ``values`` are real and ascending (tied levels of different sectors, as of
    a diagonal input, keep their index order); ``vectors`` holds the matching
    eigenvectors as columns of a unitary matrix. A stack adds one leading axis.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def _eigh(m: np.ndarray):
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh failed: {exc}") from exc


def hermitian_eigen_stack(operators) -> EigenDecomposition:
    """Diagonalize a stack of equally sized Hermitian operators by their
    sectors (``_sector_solves``), with the eigenvectors embedded per sector.

    A dense matrix gets the bits of its own ``eigh`` call; a diagonal one
    (every tabulated model, the zero matrix) its diagonal sorted stably, with
    the matching columns of the identity.

    Parameters
    ----------
    operators : sequence of HermitianOperator or ndarray
        Raw arrays are validated first (may raise ``NonHermitianError``).

    Returns
    -------
    EigenDecomposition
        ``values`` of shape (n, d), ascending per row, and ``vectors`` of
        shape (n, d, d) with unitary eigenvector columns.

    Raises
    ------
    NoConvergenceError
        LAPACK reports that the eigenvalue iteration failed to converge.
    """
    m = np.array([a.matrix if isinstance(a, HermitianOperator) else HermitianOperator(a).matrix
                  for a in operators])
    n, d = m.shape[:2]
    values = np.diagonal(m, 0, 1, 2).real.copy()
    vectors = np.repeat(np.eye(d, dtype=complex)[None], n, 0)
    for at, block, levels, basis in _sector_solves(m):
        values[at], vectors[block] = levels, basis
    order, rows = np.argsort(values, axis=1, kind="stable"), np.arange(n)[:, None]
    # fancy indexing returns contiguous arrays; batched matmul on strided ones changes bits
    return EigenDecomposition(values[rows, order],
                              vectors[rows[:, None], np.arange(d)[:, None], order[:, None]])


def hermitian_eigen(a) -> EigenDecomposition:
    """Diagonalize one Hermitian operator: the one-matrix case of
    ``hermitian_eigen_stack``, with the same sector rule and errors."""
    spectra = hermitian_eigen_stack([a])
    return EigenDecomposition(values=spectra.values[0], vectors=spectra.vectors[0])


def eigenbasis_diagonal(operator, basis: np.ndarray) -> np.ndarray:
    """Diagonal matrix elements <n|A|n> in the given eigenbasis columns.

    A stack of bases (and of operators, or one operator for all) gives one
    row per basis in one batched matmul, each row bitwise equal to its own
    call."""
    m = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator, dtype=complex)
    if m.shape[-1] != basis.shape[-2]:
        raise ValueError(
            f"operator dim {m.shape[-1]} does not match basis dim {basis.shape[-2]}")
    return np.sum((basis.conj() * (m @ basis)).real, axis=-2)


@functools.lru_cache(maxsize=64)
def _sectors(dim: int, key: bytes) -> tuple:
    """The connected components wider than 1 of a dim x dim sparsity pattern
    (``key``: its bits packed by ``numpy.packbits``), symmetrized: one index
    array per component, ascending. A matrix with this pattern is block
    diagonal on the components; each index outside them is a 1 x 1 block."""
    linked = np.unpackbits(np.frombuffer(key, np.uint8), count=dim * dim).reshape(dim, dim)
    linked = (linked | linked.T).astype(bool)
    label = np.arange(dim)
    while True:   # each index takes the least label of its neighbours, down to its component's
        new = np.minimum(label, np.where(linked, label, dim).min(axis=1))
        if np.array_equal(new, label):
            break
        label = new
    first, size = np.unique(label, return_counts=True)
    sectors = tuple(np.flatnonzero(label == f) for f in first[size > 1])
    for idx in sectors:   # shared by every caller of the cache
        idx.setflags(write=False)
    return sectors


def _sector_solves(matrices: np.ndarray):
    """The one eigensolve of a stack of Hermitian matrices: matrices grouped by
    sparsity pattern, one stacked LAPACK call per sector wider than 1 over its
    group. Yields per call the (rows, sector) index of its levels, the index
    of its blocks, and its levels and eigenvectors. A 1 x 1 sector is its own
    level with a unit eigenvector, and no call. Each view merges the sectors'
    levels by a stable sort: a dense matrix (one sector) keeps its ``eigh``
    order, tied levels of different sectors their index order."""
    n = len(matrices)
    groups = {}
    for i, key in enumerate(np.packbits((matrices != 0).reshape(n, -1), axis=1)):
        groups.setdefault(key.tobytes(), []).append(i)
    for key, nodes in groups.items():
        rows = np.array(nodes)[:, None]
        for idx in _sectors(matrices.shape[-1], key):
            block = rows[:, :, None], idx[:, None], idx
            yield (rows, idx), block, *_eigh(matrices[block])


def _sector_spectra(matrices: np.ndarray, derivatives: np.ndarray) -> np.ndarray:
    """Ascending levels of each of a stack of Hermitian matrices (row 0) and
    the diagonal of its derivative in the matching eigenbasis (row 1), one
    column per matrix. The derivative's diagonal needs only each sector's
    block, as an eigenvector has no weight outside its sector."""
    out = np.array((np.diagonal(matrices, 0, 1, 2).real, np.diagonal(derivatives, 0, 1, 2).real))
    for at, block, levels, basis in _sector_solves(matrices):
        out[0][at] = levels
        out[1][at] = eigenbasis_diagonal(derivatives[block], basis)
    return out[:, np.arange(len(matrices))[:, None], np.argsort(out[0], axis=1, kind="stable")]
