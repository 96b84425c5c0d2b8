"""Oracle tolerances and a LAPACK-based reference for the benchmark's checks.

Tolerances come from the README "Numerical contracts"; a value read back
from CSV (or from ``qcaloric discord`` stdout) is additionally allowed its
12-significant-digit rounding, ``CSV_REL * |value|``. Where the README states
no contract (force, discord, direct entropy, decompose), the bound is named
next to its constant.

The reference functions below take Hamiltonian matrices built by the
benchmark and diagonalise them with ``numpy.linalg.eigh``, so they share no
code with qcaloric's Jacobi solver or thermal engine.
"""

import math

import numpy as np

# Simpson doubling stops when successive estimates differ by < 1e-8,
# absolutely or relatively.
QUAD_TOL = 1e-8
# RK4 step doubling stops when end temperatures agree to 1e-9 K.
ODE_TOL = 1e-9
# Entropy matching bisects to a 1e-10 K bracket.
MATCH_TOL = 1e-10
# No README contract: the eigensolver converges to 1e-13 * ||H||, so values
# that depend only on levels and populations (force, discord, a state-function
# entropy difference) are held to 1e-10 relative to max(1, |value|).
SPECTRAL_TOL = 1e-10
# No README contract: process_decompose stops refining when successive work
# and heat totals differ by < 1e-9 * max(1, |W|, |Q|).
DECOMPOSE_TOL = 1e-9
# 12 significant digits: the rounding error is at most half a unit in the
# 12th digit.
CSV_REL = 5e-12


def within(value, reference, tol, scale=1.0, rounded=False):
    """True when |value - reference| <= tol * max(scale, 1) (+ CSV rounding)."""
    bound = tol * max(scale, 1.0)
    if rounded:
        bound += CSV_REL * abs(value)
    return math.isfinite(value) and abs(value - reference) <= bound


def _populations(levels, temperature):
    w = np.exp(-(levels - levels[0]) / temperature)
    return w / w.sum()


def _entropy(levels, temperature):
    p = _populations(levels, temperature)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def entropy(matrix, temperature):
    """Canonical entropy -sum p ln p of a Hermitian matrix at T (k_B = 1)."""
    return _entropy(np.linalg.eigvalsh(matrix), temperature)


def generalized_force(matrix, derivative, temperature):
    """Y = -<dH/dlambda> from the eigenbasis diagonal of the derivative."""
    levels, vectors = np.linalg.eigh(matrix)
    diag = np.real(np.einsum("in,ij,jn->n", vectors.conj(), derivative, vectors))
    return -float(np.dot(_populations(levels, temperature), diag))


def matching_temperature(matrix_i, matrix_f, t_start):
    """T_f with S(H_f, T_f) = S(H_i, T_start), by bisection to 1e-13 * T_f.

    Entropy grows monotonically with T, so the bracket [T/1e3, T*1e3] that
    the program documents is searched directly.
    """
    target = entropy(matrix_i, t_start)
    levels = np.linalg.eigvalsh(matrix_f)
    lo, hi = t_start * 1e-3, t_start * 1e3
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if _entropy(levels, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
