"""Independent closed-form oracles used to pin expected test values.

Nothing here touches qcaloric's numerical machinery: the dimer and
single-spin formulas are four-term Boltzmann sums over the analytic level
schemes, and the matrix oracles use naive loops or characteristic-polynomial
roots. Conventions match the package (k_B = 1, kelvin, Pauli exchange,
S = sigma/2 magnetization).
"""

import math

import mpmath
import numpy as np


# --- dimer: H = J sigma1.sigma2 - b (S1z + S2z), levels analytic -------------

def dimer_levels(J, b=0.0):
    """(singlet, triplet m=+1, m=0, m=-1) = (-3J, J-b, J, J+b)."""
    return np.array([-3.0 * J, J - b, J, J + b])


def boltzmann(levels, T):
    levels = np.asarray(levels, dtype=float)
    w = np.exp(-(levels - levels.min()) / T)
    return w / w.sum()


def shannon(p):
    p = np.asarray(p)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def dimer_entropy(J, T, b=0.0):
    return shannon(boltzmann(dimer_levels(J, b), T))


def dimer_exchange_average(J, T):
    """<sigma1.sigma2> at b = 0: eigenvalues (-3, 1, 1, 1)."""
    p = boltzmann(dimer_levels(J), T)
    return float(np.dot(p, [-3.0, 1.0, 1.0, 1.0]))


def dimer_correlation(J, T):
    """c = <sigma1^a sigma2^a> = <sigma1.sigma2> / 3 by isotropy."""
    return dimer_exchange_average(J, T) / 3.0


def dimer_zero_field_chi(J, T):
    """chi = <M^2>/T with M = S1z + S2z in (0, +1, 0, -1) over the levels."""
    p = boltzmann(dimer_levels(J), T)
    return float(np.dot(p, [0.0, 1.0, 0.0, 1.0])) / T


def dimer_matching_temperature(J_i, J_f, T_start, b=0.0, iterations=200):
    """T_f with S(J_f, T_f) = S(J_i, T_start), bisected on the closed form."""
    target = dimer_entropy(J_i, T_start, b)
    lo, hi = T_start * 1e-3, T_start * 1e3
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if dimer_entropy(J_f, mid, b) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_dimer_entropy(J, T, b=0.0):
    """S = ln Z + U / T of the dimer in mpmath at 40 digits, with ln Z taken
    from the ground state as log1p of the excited weights: at T/gap ~ 0.01
    they are ~1e-43, below the precision of 1 + sum w itself."""
    with mpmath.workdps(40):
        J, T, b = (mpmath.mpf(x) for x in (J, T, b))
        levels = sorted([-3 * J, J - b, J, J + b])
        gaps = [e - levels[0] for e in levels[1:]]
        weights = [mpmath.exp(-g / T) for g in gaps]
        return (mpmath.log1p(mpmath.fsum(weights))
                + mpmath.fsum(w * g for w, g in zip(weights, gaps)) / (T * (1 + mpmath.fsum(weights))))


def mp_dimer_matching_change(J_i, J_f, T_start, b=0.0):
    """dT with S(J_f, T_start + dT) = S(J_i, T_start), by mpmath root finding."""
    with mpmath.workdps(40):
        target = mp_dimer_entropy(J_i, T_start, b)
        t_end = mpmath.findroot(lambda t: mp_dimer_entropy(J_f, t, b) - target,
                                (mpmath.mpf(T_start) * 1e-3, mpmath.mpf(T_start) * 1e3),
                                solver="bisect")
        return t_end - T_start


def eigh_matching_temperature(matrix_i, matrix_f, T_start):
    """T_f with S(H_f, T_f) = S(H_i, T_start) for Hermitian matrices: levels
    by numpy's whole-matrix eigvalsh, S = -sum p ln p, and bisection on
    [T_start * 1e-3, T_start * 1e3] down to 1e-13 * T_f."""
    def entropy(levels, T):
        return shannon(boltzmann(levels, T))

    target = entropy(np.linalg.eigvalsh(matrix_i), T_start)
    levels = np.linalg.eigvalsh(matrix_f)
    lo, hi = T_start * 1e-3, T_start * 1e3
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if entropy(levels, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- single spin: H = -b Sz, levels (-b/2, +b/2) -----------------------------

def spin_entropy(b, T):
    x = b / (2.0 * T)
    return math.log(2.0 * math.cosh(x)) - x * math.tanh(x)


def spin_magnetization(b, T):
    return 0.5 * math.tanh(b / (2.0 * T))


def spin_internal_energy(b, T):
    return -(b / 2.0) * math.tanh(b / (2.0 * T))


def schottky_specific_heat(gap, T):
    x = gap / T
    return x * x * math.exp(x) / (1.0 + math.exp(x)) ** 2


# --- matrix oracles -----------------------------------------------------------

def naive_kron(a, b):
    """Kronecker product by an explicit four-index loop."""
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    out[i * m + k, j * m + l] = a[i, j] * b[k, l]
    return out


def eig2x2(h):
    """Roots of the 2x2 characteristic polynomial, ascending."""
    a, d = float(h[0, 0].real), float(h[1, 1].real)
    off = abs(h[0, 1])
    mean = 0.5 * (a + d)
    radius = math.sqrt((0.5 * (a - d)) ** 2 + off * off)
    return np.array([mean - radius, mean + radius])


def charpoly_eigenvalues(h):
    """Roots of det(H - x I) via Faddeev-LeVerrier coefficients, ascending."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(float(-np.trace(h @ m).real / k))
    return np.sort(np.real(np.roots(coeffs)))
