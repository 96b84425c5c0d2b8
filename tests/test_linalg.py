import warnings

import numpy as np
import pytest

from qcaloric.errors import NoConvergenceError, NonHermitianError
from qcaloric.linalg import (
    HermitianOperator,
    eigenbasis_diagonal,
    hermitian_eigen,
    hermitian_eigen_stack,
    kron,
    spin_half_operators,
)

from oracles import charpoly_eigenvalues, eig2x2, naive_kron


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


class TestKron:
    def test_identity_case(self):
        eye2 = np.eye(2, dtype=complex)
        assert np.array_equal(kron(eye2, eye2), np.eye(4, dtype=complex))

    def test_pauli_zz(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert np.array_equal(kron(sz, sz), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_against_naive_loop(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(kron(a, b), naive_kron(a, b), atol=0, rtol=1e-15)

    def test_associative_on_integer_entries(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.integers(-4, 5, size=(2, 2)).astype(complex)
            b = rng.integers(-4, 5, size=(3, 3)).astype(complex)
            c = rng.integers(-4, 5, size=(2, 2)).astype(complex)
            assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), np.eye(2))


class TestSpinOperators:
    def test_su2_commutator(self):
        Sx, Sy, Sz, *_ = spin_half_operators()
        assert np.allclose(Sx @ Sy - Sy @ Sx, 1j * Sz, atol=1e-15)

    def test_casimir(self):
        Sx, Sy, Sz, *_ = spin_half_operators()
        casimir = Sx @ Sx + Sy @ Sy + Sz @ Sz
        assert np.allclose(casimir, 0.75 * np.eye(2), atol=1e-15)

    def test_pauli_traceless(self):
        _, _, _, sx, sy, sz = spin_half_operators()
        for s in (sx, sy, sz):
            assert abs(np.trace(s)) == 0.0

    def test_pauli_is_twice_spin(self):
        Sx, Sy, Sz, sx, sy, sz = spin_half_operators()
        for big, small in ((sx, Sx), (sy, Sy), (sz, Sz)):
            assert np.array_equal(big, 2.0 * small)


class TestHermitianOperator:
    def test_defect_recorded(self):
        op = HermitianOperator(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert op.hermiticity_defect <= 1e-16

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.nan, -np.inf, complex(0.0, np.inf),
                                       complex(np.nan, 1.0)])
    def test_rejects_non_finite_without_a_warning(self, entry):
        # an inf pair off the diagonal would warn in A - A' (inf - inf)
        m = np.eye(3, dtype=complex)
        m[0, 2] = m[2, 0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite entries"):
                HermitianOperator(m)

    def test_accepts_finite_entries_whose_modulus_overflows(self):
        big = 1.5e308
        op = HermitianOperator(np.array([[big, big + 1j * big], [big - 1j * big, 0.0]]))
        assert op.hermiticity_defect == 0.0


class TestHermitianEigen:
    def test_already_diagonal(self):
        dec = hermitian_eigen(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.array_equal(dec.values, [-1.0, 2.0, 3.0])

    def test_pauli_x_spectrum(self):
        _, _, _, sx, _, _ = spin_half_operators()
        dec = hermitian_eigen(sx)
        assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-13)

    def test_dimer_exchange_spectrum(self):
        # sigma1.sigma2 splits into a singlet at -3 and a triplet at +1;
        # cross-checked against the characteristic-polynomial roots
        _, _, _, sx, sy, sz = spin_half_operators()
        exchange = kron(sx, sx) + kron(sy, sy) + kron(sz, sz)
        dec = hermitian_eigen(exchange)
        assert np.allclose(dec.values, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)
        assert np.allclose(dec.values, charpoly_eigenvalues(exchange), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16])
    def test_residual_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            h = random_hermitian(rng, n)
            dec = hermitian_eigen(h)
            norm = np.linalg.norm(h)
            residual = np.linalg.norm(h @ dec.vectors - dec.vectors * dec.values)
            assert residual <= 1e-10 * norm
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16])
    def test_trace_identities(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            h = random_hermitian(rng, n)
            dec = hermitian_eigen(h)
            norm = np.linalg.norm(h)
            assert abs(np.sum(dec.values) - np.trace(h).real) <= 1e-10 * norm
            assert abs(np.sum(dec.values ** 2) - np.trace(h @ h).real) <= 1e-10 * norm

    def test_matches_charpoly_roots_2x2(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_hermitian(rng, 2)
            assert np.allclose(hermitian_eigen(h).values, eig2x2(h), atol=1e-9)

    def test_matches_charpoly_roots_4x4(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            h = random_hermitian(rng, 4)
            assert np.allclose(
                hermitian_eigen(h).values, charpoly_eigenvalues(h), atol=1e-9)

    def test_values_ascending(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dec = hermitian_eigen(random_hermitian(rng, 6))
            assert np.all(np.diff(dec.values) >= 0)

    def test_degenerate_ties_keep_original_order(self):
        dec = hermitian_eigen(np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert np.array_equal(dec.values, [0.0, 1.0, 1.0])
        # degenerate pair keeps its original column order (stable sort)
        assert dec.vectors[0, 1] == 1.0 and dec.vectors[1, 2] == 1.0

    def test_rejects_non_hermitian_array(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigen(np.array([[0.0, 2.0], [1.0, 0.0]]))

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        def failing_eigh(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        _, _, _, sx, _, _ = spin_half_operators()
        with pytest.raises(NoConvergenceError, match="did not converge"):
            hermitian_eigen(sx)

    def test_zero_matrix(self):
        dec = hermitian_eigen(np.zeros((3, 3), dtype=complex))
        assert np.array_equal(dec.values, np.zeros(3))
        assert np.array_equal(dec.vectors, np.eye(3))

    def test_largest_supported_dimensions(self):
        # the solver is specified up to dim 64; spot-check the upper range
        rng = np.random.default_rng(64)
        for n in (32, 64):
            h = random_hermitian(rng, n)
            dec = hermitian_eigen(h)
            norm = np.linalg.norm(h)
            residual = np.linalg.norm(h @ dec.vectors - dec.vectors * dec.values)
            assert residual <= 1e-10 * norm
            assert abs(np.sum(dec.values) - np.trace(h).real) <= 1e-10 * norm


class TestEigenbasisDiagonal:
    def test_recovers_eigenvalues(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        dec = hermitian_eigen(h)
        diag = eigenbasis_diagonal(h, dec.vectors)
        assert np.allclose(diag, dec.values, atol=1e-12)

    def test_dim64_matches_explicit_expectation_loop(self):
        rng = np.random.default_rng(65)
        basis = hermitian_eigen(random_hermitian(rng, 64)).vectors
        a = random_hermitian(rng, 64)
        expected = [np.vdot(basis[:, n], a @ basis[:, n]).real for n in range(64)]
        assert np.max(np.abs(eigenbasis_diagonal(a, basis) - expected)) <= 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            eigenbasis_diagonal(np.eye(3), np.eye(2, dtype=complex))

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_rows_are_contiguous_so_matmul_equals_dot(self, dim):
        # `@` on a strided view takes another kernel than np.dot and moves last bits
        rng = np.random.default_rng(dim + 1)
        basis = hermitian_eigen(random_hermitian(rng, dim)).vectors
        rows = eigenbasis_diagonal(np.array([random_hermitian(rng, dim) for _ in range(3)]),
                                   basis)
        assert rows.shape == (3, dim) and rows.flags.c_contiguous
        for _ in range(50):
            weights = rng.dirichlet(np.ones(dim))
            assert np.array_equal(rows @ weights, np.dot(rows, weights))


class TestStackedEigensolver:
    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_equals_per_matrix_solves_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        hs = [random_hermitian(rng, dim) for _ in range(9)]
        vs = [random_hermitian(rng, dim) for _ in range(9)]
        stack = hermitian_eigen_stack(hs)
        diags = eigenbasis_diagonal(np.array(vs), stack.vectors)
        shared = eigenbasis_diagonal(vs[0], stack.vectors)
        assert stack.values.shape == (9, dim) and stack.dim == dim
        for k, (h, v) in enumerate(zip(hs, vs)):
            one = hermitian_eigen(h)
            values, vectors = np.linalg.eigh(h)
            assert np.array_equal(stack.values[k], one.values)
            assert np.array_equal(stack.values[k], values)
            assert np.array_equal(stack.vectors[k], vectors)
            assert np.array_equal(diags[k], eigenbasis_diagonal(v, one.vectors))
            assert np.array_equal(shared[k], eigenbasis_diagonal(vs[0], one.vectors))

    def test_diagonal_members_keep_tied_levels_in_order(self):
        rng = np.random.default_rng(11)
        tied = np.diag([1.0, 1.0, 0.0]).astype(complex)
        h = random_hermitian(rng, 3)
        stack = hermitian_eigen_stack([tied, h, np.zeros((3, 3), dtype=complex)])
        assert np.array_equal(stack.values[0], [0.0, 1.0, 1.0])
        assert np.array_equal(stack.vectors[0], np.eye(3)[:, [2, 0, 1]])
        assert np.array_equal(stack.values[1], np.linalg.eigh(h)[0])
        assert np.array_equal(stack.vectors[2], np.eye(3))
        for k, m in enumerate((tied, h)):
            assert np.array_equal(stack.values[k], hermitian_eigen(m).values)
            assert np.array_equal(stack.vectors[k], hermitian_eigen(m).vectors)

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        def failing_eigh(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        _, _, _, sx, _, sz = spin_half_operators()
        with pytest.raises(NoConvergenceError, match="did not converge"):
            hermitian_eigen_stack([sz, sx])

    def test_rejects_non_hermitian_member(self):
        _, _, _, sx, _, _ = spin_half_operators()
        with pytest.raises(NonHermitianError):
            hermitian_eigen_stack([sx, np.array([[0.0, 2.0], [1.0, 0.0]])])
