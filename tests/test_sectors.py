"""Every eigensolve runs by the sectors of each H(lambda)'s own sparsity
pattern: the spectral cache checked against whole-matrix eigensolves, bit for
bit where a matrix is one sector or diagonal, and on an 8-site ring
(d = 256); ``hermitian_eigen`` and ``thermal_state`` as views of the same
solve; an affine family's fill from its (H0, V) sector blocks against the
per-node fill, bit for bit."""

import dataclasses
import warnings

import numpy as np
import pytest

from qcaloric import caloric, models
from qcaloric.caloric import (
    adiabatic_temperature_change,
    adiabatic_temperature_change_matching,
    isothermal_entropy_change,
    isothermal_entropy_change_direct,
    maxwell_residual,
)
from qcaloric.linalg import HermitianOperator, eigenbasis_diagonal, hermitian_eigen
from qcaloric.errors import NonFiniteParameterError, NonHermitianError
from qcaloric.models import (
    SpectrumTable, _affine, build_dimer, build_single_spin_zeeman, build_tabulated)
from qcaloric.thermal import _entropy, _spectral_rows, thermal_state, thermo_point
from qcaloric.validate import _level_groups, _ring_model

LAMS = [0.6037, 1.0, 1.3963]


def affine(h0, v):
    """H(lambda) = h0 + lambda * v with the constant derivative v."""
    return _affine("J", {}, h0, HermitianOperator(v), None)


def hidden_block_pair(seed, dim):
    """Two Hermitian matrices block diagonal on the same random blocks (1 x 1
    ones included), with the basis shuffled by a random permutation, and the
    index set of each block in the shuffled basis."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False))
    perm = rng.permutation(dim)
    bounds = list(zip(np.r_[0, cuts], np.r_[cuts, dim]))
    pair = []
    for _ in range(2):
        m = np.zeros((dim, dim), dtype=complex)
        for lo, hi in bounds:
            block = rng.normal(size=(hi - lo, hi - lo)) + 1j * rng.normal(size=(hi - lo, hi - lo))
            m[lo:hi, lo:hi] = block + block.conj().T
        pair.append(m[np.ix_(perm, perm)])
    return pair, [np.flatnonzero((perm >= lo) & (perm < hi)) for lo, hi in bounds]


def hidden_blocks(seed, dim):
    """The affine family H0 + lambda V of a ``hidden_block_pair``."""
    return affine(*hidden_block_pair(seed, dim)[0])


def tied_table():
    """A tabulated (diagonal) model whose first and third levels are tied."""
    grid = np.linspace(0.0, 2.0, 5)
    return build_tabulated(SpectrumTable(grid, np.column_stack(
        [np.ones(5), 1.0 - 0.2 * grid, np.ones(5), 0.3 * grid])))


def whole_matrix(model, lam):
    """Levels and dH/dlambda diagonal from one ``eigh`` of the whole matrix."""
    values, vectors = np.linalg.eigh(model.evaluate(lam).matrix)
    return values, np.real(np.sum(vectors.conj() * (model.derivative(lam).matrix @ vectors), axis=0))


def whole_matrix_rows(model, lams, diagonal=False):
    """The rows of raw LAPACK: one ``np.linalg.eigh`` per whole matrix and the
    derivative's diagonal in its eigenbasis, or for a diagonal model the
    stable sort of both diagonals by the levels."""
    rows = []
    for lam in lams:
        h, dh = model.evaluate(lam).matrix, model.derivative(lam).matrix
        if diagonal:
            order = np.argsort(np.diagonal(h).real, kind="stable")
            levels, diag = np.diagonal(h).real[order], np.diagonal(dh).real[order]
        else:
            levels, vectors = np.linalg.eigh(h)
            diag = eigenbasis_diagonal(dh, vectors)
        rows.append(_spectral_rows(levels, diag))
    return np.array(rows)


@pytest.mark.parametrize("model", [hidden_blocks(seed, dim) for seed, dim in enumerate(
    [2, 3, 4, 5, 6, 8, 8, 11, 12, 16, 16])] + [_ring_model(6, 0.35), _ring_model(6, 0.0)],
    ids=lambda m: f"d{m.dimension}")
def test_sector_rows_match_the_whole_matrix(model):
    rows = caloric._SpectralCache(model).stack(LAMS)
    for lam, (levels, diag, shifts) in zip(LAMS, rows):
        values, ref = whole_matrix(model, lam)
        spread = values[-1] - values[0]
        assert np.max(np.abs(levels - values)) <= 1e-13 * spread
        assert np.array_equal(shifts, levels[0] - levels)
        # the diagonal of dH/dlambda is basis-free only over a degenerate level
        starts, sums = _level_groups(values, ref, 1e-9 * spread)
        got_starts, got_sums = _level_groups(levels, diag, 1e-9 * spread)
        assert np.array_equal(got_starts, starts)
        np.testing.assert_allclose(got_sums, sums, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_dense_and_diagonal_models_fill_the_bits_of_the_whole_matrix_solver():
    rng = np.random.default_rng(5)
    h0, v = (m + m.conj().T for m in rng.normal(size=(2, 7, 7)) + 1j * rng.normal(size=(2, 7, 7)))
    # tied levels keep their order
    for model, lams, diagonal in ((affine(h0, v), LAMS, False),
                                  (tied_table(), [0.25, 0.6, 1.0, 1.7], True)):
        rows = caloric._SpectralCache(model).stack(lams)
        assert np.array_equal(rows, whole_matrix_rows(model, lams, diagonal))


def test_a_node_has_the_bits_of_its_own_fill_whatever_it_is_filled_with():
    # at J = 0 the ring is diagonal, elsewhere it splits into S_z sectors
    ring, lams = _ring_model(4, 0.35), [0.0, 0.6037, -1.0, 1.3963]
    together = caloric._SpectralCache(ring).stack(lams)
    for lam, rows in zip(lams, together):
        assert np.array_equal(rows, caloric._SpectralCache(ring).stack([lam])[0])


def test_a_dense_matrix_is_one_call_and_a_diagonal_one_none(monkeypatch):
    widths = []
    eigh = np.linalg.eigh

    def counting(m):
        widths.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rng = np.random.default_rng(6)
    h0, v = (m + m.T for m in rng.normal(size=(2, 5, 5)))
    caloric._SpectralCache(affine(h0 + 0j, v + 0j)).stack(LAMS)
    assert widths == [(3, 5, 5)]
    caloric._SpectralCache(affine(np.diag([3.0, 1.0, 2.0]) + 0j, np.eye(3, dtype=complex))).stack(LAMS)
    assert widths == [(3, 5, 5)]


def test_ring8_meets_its_oracles_on_sectors_no_wider_than_70(monkeypatch):
    # d = 256 splits into S_z sectors 1, 8, 28, 56, 70, 56, 28, 8, 1
    widths = []
    eigh = np.linalg.eigh

    def counting(m):
        widths.append(m.shape[-1])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    ring = _ring_model(8, 0.35)
    args = (ring, 0.6037, 1.3963, 1.3)
    quad, direct = isothermal_entropy_change(*args), isothermal_entropy_change_direct(*args)
    assert abs(quad.value - direct.value) <= 1e-8 * abs(direct.value)
    ode, match = adiabatic_temperature_change(*args), adiabatic_temperature_change_matching(*args)
    assert abs(ode.value - match.value) <= 1e-9 + 1e-10
    assert sorted(set(widths)) == [8, 28, 56, 70]


@pytest.mark.parametrize("route, nodes", [
    (isothermal_entropy_change_direct, [1.3963, 0.6037]),
    (adiabatic_temperature_change_matching, [0.6037, 1.3963]),
    (lambda model, _i, _f, t: maxwell_residual(model, 1.0, t), [1.0 + 1e-4, 1.0 - 1e-4, 1.0]),
], ids=["direct", "matching", "maxwell"])
def test_endpoint_routes_fill_their_endpoints_together(route, nodes, monkeypatch):
    reads = []
    real_stack = caloric._SpectralCache.stack

    def stack(cache, lams):
        lams = list(lams)
        reads.append(lams)
        return real_stack(cache, lams)

    monkeypatch.setattr(caloric._SpectralCache, "stack", stack)
    route(_ring_model(6, 0.35), 0.6037, 1.3963, 1.0)
    assert reads == [nodes]


@pytest.mark.parametrize("model", [
    _ring_model(4, 0.35), _ring_model(6, 0.35), build_dimer(J=1.0, b=0.3, parameter="J"),
    hidden_blocks(7, 11), tied_table()], ids=["ring4", "ring6", "dimer", "hidden", "table"])
def test_thermal_state_reads_the_levels_of_the_spectral_cache(model):
    lams, t = np.linspace(0.6, 1.4, 9), 1.3
    rows = caloric._SpectralCache(model).stack(lams)
    for lam, (levels, _, shifts) in zip(lams, rows):
        state = thermal_state(model, lam, t)
        assert np.array_equal(state.spectrum.values, levels)
        assert thermo_point(state).entropy == _entropy(shifts, t)


@pytest.mark.parametrize("seed, dim", [(1, 4), (1, 6), (1, 8), (11, 12), (9, 16), (11, 16)])
def test_hermitian_eigen_solves_no_block_wider_than_its_own(seed, dim, monkeypatch):
    (h0, v), blocks = hidden_block_pair(seed, dim)
    widest = max(map(len, blocks))
    assert widest < dim
    widths = []
    eigh = np.linalg.eigh

    def counting(m):
        widths.append(m.shape[-1])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    h = h0 + 0.7 * v
    dec = hermitian_eigen(h)
    assert max(widths, default=1) <= widest
    sector = np.empty(dim, dtype=int)
    for k, idx in enumerate(blocks):
        sector[idx] = k
    for column in dec.vectors.T:
        assert len(set(sector[np.flatnonzero(column)])) == 1
    assert np.linalg.norm(h @ dec.vectors - dec.vectors * dec.values) <= 1e-12 * np.linalg.norm(h)
    assert np.max(np.abs(dec.vectors.conj().T @ dec.vectors - np.eye(dim))) <= 1e-12


# the family fill: an affine model is read whole from its (H0, V) sector blocks

def per_node(model, wrap="evaluate"):
    """The model with one read wrapped: the spectral cache fills it node by node."""
    read = getattr(model, wrap)
    return dataclasses.replace(model, **{wrap: lambda lam: read(lam)})


@pytest.mark.parametrize("model, lams", [
    (build_dimer(J=1.0, b=0.3, parameter="J"), caloric._nodes(-1.5, 1.5, 64) + [0.0]),
    (build_dimer(J=1.0, b=0.0, parameter="J"), caloric._nodes(-1.5, 1.5, 64) + [0.0]),
    (build_dimer(J=1.0, b=0.3, parameter="b"), caloric._nodes(-1.0, 2.0, 32) + [0.0]),
    (build_single_spin_zeeman(1.0), caloric._nodes(-1.0, 2.0, 32) + [0.0]),
    (_ring_model(4, 0.35), caloric._nodes(0.6037, 1.3963, 64) + [0.0]),
    (_ring_model(6, 0.35), caloric._nodes(0.6037, 1.3963, 16) + [0.0]),
    *((hidden_blocks(seed, dim), LAMS + [0.0]) for seed, dim in enumerate([3, 5, 8, 11, 16])),
], ids=["dimer_J", "dimer_J_b0", "dimer_b", "spin", "ring4", "ring6",
        "hidden3", "hidden5", "hidden8", "hidden11", "hidden16"])
def test_the_family_fill_has_the_bits_of_the_per_node_fill(model, lams):
    # through J = 0 the dimer's 2 x 2 sector is diagonal and the ring's S_z sectors
    # are multiples of the identity: the family still solves them, to the same bits
    rows = caloric._SpectralCache(model).stack(lams)
    for wrap in ("evaluate", "derivative"):
        assert rows.tobytes() == caloric._SpectralCache(per_node(model, wrap)).stack(lams).tobytes()


def test_the_8_site_ring_at_j0_has_the_per_node_bits_up_to_the_sign_of_zero():
    # at J = 0 the family solves each diagonal S_z sector whole, where the per-node
    # fill reads 1 x 1 blocks: some zero levels come back +0 where it has -0
    model, lams = _ring_model(8, 0.35), [0.0, 0.5]
    rows = caloric._SpectralCache(model).stack(lams)
    node = caloric._SpectralCache(per_node(model)).stack(lams)
    assert (rows + 0.0).tobytes() == (node + 0.0).tobytes()


def test_sectors_are_found_on_the_first_fill_not_at_build():
    # pair_correlation builds a dimer per temperature and never fills it
    model = build_dimer(J=1.0, b=0.3, parameter="J")
    assert "_blocks" not in vars(model.evaluate)
    caloric._SpectralCache(model).stack([1.0])
    blocks = vars(model.evaluate)["_blocks"]
    caloric._SpectralCache(model).stack([1.5])
    assert vars(model.evaluate)["_blocks"] is blocks
    assert [idx.tolist() for idx, *_ in blocks[2]] == [[1, 2]]


@pytest.mark.parametrize("wrap", ["evaluate", "derivative"])
def test_a_wrapped_read_sees_every_node(wrap, monkeypatch):
    filled = []
    monkeypatch.setattr(models._Affine, "spectra", lambda family, lams: filled.append(lams))
    model = build_dimer(J=1.0, b=0.3, parameter="J")
    seen = []
    read = getattr(model, wrap)
    wrapped = dataclasses.replace(model, **{wrap: lambda lam: seen.append(lam) or read(lam)})
    isothermal_entropy_change(wrapped, 0.5, 1.5, 1.0)
    assert filled == [] and sorted(seen) == sorted(set(seen)) and len(seen) == 33


@pytest.mark.parametrize("wrap", [None, "evaluate"], ids=["family", "per_node"])
def test_an_overflow_in_the_second_block_names_its_first_lambda(wrap):
    # 2 * 1e308 overflows in the J-dimer's sigma1.sigma2; 6e307 does not
    model = build_dimer(J=1.0, b=0.3, parameter="J")
    cache = caloric._SpectralCache(per_node(model, wrap) if wrap else model)
    first = np.linspace(0.5, 1.5, caloric._FILL_BLOCK).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteParameterError, match=r"^H\(lambda\) is not finite at lambda = 1e\+308$"):
            cache.stack(first + [2.0, 3e307, 1e308, -1.5e308])
    assert list(cache._data) == first
    assert np.array_equal(cache.stack(first), caloric._SpectralCache(model).stack(first))


def test_a_family_needs_exactly_hermitian_matrices():
    h0 = np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]], dtype=complex)   # within the tolerance
    with pytest.raises(NonHermitianError, match="exactly Hermitian"):
        _affine("J", {}, h0, HermitianOperator(np.eye(2, dtype=complex)), None)
    with pytest.raises(NonHermitianError, match="exactly Hermitian"):
        _affine("J", {}, np.eye(3, dtype=complex), HermitianOperator(np.eye(2, dtype=complex)), None)
