import numpy as np
import pytest

import helpers
from kronstap import linalg
from kronstap.errors import DataError, DimensionError
from kronstap.linalg import (
    Factor,
    _hermitian_part,
    as_matrix,
    eig_truncate,
    hermitian_eig,
)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(3))
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(DataError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DataError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_vec_unvec_roundtrip_and_order():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rows, cols = rng.integers(1, 7, size=2)
        m = helpers.complex_gauss(rng, (rows, cols))
        v = helpers.vec(m)
        assert np.array_equal(v, helpers.vec_loops(m))
        assert np.array_equal(helpers.unvec(v, rows, cols), m)
    with pytest.raises(DimensionError):
        helpers.unvec(np.zeros(5), 2, 3)


def test_kron_against_definition():
    # np.kron builds every Kronecker product in the package and the
    # tests, SceneModel.total_covariance's included
    rng = np.random.default_rng(13)
    for _ in range(20):
        pa, qa, pb, qb = rng.integers(1, 5, size=4)
        a = helpers.complex_gauss(rng, (pa, qa))
        b = helpers.complex_gauss(rng, (pb, qb))
        assert np.max(np.abs(np.kron(a, b) - helpers.kron_loops(a, b))) \
            < 1e-13


def test_hermitian_eig_reconstructs_and_orders():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        m = helpers.random_psd(rng, n)
        values, vectors = hermitian_eig(m)
        assert np.all(np.diff(values) <= 1e-12)
        recon = (vectors * values) @ vectors.conj().T
        assert helpers.relative_error(recon, m) < 1e-10
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_hermitian_eig_values_match_charpoly_roots():
    # independent route: Faddeev-LeVerrier coefficients plus root finding
    rng = np.random.default_rng(16)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        m = helpers.random_psd(rng, n)
        values, _ = hermitian_eig(m)
        roots = helpers.eigvals_from_charpoly(m)
        scale = max(np.max(np.abs(values)), 1.0)
        assert np.max(np.abs(values - roots)) < 1e-8 * scale


def test_hermitian_eig_phase_convention():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = helpers.random_psd(rng, n)
        _, vectors = hermitian_eig(m)
        for k in range(n):
            pivot = int(np.argmax(np.abs(vectors[:, k])))
            entry = vectors[pivot, k]
            assert entry.real > 0
            assert abs(entry.imag) < 1e-12 * abs(entry)


def test_hermitian_eig_deterministic_under_degeneracy():
    # repeated eigenvalues leave LAPACK free to rotate; the tie rules
    # must still pin one representative
    m = np.eye(4, dtype=np.complex128) * 2.0
    values, vectors = hermitian_eig(m)
    assert np.allclose(values, 2.0)
    again = hermitian_eig(m.copy())
    assert np.array_equal(vectors, again.vectors)
    perm = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    v1 = hermitian_eig(perm)
    v2 = hermitian_eig(perm.copy())
    assert np.array_equal(v1.vectors, v2.vectors)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=np.complex128)
    with pytest.raises(DataError):
        hermitian_eig(m)
    with pytest.raises(DimensionError):
        hermitian_eig(np.zeros((2, 3)))


def test_eig_truncate_matches_svd_truncation_on_psd():
    rng = np.random.default_rng(18)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        rank = int(rng.integers(1, n))
        m = helpers.random_psd(rng, n)
        got = eig_truncate(m, rank)
        want = helpers.svd_truncate(m, rank)
        assert helpers.relative_error(got, want) < 1e-9
        values, _ = hermitian_eig(got)
        assert np.sum(values > 1e-9 * values[0]) <= rank
        assert values[-1] > -1e-10 * values[0]


def test_eig_truncate_full_rank_is_symmetrized_identity():
    rng = np.random.default_rng(19)
    m = helpers.random_psd(rng, 5)
    out = eig_truncate(m, 5)
    assert np.array_equal(out, (m + m.conj().T) / 2.0)


def test_eig_truncate_clamps_rounding_negatives():
    # PSD up to rounding: a tiny negative eigenvalue must not survive
    base = np.diag([1.0, 0.5, -1e-14]).astype(np.complex128)
    out = eig_truncate(base, 2)
    values, _ = hermitian_eig(out)
    assert values[-1] >= 0.0


def test_eig_truncate_rank_bounds():
    m = np.eye(3, dtype=np.complex128)
    with pytest.raises(DimensionError):
        eig_truncate(m, 0)
    with pytest.raises(DimensionError):
        eig_truncate(m, 4)


@pytest.mark.parametrize("n, rank", [(2, 1), (8, 1), (64, 3), (200, 7)])
def test_a_truncation_keeps_its_pairs_and_rebuilds_the_same_bits(n, rank):
    # the dense view of the kept pairs is the product over a column
    # slice of the full solve, as the truncation formed it before it
    # kept its pairs, bit for bit
    m = helpers.random_psd(np.random.default_rng(n), n, rank + 1)
    sym = _hermitian_part(m, "matrix")
    values, vectors = hermitian_eig(sym)
    top = max(abs(values[0]), abs(values[-1]))
    lam = values[:rank]
    lam = np.where((lam < 0) & (np.abs(lam) <= 1e-10 * top), 0.0, lam)
    u = vectors[:, :rank]
    out = (u * lam) @ u.conj().T
    want = (out + out.conj().T) / 2.0
    factor = linalg._truncated(sym, rank)
    assert factor.pairs.values.tobytes() == lam.tobytes()
    assert np.array_equal(factor.pairs.vectors, u)
    assert factor.matrix.tobytes() == want.tobytes()
    assert eig_truncate(m, rank).tobytes() == want.tobytes()
    for arr in (factor.matrix, *factor.pairs):
        assert not arr.flags.writeable


@pytest.mark.parametrize("values, rank, pinned", [
    ([5.0, 3.0, 2.0, 1.0], 2, 2),                 # no tie at the cut
    ([5.0, 3.0, 3.0, 3.0, 1.0], 2, 4),            # a tie run crosses it
    # tied only within the whole spectrum's tolerance, 9e-12, not 2e-12
    ([2.0, 1.0 + 5e-12, 1.0, -9.0], 2, 3),
])
def test_a_truncation_pins_only_its_kept_pairs(monkeypatch, values, rank,
                                               pinned):
    # the kept prefix, and the rest of a tie run across the cut, get the
    # bits of the all-pairs solve
    values, basis = helpers.random_pairs(np.random.default_rng(78), 12,
                                         values)
    sym = _hermitian_part((basis * values) @ basis.conj().T, "matrix")
    want = hermitian_eig(sym)
    widths = []
    pin = linalg._pin_conventions

    def recorded(vals, vectors, top=None):
        widths.append(vectors.shape[1])
        return pin(vals, vectors, top)

    monkeypatch.setattr(linalg, "_pin_conventions", recorded)
    got = linalg._kept_pairs(sym, rank)
    assert widths == [pinned]
    assert got.values.tobytes() == want.values[:rank].tobytes()
    assert np.array_equal(got.vectors, want.vectors[:, :rank])


def test_a_dense_factor_is_decomposed_once_on_first_use(monkeypatch):
    m = helpers.random_psd(np.random.default_rng(75), 12, 3)
    full = helpers.CountFullSolves(monkeypatch)
    factor = Factor.checked(m, "temporal factor")
    assert full.sizes == []
    assert factor.dim == 12
    assert factor.pairs is factor.pairs
    assert full.sizes == [12]
    assert np.array_equal(factor.pairs.vectors, hermitian_eig(m).vectors)
    with pytest.raises(DataError, match="temporal factor is not positive "
                                        "semidefinite"):
        Factor.checked(-m, "temporal factor").pairs


def test_checked_pairs_take_the_solvers_tie_order():
    # _pin_conventions orders tied values by pivot index, so a tie can
    # come out ascending by rounding; the check leaves room for that
    rng = np.random.default_rng(76)
    rises = 0
    for _ in range(20):
        values = np.repeat(rng.random(3) + 1.0, 3)
        _, basis = helpers.random_pairs(rng, 12, values)
        m = (basis * values) @ basis.conj().T
        pairs = hermitian_eig((m + m.conj().T) / 2)
        rises += int(np.any(np.diff(pairs.values) > 0))
        Factor.checked_pairs(pairs.values, pairs.vectors, "factor")
    assert rises > 0


@pytest.mark.parametrize("case, match", [
    ("ascending", "descending"), ("negative", "positive semidefinite"),
    ("skewed", "orthonormal"), ("nan vector", "non-finite"),
    ("inf value", "non-finite")])
def test_checked_pairs_refuse_what_is_no_eigendecomposition(case, match):
    values, vectors = helpers.random_pairs(np.random.default_rng(77), 6,
                                           [3.0, 2.0, 1.0])
    if case == "ascending":
        values = values[::-1].copy()
    elif case == "negative":
        values[-1] = -1e-9
    elif case == "skewed":
        vectors[:, 1] += 1e-9 * vectors[:, 0]
    elif case == "nan vector":
        vectors[5, 2] = np.nan
    else:
        values[0] = np.inf
    with pytest.raises(DataError, match=match):
        Factor.checked_pairs(values, vectors, "factor")
    # within the stated tolerances the same pairs pass
    values, vectors = helpers.random_pairs(np.random.default_rng(77), 6,
                                           [3.0, 2.0, 1.0])
    values[-1] = -1e-11
    vectors[:, 1] += 1e-12 * vectors[:, 0]
    Factor.checked_pairs(values, vectors, "factor")


def overflowing_asymmetry():
    m = helpers.random_psd(np.random.default_rng(70), 6)
    m[0, 1] = 1e156
    m[1, 0] = 0.0
    return m


def test_an_asymmetry_past_the_overflow_is_rejected():
    with pytest.raises(DataError, match="Hermitian"):
        _hermitian_part(overflowing_asymmetry(), "matrix")


@pytest.mark.parametrize("peak", [1e200, 1.5e308])
def test_hermitian_entries_near_the_float_limit_pass(peak):
    m = helpers.random_psd(np.random.default_rng(71), 70)
    m *= peak / np.abs(m).max()
    want = m.copy()
    got = _hermitian_part(m, "matrix")
    assert np.array_equal(got, want)
