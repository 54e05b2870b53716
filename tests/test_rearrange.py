import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import lr_kron_init, unvec, vec
from kronstap.errors import DimensionError
from kronstap.rearrange import (
    RearrangedMatrix,
    rearrange,
    unrearrange,
)


def test_rearrange_matches_block_extraction_oracle():
    rng = np.random.default_rng(21)
    for p in range(1, 6):
        for q in range(1, 6):
            s = helpers.complex_gauss(rng, (p * q, p * q))
            got = rearrange(s, p, q)
            want = helpers.block_rearrange(s, p, q)
            assert got.data.shape == (p * p, q * q)
            assert np.array_equal(got.data, want)


def test_roundtrip_is_bitwise_on_tagged_entries():
    # every entry unique, so the permutation has to be a bijection
    for p in range(1, 9):
        for q in range(1, 9):
            n = p * q
            tags = np.arange(n * n, dtype=np.float64)
            s = (tags + 1j * tags[::-1]).reshape(n, n)
            r = rearrange(s, p, q)
            assert np.array_equal(np.sort_complex(r.data.ravel()),
                                  np.sort_complex(s.ravel()))
            assert np.array_equal(unrearrange(r), s)


def test_roundtrip_is_bitwise_random():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        s = helpers.complex_gauss(rng, (p * q, p * q))
        back = unrearrange(rearrange(s, p, q))
        assert np.array_equal(back, s)


def test_rearrange_is_linear_and_norm_preserving():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p, q = 3, 4
        s1 = helpers.complex_gauss(rng, (p * q, p * q))
        s2 = helpers.complex_gauss(rng, (p * q, p * q))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = rearrange(alpha * s1 + s2, p, q).data
        rhs = alpha * rearrange(s1, p, q).data + rearrange(s2, p, q).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert abs(np.linalg.norm(rearrange(s1, p, q).data)
                   - np.linalg.norm(s1)) < 1e-12


def test_kron_products_become_rank_one():
    rng = np.random.default_rng(24)
    for _ in range(30):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 7))
        a = helpers.complex_gauss(rng, (p, p))
        b = helpers.complex_gauss(rng, (q, q))
        r = rearrange(np.kron(a, b), p, q).data
        want = np.outer(vec(a), vec(b))
        scale = max(np.linalg.norm(want), 1.0)
        assert np.linalg.norm(r - want) < 1e-12 * scale


def test_identity_rearranges_to_identity_outer():
    for p, q in [(1, 1), (2, 2), (3, 5), (4, 3)]:
        r = rearrange(np.eye(p * q, dtype=np.complex128), p, q)
        want = np.outer(vec(np.eye(p)), vec(np.eye(q)))
        assert np.array_equal(r.data, want)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_rearrange_is_the_block_permutation(p, q, seed):
    s = helpers.complex_gauss(np.random.default_rng(seed), (p * q, p * q))
    r = rearrange(s, p, q)
    assert np.array_equal(r.data, helpers.block_rearrange(s, p, q))
    assert abs(np.linalg.norm(r.data) - np.linalg.norm(s)) \
        <= 1e-14 * np.linalg.norm(s)
    assert np.array_equal(unrearrange(r), s)


def test_lr_kron_init_recovers_spatial_direction():
    # on an exact Kronecker input the column average is proportional to
    # the vec of the spatial factor whenever the temporal entries do
    # not cancel
    rng = np.random.default_rng(27)
    for _ in range(10):
        p, q = 3, 5
        a = helpers.random_psd(rng, p)
        b = helpers.random_psd(rng, q)
        assert abs(b.sum()) > 1e-6
        a0 = lr_kron_init(rearrange(np.kron(a, b), p, q))
        assert a0.shape == (p * p,)
        scale = b.sum() / (q * q)
        assert helpers.relative_error(a0, vec(a) * scale) < 1e-12


def test_lr_kron_init_identity_case():
    for p, q in [(2, 3), (3, 4), (4, 5)]:
        a0 = lr_kron_init(rearrange(np.eye(p * q, dtype=np.complex128), p, q))
        assert np.array_equal(a0, vec(np.eye(p)) / q)


def test_lr_kron_init_unvec_stays_hermitian_psd():
    rng = np.random.default_rng(28)
    for _ in range(10):
        p, q = 3, 4
        s = helpers.random_psd(rng, p * q)
        a0 = lr_kron_init(rearrange(s, p, q))
        mat = unvec(a0, p, p)
        assert np.linalg.norm(mat - mat.conj().T) < 1e-12 * np.linalg.norm(mat)
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        assert evals.min() > -1e-10 * max(evals.max(), 1.0)


def test_dimension_validation():
    with pytest.raises(DimensionError):
        rearrange(np.zeros((6, 6)), 2, 2)
    with pytest.raises(DimensionError):
        rearrange(np.zeros((4, 4)), 0, 4)
    with pytest.raises(DimensionError):
        unrearrange(np.zeros((4, 4)))
    bad = RearrangedMatrix(2, 3, np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        unrearrange(bad)
    with pytest.raises(DimensionError):
        lr_kron_init(np.zeros((4, 4)))
