import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kronstap.errors import DataError, DegenerateInputError, DimensionError
from kronstap.lrkron import (
    SampleCovariance,
    lr_kron_estimate,
    sample_covariance,
)
from kronstap.parallel import WorkerPool
from kronstap.rearrange import rearrange, unrearrange


def _exact_cov(s, p, q):
    return SampleCovariance(np.asarray(s, dtype=np.complex128), 1, p, q)


def test_sample_covariance_matches_outer_product_average():
    rng = np.random.default_rng(31)
    p, q, n = 2, 3, 7
    snaps = helpers.complex_gauss(rng, (n, p * q))
    want = np.zeros((p * q, p * q), dtype=np.complex128)
    for m in range(n):
        want += np.outer(snaps[m], snaps[m].conj())
    want /= n
    got = sample_covariance(snaps, p, q)
    assert got.n_samples == n
    assert got.p == p and got.q == q
    assert helpers.relative_error(got.matrix, want) < 1e-12
    assert np.array_equal(got.matrix, got.matrix.conj().T)


def test_sample_covariance_monte_carlo_consistency():
    # relative error should shrink like 1/sqrt(n): quadrupling the
    # sample count should roughly halve it
    rng = np.random.default_rng(30)
    p, q = 2, 4
    d = p * q
    root = helpers.complex_gauss(rng, (d, d))
    sigma = root @ root.conj().T / d + 0.1 * np.eye(d)
    chol = np.linalg.cholesky(sigma)
    scale = np.linalg.norm(sigma)
    errors = []
    for n in (10 * d, 40 * d, 160 * d):
        reps = []
        for _ in range(8):
            z = helpers.complex_gauss(rng, (n, d))
            # rows become chol @ z_m, so their covariance is sigma
            reps.append(np.linalg.norm(
                sample_covariance(z @ chol.T, p, q).matrix - sigma
            ) / scale)
        errors.append(np.mean(reps))
    assert errors[0] < 0.25
    for big, small in zip(errors, errors[1:]):
        ratio = big / small
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5


def test_sample_covariance_validation():
    with pytest.raises(DimensionError):
        sample_covariance(np.zeros(6), 2, 3)
    with pytest.raises(DimensionError):
        sample_covariance(np.zeros((0, 6)), 2, 3)
    with pytest.raises(DimensionError):
        sample_covariance(np.zeros((4, 5)), 2, 3)


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_snapshots_raise_data_error(n, bad):
    # n = 3 < pq is rejected when the stack is kept; n = 12 >= pq forms
    # the matrix, which the estimator's validation rejects
    snaps = helpers.complex_gauss(np.random.default_rng(44), (n, 6))
    snaps[1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(DataError):
        lr_kron_estimate(sample_covariance(snaps, 2, 3), 1, 2)


def test_representation_follows_the_snapshot_count():
    rng = np.random.default_rng(45)
    p, q = 2, 3
    few = sample_covariance(helpers.complex_gauss(rng, (p * q - 1, p * q)), p, q)
    many = sample_covariance(helpers.complex_gauss(rng, (p * q, p * q)), p, q)
    assert few.snapshots.shape == (p * q - 1, p, q)
    assert not few.snapshots.flags.writeable
    assert many.snapshots is None


def test_snapshot_stack_is_a_private_copy():
    rng = np.random.default_rng(46)
    snaps = helpers.complex_gauss(rng, (4, 6))
    scm = sample_covariance(snaps, 2, 3)
    want = sample_covariance(snaps.copy(), 2, 3).matrix
    snaps[:] = 0.0
    assert np.array_equal(scm.matrix, want)


def test_estimator_input_validation():
    rng = np.random.default_rng(33)
    s = helpers.random_psd(rng, 6)
    good = _exact_cov(s, 2, 3)
    with pytest.raises(DimensionError):
        lr_kron_estimate(s, 1, 1)
    with pytest.raises(DimensionError):
        lr_kron_estimate(good, 0, 1)
    with pytest.raises(DimensionError):
        lr_kron_estimate(good, 1, 4)
    with pytest.raises(DimensionError):
        lr_kron_estimate(good, 1, 1, max_iter=0)
    skew = s.copy()
    skew[0, 1] += 1.0
    with pytest.raises(DataError):
        lr_kron_estimate(_exact_cov(skew, 2, 3), 1, 1)
    neg = np.eye(6, dtype=np.complex128)
    neg[5, 5] = -1.0
    with pytest.raises(DataError):
        lr_kron_estimate(_exact_cov(neg, 2, 3), 1, 1)


def test_near_hermitian_covariance_fits_as_its_symmetrization():
    rng = np.random.default_rng(49)
    p, q = 2, 5
    s = helpers.random_psd(rng, p * q)
    skew = helpers.complex_gauss(rng, (p * q, p * q))
    skew = (skew - skew.conj().T) * (1e-10 * np.linalg.norm(s))
    near = s + skew
    sym = (near + near.conj().T) / 2.0
    assert not np.array_equal(near, sym)
    got = lr_kron_estimate(_exact_cov(near, p, q), 1, 3)
    want = lr_kron_estimate(_exact_cov(sym, p, q), 1, 3)
    assert np.array_equal(got.spatial, want.spatial)
    assert np.array_equal(got.temporal, want.temporal)
    assert got.residuals == want.residuals
    with pytest.raises(DataError):
        lr_kron_estimate(_exact_cov(s + 1e3 * skew, p, q), 1, 3)


def test_exact_kronecker_recovery():
    rng = np.random.default_rng(34)
    for _ in range(15):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(2, 8))
        ra = int(rng.integers(1, p + 1))
        rb = int(rng.integers(1, q + 1))
        a, b, s = helpers.random_kron_cov(rng, p, q, ra, rb)
        est = lr_kron_estimate(_exact_cov(s, p, q), ra, rb, tol=1e-6)
        assert est.converged
        assert est.iterations <= 3
        assert helpers.relative_error(np.kron(est.spatial, est.temporal), s) < 1e-10
        # the expanded-norm residual bottoms out near sqrt(eps), not 0
        assert est.residuals[-1] < 1e-6


def test_white_noise_input_fits_exactly():
    # sigma^2 I is itself a Kronecker product of identities; the
    # identity factors need their full eigen-rank budgets
    p, q = 3, 5
    s = 0.7 * np.eye(p * q, dtype=np.complex128)
    est = lr_kron_estimate(_exact_cov(s, p, q), p, q, tol=1e-6)
    assert est.converged
    assert helpers.relative_error(np.kron(est.spatial, est.temporal), s) < 1e-12
    off = est.spatial - np.diag(np.diag(est.spatial))
    assert np.max(np.abs(off)) < 1e-12 * np.abs(np.diag(est.spatial)).max()


def test_iterates_stay_hermitian_psd():
    rng = np.random.default_rng(43)
    p, q = 3, 6
    snaps = helpers.complex_gauss(rng, (40, p * q))
    est = lr_kron_estimate(sample_covariance(snaps, p, q), 2, 3,
                           tol=1e-12, max_iter=30, keep_iterates=True)
    assert est.iterates
    for spatial, temporal in est.iterates:
        for factor in (spatial, temporal):
            scale = np.linalg.norm(factor)
            assert np.linalg.norm(factor - factor.conj().T) < 1e-10 * scale
            values = np.linalg.eigvalsh((factor + factor.conj().T) / 2)
            assert values.min() > -1e-10 * max(values.max(), 0.0)


def test_estimate_factors_are_hermitian_psd_with_rank_budget():
    rng = np.random.default_rng(35)
    p, q = 3, 12
    snaps = helpers.complex_gauss(rng, (30, p * q))
    est = lr_kron_estimate(sample_covariance(snaps, p, q), 2, 4)
    for factor, budget in ((est.spatial, 2), (est.temporal, 4)):
        assert np.max(np.abs(factor - factor.conj().T)) < 1e-12
        values = np.linalg.eigvalsh(factor)
        assert values.min() > -1e-10 * max(values.max(), 1.0)
        assert np.sum(values > 1e-9 * values.max()) <= budget


def test_full_rank_budget_matches_rank_one_svd_of_rearrangement():
    # a residual stall can stop ~sqrt(eps) short of the fixed point, so
    # the oracle comparison runs a fixed iteration budget
    rng = np.random.default_rng(36)
    p, q = 2, 3
    for _ in range(20):
        snaps = helpers.complex_gauss(rng, (10, p * q))
        scm = sample_covariance(snaps, p, q)
        est = lr_kron_estimate(scm, p, q, tol=-1.0, max_iter=400)
        r = rearrange(scm.matrix, p, q)
        u, sv, vh = np.linalg.svd(r.data)
        best = np.outer(u[:, 0] * sv[0], vh[0])
        want = unrearrange(type(r)(p, q, best))
        assert helpers.relative_error(np.kron(est.spatial, est.temporal), want) < 1e-9


def test_negative_tol_runs_full_budget():
    rng = np.random.default_rng(42)
    snaps = helpers.complex_gauss(rng, (8, 6))
    est = lr_kron_estimate(sample_covariance(snaps, 2, 3), 1, 2,
                           tol=-1.0, max_iter=17)
    assert est.iterations == 17
    assert not est.converged


def test_residuals_non_increasing():
    rng = np.random.default_rng(37)
    p, q = 3, 10
    snaps = helpers.complex_gauss(rng, (25, p * q))
    est = lr_kron_estimate(sample_covariance(snaps, p, q), 1, 3,
                           tol=1e-12, max_iter=60)
    res = np.asarray(est.residuals)
    assert res.size >= 2
    assert np.all(np.diff(res) <= 1e-10)


def test_tighter_tolerance_never_stops_earlier():
    rng = np.random.default_rng(38)
    p, q = 3, 8
    snaps = helpers.complex_gauss(rng, (20, p * q))
    scm = sample_covariance(snaps, p, q)
    loose = lr_kron_estimate(scm, 1, 3, tol=1e-3, max_iter=200)
    tight = lr_kron_estimate(scm, 1, 3, tol=1e-8, max_iter=200)
    assert tight.iterations >= loose.iterations


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 4), q=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_snapshot_fit_matches_the_dense_fit(p, q, seed, data):
    # p, q >= 2: with a single channel or pulse every covariance is an
    # exact Kronecker product and the residual is rounding noise
    n = data.draw(st.integers(1, p * q - 1), label="n")
    rank_spatial = data.draw(st.integers(1, p), label="rank_spatial")
    rank_temporal = data.draw(st.integers(1, q), label="rank_temporal")
    max_iter = data.draw(st.integers(1, 6), label="max_iter")
    snaps = helpers.complex_gauss(np.random.default_rng(seed), (n, p * q))
    scm = sample_covariance(snaps, p, q)
    assert scm.snapshots is not None
    dense = SampleCovariance(scm.matrix, n, p, q)
    fast = lr_kron_estimate(scm, rank_spatial, rank_temporal, tol=-1.0,
                            max_iter=max_iter)
    slow = lr_kron_estimate(dense, rank_spatial, rank_temporal, tol=-1.0,
                            max_iter=max_iter)
    assert fast.iterations == slow.iterations == max_iter
    assert helpers.relative_error(fast.spatial, slow.spatial) < 1e-10
    assert helpers.relative_error(fast.temporal, slow.temporal) < 1e-10
    np.testing.assert_allclose(fast.residuals, slow.residuals, rtol=1e-10,
                               atol=0.0)


def test_zero_snapshots_give_the_zero_estimate():
    scm = sample_covariance(np.zeros((3, 8)), 2, 4)
    assert scm.snapshots is not None
    est = lr_kron_estimate(scm, 1, 2)
    assert est.converged
    assert est.iterations == 0
    assert est.residuals == [0.0]
    assert not est.spatial.any()
    assert not est.temporal.any()


def test_snapshot_path_never_forms_the_dense_matrix():
    p, q, n = 8, 512, 8
    dense_bytes = (p * q) ** 2 * 16
    snaps = helpers.complex_gauss(np.random.default_rng(47), (n, p * q))
    tracemalloc.start()
    try:
        scm = sample_covariance(snaps, p, q)
        lr_kron_estimate(scm, 1, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 8


def test_zero_input_returns_zero_estimate():
    est = lr_kron_estimate(_exact_cov(np.zeros((6, 6)), 2, 3), 1, 2)
    assert est.converged
    assert est.iterations == 0
    assert est.residuals == [0.0]
    assert not est.spatial.any()
    assert not est.temporal.any()


def test_degenerate_start_raises():
    # block-sum start vanishes when the temporal factor's entries cancel
    b = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.complex128)
    s = np.kron(np.eye(2, dtype=np.complex128), b)
    with pytest.raises(DegenerateInputError):
        lr_kron_estimate(_exact_cov(s, 2, 2), 1, 1)


def test_max_iter_cap_flags_non_convergence():
    rng = np.random.default_rng(39)
    p, q = 3, 8
    snaps = helpers.complex_gauss(rng, (20, p * q))
    est = lr_kron_estimate(sample_covariance(snaps, p, q), 1, 3,
                           tol=1e-15, max_iter=1)
    assert not est.converged
    assert est.iterations == 1
    assert est.spatial.shape == (p, p)
    assert est.temporal.shape == (q, q)


def test_estimate_pool_invariant_bitwise():
    rng = np.random.default_rng(40)
    p, q = 3, 64
    snaps = helpers.complex_gauss(rng, (15, p * q))
    scm = sample_covariance(snaps, p, q)
    assert scm.snapshots is not None
    with WorkerPool(1) as pool1, WorkerPool(4) as pool4:
        e1 = lr_kron_estimate(scm, 1, 4, pool=pool1)
        e4 = lr_kron_estimate(scm, 1, 4, pool=pool4)
    assert np.array_equal(e1.spatial, e4.spatial)
    assert np.array_equal(e1.temporal, e4.temporal)
    assert e1.residuals == e4.residuals


def test_dense_estimate_pool_invariant_bitwise():
    rng = np.random.default_rng(48)
    p, q = 2, 32
    snaps = helpers.complex_gauss(rng, (80, p * q))
    scm = sample_covariance(snaps, p, q)
    assert scm.snapshots is None
    with WorkerPool(1) as pool1, WorkerPool(4) as pool4:
        e1 = lr_kron_estimate(scm, 1, 4, pool=pool1)
        e4 = lr_kron_estimate(scm, 1, 4, pool=pool4)
    assert np.array_equal(e1.spatial, e4.spatial)
    assert np.array_equal(e1.temporal, e4.temporal)
    assert e1.residuals == e4.residuals


def test_keep_iterates_records_history():
    rng = np.random.default_rng(41)
    p, q = 2, 6
    snaps = helpers.complex_gauss(rng, (12, p * q))
    est = lr_kron_estimate(sample_covariance(snaps, p, q), 1, 2,
                           keep_iterates=True)
    assert len(est.iterates) == est.iterations
    spatial, temporal = est.iterates[-1]
    assert spatial.shape == (p, p)
    assert temporal.shape == (q, q)
    assert np.array_equal(spatial, est.spatial)
