import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kronstap import linalg, lrkron
from kronstap.errors import DataError, DegenerateInputError, DimensionError
from kronstap.filters import build_filter
from kronstap.formats import PhaseHistoryReader, read_estimate, \
    write_estimate, write_phase_history
from kronstap.linalg import _hermitian_part, eig_truncate
from kronstap.lrkron import (
    SampleCovariance,
    lr_kron_estimate,
    sample_covariance,
)
from kronstap.parallel import WorkerPool, get_pool
from kronstap.rearrange import rearrange, unrearrange
from kronstap.simulate import PhaseHistory, SceneConfig, gen_clutter


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
    # the matrix, which sample_covariance then rejects
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
    want = snaps.reshape(4, 2, 3).copy()
    snaps[:] = 0.0
    assert scm.matrix is None
    assert np.array_equal(scm.snapshots, want)


def _pass_cube(seed, k, n, d_pass, q=4):
    """A (k, n, d_pass) pass cube as the block source of its k passes of
    (d_pass / q) x q bins, and its (n, k*d_pass) stacked rows."""
    cube = helpers.complex_gauss(np.random.default_rng(seed), (k, n, d_pass))
    history = PhaseHistory(d_pass // q, q, k,
                           cube.reshape(k, n, d_pass // q, q))
    return history, np.ascontiguousarray(cube.swapaxes(0, 1)).reshape(n, -1)


# Pass widths are multiples of 4 and no tile width divides them; tile
# None keeps the package's widest tile. The tiles' real products meet
# the one product over the whole float64 view bit for bit (OpenBLAS
# 0.3.31, Haswell kernels). The complex GEMM rounds entries differently,
# measured up to 9.8e-16 of the largest entry on these shapes.
@pytest.mark.parametrize("k, d_pass, tile", [
    (1, 300, None), (2, 260, None), (3, 268, None),
    (1, 20, 8), (2, 36, 8), (3, 12, 8),
])
def test_dense_covariance_is_bitwise_the_one_gemm(monkeypatch, k, d_pass,
                                                  tile):
    if tile is not None:
        monkeypatch.setattr(lrkron, "_COV_TILE", tile)
    n = k * d_pass + 5
    cube, rows = _pass_cube(60 + k, k, n, d_pass)
    want = helpers.outer_average_real(rows).tobytes()
    p, q = k * d_pass // 4, 4
    from_cube = sample_covariance(cube, p, q)
    from_rows = sample_covariance(rows, p, q)
    assert from_cube.snapshots is None and from_rows.snapshots is None
    assert from_cube.matrix.tobytes() == want
    assert from_rows.matrix.tobytes() == want
    gemm = helpers.outer_average_gemm(rows)
    assert np.max(np.abs(from_cube.matrix - gemm)) \
        <= 4e-15 * np.max(np.abs(gemm))


# n spans several chunks and a short tail. Summed over the same chunks,
# the cube read as a block source (PhaseHistory.read) meets the oracle
# bit for bit, as its stacked rows do.
@pytest.mark.parametrize("k, d_pass, chunk", [
    (1, 20, 8), (2, 12, 16), (3, 8, 24), (1, 300, 128)])
def test_dense_covariance_sums_fixed_chunks_of_snapshots(monkeypatch, k,
                                                         d_pass, chunk):
    monkeypatch.setattr(lrkron, "_COV_CHUNK", chunk)
    n = max(k * d_pass, 3 * chunk) + 5
    cube, rows = _pass_cube(90 + k, k, n, d_pass)
    want = helpers.outer_average_real(rows, chunk)
    p, q = k * d_pass // 4, 4
    from_cube = sample_covariance(cube, p, q).matrix
    assert from_cube.tobytes() == want.tobytes()
    assert sample_covariance(rows, p, q).matrix.tobytes() == want.tobytes()
    # the chunked sums differ from the one product only by rounding
    whole = helpers.outer_average_real(rows)
    assert np.max(np.abs(from_cube - whole)) <= 4e-15 * np.max(np.abs(whole))


@pytest.mark.parametrize("k, d_pass", [(1, 21), (3, 7), (2, 30)])
def test_dense_covariance_is_exactly_hermitian_at_any_width(monkeypatch, k,
                                                            d_pass):
    # at widths that are not multiples of 4 a tile's product can round
    # an entry differently from the one product, so only rounding-level
    # agreement holds (measured up to 2.7e-16 of the largest entry)
    monkeypatch.setattr(lrkron, "_COV_TILE", 8)
    n = k * d_pass + 3
    cube, rows = _pass_cube(70 + k, k, n, d_pass, q=1)
    s = sample_covariance(cube, k * d_pass, 1).matrix
    assert np.array_equal(s, s.conj().T)
    assert not s.diagonal().imag.any()
    want = helpers.outer_average_real(rows)
    assert np.max(np.abs(s - want)) <= 1e-15 * np.max(np.abs(want))


def test_pass_cube_snapshot_path_stacks_the_passes():
    # fewer snapshots than p*q: the cube is stacked into a private stack
    cube, rows = _pass_cube(80, 2, 5, 6, q=3)
    scm = sample_covariance(cube, 4, 3)
    assert np.array_equal(scm.snapshots, rows.reshape(5, 4, 3))
    cube.data[:] = 0.0
    assert scm.matrix is None
    assert np.array_equal(scm.snapshots, rows.reshape(5, 4, 3))
    # snapshots come as rows or a block source, in no other shape
    for shape in ((2, 1, 5, 6), (2, 5, 6)):
        with pytest.raises(DimensionError):
            sample_covariance(np.zeros(shape), 4, 3)
    with pytest.raises(DimensionError):
        sample_covariance(cube, 4, 4)
    # a block source fixes its own split: the right p*q, split otherwise,
    # is refused on the snapshot path and on the dense one (n >= p*q)
    dense, _ = _pass_cube(81, 2, 12, 6, q=3)
    for source, p, q in ((cube, 6, 2), (dense, 2, 6)):
        with pytest.raises(DimensionError,
                           match=rf"\(4, 3\), not \({p}, {q}\)"):
            sample_covariance(source, p, q)


class _CountChecks:
    """Counts the checks the estimator's input can get, in every module
    that looks them up."""

    def __init__(self, mp):
        self.calls = {"_hermitian_part": 0, "as_matrix": 0}
        for module in (lrkron, linalg):
            for name in self.calls:
                if hasattr(module, name):
                    mp.setattr(module, name,
                               self._counted(name, getattr(module, name)))

    def _counted(self, name, original):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)
        return counted


def test_built_covariance_skips_only_the_hermitian_check(monkeypatch):
    checks = _CountChecks(monkeypatch)
    none, once = ({"_hermitian_part": k, "as_matrix": k} for k in (0, 1))
    # n = 5 < pq keeps the snapshot stack, n = 40 the dense matrix
    for n in (5, 40):
        checks.calls.update(none)
        rows = helpers.complex_gauss(np.random.default_rng(81), (n, 12))
        built = sample_covariance(rows, 3, 4)
        held = built.snapshots if built.matrix is None else built.matrix
        assert not held.flags.writeable
        assert checks.calls == none
        # a caller's matrix is checked in full once, where it enters
        user = SampleCovariance(helpers.outer_average_real(rows), n, 3, 4)
        assert checks.calls == once
        assert not user.matrix.flags.writeable
        fit_built = lr_kron_estimate(built, 1, 2)
        fit_user = lr_kron_estimate(user, 1, 2)
        # nothing between the estimator's entry and its return checks
        assert checks.calls == once
    # the matrix is exactly Hermitian, so symmetrizing it changes nothing
    assert np.array_equal(fit_built.spatial, fit_user.spatial)
    assert np.array_equal(fit_built.temporal, fit_user.temporal)


@pytest.mark.parametrize("damage", ["asymmetry", "nan", "negative"])
def test_user_covariance_is_still_checked_in_full(damage):
    rows = helpers.complex_gauss(np.random.default_rng(82), (40, 12))
    s = sample_covariance(rows, 3, 4).matrix.copy()
    if damage == "asymmetry":
        s[0, 5] += 0.5
    elif damage == "nan":
        s[3, 3] = np.nan
    else:
        s[7, 7] = -s[7, 7]
    with pytest.raises(DataError):
        lr_kron_estimate(SampleCovariance(s, 40, 3, 4), 1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pass_cube_fails_the_built_check(bad):
    cube, _ = _pass_cube(83, 2, 30, 6, q=3)
    cube.data[1, 17, 1, 1] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(DataError, match="non-finite"):
        sample_covariance(cube, 4, 3)


def test_overflowing_iterates_raise_data_error():
    # every entry is finite, but ||S||_F and the sweeps overflow: the
    # loop's one finiteness test rejects the iterate before any eigh
    rows = helpers.complex_gauss(np.random.default_rng(84), (40, 12))
    s = sample_covariance(rows, 3, 4).matrix * 1e200
    assert np.isfinite(s).all()
    scm = SampleCovariance(s, 40, 3, 4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DataError, match="iterate contains non-finite"):
        lr_kron_estimate(scm, 1, 2)


@pytest.mark.parametrize("n, scale", [(10, 2e76), (300, 5e76)],
                         ids=["snapshots", "dense"])
def test_an_overflowing_norm_is_a_data_error_naming_the_scale(n, scale):
    # every entry and iterate is finite, but ||S||_F^2 is not: the fit
    # stops at its first residual, where it ran to max_iter on NaNs
    rng = np.random.default_rng(85)
    rows = helpers.complex_gauss(rng, (n, 256)) * scale
    scm = sample_covariance(rows, 4, 64)
    assert (scm.snapshots is None) == (n >= 256)
    rms = np.sqrt((np.abs(rows) ** 2).mean(axis=0).max())
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DataError,
                          match=re.escape(f"snapshot scale {rms:.3g}")):
        lr_kron_estimate(scm, 1, 3)
    # a hundredth of the scale fits
    est = lr_kron_estimate(sample_covariance(rows / 100, 4, 64), 1, 3)
    assert np.isfinite(est.residuals).all()


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 7, 63, 64, 65, 127, 128, 129, 130]),
       seed=st.integers(0, 2**32 - 1), scale=_finite,
       skew_scale=st.floats(0.0, 1e-12))
def test_iterate_symmetrization_matches_the_checked_one_bitwise(
        n, seed, scale, skew_scale):
    # the loop's in-place (m + m^H) / 2 must give _hermitian_part's
    # bits, on iterates with rounding-level asymmetry
    rng = np.random.default_rng(seed)
    m = helpers.complex_gauss(rng, (n, n))
    m = (m + m.conj().T) * scale
    m += helpers.complex_gauss(rng, (n, n)) * (skew_scale * abs(scale))
    want = _hermitian_part(m, "test")
    got = lrkron._symmetrize_iterate(m, "test")
    assert got.tobytes() == want.tobytes()


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
    # a caller's matrix is rejected where it enters, by the constructor
    skew = s.copy()
    skew[0, 1] += 1.0
    with pytest.raises(DataError):
        _exact_cov(skew, 2, 3)
    neg = np.eye(6, dtype=np.complex128)
    neg[5, 5] = -1.0
    with pytest.raises(DataError):
        _exact_cov(neg, 2, 3)
    with pytest.raises(DimensionError):
        _exact_cov(s, 3, 3)
    with pytest.raises(DimensionError):
        _exact_cov(s[:, :5], 2, 3)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_a_nan_or_infinite_tolerance_is_refused(tol):
    # NaN never stalls, so it would run to max_iter; +inf stalls at once
    s = helpers.random_psd(np.random.default_rng(34), 6)
    with pytest.raises(DimensionError, match="tol"):
        lr_kron_estimate(_exact_cov(s, 2, 3), 1, 2, tol=tol)


@pytest.mark.parametrize("tol", [-1.0, -np.inf])
def test_a_negative_tolerance_runs_max_iter(tol):
    snaps = helpers.complex_gauss(np.random.default_rng(35), (20, 6))
    est = lr_kron_estimate(sample_covariance(snaps, 2, 3), 1, 2, tol=tol,
                           max_iter=7)
    assert (est.iterations, est.converged) == (7, False)


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
    # a fit stopped after k iterations ends on iterate k; with a full
    # temporal budget it keeps the symmetrized B itself
    rng = np.random.default_rng(43)
    p, q = 3, 6
    snaps = helpers.complex_gauss(rng, (40, p * q))
    scm = sample_covariance(snaps, p, q)
    for max_iter in range(1, 31):
        est = lr_kron_estimate(scm, 2, q, tol=-1.0, max_iter=max_iter)
        assert est.iterations == max_iter
        for factor in (est.spatial, est.temporal):
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
    assert scm.snapshots is not None and scm.matrix is None
    dense = SampleCovariance(helpers.outer_average_gemm(snaps), n, p, q)
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


def test_dense_covariance_memory_does_not_grow_with_the_snapshots():
    # the same 256 x 256 covariance from n and from 4n snapshots: every
    # temporary is tile-sized, so the peaks match; a conjugated copy of
    # one tile of columns (n x 256 complex) would add 3 * n * 4 KB
    p, q, n = 4, 64, 512
    peaks = []
    for count in (n, 4 * n):
        snaps = helpers.complex_gauss(np.random.default_rng(48),
                                      (count, p * q))
        tracemalloc.start()
        try:
            sample_covariance(snaps, p, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < n * 256 * 16 / 8


def test_the_covariance_of_a_file_keeps_no_chunk(tmp_path):
    # K = 2 passes of 4 x 128, 1024 bins: one 16 MB chunk and the 16 MB
    # S. The reader lets go of its buffer after the last bin, and the
    # fold drops the chunk's views, so the fit that follows holds S
    # alone; at the parent the reader kept the chunk until closed
    k, n, p, q = 2, 1024, 4, 128
    cube = helpers.complex_gauss(np.random.default_rng(87), (k, n, p, q))
    path = tmp_path / "cube.kph"
    write_phase_history(path, PhaseHistory(p, q, k, cube))
    chunk, s_bytes = n * k * p * q * 16, (k * p * q) ** 2 * 16
    with PhaseHistoryReader(path) as reader:
        tracemalloc.start()
        try:
            scm = sample_covariance(reader, k * p, q)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert s_bytes <= held < s_bytes + chunk / 8
    want = sample_covariance(
        np.ascontiguousarray(cube.transpose(1, 0, 2, 3)).reshape(n, -1),
        k * p, q)
    assert np.array_equal(scm.matrix, want.matrix)


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


class TestTemporalTruncation:
    """The final temporal truncation on the span of the snapshot rows.

    The B a fit truncates does not depend on its temporal budget, so a
    refit at rank q, which keeps the symmetrized B itself, gives it.
    """

    @staticmethod
    def fit(snaps, p, q, rank_spatial, rank_temporal, max_iter=4):
        return lr_kron_estimate(sample_covariance(snaps, p, q), rank_spatial,
                                rank_temporal, tol=-1.0, max_iter=max_iter)

    def final_b(self, snaps, p, q, rank_spatial, max_iter=4):
        return self.fit(snaps, p, q, rank_spatial, q, max_iter).temporal

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), q=st.integers(2, 256),
           in_band=st.booleans(), data=st.data())
    def test_matches_the_full_truncation_of_the_same_b(self, p, q, in_band,
                                                       data):
        # in_band keeps 4 * rank_spatial * n <= q, where the span solve is
        # tried on an A of full budget rank
        rank_spatial = data.draw(st.integers(1, p), label="rank_spatial")
        n_max = max(1, q // (4 * rank_spatial)) if in_band \
            else min(p * q - 1, 48)
        n = data.draw(st.integers(1, n_max), label="n")
        rank_temporal = data.draw(st.integers(1, q), label="rank_temporal")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        snaps = helpers.complex_gauss(rng, (n, p * q))
        max_iter = data.draw(st.integers(1, 4), label="max_iter")
        est = self.fit(snaps, p, q, rank_spatial, rank_temporal, max_iter)
        b_mat = self.final_b(snaps, p, q, rank_spatial, max_iter)
        want = eig_truncate(b_mat, rank_temporal)
        assert helpers.relative_error(est.temporal, want) <= 1e-12
        # a B that is not Hermitian is refused by the one _hermitian_part
        # check, before the span or the full solve could run
        skewed = b_mat.copy()
        skewed[0, -1] += 1e-3 * np.abs(b_mat).max() + 1e-300
        with pytest.raises(DataError, match="Hermitian"):
            eig_truncate(skewed, rank_temporal)

    def wide_q_snapshots(self, noise_power=1e-2):
        config = SceneConfig(p=8, q=768, n_bins=24, rank_temporal=4,
                             noise_power=noise_power, seed=7)
        return helpers.cube_to_snapshots(gen_clutter(config).data[0])

    def test_a_wide_q_fit_never_runs_the_q_by_q_solve(self, monkeypatch):
        # a rank-1 A leaves r*n = 24 of the p*n = 192 snapshot rows, so
        # the final truncation's one QR is q x 24, not q x 192
        scm = sample_covariance(self.wide_q_snapshots(), 8, 768)
        shapes = []
        qr = np.linalg.qr

        def recorded(m, *args, **kwargs):
            shapes.append(m.shape)
            return qr(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        full = helpers.CountFullSolves(monkeypatch)
        est = lr_kron_estimate(scm, 1, 4)
        assert full.sizes and set(full.sizes) == {8}   # the spatial solves
        assert shapes == [(768, 24)]
        assert est.temporal.shape == (768, 768)

    def test_the_span_path_symmetrizes_no_q_by_q_iterate(self, monkeypatch):
        # below rank q the final B is checked in place, never symmetrized;
        # at rank q it is, once, and kept (the timing bench's path)
        shapes = []
        symmetrize = lrkron._symmetrize_iterate

        def recorded(m, name):
            shapes.append(m.shape)
            return symmetrize(m, name)

        monkeypatch.setattr(lrkron, "_symmetrize_iterate", recorded)
        full = helpers.CountFullSolves(monkeypatch)
        scm = sample_covariance(self.wide_q_snapshots(), 8, 768)
        lr_kron_estimate(scm, 1, 4)
        assert shapes and set(shapes) == {(8, 8)}
        assert set(full.sizes) == {8}
        shapes.clear()
        lr_kron_estimate(scm, 1, 768)
        assert shapes.count((768, 768)) == 1

    @pytest.mark.parametrize("rank_temporal, declined", [(4, False),
                                                         (6, True)])
    def test_rank_deficient_snapshot_rows(self, monkeypatch, rank_temporal,
                                          declined):
        # noiseless: the 192 snapshot rows, and so B, have rank 4; a
        # budget above it reaches values at rounding level and declines
        snaps = self.wide_q_snapshots(noise_power=0.0)
        full = helpers.CountFullSolves(monkeypatch)
        est = self.fit(snaps, 8, 768, 1, rank_temporal)
        assert full.sizes.count(768) == declined
        want = eig_truncate(self.final_b(snaps, 8, 768, 1), rank_temporal)
        assert helpers.relative_error(est.temporal, want) <= 1e-12

    def test_rows_near_the_float_limit_decline_with_the_same_verdict(
            self, monkeypatch):
        # ||S||_F^2 overflows on these rows from about 1e75 on, before
        # the undivided Ritz matrix does (from about 1e76; TestRangeSolve
        # takes that decline directly). So at 2e76 the first residual is
        # not finite, and at 1e77 the sweeps overflow: either way a
        # DataError at either budget, before any temporal solve
        snaps = self.wide_q_snapshots(noise_power=0.0)
        full = helpers.CountFullSolves(monkeypatch)
        for scale, match in ((2e76, "snapshot scale"), (1e77, "non-finite")):
            for rank_temporal in (4, 768):
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(DataError, match=match):
                    self.fit(snaps * scale, 8, 768, 1, rank_temporal)
        assert 768 not in full.sizes

    @pytest.mark.parametrize("p, q, n, rank_temporal", [
        (2, 32, 9, 3),       # 4 * r * n > q, r = 1
        (2, 128, 8, 16),     # rank_temporal == p * n
        (2, 128, 8, 20),     # rank_temporal > p * n
    ])
    def test_the_full_solve_runs_outside_the_span_rules(self, monkeypatch, p,
                                                        q, n, rank_temporal):
        snaps = helpers.complex_gauss(np.random.default_rng(72), (n, p * q))
        full = helpers.CountFullSolves(monkeypatch)
        est = self.fit(snaps, p, q, 1, rank_temporal)
        assert full.sizes.count(q) == 1
        want = eig_truncate(self.final_b(snaps, p, q, 1), rank_temporal)
        assert np.array_equal(est.temporal, want)

    @pytest.mark.parametrize("rank_spatial, full_solves", [(1, 0), (2, 1)])
    def test_the_span_rule_counts_the_rank_of_a(self, monkeypatch,
                                                rank_spatial, full_solves):
        # 4 * 1 * 9 <= 64 < 4 * 2 * 9: only the rank-1 A gets a Ritz solve
        p, q, n = 2, 64, 9
        snaps = helpers.complex_gauss(np.random.default_rng(72), (n, p * q))
        full = helpers.CountFullSolves(monkeypatch)
        est = self.fit(snaps, p, q, rank_spatial, 3)
        assert full.sizes.count(q) == full_solves
        want = eig_truncate(self.final_b(snaps, p, q, rank_spatial), 3)
        assert helpers.relative_error(est.temporal, want) <= 1e-12

    def test_a_tie_across_the_cut_runs_the_full_solve(self, monkeypatch):
        # p = 1 and orthonormal snapshot rows: B is a multiple of a
        # projector, one five-fold tie, cut at 2
        q, n = 64, 5
        basis, _ = np.linalg.qr(
            helpers.complex_gauss(np.random.default_rng(73), (q, n)))
        snaps = np.ascontiguousarray(basis.T)
        full = helpers.CountFullSolves(monkeypatch)
        est = self.fit(snaps, 1, q, 1, 2)
        assert full.sizes.count(q) == 1
        want = eig_truncate(self.final_b(snaps, 1, q, 1), 2)
        assert np.array_equal(est.temporal, want)

    def test_a_full_budget_is_the_symmetrized_b(self, monkeypatch):
        p, q, n = 2, 128, 8
        snaps = helpers.complex_gauss(np.random.default_rng(74), (n, p * q))
        full = helpers.CountFullSolves(monkeypatch)
        est = self.fit(snaps, p, q, 1, q)
        assert q not in full.sizes
        assert est.temporal_factor._pairs is None
        # the fourth iteration's B, swept by hand from the third's A
        a_mat = self.fit(snaps, p, q, 1, q, max_iter=3).spatial
        scm = sample_covariance(snaps, p, q)
        b_mat = np.empty((q, q), dtype=np.complex128)
        lrkron._snapshot_sweeps(scm.snapshots, get_pool(None)).b_sweep(
            np.conj(a_mat), b_mat)
        b_mat /= np.vdot(a_mat, a_mat).real
        want = _hermitian_part(b_mat, "matrix")
        assert est.temporal.tobytes() == want.tobytes()

    def test_a_full_budget_is_decomposed_once_on_first_use(self, monkeypatch,
                                                           tmp_path):
        # as the timing bench fits: rank q, so the fit itself runs no
        # q x q solve; the first use outside it runs one, and only one
        p, q, n = 2, 128, 8
        snaps = helpers.complex_gauss(np.random.default_rng(74), (n, p * q))
        full = helpers.CountFullSolves(monkeypatch)
        est = self.fit(snaps, p, q, 1, q)
        assert q not in full.sizes
        build_filter("kron", est)
        write_estimate(tmp_path / "fit.kes", est)
        assert full.sizes.count(q) == 1
        assert read_estimate(tmp_path / "fit.kes").temporal_pairs.values.size \
            == q

    @pytest.mark.parametrize("n", [3, 40])
    def test_the_estimate_keeps_the_truncations_pairs(self, monkeypatch, n):
        # n = 3 truncates on the span, n = 40 by the full solve; either
        # way the estimate holds rank-budget pairs and no q x q factor
        p, q = 2, 64
        snaps = helpers.complex_gauss(np.random.default_rng(n), (n, p * q))
        est = self.fit(snaps, p, q, 1, 3)
        values, vectors = est.temporal_pairs
        assert values.shape == (3,) and vectors.shape == (q, 3)
        assert est.temporal_factor._matrix is None
        assert helpers.relative_error(
            est.temporal, eig_truncate(self.final_b(snaps, p, q, 1), 3)) \
            <= 1e-12
