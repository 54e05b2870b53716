import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kronstap import filters, linalg, lrkron
from kronstap.errors import DataError, DimensionError
from kronstap.filters import (
    BLOCK_BINS,
    DetectionMap,
    build_filter,
    detection_image,
    make_doppler_grid,
    make_spatial_grid,
    make_stacked_spatial_grid,
    make_steering,
    projection_filter,
    sinr,
)
from kronstap.formats import read_estimate, write_estimate
from kronstap.lrkron import KronCovEstimate
from kronstap.multipass import pass_images
from kronstap.parallel import get_pool
from kronstap.simulate import PhaseHistory


def orthonormal_columns(rng, n, r):
    basis, _ = np.linalg.qr(helpers.complex_gauss(rng, (n, r)))
    return basis


def clutter_scene(rng, p, q, rank, n_bins, noise_sigma):
    """Clutter bins outer(h, s) with s in a rank-`rank` pulse subspace."""
    h = helpers.complex_gauss(rng, p)
    h /= np.linalg.norm(h)
    u_b = orthonormal_columns(rng, q, rank)
    weights = 1.0 + rng.random(rank)
    cube = np.empty((n_bins, p, q), dtype=np.complex128)
    for m in range(n_bins):
        s = u_b @ (np.sqrt(weights) * helpers.complex_gauss(rng, rank))
        cube[m] = np.outer(h, s)
        cube[m] += noise_sigma * helpers.complex_gauss(rng, (p, q))
    return cube, h[:, None], u_b


class TestSteering:
    def test_zero_doppler_is_the_stationary_signature(self):
        sv = make_steering(0.0, 4, 8)
        assert np.array_equal(sv.spatial, np.ones(4))
        assert np.allclose(sv.temporal, np.ones(8) / np.sqrt(8.0), atol=1e-15)

    def test_unit_norm_for_random_dopplers(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = float(rng.random())
            sv = make_steering(f, 3, 16, kappa=float(rng.random()))
            assert abs(np.linalg.norm(sv.vector) - 1.0) < 1e-12

    def test_half_cycle_slope_is_orthogonal_to_stationary(self):
        sv = make_steering(1.0, 2, 4, kappa=0.5)
        assert np.allclose(sv.spatial, [1.0, -1.0], atol=1e-12)
        assert abs(sv.spatial.conj() @ np.ones(2)) < 1e-12

    def test_first_channel_entry_is_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sv = make_steering(float(rng.random()), 5, 6,
                               kappa=float(rng.random()))
            assert sv.spatial[0] == 1.0 + 0.0j


def dense_factor_basis(matrix, rank):
    """The basis build_filter takes from a dense spatial factor with
    rank budget `rank`."""
    est = KronCovEstimate(matrix, np.eye(1), rank, 1, 1, [0.0], True)
    return build_filter("kron", est).spatial_basis


def spectrum(rng, dim, kind):
    """dim eigenvalues of a PSD test factor, largest about 1.

    "near-tied" puts a run of values within 0 to 1e-6 of each other,
    "near-zero" puts values at half and twice RANK_TOL times the
    largest, exact zeros and rounding-level negatives after them, and
    "zero" is the zero matrix.
    """
    values = 0.1 + rng.random(dim)
    if kind == "near-tied":
        run = rng.integers(1, dim + 1)
        gap = rng.choice([0.0, 1e-13, 1e-9, 1e-6])
        values[:run] = values[0] * (1.0 + gap * np.arange(run))
    elif kind == "near-zero":
        tail = [0.5 * filters.RANK_TOL, 2.0 * filters.RANK_TOL, 0.0, -1e-13]
        small = rng.choice(tail, size=rng.integers(0, dim))
        top = values[:dim - small.size].max()
        values[dim - small.size:] = small * top
    elif kind == "zero":
        values[:] = 0.0
    return values


class TestSubspaceBasis:
    """build_filter's basis of a dense factor: its top eigen-subspace
    within the rank budget, without directions below RANK_TOL."""

    def test_zero_matrix_gives_none(self):
        assert dense_factor_basis(np.zeros((4, 4)), 2) is None

    def test_zero_rank_budget_gives_none(self):
        # a zero budget is refused rather than giving an empty subspace
        rng = np.random.default_rng(13)
        with pytest.raises(DimensionError, match="spatial rank budget 0"):
            dense_factor_basis(helpers.random_psd(rng, 4), 0)

    def test_budget_caps_the_column_count(self):
        rng = np.random.default_rng(14)
        m = helpers.random_psd(rng, 6)
        basis = dense_factor_basis(m, 2)
        assert basis.shape == (6, 2)
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_tolerance_drops_trailing_directions(self):
        assert filters.RANK_TOL == 1e-9
        m = np.diag([1.0, 1e-12, 0.0])
        basis = dense_factor_basis(m, 3)
        assert basis.shape == (3, 1)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12

    def test_a_matrix_that_is_not_psd_is_a_data_error(self):
        rng = np.random.default_rng(17)
        m = helpers.random_psd(rng, 4, rank=1)
        # negated, the only positive eigenvalues are rounding noise
        with pytest.raises(DataError, match="positive semidefinite"):
            dense_factor_basis(-m, 1)
        with pytest.raises(DataError):
            dense_factor_basis(np.diag([1.0, -1e-6]), 1)

    def test_rounding_level_negative_eigenvalues_pass(self):
        basis = dense_factor_basis(np.diag([1.0, -1e-12]), 2)
        assert basis.shape == (2, 1)

    @settings(max_examples=120, deadline=None)
    @given(p=st.integers(1, 6), q=st.integers(1, 10),
           kinds=st.tuples(*[st.sampled_from(["generic", "near-tied",
                                               "near-zero", "zero"])] * 2),
           data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bases_equal_the_dense_oracle(self, p, q, kinds, data, seed):
        rng = np.random.default_rng(seed)
        factors = []
        for dim, kind in zip((p, q), kinds):
            u = orthonormal_columns(rng, dim, dim)
            factors.append((u * spectrum(rng, dim, kind)) @ u.conj().T)
        ranks = (data.draw(st.integers(1, p), label="rank_spatial"),
                 data.draw(st.integers(1, q), label="rank_temporal"))
        est = KronCovEstimate(*factors, *ranks, 1, [0.0], True)
        kind = data.draw(st.sampled_from(filters.FILTER_KINDS), label="kind")
        filt = build_filter(kind, est)
        for got, matrix, rank in zip(
                (filt.spatial_basis, filt.temporal_basis), factors, ranks):
            want = helpers.dense_subspace_basis(matrix, rank)
            if want is None:
                assert got is None
                continue
            assert np.array_equal(got, want)
            # against numpy's own solve: the columns are orthonormal
            # eigenvectors of the top values, as many as the rule keeps
            values = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)[::-1]
            keep = min(int(np.sum(values > filters.RANK_TOL * values[0])),
                       rank)
            assert got.shape == (matrix.shape[0], keep)
            assert np.allclose(got.conj().T @ got, np.eye(keep), atol=1e-12)
            lam = np.einsum("ik,ij,jk->k", got.conj(), matrix, got).real
            assert np.allclose(lam, values[:keep], rtol=0, atol=1e-12)
            assert np.abs(matrix @ got - got * lam).max() <= 1e-12


def snapshot_iterate(rng, q, values, n):
    """A snapshot-path temporal iterate with the given nonzero
    eigenvalues, as the fit's B sweep computes it, and its factors
    (rows, conj_a, norm_a2).

    p = 2, and A = V diag(a) V^H with V a random unitary. Each of A's
    eigen-channels l carries at most n of the values, all of the sign
    of a[l] = +-1, through n snapshots whose rows are
    U diag(sqrt(n ||A||^2 |values|)) W^T, with W's columns orthonormal.
    Mixed signs put the positive values on the first channel and the
    negative ones on the second; one sign splits them between the two.
    """
    values = np.asarray(values, dtype=np.float64)
    if (values > 0).any() and (values < 0).any():
        signs, groups = [1.0, -1.0], [values > 0, values < 0]
    else:
        first = np.arange(values.size) < min(n, values.size)
        signs, groups = [np.sign(values[0])] * 2, [first, ~first]
    v = orthonormal_columns(rng, 2, 2)
    a = (v * np.array(signs)) @ v.conj().T
    norm_a2 = np.vdot(a, a).real
    basis = orthonormal_columns(rng, q, values.size)
    eigen_rows = np.zeros((2, n, q), dtype=np.complex128)
    for channel, sel in enumerate(groups):
        w = orthonormal_columns(rng, n, int(sel.sum()))
        scale = np.sqrt(n * norm_a2 * np.abs(values[sel]))
        eigen_rows[channel] = w @ (basis[:, sel] * scale).T
    # snapshot m's channel i is sum_l V[i, l] (eigen-channel l's row m)
    stack = np.ascontiguousarray(np.einsum("il,lmc->mic", v, eigen_rows))
    sweeps = lrkron._snapshot_sweeps(stack, get_pool(None))
    conj_a = np.conj(a)
    b = np.empty((q, q), dtype=np.complex128)
    sweeps.b_sweep(conj_a, b)
    b /= norm_a2
    return b, (sweeps.rows, conj_a, norm_a2)


def range_test_values(rng, rank, budget, kind):
    if kind == "low":
        return 1.0 + rng.random(rank)
    if kind == "negated":
        return -(1.0 + rng.random(rank))
    if kind == "indefinite":
        # PSD but for one eigenvalue far below the rounding clamp
        return [3.0] * rank + [-1e-6]
    # "tied": the budget cuts a pair of equal values in two
    return list(4.0 + np.arange(budget - 1, 0, -1)) + [2.0, 2.0]


def full_truncation(b, budget):
    """The truncation the fit falls back to: the full solve of the
    symmetrized iterate."""
    return linalg._kept_pairs(linalg._hermitian_part(b, "matrix"), budget)


class TestRangeSolve:
    """The factored Ritz solve of _top_eigenpairs against the full solve.

    The estimator runs it on the final temporal iterate of the snapshot
    path; here the iterate is swept from factors built with a given
    spectrum (snapshot_iterate), on a span of 4 or more rows beyond the
    budget.
    """

    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(16, 200), rank=st.integers(1, 6),
           budget=st.integers(1, 8),
           kind=st.sampled_from(["low", "negated", "indefinite", "tied"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_full_solve(self, q, rank, budget, kind, seed):
        rng = np.random.default_rng(seed)
        values = range_test_values(rng, rank, budget, kind)
        n = max(len(values), budget) + 2
        b, factors = snapshot_iterate(rng, q, values, n)
        got = linalg._top_eigenpairs(b, budget, *factors)
        # tried when 4 * p * n <= q; kept where the cut falls in a gap
        # between values above zero, declined at ties and at or below zero
        tried = 4 * 2 * n <= q
        kept = (kind == "low" and budget <= rank
                or kind == "indefinite" and budget == rank)
        assert (got is not None) == (tried and kept)
        if got is not None:
            want = full_truncation(b, budget)
            assert got.vectors.shape == (q, budget)
            assert helpers.relative_error(linalg._rebuild(got),
                                          linalg._rebuild(want)) <= 1e-12

    def test_a_low_rank_factor_skips_the_full_solve(self):
        b, factors = snapshot_iterate(np.random.default_rng(50), 64,
                                      [3.0, 2.0, 1.0], 5)
        for budget in (1, 3):
            got = linalg._top_eigenpairs(b, budget, *factors)
            assert got.vectors.shape == (64, budget)
            assert helpers.relative_error(
                linalg._rebuild(got),
                linalg._rebuild(full_truncation(b, budget))) <= 1e-12

    def test_a_budget_above_the_rank_declines(self):
        # the kept values past the rank are rounding noise, which the
        # q - p*n zero eigenvalues outside the span could outrank
        b, factors = snapshot_iterate(np.random.default_rng(50), 64,
                                      [3.0, 2.0, 1.0], 5)
        assert linalg._top_eigenpairs(b, 5, *factors) is None

    def test_a_tie_at_the_window_edge_gets_the_full_solve(self):
        # the tie runs from inside the budget to the last nonzero Ritz value
        n = 6
        b, factors = snapshot_iterate(np.random.default_rng(52), 64,
                                      [3.0] + [2.0] * (n - 1), n)
        assert linalg._top_eigenpairs(b, 2, *factors) is None

    def test_small_factors_go_straight_to_the_full_solve(self):
        b, factors = snapshot_iterate(np.random.default_rng(53), 16, [1.0], 3)
        assert linalg._top_eigenpairs(b, 1, *factors) is None

    def test_a_negated_low_rank_factor_is_a_data_error(self):
        # every Ritz value is negative, so the zeros outside the span
        # outrank them: declined, and the full solve refuses the matrix
        b, factors = snapshot_iterate(np.random.default_rng(54), 128,
                                      -(1.0 + np.arange(4.0)), 8)
        assert linalg._top_eigenpairs(b, 4, *factors) is None
        with pytest.raises(DataError, match="positive semidefinite"):
            helpers.dense_subspace_basis(b, 4)

    def test_negative_ritz_values_decline_to_the_zeros_outside_the_span(
            self):
        # the rows have full rank, so no Ritz value is at rounding level
        # and none ties, but the q - p*n zeros of B outside the span
        # outrank every one of them
        b, factors = snapshot_iterate(np.random.default_rng(56), 128,
                                      -(1.0 + np.arange(8.0)), 4)
        assert factors[0].shape == (8, 128)
        assert linalg._top_eigenpairs(b, 3, *factors) is None
        assert linalg._top_eigenpairs(-b, 3, factors[0], -factors[1],
                                      factors[2]) is not None

    def test_an_iterate_its_factors_do_not_give_is_declined(self):
        # same span and spectrum, so the same Ritz values and no
        # unexplained mass, but the eigenvectors turned within the span
        b, factors = snapshot_iterate(np.random.default_rng(59), 128,
                                      [4.0, 3.0, 2.0, 1.0], 6)
        q, _ = np.linalg.qr(factors[0].T)
        turn = orthonormal_columns(np.random.default_rng(60), 12, 12)
        t = q.conj().T @ b @ q
        turned = q @ (turn @ t @ turn.conj().T) @ q.conj().T
        assert linalg._top_eigenpairs(b, 2, *factors) is not None
        assert linalg._top_eigenpairs(turned, 2, *factors) is None

    @pytest.mark.parametrize("outside, kept", [(2.5, False), (0.5, True)])
    def test_mass_outside_the_span_declines_when_it_outranks(self, outside,
                                                            kept):
        # an eigenpair of b the factors do not give, orthogonal to the
        # span: the Ritz pairs stay exact eigenpairs, so only the
        # unexplained mass tells whether it outranks the third value, 2
        rng = np.random.default_rng(61)
        b, factors = snapshot_iterate(rng, 128, [4.0, 3.0, 2.0, 1.0], 6)
        q, _ = np.linalg.qr(factors[0].T)
        v = helpers.complex_gauss(rng, 128)
        v -= q @ (q.conj().T @ v)
        v /= np.linalg.norm(v)
        b += outside * np.outer(v, v.conj())
        got = linalg._top_eigenpairs(b, 3, *factors)
        assert (got is not None) == kept
        if kept:
            assert helpers.relative_error(
                linalg._rebuild(got),
                linalg._rebuild(full_truncation(b, 3))) <= 1e-12

    def test_entries_near_the_float_limit_take_the_full_solve(self):
        # rows scaled by s and A by s^2 leave B as it was, but the Ritz
        # matrix overflows before its divide by ||A||^2: its largest
        # entry is B's top value, ~q times B's largest entry. s puts
        # the undivided B that far below the float limit and the
        # undivided Ritz matrix that far above it; the full solve of
        # the same iterate still gives the unscaled truncation.
        q, budget = 256, 3
        b0, (rows, conj_a, norm_a2) = snapshot_iterate(
            np.random.default_rng(57), q, [3e3, 2e3, 1e3], 5)
        peak_b, peak_t = np.abs(b0).max() * norm_a2, 3e3 * norm_a2
        s = (np.finfo(np.float64).max / np.sqrt(peak_b * peak_t)) ** 0.25
        p, n = 2, rows.shape[0] // 2
        stack = np.ascontiguousarray(
            (rows * s).reshape(p, n, q).transpose(1, 0, 2))
        sweeps = lrkron._snapshot_sweeps(stack, get_pool(None))
        factors = (sweeps.rows, conj_a * (s * s), norm_a2 * s ** 4)
        b = np.empty((q, q), dtype=np.complex128)
        sweeps.b_sweep(factors[1], b)
        b /= factors[2]
        assert np.isfinite(b).all()
        assert linalg._top_eigenpairs(b, budget, *factors) is None
        assert linalg._top_eigenpairs(b0, budget, rows, conj_a, norm_a2) \
            is not None
        assert helpers.relative_error(
            linalg._rebuild(full_truncation(b, budget)),
            linalg._rebuild(full_truncation(b0, budget))) <= 1e-12

    def test_the_range_solve_keeps_the_conventions(self):
        b, factors = snapshot_iterate(np.random.default_rng(55), 96,
                                      [4.0, 3.0, 2.0, 1.0, 0.5], 6)
        values, vectors = linalg._top_eigenpairs(b, 4, *factors)
        assert values.shape == (4,) and vectors.shape == (96, 4)
        assert vectors.flags.c_contiguous
        assert np.all(np.diff(values) < 0)
        full = full_truncation(b, 4)
        assert np.allclose(values, full.values, rtol=1e-13, atol=0)
        for k in range(4):
            pivot = int(np.argmax(np.abs(vectors[:, k])))
            assert vectors[pivot, k].real > 0
            assert abs(vectors[pivot, k].imag) < 1e-15
        assert np.max(np.abs(vectors - full.vectors)) < 1e-12

    def test_the_range_solve_forms_no_square_temporary(self):
        q = 768
        b, factors = snapshot_iterate(np.random.default_rng(58), q,
                                      [4.0, 3.0, 2.0, 1.0], 4)
        tracemalloc.start()
        try:
            got = linalg._top_eigenpairs(b, 3, *factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.values.size == 3
        assert peak < q * q * 16 / 4


class TestCheckedFactors:
    """A caller's dense factors are checked where they enter the
    estimate, once; factors read from a KES2 file are checked there, as
    pairs, and never by the Hermitian check."""

    @pytest.fixture()
    def hermitian_checks(self, monkeypatch):
        names = []
        original = linalg._hermitian_part

        def counted(m, name):
            names.append(name)
            return original(m, name)

        monkeypatch.setattr(linalg, "_hermitian_part", counted)
        return names

    def estimate_file(self, tmp_path):
        rng = np.random.default_rng(56)
        est = KronCovEstimate(helpers.random_psd(rng, 3, 1),
                              helpers.random_psd(rng, 64, 3), 1, 3, 2,
                              [0.5], True)
        path = tmp_path / "fit.kes"
        write_estimate(path, est)
        return est, path

    def test_a_read_estimate_is_not_checked_again(self, tmp_path,
                                                  hermitian_checks,
                                                  monkeypatch):
        est, path = self.estimate_file(tmp_path)
        del hermitian_checks[:]
        full = helpers.CountFullSolves(monkeypatch)
        back = read_estimate(path)
        filt = build_filter("kron", back)
        assert hermitian_checks == []
        assert full.sizes == []
        want = build_filter("kron", est)
        assert np.array_equal(filt.temporal_basis, want.temporal_basis)
        assert not back.temporal.flags.writeable

    def test_user_factors_are_checked(self, tmp_path, hermitian_checks):
        est, path = self.estimate_file(tmp_path)
        assert hermitian_checks == ["spatial factor", "temporal factor"]
        build_filter("kron", est)
        assert hermitian_checks == ["spatial factor", "temporal factor"]
        back = read_estimate(path)
        del hermitian_checks[:]
        # a replaced factor is the caller's, not the file's
        skewed = back.temporal.copy()
        skewed[0, 1] += 1e-3
        with pytest.raises(DataError, match="temporal factor"):
            build_filter("kron", replace(back, temporal_factor=skewed))
        assert hermitian_checks == ["temporal factor"]
        with pytest.raises(DataError):
            helpers.dense_subspace_basis(skewed, 3)


class TestProjectionFilters:
    def test_empty_bases_give_the_identity(self):
        rng = np.random.default_rng(15)
        x = helpers.complex_gauss(rng, (3, 5))
        for kind in ("classical", "kron"):
            filt = projection_filter(kind, None, None, 3, 5)
            assert np.array_equal(filt.apply_matrix(x), x)

    def test_kron_annihilates_the_joint_subspace(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            u_a = orthonormal_columns(rng, 4, 2)
            u_b = orthonormal_columns(rng, 6, 3)
            filt = projection_filter("kron", u_a, u_b, 4, 6)
            v = np.kron(u_a[:, 1], u_b[:, 2])
            out = filt.apply(v)
            assert np.linalg.norm(out) < 1e-12

    def test_kron_removes_spatial_only_clutter_classical_passes_it(self):
        rng = np.random.default_rng(17)
        u_a = orthonormal_columns(rng, 3, 1)
        u_b = orthonormal_columns(rng, 8, 3)
        # t orthogonal to the temporal subspace
        t = helpers.complex_gauss(rng, 8)
        t -= u_b @ (u_b.conj().T @ t)
        t /= np.linalg.norm(t)
        v = np.kron(u_a[:, 0], t)
        kron_out = projection_filter("kron", u_a, u_b, 3, 8).apply(v)
        classical_out = projection_filter("classical", u_a, u_b, 3, 8).apply(v)
        assert np.linalg.norm(kron_out) < 1e-12
        assert abs(np.linalg.norm(classical_out) - np.linalg.norm(v)) < 1e-12

    def test_projectors_are_idempotent(self):
        rng = np.random.default_rng(18)
        u_a = orthonormal_columns(rng, 4, 2)
        u_b = orthonormal_columns(rng, 5, 2)
        x = helpers.complex_gauss(rng, (4, 5))
        for kind in ("classical", "kron"):
            filt = projection_filter(kind, u_a, u_b, 4, 5)
            once = filt.apply_matrix(x)
            twice = filt.apply_matrix(once)
            assert np.allclose(twice, once, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), q=st.integers(1, 24), data=st.data())
    def test_projectors_are_idempotent_and_annihilate_their_subspaces(
            self, p, q, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        u_a = orthonormal_columns(rng, p, data.draw(st.integers(1, p)))
        u_b = orthonormal_columns(rng, q, data.draw(st.integers(1, q)))
        x = helpers.complex_gauss(rng, (3, p, q))
        y = helpers.complex_gauss(rng, (p, q))
        scale = np.linalg.norm(x)
        for kind in ("classical", "kron"):
            filt = projection_filter(kind, u_a, u_b, p, q)
            once = filt.apply_matrix(x)
            twice = filt.apply_matrix(once)
            assert np.linalg.norm(twice - once) <= 1e-12 * scale
            # classical removes the joint subspace span{u_a_i (x) u_b_j};
            # kron removes u_a_i (x) anything and anything (x) u_b_j
            joint = u_a @ helpers.complex_gauss(rng, (u_a.shape[1],
                                                      u_b.shape[1])) @ u_b.T
            subspaces = [joint] if kind == "classical" else \
                [joint, u_a @ (u_a.conj().T @ y), y @ u_b.conj() @ u_b.T]
            for v in subspaces:
                out = filt.apply_matrix(v)
                assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(v)

    def test_spatial_only_ignores_the_temporal_basis(self):
        # (I - P_a) x I: the kron filter with no temporal basis, bit for
        # bit; a classical filter with no temporal basis cancels nothing
        rng = np.random.default_rng(19)
        u_a = orthonormal_columns(rng, 3, 1)
        x = helpers.complex_gauss(rng, (3, 6))
        spatial_only = projection_filter("kron", u_a, None, 3, 6)
        want = x - u_a @ (u_a.conj().T @ x)
        assert np.array_equal(spatial_only.apply_matrix(x), want)
        classical = projection_filter("classical", u_a, None, 3, 6)
        assert np.array_equal(classical.apply_matrix(x), x)

    def test_kind_and_shape_validation(self):
        u_a = np.eye(3)[:, :1]
        with pytest.raises(DimensionError):
            projection_filter("optimal", u_a, None, 3, 4)
        with pytest.raises(DimensionError):
            projection_filter("kron", u_a, None, 4, 4)

    def test_bin_shape_mismatch_is_rejected(self):
        filt = projection_filter("kron", None, None, 3, 4)
        for shape in ((4, 3), (5, 4, 3), (2, 5, 3, 5), (12,)):
            with pytest.raises(DimensionError):
                filt.apply_matrix(np.zeros(shape, dtype=np.complex128))


def per_bin(filt, stack):
    """apply_matrix on each (p, q) bin of a stack, one call per bin."""
    out = np.empty_like(stack)
    for index in np.ndindex(stack.shape[:-2]):
        out[index] = filt.apply_matrix(stack[index])
    return out


class TestStackedApply:
    @pytest.mark.parametrize("kind", ["kron", "classical"])
    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("spatial_only", [False, True])
    def test_stacks_match_per_bin_calls_bitwise(self, kind, p, spatial_only):
        rng = np.random.default_rng(40 + p)
        q = 16
        u_a = orthonormal_columns(rng, p, 1)
        u_b = orthonormal_columns(rng, q, 3)
        for bases in ((u_a, u_b), (None, u_b), (u_a, None), (None, None)):
            # spatial-only cancelation: the kron filter with no temporal
            # basis, whatever the kind
            filt = projection_filter("kron", bases[0], None, p, q) \
                if spatial_only else projection_filter(kind, *bases, p, q)
            for shape in ((7, p, q), (2, 5, p, q)):
                stack = helpers.complex_gauss(rng, shape)
                out = filt.apply_matrix(stack)
                assert out.shape == stack.shape
                assert np.array_equal(out, per_bin(filt, stack))

    def test_kron_apply_holds_one_temporary_per_projection(self):
        # each projection's fresh product takes the difference in place:
        # the peak is the two products and the (m, 2, q) spatial
        # coefficients, 2.5 stacks here; a second stack-sized temporary
        # per projection takes it to 3
        rng = np.random.default_rng(49)
        p, q = 4, 64
        filt = projection_filter("kron", orthonormal_columns(rng, p, 2),
                                 orthonormal_columns(rng, q, 3), p, q)
        stack = helpers.complex_gauss(rng, (512, p, q))
        before = stack.copy()
        tracemalloc.start()
        try:
            out = filt.apply_matrix(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * stack.nbytes
        assert np.array_equal(stack, before)
        assert not np.shares_memory(out, stack)

    def test_optimal_stack_matches_per_bin_calls(self):
        # the whitening oracle batches like StapFilter.apply_matrix
        rng = np.random.default_rng(47)
        p, q = 2, 3
        sigma = helpers.random_psd(rng, p * q) + np.eye(p * q)
        filt = helpers.WhiteningFilter(sigma, p, q)
        for shape in ((6, p, q), (2, 4, p, q)):
            stack = helpers.complex_gauss(rng, shape)
            assert np.allclose(filt.apply_matrix(stack), per_bin(filt, stack),
                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        rng = np.random.default_rng(48)
        u_a = orthonormal_columns(rng, 3, 1)
        stack = helpers.complex_gauss(rng, (6, 3, 4))
        stack[4, 2, 1] = bad
        for kind in ("kron", "classical"):
            with pytest.raises(DataError):
                projection_filter(kind, u_a, None, 3, 4).apply_matrix(stack)


class TestFilterOutput:
    def test_identity_filter_reduces_to_matched_filter(self):
        rng = np.random.default_rng(20)
        sv = make_steering(0.3, 3, 7)
        x = helpers.complex_gauss(rng, 21)
        filt = projection_filter("kron", None, None, 3, 7)
        y = helpers.filter_output(filt, sv, x)
        assert abs(y - complex(np.vdot(sv.vector, x))) < 1e-14

    def test_clutter_snapshot_is_annihilated(self):
        rng = np.random.default_rng(21)
        u_a = orthonormal_columns(rng, 3, 1)
        u_b = orthonormal_columns(rng, 9, 4)
        filt = projection_filter("kron", u_a, u_b, 3, 9)
        sv = make_steering(0.4, 3, 9)
        for _ in range(10):
            x = np.kron(u_a @ helpers.complex_gauss(rng, 1),
                        u_b @ helpers.complex_gauss(rng, 4))
            y = helpers.filter_output(filt, sv, x)
            assert abs(y) <= 1e-10 * np.linalg.norm(x)

    def test_known_amplitude_recovered_up_to_filtered_noise(self):
        rng = np.random.default_rng(22)
        p, q, rank = 3, 8, 3
        u_a = np.eye(p, dtype=np.complex128)[:, :1]
        u_b = np.eye(q, dtype=np.complex128)[:, :rank]
        filt = projection_filter("kron", u_a, u_b, p, q)
        # steering supported away from both subspaces, so F d = d
        a = np.array([0.0, 1.0, 1.0j]) / np.sqrt(2.0)
        b = np.zeros(q, dtype=np.complex128)
        b[rank:] = helpers.complex_gauss(rng, q - rank)
        b /= np.linalg.norm(b)
        d = np.kron(a, b)
        sigma = 0.05
        for _ in range(25):
            alpha = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            noise = sigma * helpers.complex_gauss(rng, p * q)
            y = helpers.filter_output(filt, d, alpha * d + noise)
            assert abs(y - alpha) <= np.linalg.norm(noise) + 1e-12


class TestSinr:
    def test_white_noise_matched_filter(self):
        sv = make_steering(0.2, 2, 5)
        d = sv.vector
        sigma2 = 0.3
        value = sinr(d, sv, 1.5, sigma2 * np.eye(10))
        assert abs(value - (1.5 ** 2) / sigma2) < 1e-10

    def test_whitened_steering_maximizes_sinr(self):
        rng = np.random.default_rng(23)
        n = 8
        cov = helpers.random_psd(rng, n) + 0.1 * np.eye(n)
        d = helpers.complex_gauss(rng, n)
        d /= np.linalg.norm(d)
        best = sinr(helpers.WhiteningFilter(cov, n, 1).apply(d), d, 1.0, cov)
        for _ in range(1000):
            w = helpers.complex_gauss(rng, n)
            assert best >= sinr(w, d, 1.0, cov) * (1.0 - 1e-12)

    def test_scale_invariance_is_exact(self):
        rng = np.random.default_rng(24)
        cov = helpers.random_psd(rng, 6) + 0.5 * np.eye(6)
        d = helpers.complex_gauss(rng, 6)
        w = helpers.complex_gauss(rng, 6)
        assert sinr(2.0 * w, d, 0.7, cov) == sinr(w, d, 0.7, cov)

    def test_degenerate_denominator_is_rejected(self):
        with pytest.raises(DataError):
            sinr(np.zeros(4), np.ones(4) / 2.0, 1.0, np.eye(4))


class TestBuildFilter:
    # "optimal" is no filter kind of the package; the whitening filter
    # lives on as the test oracle helpers.WhiteningFilter
    def test_optimal_whitens_against_the_covariance(self):
        rng = np.random.default_rng(25)
        p, q = 2, 4
        cov = helpers.random_psd(rng, p * q) + 0.2 * np.eye(p * q)
        filt = helpers.WhiteningFilter(cov, p, q)
        x = helpers.complex_gauss(rng, p * q)
        out = filt.apply(x)
        assert np.allclose(out, np.linalg.solve(cov, x), atol=1e-10)
        with pytest.raises(DimensionError, match="unknown filter kind"):
            build_filter("optimal", KronCovEstimate(cov, np.eye(1), 1, 1, 0))

    def test_optimal_rejects_indefinite_covariance(self):
        with pytest.raises(DataError):
            helpers.WhiteningFilter(np.diag([1.0, -1.0]), 1, 2)

    def test_projection_kinds_pull_bases_from_the_estimate(self):
        rng = np.random.default_rng(26)
        p, q = 3, 6
        spatial = helpers.random_psd(rng, p, rank=1)
        temporal = helpers.random_psd(rng, q, rank=2)
        est = KronCovEstimate(spatial, temporal, 1, 2, 3, [1.0], True)
        filt = build_filter("kron", estimate=est)
        # the factor ranges are annihilated
        v = np.kron(spatial[:, 0], temporal[:, 0])
        assert np.linalg.norm(filt.apply(v)) <= 1e-10 * np.linalg.norm(v)

    def test_drop_temporal_yields_spatial_only(self):
        rng = np.random.default_rng(27)
        p, q = 3, 5
        spatial = helpers.random_psd(rng, p, rank=1)
        temporal = helpers.random_psd(rng, q, rank=2)
        est = KronCovEstimate(spatial, temporal, 1, 2, 2, [1.0], True)
        filt = build_filter("kron", estimate=est, drop_temporal=True)
        x = helpers.complex_gauss(rng, (p, q))
        # rows keep their temporal content, only the spatial span is removed
        u_a = helpers.dense_subspace_basis(spatial, 1)
        expected = x - u_a @ (u_a.conj().T @ x)
        assert np.allclose(filt.apply_matrix(x), expected, atol=1e-12)
        # either kind: the kron filter with no temporal basis, bit for bit
        for kind in ("kron", "classical"):
            dropped = build_filter(kind, estimate=est, drop_temporal=True)
            assert (dropped.kind, dropped.temporal_basis) == ("kron", None)
            assert np.array_equal(dropped.spatial_basis, filt.spatial_basis)
            assert np.array_equal(dropped.apply_matrix(x),
                                  filt.apply_matrix(x))

    @pytest.mark.parametrize("drop_temporal", [False, True])
    @pytest.mark.parametrize("factor", ["spatial", "temporal"])
    def test_rank_budgets_outside_one_to_dim_are_rejected(self, factor,
                                                          drop_temporal):
        # at 0 the factor would cancel nothing; above dim its basis
        # would be full rank and the filter would annihilate every bin.
        # drop_temporal still derives, and so checks, the temporal basis
        rng = np.random.default_rng(28)
        p, q = 3, 5
        est = KronCovEstimate(helpers.random_psd(rng, p, rank=1),
                              helpers.random_psd(rng, q, rank=2),
                              1, 2, 2, [1.0], True)
        dim = p if factor == "spatial" else q
        for rank in (0, dim + 1):
            bad = replace(est, **{f"rank_{factor}": rank})
            for kind in ("kron", "classical"):
                with pytest.raises(DimensionError, match=f"{factor} rank"):
                    build_filter(kind, estimate=bad,
                                 drop_temporal=drop_temporal)
        for rank in (1, dim):
            build_filter("kron", estimate=replace(
                est, **{f"rank_{factor}": rank}), drop_temporal=drop_temporal)


class TestGrids:
    def test_doppler_grid_covers_the_unit_interval(self):
        grid = make_doppler_grid(8)
        assert np.array_equal(grid, np.arange(8) / 8.0)
        with pytest.raises(DimensionError):
            make_doppler_grid(0)

    def test_spatial_grid_rows_are_unit_ramps(self):
        grid = make_spatial_grid(4, count=8)
        assert grid.shape == (8, 4)
        norms = np.linalg.norm(grid, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        expected = np.exp(2j * np.pi * 0.375 * np.arange(4)) / 2.0
        assert np.allclose(grid[3], expected, atol=1e-12)

    def test_stacked_grid_embeds_each_pass_block(self):
        p, k, count = 3, 2, 4
        single = make_spatial_grid(p, count)
        stacked = make_stacked_spatial_grid(p, k, count)
        assert stacked.shape == (k * count, k * p)
        for pass_index in range(k):
            block = stacked[pass_index * count:(pass_index + 1) * count]
            lo, hi = pass_index * p, (pass_index + 1) * p
            assert np.array_equal(block[:, lo:hi], single)
            rest = np.delete(block, np.s_[lo:hi], axis=1)
            assert not rest.any()


class TestDetectionImage:
    def test_all_pass_projector_zeroes_the_map(self):
        rng = np.random.default_rng(28)
        p, q = 2, 6
        filt = projection_filter("kron", np.eye(p, dtype=np.complex128),
                                 np.eye(q, dtype=np.complex128), p, q)
        cube = helpers.complex_gauss(rng, (5, p, q))
        image = detection_image(filt, cube, make_doppler_grid(8),
                                make_spatial_grid(p, 4))
        assert image.values.shape == (5, 8)
        assert not image.values.any()

    def test_clutter_residual_stays_at_the_noise_floor(self):
        rng = np.random.default_rng(29)
        p, q, rank, n_bins = 3, 16, 3, 30
        noise_sigma = 0.05
        cube, u_a, u_b = clutter_scene(rng, p, q, rank, n_bins, noise_sigma)
        filt = projection_filter("kron", u_a, u_b, p, q)
        image = detection_image(filt, cube, make_doppler_grid(64),
                                make_spatial_grid(p, 16))
        # calibrated bound: 5x the expected single-draw magnitude
        floor = 5.0 * noise_sigma * np.sqrt(np.pi) / 2.0
        assert image.values.max() <= floor

    def test_planted_target_wins_the_argmax(self):
        rng = np.random.default_rng(30)
        p, q, rank, n_bins = 3, 16, 3, 30
        noise_sigma = 0.05
        cube, u_a, u_b = clutter_scene(rng, p, q, rank, n_bins, noise_sigma)
        target_bin, doppler = 11, 0.25
        sv = make_steering(doppler, p, q)
        signature = np.outer(sv.spatial / np.linalg.norm(sv.spatial),
                             sv.temporal / np.linalg.norm(sv.temporal))
        cube[target_bin] += (50.0 * noise_sigma) * signature
        filt = projection_filter("kron", u_a, u_b, p, q)
        dopplers = make_doppler_grid(64)
        image = detection_image(filt, cube, dopplers, make_spatial_grid(p, 16))
        flat = int(np.argmax(image.values))
        best_bin, best_doppler = np.unravel_index(flat, image.values.shape)
        assert best_bin == target_bin
        assert dopplers[best_doppler] == doppler

    def test_block_batched_map_matches_a_per_bin_reference(self):
        rng = np.random.default_rng(31)
        q, n_bins = 8, 2 * BLOCK_BINS + 13      # two full blocks and a tail
        dopplers = make_doppler_grid(16)
        for p in (1, 2, 3):
            cube = helpers.complex_gauss(rng, (n_bins, p, q))
            filt = projection_filter("kron", orthonormal_columns(rng, p, 1),
                                     orthonormal_columns(rng, q, 2), p, q)
            grid = make_spatial_grid(p, 8)
            image = detection_image(filt, cube, dopplers, grid)
            expected, = helpers.per_bin_maps(filt, cube[None], dopplers,
                                             [grid])
            # the filter folds into the detection operators, which rounds
            # differently from filtering each bin first; at p = 1 the
            # spatial projector removes everything
            helpers.assert_map_matches(image.values, expected,
                                       np.abs(cube).max())

    def test_cube_shape_is_validated(self):
        filt = projection_filter("kron", None, None, 2, 4)
        with pytest.raises(DimensionError):
            detection_image(filt, np.zeros((3, 4, 2), dtype=np.complex128),
                            make_doppler_grid(4), make_spatial_grid(2, 4))


def _scan_filter(rng, kind, bases, rows, q):
    """A projection filter on rows x q bins with the named bases kept."""
    u_a = orthonormal_columns(rng, rows, 1) if bases != "temporal" else None
    u_b = orthonormal_columns(rng, q, 2) if bases != "spatial" else None
    if bases == "spatial-only":
        return projection_filter("kron", u_a, None, rows, q)
    return projection_filter(kind, u_a, u_b, rows, q)


def _scan(filt, passes, dopplers, count):
    """The maps of a (K, n_bins, p, q) cube through the public entries."""
    k, _, p, q = passes.shape
    if k == 1:
        grid = make_spatial_grid(p, count)
        return [detection_image(filt, passes[0], dopplers, grid).values], \
            [grid]
    images = pass_images(filt, PhaseHistory(p, q, k, passes), dopplers,
                         spatial_count=count)
    return [image.values for image in images], \
        [image.spatial_grid for image in images]


class TestFoldedScan:
    """detection_image and pass_images against a filter-first oracle."""

    @pytest.mark.parametrize("n_passes", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("bases", ["both", "spatial-only", "spatial",
                                       "temporal"])
    @pytest.mark.parametrize("kind", ["kron", "classical"])
    def test_maps_match_a_per_bin_reference(self, kind, bases, p, n_passes):
        rng = np.random.default_rng([32, p, n_passes])
        q, n_bins = 8, 2 * BLOCK_BINS + 13      # two full blocks and a tail
        passes = helpers.complex_gauss(rng, (n_passes, n_bins, p, q))
        filt = _scan_filter(rng, kind, bases, n_passes * p, q)
        dopplers = make_doppler_grid(16)
        maps, grids = _scan(filt, passes, dopplers, 4)
        expected = helpers.per_bin_maps(filt, passes, dopplers, grids)
        assert len(maps) == n_passes
        for values, reference in zip(maps, expected):
            helpers.assert_map_matches(values, reference,
                                       np.abs(passes).max())

    @pytest.mark.parametrize("n_passes", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["kron", "classical"])
    def test_a_block_scans_like_its_bins_alone(self, kind, p, n_passes):
        rng = np.random.default_rng([33, p, n_passes])
        q, n_bins = 8, 2 * BLOCK_BINS + 13
        passes = helpers.complex_gauss(rng, (n_passes, n_bins, p, q))
        filt = _scan_filter(rng, kind, "both", n_passes * p, q)
        dopplers = make_doppler_grid(16)
        whole, _ = _scan(filt, passes, dopplers, 4)
        for m0, m1 in [(BLOCK_BINS, 2 * BLOCK_BINS),
                       (2 * BLOCK_BINS, n_bins), (5, 6)]:
            alone, _ = _scan(filt, np.ascontiguousarray(passes[:, m0:m1]),
                             dopplers, 4)
            for values, part in zip(whole, alone):
                assert np.array_equal(values[m0:m1], part)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_bin_is_a_data_error(self, bad):
        rng = np.random.default_rng(34)
        passes = helpers.complex_gauss(rng, (2, BLOCK_BINS + 3, 2, 8))
        passes[1, BLOCK_BINS + 1, 0, 3] = bad
        filt = _scan_filter(rng, "kron", "both", 4, 8)
        with pytest.raises(DataError):
            _scan(filt, passes, make_doppler_grid(8), 4)
        with pytest.raises(DataError):
            _scan(_scan_filter(rng, "kron", "both", 2, 8), passes[1:],
                  make_doppler_grid(8), 4)
