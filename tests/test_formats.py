"""On-disk format checks: byte layouts, round trips, parser errors."""

import os
import struct
import tempfile
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kronstap.errors import ConfigError, DataError, DimensionError, \
    KronStapError
from kronstap.filters import DetectionMap
from kronstap import formats
from kronstap.formats import (
    PhaseHistoryReader,
    parse_scene_config,
    phase_history_writer,
    read_estimate,
    read_phase_history,
    write_bench_csv,
    write_detection_csv,
    write_estimate,
    write_pgm,
    write_phase_history,
    write_residuals_csv,
)
from kronstap.linalg import EigenPairs, Factor, hermitian_eig
from kronstap.lrkron import KronCovEstimate
from kronstap.simulate import (
    PhaseHistory,
    SceneConfig,
    TargetTruth,
    gen_clutter,
    inject_target,
)

MINIMAL_CONFIG = """
p = 2
q = 8
n_bins = 16
r_b = 2
seed = 1
"""


def minimal_history():
    job = parse_scene_config(MINIMAL_CONFIG)
    return gen_clutter(job.scene)


class TestPhaseHistoryFile:
    def test_minimal_file_has_the_documented_byte_count(self, tmp_path):
        path = tmp_path / "scene.kph"
        write_phase_history(path, minimal_history())
        header = 4 + 2 + 2 + 16
        payload = 16 * 2 * 8 * 16
        truth_count = 4
        assert path.stat().st_size == header + payload + truth_count

    def test_serialization_is_deterministic(self, tmp_path):
        history = minimal_history()
        a, b = tmp_path / "a.kph", tmp_path / "b.kph"
        write_phase_history(a, history)
        write_phase_history(b, history)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_data_and_truth(self, tmp_path):
        history = inject_target(minimal_history(), 3, 0.25, 1.0 - 2.0j)
        path = tmp_path / "scene.kph"
        write_phase_history(path, history)
        back = read_phase_history(path)
        assert (back.p, back.q, back.n_passes) == (2, 8, 1)
        assert np.array_equal(back.data, history.data)
        assert len(back.truth) == 1
        assert back.truth[0].bin_index == 3
        assert back.truth[0].doppler == 0.25
        assert back.truth[0].amplitude == 1.0 - 2.0j

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "scene.kph"
        write_phase_history(path, minimal_history())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            read_phase_history(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        path = tmp_path / "scene.kph"
        write_phase_history(path, minimal_history())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataError):
            read_phase_history(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path = tmp_path / "scene.kph"
        write_phase_history(path, minimal_history())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError):
            read_phase_history(path)

    def test_short_file_is_rejected(self, tmp_path):
        path = tmp_path / "scene.kph"
        path.write_bytes(b"KPH1\x01\x00")
        with pytest.raises(DataError):
            read_phase_history(path)

    def test_read_returns_a_native_writable_cube(self, tmp_path):
        path = tmp_path / "scene.kph"
        write_phase_history(path, minimal_history())
        data = read_phase_history(path).data
        assert data.dtype == np.complex128
        assert data.dtype.isnative
        assert data.flags.aligned
        assert data.flags.writeable
        assert data.flags.c_contiguous
        data[0, 0, 0, 0] = 1.0 + 2.0j

    def test_read_and_write_hold_the_cube_once(self, tmp_path):
        rng = np.random.default_rng(5)
        data = helpers.complex_gauss(rng, (2, 256, 4, 64))   # 4 MB
        history = PhaseHistory(4, 64, 2, data, [])
        path = tmp_path / "scene.kph"
        write_peak = helpers.traced_peak(write_phase_history, path,
                                         history).peak
        back, read_peak, _ = helpers.traced_peak(read_phase_history, path)
        assert write_peak < 0.25 * data.nbytes
        assert read_peak < 1.25 * data.nbytes
        assert np.array_equal(back.data, data)


class TestPhaseHistoryBlocks:
    """The block reader and writer that read_phase_history and
    write_phase_history are single-block uses of."""

    @staticmethod
    def history(k=2, n_bins=11, p=2, q=3, seed=6):
        data = helpers.complex_gauss(np.random.default_rng(seed),
                                     (k, n_bins, p, q))
        return PhaseHistory(p, q, k, data, [TargetTruth(4, 0.25, 1 - 2j),
                                            TargetTruth(0, 0.5, 3j)])

    @pytest.mark.parametrize("k", [1, 3])
    def test_blocks_write_the_bytes_of_one_write(self, tmp_path, k):
        history = self.history(k=k)
        whole, blocks = tmp_path / "whole.kph", tmp_path / "blocks.kph"
        write_phase_history(whole, history)
        with phase_history_writer(blocks, 2, 3, k, 11,
                                  history.truth) as write:
            for m0, m1 in [(0, 4), (4, 5), (5, 11)]:
                write(history.data[:, m0:m1])
        assert blocks.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_blocks_read_the_cube_of_one_read(self, tmp_path, k):
        history = self.history(k=k)
        path = tmp_path / "scene.kph"
        write_phase_history(path, history)
        with PhaseHistoryReader(path) as reader:
            assert (reader.p, reader.q, reader.n_passes, reader.n_bins) \
                == (2, 3, k, 11)
            assert reader.truth == history.truth
            for m0, m1 in [(5, 11), (0, 4), (4, 5), (0, 11)]:
                block = reader.read(m0, m1)
                assert block.dtype == np.complex128
                assert block.flags.c_contiguous
                assert block.tobytes() == \
                    np.ascontiguousarray(history.data[:, m0:m1]).tobytes()
            with pytest.raises(DimensionError):
                reader.read(3, 3)
            with pytest.raises(DimensionError):
                reader.read(0, 12)

    @pytest.mark.parametrize("damage", [
        "count", "count-short", "bin", "trailing"])
    def test_a_bad_target_tail_is_refused_when_the_file_opens(
            self, tmp_path, damage):
        path = tmp_path / "scene.kph"
        write_phase_history(path, self.history())
        blob = bytearray(path.read_bytes())
        tail = len(blob) - 4 - 2 * 28
        if damage == "count":
            struct.pack_into("<I", blob, tail, 3)
        elif damage == "count-short":
            struct.pack_into("<I", blob, tail, 1)
        elif damage == "bin":
            struct.pack_into("<I", blob, tail + 4 + 28, 11)
        else:
            blob += b"\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            PhaseHistoryReader(path)

    def test_a_bin_count_past_the_u32_field_names_the_cube_size(
            self, tmp_path):
        out = tmp_path / "x.kph"
        with pytest.raises(DataError, match="n_bins = 4294967296 .*u32") \
                as info:
            with phase_history_writer(out, 2, 3, 1, 2 ** 32):
                pass
        assert "a 1 x 4294967296 x 2 x 3 cube needs 412,316,860,416 " \
            "bytes" in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_a_file_larger_than_the_free_space_is_refused(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(formats, "_free_bytes", lambda path: 1000)
        out = tmp_path / "x.kph"
        with pytest.raises(DataError, match="1,056 bytes, more than the "
                                            "1,000 bytes free"):
            with phase_history_writer(out, 2, 3, 1, 11):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_an_unfinished_cube_is_not_written(self, tmp_path):
        history = self.history()
        out = tmp_path / "x.kph"
        with pytest.raises(DimensionError, match="4 of 11 bins"):
            with phase_history_writer(out, 2, 3, 2, 11) as write:
                write(history.data[:, :4])
        with pytest.raises(DimensionError):
            with phase_history_writer(out, 2, 3, 2, 11) as write:
                write(history.data[:1])
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "x.kph"
        out.write_bytes(b"old")

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with phase_history_writer(out, 2, 3, 2, 11) as write:
                write(self.history().data[:, :4])
                raise Boom
        assert out.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [out]


def pairs_estimate(rng, sdim, q, rank_spatial, rank_temporal, **kwargs):
    """An estimate held as eigenpairs, as the estimator leaves it."""
    factors = [
        Factor(EigenPairs(*helpers.random_pairs(
            rng, dim, np.sort(rng.random(rank))[::-1] + 0.5)))
        for dim, rank in ((sdim, rank_spatial), (q, rank_temporal))]
    kwargs.setdefault("residuals", [0.5, 0.1])
    return KronCovEstimate(*factors, rank_spatial, rank_temporal,
                           kwargs.pop("iterations", 2), **kwargs)


def assert_same_pairs(back, est):
    """back's pairs are est's top rank-budget pairs, bit for bit."""
    for name in ("spatial", "temporal"):
        rank = getattr(est, f"rank_{name}")
        want = getattr(est, f"{name}_pairs")
        got = getattr(back, f"{name}_pairs")
        assert got.values.tobytes() == want.values[:rank].tobytes()
        assert got.vectors.tobytes() == \
            np.ascontiguousarray(want.vectors[:, :rank]).tobytes()


class TestEstimateFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(40)
        est = pairs_estimate(rng, 3, 5, 2, 4, iterations=7, converged=False)
        path = tmp_path / "fit.kes"
        write_estimate(path, est)
        back = read_estimate(path)
        assert_same_pairs(back, est)
        assert np.array_equal(back.spatial, est.spatial)
        assert np.array_equal(back.temporal, est.temporal)
        assert back.rank_spatial == 2
        assert back.rank_temporal == 4
        assert back.iterations == 7
        assert back.converged is False
        assert back.residuals == [0.5, 0.1]

    def test_a_dense_factor_is_written_as_its_top_pairs(self, tmp_path):
        rng = np.random.default_rng(48)
        est = KronCovEstimate(helpers.random_psd(rng, 3),
                              helpers.random_psd(rng, 5), 2, 4, 1, [0.5])
        path = tmp_path / "fit.kes"
        write_estimate(path, est)
        back = read_estimate(path)
        assert_same_pairs(back, est)
        assert np.array_equal(back.spatial_pairs.vectors,
                              hermitian_eig(est.spatial).vectors[:, :2])

    def test_payload_size_mismatch_is_rejected(self, tmp_path):
        rng = np.random.default_rng(41)
        est = KronCovEstimate(helpers.random_psd(rng, 2),
                              helpers.random_psd(rng, 3),
                              1, 2, 1, [0.5], True)
        path = tmp_path / "fit.kes"
        write_estimate(path, est)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            read_estimate(path)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "fit.kes"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(DataError):
            read_estimate(path)

    def test_a_kes1_file_says_to_re_run_estimate(self, tmp_path):
        # a KES1 header for 1 x 1 factors, then both factors
        path = tmp_path / "fit.kes"
        path.write_bytes(struct.pack("<4sHHIIIIII", b"KES1", 1, 8, 1, 1, 1,
                                     1, 1, 1) + bytes(32))
        with pytest.raises(DataError, match="KES1.*re-run `kronstap "
                                            "estimate`"):
            read_estimate(path)

    @pytest.mark.parametrize("ranks", [(0, 2), (1, 0), (0, 0), (4, 2),
                                       (1, 6), (99, 99)])
    def test_rank_budget_outside_the_factor_dims_is_rejected(self, tmp_path,
                                                             ranks):
        # in KES2 a rank budget is also the stored pair count: the
        # payload matches the header, so only the rank check can fail
        rng = np.random.default_rng(42)
        pairs = [(np.zeros(rank), np.zeros((dim, rank), complex))
                 for dim, rank in zip((3, 5), ranks)]
        path = tmp_path / "fit.kes"
        path.write_bytes(helpers.kes2_bytes(*pairs))
        with pytest.raises(DataError, match="rank"):
            read_estimate(path)
        # and the writer will not write one
        est = pairs_estimate(rng, 3, 5, 1, 2)
        with pytest.raises(DimensionError, match="rank budget"):
            write_estimate(path, replace(est, rank_spatial=ranks[0],
                                         rank_temporal=ranks[1]))

    @pytest.mark.parametrize("factor", ["spatial", "temporal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factors_are_rejected(self, tmp_path, factor, bad):
        rng = np.random.default_rng(44)
        for part in (0, 1):      # a value, then a vector entry
            pairs = {"spatial": helpers.random_pairs(rng, 3, [2.0]),
                     "temporal": helpers.random_pairs(rng, 5, [3.0, 1.0])}
            pairs[factor][part].flat[1 if part else 0] = bad
            path = tmp_path / "fit.kes"
            path.write_bytes(helpers.kes2_bytes(pairs["spatial"],
                                                pairs["temporal"]))
            with pytest.raises(DataError, match=f"{factor} factor"):
                read_estimate(path)

    @pytest.mark.parametrize("factor", ["spatial", "temporal"])
    def test_non_hermitian_factors_are_rejected(self, tmp_path, factor):
        # U diag(values) U^H is Hermitian whatever U is; what stands in
        # for a damaged factor is vectors that are not orthonormal, so
        # the pairs are no eigendecomposition
        rng = np.random.default_rng(45)
        pairs = {"spatial": helpers.random_pairs(rng, 3, [2.0, 1.0]),
                 "temporal": helpers.random_pairs(rng, 5, [3.0, 1.0])}
        pairs[factor][1][0, 1] += 1e-3
        path = tmp_path / "fit.kes"
        path.write_bytes(helpers.kes2_bytes(pairs["spatial"],
                                            pairs["temporal"]))
        with pytest.raises(DataError, match=f"{factor} factor eigenvectors "
                                            f"are not orthonormal"):
            read_estimate(path)

    def test_an_asymmetry_past_the_overflow_is_rejected(self, tmp_path):
        # a finite vector entry whose square overflows: the Gram check
        # sees inf or NaN, which must fail it, not pass as no error
        rng = np.random.default_rng(46)
        for entry in (1e156, 1e200, 1.7e308):
            spatial = helpers.random_pairs(rng, 3, [1.0])
            temporal = helpers.random_pairs(rng, 6, [2.0, 1.0])
            temporal[1][0, 1] = entry
            path = tmp_path / "fit.kes"
            path.write_bytes(helpers.kes2_bytes(spatial, temporal))
            with pytest.raises(DataError, match="temporal factor"):
                read_estimate(path)

    def test_read_and_write_hold_the_factors_once(self, tmp_path):
        # a wide-q-sized temporal factor, q = 768, with 32 kept pairs:
        # enough that the reader's fixed costs (an 8 KiB file buffer, a
        # row tile of the Gram check) stay small beside them. Neither
        # side forms the 768 x 768 factor
        rng = np.random.default_rng(47)
        est = pairs_estimate(rng, 8, 768, 1, 32)
        pair_bytes = sum(a.nbytes for a in (*est.spatial_pairs,
                                            *est.temporal_pairs))
        path = tmp_path / "fit.kes"
        write_peak = helpers.traced_peak(write_estimate, path, est).peak
        back, read_peak, _ = helpers.traced_peak(read_estimate, path)
        assert write_peak < 0.25 * pair_bytes
        assert read_peak < 1.25 * pair_bytes
        assert_same_pairs(back, est)

    def test_rank_budget_at_the_factor_dims_is_accepted(self, tmp_path):
        rng = np.random.default_rng(43)
        est = KronCovEstimate(helpers.random_psd(rng, 3),
                              helpers.random_psd(rng, 5),
                              3, 5, 1, [0.5], True)
        path = tmp_path / "fit.kes"
        write_estimate(path, est)
        back = read_estimate(path)
        assert (back.rank_spatial, back.rank_temporal) == (3, 5)


def kes_blob(est):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fit.kes")
        write_estimate(path, est)
        with open(path, "rb") as fh:
            return fh.read()


def read_blob(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fit.kes")
        with open(path, "wb") as fh:
            fh.write(blob)
        return read_estimate(path)


def assert_hermitian_psd(m):
    assert np.array_equal(m, m.conj().T)
    values = np.linalg.eigvalsh(m)
    assert values.min() >= -1e-10 * max(values.max(), 0.0)


class TestEstimateFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(sdim=st.integers(1, 5), q=st.integers(1, 9), data=st.data())
    def test_round_trip_is_exact(self, sdim, q, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        scale = 10.0 ** data.draw(st.integers(-100, 100))
        est = KronCovEstimate(
            scale * helpers.random_psd(rng, sdim,
                                       data.draw(st.integers(1, sdim))),
            scale * helpers.random_psd(rng, q, data.draw(st.integers(1, q))),
            data.draw(st.integers(1, sdim)), data.draw(st.integers(1, q)),
            data.draw(st.integers(0, 2 ** 32 - 1)),
            data.draw(st.lists(st.floats(0.0, 1e300), max_size=5)),
            data.draw(st.booleans()),
        )
        back = read_blob(kes_blob(est))
        assert_same_pairs(back, est)
        assert (back.rank_spatial, back.rank_temporal, back.iterations,
                back.converged, back.residuals) == \
            (est.rank_spatial, est.rank_temporal, est.iterations,
             est.converged, est.residuals)
        for factor in (back.spatial, back.temporal):
            assert_hermitian_psd(factor)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_and_bit_flipped_files_raise_only_package_errors(
            self, data):
        rng = np.random.default_rng(60)
        est = KronCovEstimate(helpers.random_psd(rng, 2, 1),
                              helpers.random_psd(rng, 24, 2), 1, 2, 3,
                              [0.5], True)
        blob = kes_blob(est)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(KronStapError):
            read_blob(blob[:cut])
        with pytest.raises(KronStapError):
            read_blob(blob + bytes(data.draw(st.integers(1, 16))))
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            back = read_blob(bytes(flipped))
        except KronStapError:
            return
        for factor in (back.spatial, back.temporal):
            assert np.isfinite(factor).all()
            assert_hermitian_psd(factor)


def kph_blob(history):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.kph")
        write_phase_history(path, history)
        with open(path, "rb") as fh:
            return fh.read()


def read_kph_blob(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.kph")
        with open(path, "wb") as fh:
            fh.write(blob)
        return read_phase_history(path)


@st.composite
def phase_histories(draw):
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    k, n_bins = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    data = scale * helpers.complex_gauss(rng, (k, n_bins, p, q))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    truth = [TargetTruth(draw(st.integers(0, n_bins - 1)), draw(floats),
                         complex(draw(floats), draw(floats)))
             for _ in range(draw(st.integers(0, 3)))]
    return PhaseHistory(p, q, k, data, truth)


class TestPhaseHistoryFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(history=phase_histories())
    def test_round_trip_is_exact(self, history):
        back = read_kph_blob(kph_blob(history))
        assert (back.p, back.q, back.n_passes) == \
            (history.p, history.q, history.n_passes)
        assert back.data.tobytes() == history.data.tobytes()
        assert back.truth == history.truth

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_and_bit_flipped_files_raise_only_package_errors(
            self, data):
        history = minimal_history()
        history.truth.append(TargetTruth(3, 0.25, 1.0 + 0.5j))
        blob = kph_blob(history)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(KronStapError):
            read_kph_blob(blob[:cut])
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            read_kph_blob(bytes(flipped))
        except KronStapError:
            pass


class TestCsvFiles:
    def test_residuals_round_trip_exactly(self, tmp_path):
        residuals = [0.1 + 1e-17, 3.0, 7.25e-9]
        path = tmp_path / "residuals.csv"
        write_residuals_csv(path, residuals)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert lines[1].startswith("1,")
        assert helpers.read_residuals_csv(path) == residuals

    def test_residuals_header_is_required(self, tmp_path):
        path = tmp_path / "residuals.csv"
        path.write_text("1,0.5\n")
        with pytest.raises(DataError):
            helpers.read_residuals_csv(path)

    def test_detection_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(42)
        values = rng.random((4, 6))
        dopplers = np.arange(6) / 6.0
        image = DetectionMap(values, dopplers, None)
        path = tmp_path / "map.csv"
        write_detection_csv(path, image)
        header = path.read_text().splitlines()[0]
        assert header.startswith("bin,f=")
        back = helpers.read_detection_csv(path)
        assert np.array_equal(back.values, values)
        assert np.array_equal(back.dopplers, dopplers)

    def test_detection_header_is_validated(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1.0\n")
        with pytest.raises(DataError):
            helpers.read_detection_csv(path)
        path.write_text("bin,g=0.0\n0,1.0\n")
        with pytest.raises(DataError):
            helpers.read_detection_csv(path)

    def test_bench_rows_carry_the_documented_header(self, tmp_path):
        from kronstap.bench import BenchRow

        rows = [BenchRow(3, 64, 5, 1e-4, 1, 0, 4, 0.125, 3.5e-5)]
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,q,n,eps,threads,trial,iterations,seconds,eta_final"
        fields = lines[1].split(",")
        assert fields[:3] == ["3", "64", "5"]
        assert float(fields[3]) == 1e-4
        assert float(fields[7]) == 0.125


class TestCsvFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(residuals=st.lists(st.floats(allow_nan=False), max_size=20))
    def test_residuals_round_trip_exactly(self, residuals):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "residuals.csv")
            write_residuals_csv(path, residuals)
            back = helpers.read_residuals_csv(path)
        # repr tells -0.0 from 0.0, which == does not
        assert list(map(repr, back)) == list(map(repr, residuals))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_detection_round_trips_exactly_in_the_documented_bytes(self,
                                                                    data):
        n_bins, count = data.draw(st.integers(1, 6)), data.draw(
            st.integers(1, 6))
        cells = st.floats(width=64)
        values = np.array(data.draw(st.lists(
            st.lists(cells, min_size=count, max_size=count),
            min_size=n_bins, max_size=n_bins)), dtype=np.float64)
        dopplers = np.array(data.draw(st.lists(
            st.floats(allow_nan=False), min_size=count, max_size=count)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "map.csv")
            write_detection_csv(path, DetectionMap(values, dopplers, None))
            with open(path) as fh:
                text = fh.read()
            back = helpers.read_detection_csv(path)
        # repr tells -0.0 from 0.0 and reads every NaN as the one 'nan'
        assert list(map(repr, back.values.ravel().tolist())) == \
            list(map(repr, values.ravel().tolist()))
        assert back.dopplers.tobytes() == dopplers.tobytes()
        # one repr per cell: the bytes the writer has always produced
        header = ",".join(f"f={float(f)!r}" for f in dopplers)
        rows = [f"{m}," + ",".join(repr(float(v)) for v in row)
                for m, row in enumerate(values)]
        assert text == "\n".join([f"bin,{header}"] + rows) + "\n"


class TestPgm:
    def test_header_and_peak_scaling(self, tmp_path):
        values = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "map.pgm"
        write_pgm(path, values)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n65535\n")
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert pixels.tolist() == [0, 16384, 32768, 65535]

    def test_all_zero_image_stays_black(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.zeros((3, 2)))
        pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert not pixels.any()

    def test_non_2d_input_is_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(tmp_path / "map.pgm", np.zeros(4))


class TestSceneConfigParsing:
    def test_full_config_parses(self):
        job = parse_scene_config("""
            # mission scene
            p = 3
            q = 16
            n_bins = 32          # range bins
            r_b = 4
            sigma2 = 0.05
            texture = inverse_gamma
            texture_shape = 2.5
            kappa = 0.4
            seed = 9
            K = 2
            change_fraction = 0.25
            shared_calibration = yes
            unit_pass_gains = false
            pass_gain_spread = 0.75
            target = 5 0.3 1.5 -0.5
            target = 7 0.1 2.0 0.0
        """)
        scene = job.scene
        assert isinstance(scene, SceneConfig)
        assert (scene.p, scene.q, scene.n_bins) == (3, 16, 32)
        assert scene.rank_temporal == 4
        assert scene.noise_power == 0.05
        assert scene.texture == "inverse_gamma"
        assert scene.texture_shape == 2.5
        assert scene.kappa == 0.4
        assert scene.seed == 9
        assert job.n_passes == 2
        assert job.change_fraction == 0.25
        assert job.shared_calibration is True
        assert job.unit_pass_gains is False
        assert job.pass_gain_spread == 0.75
        assert job.targets == [(5, 0.3, 1.5 - 0.5j), (7, 0.1, 2.0 + 0.0j)]
        with pytest.raises(FrozenInstanceError):
            job.n_passes = 3

    def test_defaults_apply_when_keys_are_omitted(self):
        job = parse_scene_config("p=2\nq=8\nn_bins=16\nr_b=2\n")
        assert job.scene.noise_power == 1e-2
        assert job.scene.texture == "constant"
        assert job.scene.seed == 0
        assert job.n_passes == 1
        # one pass is gen_clutter's scene
        assert job.shared_calibration and job.unit_pass_gains
        assert job.targets == []

    def test_errors_carry_line_numbers(self):
        cases = [
            ("p = 2\nwhat is this\n", 2),
            ("p = 2\nq = \n", 2),
            ("p = 2\nmystery = 1\n", 2),
            ("p = two\n", 1),
            ("sigma2 = loud\n", 1),
            ("shared_calibration = maybe\n", 1),
            ("target = 1 0.5\n", 1),
            ("target = 1 0.5 x y\n", 1),
            # a key set twice, save target, names both of its lines
            ("p = 2\nq = 8\np = 3\n", 3),
            ("target = 1 0.5 1 0\nseed = 1\ntarget = 2 0.5 1 0\n"
             "seed = 1\n", 4),
        ]
        for text, lineno in cases:
            with pytest.raises(ConfigError) as excinfo:
                parse_scene_config(text)
            assert excinfo.value.line == lineno
            assert f"line {lineno}:" in str(excinfo.value)

    @pytest.mark.parametrize("line", [
        "sigma2 = nan", "sigma2 = 1e400", "kappa = inf", "kappa = -inf",
        "texture_shape = nan", "change_fraction = nan",
        "pass_gain_spread = inf",
        "target = 1 nan 1 0", "target = 1 0.25 inf 0",
        "target = 1 0.25 1 nan",
    ])
    def test_non_finite_numbers_are_rejected_by_key(self, line):
        text = "p = 2\nq = 8\nn_bins = 16\nr_b = 2\n" + line + "\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_scene_config(text)
        assert excinfo.value.line == 5
        assert line.split()[0] in str(excinfo.value)

    def test_missing_required_keys_are_reported(self):
        with pytest.raises(DataError, match="r_b"):
            parse_scene_config("p = 2\nq = 8\nn_bins = 16\n")

    def test_semantic_errors_are_data_errors(self):
        base = "p = 2\nq = 8\nn_bins = 16\nr_b = 2\n"
        with pytest.raises(DataError):
            parse_scene_config(base + "K = 0\n")
        with pytest.raises(DataError):
            parse_scene_config(base + "target = 99 0.1 1 0\n")
        with pytest.raises(DataError, match="seed"):
            parse_scene_config(base + "seed = -4\n")
        with pytest.raises(DataError):
            parse_scene_config("p = 2\nq = 8\nn_bins = 16\nr_b = 9\n")
