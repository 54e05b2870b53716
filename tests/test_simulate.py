"""Scene generator checks: covariance law, determinism, pass coupling."""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from kronstap.errors import DataError, DimensionError
from kronstap.parallel import WorkerPool
from kronstap.simulate import (
    BLOCK_BINS,
    SceneConfig,
    gen_clutter,
    gen_multipass,
    inject_target,
    multipass_blocks,
    scene_model,
)


def small_config(**overrides):
    base = dict(p=2, q=4, n_bins=8, rank_temporal=2, seed=3)
    base.update(overrides)
    return SceneConfig(**base)


class TestSceneConfig:
    def test_validation_rejects_bad_fields(self):
        bad = [
            dict(p=0), dict(q=-1), dict(n_bins=0),
            dict(rank_temporal=0), dict(rank_temporal=5),
            dict(noise_power=-1.0), dict(texture="weird"),
            dict(texture="inverse_gamma", texture_shape=1.0),
        ]
        for overrides in bad:
            with pytest.raises(DataError):
                small_config(**overrides).validate()

    @pytest.mark.parametrize("field, value", [
        ("noise_power", float("nan")), ("noise_power", float("inf")),
        ("kappa", float("inf")), ("kappa", float("nan")),
        ("texture_shape", float("nan")), ("calibration_phase", float("inf")),
        ("seed", -4),
    ])
    def test_validation_names_a_non_finite_or_negative_field(self, field,
                                                             value):
        with pytest.raises(DataError, match=field):
            small_config(**{field: value}).validate()
        with pytest.raises(DataError, match=field):
            gen_clutter(small_config(**{field: value}))

    def test_a_cube_too_large_to_allocate_is_a_data_error(self):
        # numpy refuses the 384 PB allocation at once, touching no memory
        with pytest.raises(DataError, match="384,000,000,000,000,000 bytes"):
            gen_clutter(small_config(p=3, q=8, n_bins=10**15))

    def test_valid_config_passes(self):
        small_config().validate()
        small_config(texture="inverse_gamma", texture_shape=2.5).validate()


class TestSceneModel:
    def test_temporal_covariance_is_psd_with_trace_q(self):
        for seed in range(5):
            model = scene_model(small_config(q=8, rank_temporal=3, seed=seed))
            b = model.temporal_covariance()
            assert np.allclose(b, b.conj().T, atol=1e-12)
            assert abs(np.trace(b).real - 8.0) < 1e-10
            assert np.linalg.eigvalsh(b).min() > -1e-12
            assert np.linalg.matrix_rank(b, tol=1e-9) == 3

    def test_calibration_is_unit_modulus(self):
        model = scene_model(small_config(p=5))
        assert model.calibration.shape == (5,)
        assert np.allclose(np.abs(model.calibration), 1.0, atol=1e-12)

    def test_total_covariance_assembles_the_factors(self):
        config = small_config(noise_power=0.3)
        model = scene_model(config)
        h = model.calibration
        expected = np.kron(np.outer(h, h.conj()), model.temporal_covariance())
        expected += 0.3 * np.eye(config.p * config.q)
        assert np.allclose(model.total_covariance(), expected, atol=1e-12)


class TestGenClutter:
    def test_zero_noise_unit_texture_bins_are_rank_one(self):
        config = small_config(p=3, q=8, n_bins=12, noise_power=0.0,
                              calibration_phase=0.0)
        history = gen_clutter(config)
        assert history.data.shape == (1, 12, 3, 8)
        for m in range(12):
            x = history.data[0, m]
            # every channel row is a multiple of row 0
            for i in range(1, 3):
                assert np.allclose(x[i], x[0], atol=1e-12)

    def test_calibrated_bins_stay_rank_one(self):
        config = small_config(p=4, q=8, n_bins=6, noise_power=0.0)
        model = scene_model(config)
        history = gen_clutter(config)
        for m in range(6):
            x = history.data[0, m]
            ratios = x / model.calibration[:, None]
            for i in range(1, 4):
                assert np.allclose(ratios[i], ratios[0], atol=1e-12)

    def test_empirical_covariance_matches_the_model(self):
        config = small_config(p=2, q=4, n_bins=50 * 8, noise_power=0.05,
                              seed=7)
        model = scene_model(config)
        history = gen_clutter(config)
        snaps = history.data[0].reshape(config.n_bins, -1)
        scm = snaps.T @ snaps.conj() / config.n_bins
        err = np.linalg.norm(scm - model.total_covariance())
        err /= np.linalg.norm(model.total_covariance())
        assert err <= 0.1

    def test_inverse_gamma_texture_keeps_the_mean_power(self):
        config = small_config(p=2, q=4, n_bins=50 * 8, noise_power=0.0,
                              texture="inverse_gamma", texture_shape=4.0,
                              seed=9)
        model = scene_model(config)
        history = gen_clutter(config)
        snaps = history.data[0].reshape(config.n_bins, -1)
        scm = snaps.T @ snaps.conj() / config.n_bins
        err = np.linalg.norm(scm - model.total_covariance())
        err /= np.linalg.norm(model.total_covariance())
        # heavier tails than the constant-texture case, looser band
        assert err <= 0.3

    def test_fixed_seed_is_bitwise_reproducible(self):
        config = small_config(seed=21)
        first = gen_clutter(config)
        second = gen_clutter(config)
        assert np.array_equal(first.data, second.data)

    def test_a_longer_scene_extends_a_shorter_one(self):
        # bin m's draws come from its block's streams, keyed by (seed,
        # block), at m's offset in the block; a block draws only the bins
        # that exist, in order, so without scene change the bin count
        # never reaches back into earlier bins
        short = small_config(n_bins=17, seed=22, texture="inverse_gamma")
        long = small_config(n_bins=40, seed=22, texture="inverse_gamma")
        assert np.array_equal(gen_clutter(short).data,
                              gen_clutter(long).data[:, :17])
        assert np.array_equal(gen_multipass(short, 3).data,
                              gen_multipass(long, 3).data[:, :17])

    @settings(max_examples=30, deadline=None)
    @given(n_short=st.integers(1, 700), extra=st.integers(0, 700),
           p=st.integers(1, 3), q=st.integers(1, 4), r=st.integers(1, 4),
           texture=st.sampled_from(["constant", "inverse_gamma"]),
           seed=st.integers(0, 2**32 - 1))
    # a one-bin tail block, and a tail that grows into a full block
    @example(n_short=BLOCK_BINS + 1, extra=BLOCK_BINS - 1, p=1, q=4, r=2,
             texture="inverse_gamma", seed=1)
    @example(n_short=BLOCK_BINS, extra=1, p=2, q=3, r=3, texture="constant",
             seed=0)
    def test_prefix_property_across_block_boundaries(self, n_short, extra,
                                                     p, q, r, texture, seed):
        n_long = min(n_short + extra, 700)
        short = SceneConfig(p=p, q=q, n_bins=n_short,
                            rank_temporal=min(r, q), texture=texture,
                            seed=seed)
        long = replace(short, n_bins=n_long)
        assert np.array_equal(gen_clutter(short).data,
                              gen_clutter(long).data[:, :n_short])
        assert np.array_equal(gen_multipass(short, 2).data,
                              gen_multipass(long, 2).data[:, :n_short])

    def test_bins_a_block_apart_draw_independently(self):
        # same offset in consecutive blocks: a stream key that missed the
        # block index would repeat the block
        config = small_config(p=2, q=8, n_bins=4 * BLOCK_BINS,
                              noise_power=0.0, seed=23)
        x = gen_clutter(config).data[0]
        a = x[:3 * BLOCK_BINS].ravel()
        b = x[BLOCK_BINS:].ravel()
        for m in range(3 * BLOCK_BINS):
            assert not np.array_equal(x[m], x[m + BLOCK_BINS])
        rho = np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(rho) < 0.1


class TestInjectTarget:
    def test_zero_amplitude_changes_nothing(self):
        history = gen_clutter(small_config())
        injected = inject_target(history, 2, 0.3, 0.0)
        assert np.array_equal(injected.data, history.data)
        assert len(injected.truth) == 1

    def test_inject_then_cancel_restores_the_cube(self):
        history = gen_clutter(small_config())
        alpha = 1.5 - 0.5j
        up = inject_target(history, 3, 0.2, alpha)
        down = inject_target(up, 3, 0.2, -alpha)
        # untouched bins come back bitwise; the edited bin can round by
        # an ulp when the add carries
        mask = np.ones(history.n_bins, dtype=bool)
        mask[3] = False
        assert np.array_equal(down.data[:, mask], history.data[:, mask])
        assert np.abs(down.data - history.data).max() <= 1e-14

    def test_injected_energy_equals_the_amplitude(self):
        history = gen_clutter(small_config())
        alpha = 0.8 + 0.6j
        injected = inject_target(history, 1, 0.4, alpha)
        delta = injected.data[0, 1] - history.data[0, 1]
        assert abs(np.linalg.norm(delta) - abs(alpha)) < 1e-12

    def test_truth_record_is_appended(self):
        history = gen_clutter(small_config())
        injected = inject_target(history, 5, 0.15, 2.0)
        assert injected.truth[-1].bin_index == 5
        assert injected.truth[-1].doppler == 0.15
        assert injected.truth[-1].amplitude == 2.0 + 0.0j
        assert history.truth == []

    def test_out_of_range_inputs_are_rejected(self):
        history = gen_clutter(small_config())
        with pytest.raises(DimensionError):
            inject_target(history, 99, 0.1, 1.0)
        with pytest.raises(DimensionError):
            inject_target(history, 0, 0.1, 1.0, pass_index=1)

    @pytest.mark.parametrize("doppler, amplitude", [
        (float("nan"), 1.0), (1e308, 1.0), (0.1, float("inf")),
    ])
    def test_a_target_that_makes_the_bin_non_finite_is_rejected(
            self, doppler, amplitude):
        history = gen_clutter(small_config())
        with np.errstate(all="ignore"), pytest.raises(DataError):
            inject_target(history, 2, doppler, amplitude)

    def test_targets_that_overflow_together_are_rejected(self):
        # one channel, one pulse: the signature is 1
        single = small_config(p=1, q=1, rank_temporal=1)
        history = inject_target(gen_clutter(single), 2, 0.0, 1.5e308)
        with np.errstate(all="ignore"), pytest.raises(DataError):
            inject_target(history, 2, 0.0, 1.5e308)


class TestGenMultipass:
    def test_frozen_scene_makes_identical_passes(self):
        config = small_config(p=3, q=8, n_bins=10, noise_power=0.0)
        history = gen_multipass(config, 3, change_fraction=0.0,
                                shared_calibration=True, unit_gains=True)
        assert history.data.shape == (3, 10, 3, 8)
        for k in range(1, 3):
            assert np.array_equal(history.data[k], history.data[0])

    def test_stacked_spatial_rank_is_the_pass_count(self):
        config = small_config(p=3, q=8, n_bins=60, noise_power=0.0, seed=5)
        k = 2
        history = gen_multipass(config, k)
        stacked = np.ascontiguousarray(
            history.data.transpose(1, 0, 2, 3)
        ).reshape(config.n_bins, k * config.p, config.q)
        cov = np.zeros((k * config.p, k * config.p), dtype=np.complex128)
        for m in range(config.n_bins):
            cov += stacked[m] @ stacked[m].conj().T
        values = np.linalg.eigvalsh(cov)[::-1]
        assert values[k] <= 1e-8 * values[0]

    def test_full_change_decorrelates_the_speckle(self):
        config = small_config(p=2, q=8, n_bins=1000, noise_power=0.0,
                              seed=6)
        history = gen_multipass(config, 2, change_fraction=1.0,
                                shared_calibration=True, unit_gains=True)
        a = history.data[0, :, 0, :].ravel()
        b = history.data[1, :, 0, :].ravel()
        rho = np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(rho) < 0.1

    def test_zero_change_keeps_the_speckle_correlated(self):
        config = small_config(p=2, q=8, n_bins=200, noise_power=0.0, seed=8)
        history = gen_multipass(config, 2, change_fraction=0.0,
                                shared_calibration=True, unit_gains=True)
        a = history.data[0, :, 0, :].ravel()
        b = history.data[1, :, 0, :].ravel()
        rho = np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(rho) > 0.9

    def test_changed_bins_decorrelate_in_every_block(self):
        # three full blocks and a tail; each block keys its own
        # replacement speckle per pass
        config = small_config(p=2, q=8, n_bins=3 * BLOCK_BINS + 40,
                              noise_power=0.0, seed=24)
        history = gen_multipass(config, 2, change_fraction=0.5,
                                shared_calibration=True, unit_gains=True)
        first, second = history.data

        def rho(a, b):
            a, b = a.ravel(), b.ravel()
            return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))

        changed = np.any(first != second, axis=(1, 2))
        assert changed.sum() == round(0.5 * config.n_bins)
        for m0 in range(0, config.n_bins, BLOCK_BINS):
            picked = changed[m0:m0 + BLOCK_BINS]
            assert 0 < picked.sum() < picked.size
            block = slice(m0, m0 + BLOCK_BINS)
            assert rho(first[block][picked], second[block][picked]) < 0.25
        # changed bins at one offset in two blocks get unrelated speckle
        m = np.flatnonzero(changed[:-BLOCK_BINS] & changed[BLOCK_BINS:])
        assert m.size > 100
        later = second[m + BLOCK_BINS]
        assert not np.any(np.all(second[m] == later, axis=(1, 2)))
        assert rho(second[m], later) < 0.25

    def test_bad_arguments_are_rejected(self):
        config = small_config()
        with pytest.raises(DimensionError):
            gen_multipass(config, 0)
        with pytest.raises(DataError):
            gen_multipass(config, 2, change_fraction=1.5)

    def test_an_overflowing_gain_spread_is_a_data_error(self):
        config = small_config(p=3, q=8, n_bins=BLOCK_BINS + 5, seed=11)
        # a NaN gain is caught by the same scan as an overflow
        for spread in (1e308, np.nan, np.inf, -np.inf):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DataError, match="pass_gain_spread"):
                gen_multipass(config, 2, gain_spread=spread)

    def test_a_huge_but_finite_gain_spread_still_simulates(self):
        config = small_config(p=3, q=8, n_bins=BLOCK_BINS + 5, seed=11)
        history = gen_multipass(config, 2, gain_spread=1e150)
        assert np.isfinite(history.data).all()

    def test_single_pass_matches_gen_clutter_layout(self):
        config = small_config(seed=10)
        single = gen_multipass(config, 1, shared_calibration=True,
                               unit_gains=True)
        clutter = gen_clutter(config)
        assert np.array_equal(single.data, clutter.data)


def _stream_bits(config, n_passes, pool, **kwargs):
    """(m0, m1, block copy) of every block multipass_blocks yields; the
    blocks live in reused buffers, so each is copied as it comes."""
    return [(m0, m1, block.copy()) for m0, m1, block in
            multipass_blocks(config, n_passes, pool=pool, **kwargs)]


class TestPooledBlocks:
    @settings(max_examples=25, deadline=None)
    @given(n_bins=st.integers(1, 800), n_passes=st.sampled_from([1, 2, 3]),
           threads=st.sampled_from([1, 2, 3]),
           change_fraction=st.sampled_from([0.0, 0.1, 1.0]),
           p=st.integers(1, 3), q=st.integers(1, 8),
           texture=st.sampled_from(["constant", "inverse_gamma"]),
           seed=st.integers(0, 2**32 - 1))
    # a one-bin tail block after full ones, and a lone partial block
    @example(n_bins=2 * BLOCK_BINS + 1, n_passes=2, threads=3,
             change_fraction=0.1, p=2, q=4, texture="inverse_gamma", seed=1)
    @example(n_bins=1, n_passes=3, threads=2, change_fraction=1.0, p=1, q=1,
             texture="constant", seed=0)
    def test_a_pool_yields_the_serial_stream(self, n_bins, n_passes, threads,
                                             change_fraction, p, q, texture,
                                             seed):
        config = SceneConfig(p=p, q=q, n_bins=n_bins,
                             rank_temporal=min(2, q), texture=texture,
                             seed=seed)
        kwargs = dict(change_fraction=change_fraction)
        serial = _stream_bits(config, n_passes, None, **kwargs)
        with WorkerPool(threads) as pool:
            pooled = _stream_bits(config, n_passes, pool, **kwargs)
        assert [(m0, m1) for m0, m1, _ in pooled] == \
            [(m0, m1) for m0, m1, _ in serial]
        for (_, _, got), (_, _, want) in zip(pooled, serial):
            assert np.array_equal(got.view(np.float64),
                                  want.view(np.float64))

    def test_more_threads_than_cores_under_fast_switching(self):
        # the draws hand their buffers and scratch round the pool: with
        # more threads than cores and a switch every microsecond, a
        # buffer reused too early would mix two blocks' draws
        config = SceneConfig(p=3, q=16, n_bins=9 * BLOCK_BINS + 7,
                             rank_temporal=3, texture="inverse_gamma",
                             seed=29)
        kwargs = dict(change_fraction=0.2)
        serial = _stream_bits(config, 2, None, **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            with WorkerPool(6) as pool:
                pooled = _stream_bits(config, 2, pool, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 60
        assert len(pooled) == len(serial) == 10
        for (_, _, got), (_, _, want) in zip(pooled, serial):
            assert np.array_equal(got.view(np.float64),
                                  want.view(np.float64))

    # numpy's errstate does not reach the pool's threads
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflow_in_a_later_block_raises_the_serial_error(self):
        # at this spread bins 256..511 are the first to overflow; the
        # pool draws later blocks too, and may see one of them fail first
        config = SceneConfig(p=2, q=8, n_bins=2000, rank_temporal=2,
                             texture="inverse_gamma", seed=19)
        errors = []
        for threads in (1, 2, 3):
            yielded = []
            with WorkerPool(threads) as pool, \
                    np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DataError) as caught:
                for m0, _, _ in multipass_blocks(config, 2,
                                                 gain_spread=2.3e307,
                                                 pool=pool):
                    yielded.append(m0)
            errors.append((yielded, str(caught.value)))
        assert errors[0][0] == [0]
        assert "bins 256..511" in errors[0][1]
        assert errors[1] == errors[0] and errors[2] == errors[0]
