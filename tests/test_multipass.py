import numpy as np
import pytest

import helpers
from kronstap.errors import DimensionError
from kronstap.filters import (
    BLOCK_BINS,
    build_filter,
    make_doppler_grid,
    make_stacked_spatial_grid,
)
from kronstap.lrkron import lr_kron_estimate, sample_covariance
from kronstap.multipass import (
    change_detect,
    multipass_estimate,
    pass_images,
    stack_passes,
    unstack_passes,
)
from kronstap.simulate import SceneConfig, gen_multipass, inject_target


def two_pass_config(**overrides):
    base = dict(p=2, q=8, n_bins=40, rank_temporal=2, noise_power=0.0,
                seed=12)
    base.update(overrides)
    return SceneConfig(**base)


class TestStacking:
    def test_single_pass_stack_is_the_identity(self):
        history = gen_multipass(two_pass_config(), 1)
        stacked = stack_passes(history)
        assert stacked.stacked_channels == history.p
        assert np.array_equal(stacked.data, history.data[0])

    def test_identical_passes_duplicate_the_channel_rows(self):
        history = gen_multipass(two_pass_config(), 2, shared_calibration=True,
                                unit_gains=True)
        stacked = stack_passes(history)
        p = history.p
        assert np.array_equal(stacked.data[:, p:2 * p], stacked.data[:, :p])

    def test_round_trip_is_exact(self):
        config = two_pass_config(noise_power=0.02)
        history = gen_multipass(config, 3)
        history = inject_target(history, 4, 0.3, 1.0 + 2.0j, pass_index=2)
        back = unstack_passes(stack_passes(history))
        assert np.array_equal(back.data, history.data)
        assert back.truth == history.truth

    def test_wrong_types_are_rejected(self):
        with pytest.raises(DimensionError):
            stack_passes(np.zeros((2, 3, 4)))
        with pytest.raises(DimensionError):
            unstack_passes(np.zeros((3, 4)))


class TestMultipassEstimate:
    def test_noiseless_two_pass_spatial_rank_is_two(self):
        history = gen_multipass(two_pass_config(n_bins=60), 2)
        est = multipass_estimate(stack_passes(history), 2)
        values = np.linalg.eigvalsh(est.spatial)[::-1]
        assert values[1] > 1e-6 * values[0]
        assert values[2] <= 1e-8 * values[0]

    def test_identical_passes_collapse_to_rank_one(self):
        history = gen_multipass(two_pass_config(n_bins=60), 2,
                                shared_calibration=True, unit_gains=True)
        est = multipass_estimate(stack_passes(history), 2)
        values = np.linalg.eigvalsh(est.spatial)[::-1]
        assert values[1] <= 1e-8 * values[0]

    def test_single_pass_reduces_to_the_plain_estimator(self):
        config = two_pass_config(noise_power=0.01)
        history = gen_multipass(config, 1)
        stacked = stack_passes(history)
        joint = multipass_estimate(stacked, config.rank_temporal)
        snapshots = history.data[0].reshape(config.n_bins, -1)
        scm = sample_covariance(snapshots, config.p, config.q)
        single = lr_kron_estimate(scm, 1, config.rank_temporal)
        assert np.array_equal(joint.spatial, single.spatial)
        assert np.array_equal(joint.temporal, single.temporal)
        assert joint.iterations == single.iterations

    def test_input_type_is_checked(self):
        with pytest.raises(DimensionError):
            multipass_estimate(np.zeros((4, 4)), 2)


class TestPassImages:
    def test_one_image_per_pass(self):
        config = two_pass_config(n_bins=20)
        history = gen_multipass(config, 2)
        stacked = stack_passes(history)
        est = multipass_estimate(stacked, config.rank_temporal)
        filt = build_filter("kron", estimate=est)
        dopplers = make_doppler_grid(16)
        images = pass_images(filt, stacked, dopplers, spatial_count=8)
        assert len(images) == 2
        for image in images:
            assert image.values.shape == (20, 16)
            assert np.array_equal(image.dopplers, dopplers)

    def test_images_match_a_per_bin_reference(self):
        config = two_pass_config(n_bins=BLOCK_BINS + 30, noise_power=0.01)
        history = gen_multipass(config, 2, change_fraction=0.1)
        stacked = stack_passes(history)
        est = multipass_estimate(stacked, config.rank_temporal)
        filt = build_filter("kron", estimate=est)
        dopplers = make_doppler_grid(16)
        count = 8
        images = pass_images(filt, stacked, dopplers, spatial_count=count)
        grid = make_stacked_spatial_grid(config.p, 2, count)
        temporal = np.exp(2j * np.pi * np.outer(np.arange(config.q), dopplers))
        temporal /= np.sqrt(config.q)
        for k, image in enumerate(images):
            block = grid[k * count:(k + 1) * count].conj()
            expected = np.empty_like(image.values)
            for m in range(stacked.n_bins):
                filtered = filt.apply_matrix(stacked.data[m])
                responses = block @ (filtered @ temporal.conj())
                expected[m] = np.abs(responses).max(axis=0)
            assert np.array_equal(image.values, expected)

    def test_filter_shape_mismatch_is_rejected(self):
        config = two_pass_config(n_bins=10)
        history = gen_multipass(config, 2)
        stacked = stack_passes(history)
        snapshots = history.data[0].reshape(config.n_bins, -1)
        scm = sample_covariance(snapshots, config.p, config.q)
        single = lr_kron_estimate(scm, 1, config.rank_temporal)
        filt = build_filter("kron", estimate=single)
        with pytest.raises(DimensionError):
            pass_images(filt, stacked, make_doppler_grid(8))


class TestChangeDetect:
    def test_identical_passes_give_a_near_zero_map(self):
        config = two_pass_config(n_bins=24)
        history = gen_multipass(config, 2, shared_calibration=True,
                                unit_gains=True)
        stacked = stack_passes(history)
        est = multipass_estimate(stacked, config.rank_temporal)
        filt = build_filter("kron", estimate=est)
        images = pass_images(filt, stacked, make_doppler_grid(16))
        change = change_detect(images[0], images[1])
        # the fitted stacked basis is block-symmetric only to rounding,
        # so the jointly filtered blocks can differ in their last bits
        scale = max(image.values.max() for image in images)
        assert change.values.max() <= max(1e-12, 1e-10 * scale)

    def test_shared_filter_on_identical_passes_is_exactly_zero(self):
        from kronstap.filters import detection_image, make_spatial_grid

        config = two_pass_config(n_bins=24)
        history = gen_multipass(config, 2, shared_calibration=True,
                                unit_gains=True)
        snapshots = history.data[0].reshape(config.n_bins, -1)
        scm = sample_covariance(snapshots, config.p, config.q)
        est = lr_kron_estimate(scm, 1, config.rank_temporal)
        filt = build_filter("kron", estimate=est)
        dopplers = make_doppler_grid(16)
        grid = make_spatial_grid(config.p)
        images = [detection_image(filt, history.data[k], dopplers, grid)
                  for k in range(2)]
        change = change_detect(images[0], images[1])
        assert not change.values.any()

    def test_mission_only_target_peaks_in_the_change_map(self):
        config = two_pass_config(p=3, q=16, n_bins=24, rank_temporal=3,
                                 seed=13)
        history = gen_multipass(config, 2, shared_calibration=True,
                                unit_gains=True)
        target_bin, doppler = 7, 0.25
        history = inject_target(history, target_bin, doppler, 5.0,
                                pass_index=1)
        stacked = stack_passes(history)
        est = multipass_estimate(stacked, config.rank_temporal)
        filt = build_filter("kron", estimate=est)
        dopplers = make_doppler_grid(64)
        images = pass_images(filt, stacked, dopplers)
        change = change_detect(images[0], images[1])
        flat = int(np.argmax(change.values))
        best_bin, best_doppler = np.unravel_index(flat, change.values.shape)
        assert best_bin == target_bin
        assert dopplers[best_doppler] == doppler

    def test_absolute_difference_is_symmetric(self):
        rng = np.random.default_rng(33)
        dopplers = make_doppler_grid(8)
        a = _map(rng.random((5, 8)), dopplers)
        b = _map(rng.random((5, 8)), dopplers)
        forward = change_detect(a, b)
        backward = change_detect(b, a)
        assert np.array_equal(forward.values, backward.values)

    def test_signed_difference_keeps_the_sign(self):
        dopplers = make_doppler_grid(4)
        a = _map(np.full((2, 4), 3.0), dopplers)
        b = _map(np.full((2, 4), 5.0), dopplers)
        signed = change_detect(a, b, signed=True)
        assert np.array_equal(signed.values, np.full((2, 4), -2.0))

    def test_mismatched_inputs_are_rejected(self):
        dopplers = make_doppler_grid(4)
        a = _map(np.zeros((2, 4)), dopplers)
        with pytest.raises(DimensionError):
            change_detect(a, np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            change_detect(a, _map(np.zeros((3, 4)), dopplers))
        with pytest.raises(DimensionError):
            change_detect(a, _map(np.zeros((2, 4)), dopplers + 0.5))


def _map(values, dopplers):
    from kronstap.filters import DetectionMap

    return DetectionMap(np.asarray(values, dtype=np.float64),
                        np.asarray(dopplers), None)
