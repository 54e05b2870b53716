"""Scene generator checks: covariance law, determinism, pass coupling."""

import numpy as np
import pytest

import helpers
from kronstap.errors import DataError, DimensionError
from kronstap.simulate import (
    SceneConfig,
    gen_clutter,
    gen_multipass,
    inject_target,
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
        # bin m's draws are keyed by (seed, m) alone, so without scene
        # change the bin count never reaches back into earlier bins
        short = small_config(n_bins=17, seed=22, texture="inverse_gamma")
        long = small_config(n_bins=40, seed=22, texture="inverse_gamma")
        assert np.array_equal(gen_clutter(short).data,
                              gen_clutter(long).data[:, :17])
        assert np.array_equal(gen_multipass(short, 3).data,
                              gen_multipass(long, 3).data[:, :17])


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

    def test_bad_arguments_are_rejected(self):
        config = small_config()
        with pytest.raises(DimensionError):
            gen_multipass(config, 0)
        with pytest.raises(DataError):
            gen_multipass(config, 2, change_fraction=1.5)

    def test_single_pass_matches_gen_clutter_layout(self):
        config = small_config(seed=10)
        single = gen_multipass(config, 1, shared_calibration=True,
                               unit_gains=True)
        clutter = gen_clutter(config)
        assert np.array_equal(single.data, clutter.data)
