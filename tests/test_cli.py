"""End-to-end CLI runs: pipelines, exit codes, thread handling."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kronstap import cli, formats, linalg, lrkron, parallel
from kronstap.cli import DATA_ERROR, NO_CONVERGENCE, USAGE_ERROR, main
from kronstap.errors import KronStapError
from kronstap.filters import BLOCK_BINS, build_filter, detection_image, \
    make_doppler_grid, make_spatial_grid
from kronstap.formats import (
    parse_scene_config,
    read_estimate,
    read_phase_history,
    write_detection_csv,
    write_estimate,
    write_phase_history,
)
from kronstap.lrkron import lr_kron_estimate, sample_covariance
from kronstap.multipass import change_detect, multipass_estimate, \
    pass_images, stack_passes
from kronstap.parallel import WorkerPool
from kronstap.simulate import PhaseHistory, gen_clutter, gen_multipass, \
    inject_target, scene_model

CLUTTER_CONFIG = """
p = 3
q = 16
n_bins = 200
r_b = 3
sigma2 = 0.01
seed = 17
"""

TARGET_CONFIG = CLUTTER_CONFIG + "target = 11 0.25 10 0\n"

TWO_PASS_CONFIG = """
p = 3
q = 8
n_bins = 24
r_b = 2
sigma2 = 0.0
seed = 18
K = 2
shared_calibration = yes
unit_pass_gains = yes
"""

# two noisy passes over more bins than one filter block holds
MANY_BIN_TWO_PASS_CONFIG = f"""
p = 2
q = 8
n_bins = {BLOCK_BINS + 44}
r_b = 2
sigma2 = 0.01
seed = 19
K = 2
change_fraction = 0.1
"""
# the same scene in one pass, which takes no pass keys
MANY_BIN_ONE_PASS_CONFIG = MANY_BIN_TWO_PASS_CONFIG.replace(
    "K = 2\nchange_fraction = 0.1\n", "K = 1\n")

# 40 bins of 2 x 64: fewer snapshots than p*q = 128, so the estimator runs
# on the snapshot stack, and q = 64 splits its sweeps into several spans
FEW_SNAPSHOTS_CONFIG = """
p = 2
q = 64
n_bins = 40
r_b = 3
sigma2 = 0.01
seed = 21
target = 7 0.375 10 0
"""

# four blocks of bins, the last a 232-bin tail, two passes with scene
# change and a target in the third block
POOLED_SCENE_CONFIG = """
p = 2
q = 8
n_bins = 1000
r_b = 2
sigma2 = 0.01
seed = 23
K = 2
change_fraction = 0.1
texture = inverse_gamma
target = 600 0.25 3 0
"""

# a gain spread at which bins 256..511 are the first to overflow
OVERFLOW_LATER_CONFIG = """
p = 2
q = 8
n_bins = 2000
r_b = 2
seed = 19
K = 2
texture = inverse_gamma
pass_gain_spread = 2.3e307
"""

SPAN_PATH_CONFIG = """
p = 2
q = 128
n_bins = 8
r_b = 3
seed = 22
"""


def write_config(tmp_path, text, name="scene.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(*args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_writes_a_deterministic_cube(self, tmp_path):
        config = write_config(tmp_path, CLUTTER_CONFIG)
        first, second = tmp_path / "a.kph", tmp_path / "b.kph"
        assert run("simulate", "--config", config, "--output", first) == 0
        assert run("simulate", "--config", config, "--output", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_override_changes_the_bytes(self, tmp_path):
        config = write_config(tmp_path, CLUTTER_CONFIG)
        base, other = tmp_path / "a.kph", tmp_path / "b.kph"
        assert run("simulate", "--config", config, "--output", base) == 0
        assert run("simulate", "--config", config, "--output", other,
                   "--seed", 99) == 0
        assert base.read_bytes() != other.read_bytes()

    def test_targets_land_in_the_truth_section(self, tmp_path):
        config = write_config(tmp_path, TARGET_CONFIG)
        out = tmp_path / "scene.kph"
        assert run("simulate", "--config", config, "--output", out) == 0
        history = read_phase_history(out)
        assert len(history.truth) == 1
        assert history.truth[0].bin_index == 11

    def test_targets_go_into_the_generated_cube_without_a_copy(self,
                                                                tmp_path):
        # 8 MB cube: the parent of this check copied it once per target
        config = write_config(tmp_path, "p = 4\nq = 64\nn_bins = 2048\n"
                              "r_b = 3\nseed = 5\ntarget = 9 0.25 3 0\n")
        out = tmp_path / "scene.kph"
        cube_bytes = 2048 * 4 * 64 * 16
        code, peak, _ = helpers.traced_peak(run, "simulate", "--config",
                                            config, "--output", out)
        assert code == 0
        assert peak < 1.5 * cube_bytes
        history = read_phase_history(out)
        assert history.truth[0].bin_index == 9

    def test_bad_config_is_a_data_error(self, tmp_path):
        config = write_config(tmp_path, "p = 2\nwhat\n")
        code = run("simulate", "--config", config,
                   "--output", tmp_path / "x.kph")
        assert code == DATA_ERROR

    @pytest.mark.parametrize("line, key", [
        ("sigma2 = nan", "sigma2"), ("kappa = inf", "kappa"),
        ("sigma2 = 1e400", "sigma2"), ("seed = -4", "seed"),
        ("texture = inverse_gamma\ntexture_shape = nan", "texture_shape"),
        ("target = 1 nan 1 0", "target"),
        ("n_bins = 1000000000000000", "384,000,000,000,000,000 bytes"),
        ("K = 2\npass_gain_spread = 1e308", "pass_gain_spread"),
        ("change_fraction = 0.1", "line 4: change_fraction"),
        ("K = 1\nunit_pass_gains = yes", "line 5: unit_pass_gains"),
    ])
    def test_bad_scene_values_exit_2_naming_the_key(self, tmp_path, capsys,
                                                    line, key):
        text = "p = 3\nq = 8\nr_b = 2\n" + line + "\n"
        if "n_bins" not in line:
            text += "n_bins = 5\n"
        out = tmp_path / "x.kph"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("simulate", "--config", write_config(tmp_path, text),
                       "--output", out)
        assert code == DATA_ERROR
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, CLUTTER_CONFIG)
        code = run("simulate", "--config", config,
                   "--output", tmp_path / "x.kph", "--seed", -4)
        assert code == DATA_ERROR
        assert "seed" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(values=st.fixed_dictionaries({
        "sigma2": st.floats(allow_nan=True, allow_infinity=True),
        "kappa": st.floats(allow_nan=True, allow_infinity=True),
        "texture_shape": st.floats(allow_nan=True, allow_infinity=True),
        "seed": st.integers(-3, 3),
        "n_bins": st.integers(-1, 6),
        "target": st.tuples(st.integers(-1, 6), st.floats(), st.floats(),
                            st.floats()),
    }), texture=st.sampled_from(["constant", "inverse_gamma"]),
        # a one-pass scene takes no pass keys
        passes=st.one_of(st.just({"K": 1}), st.fixed_dictionaries({
            "K": st.just(2),
            "pass_gain_spread": st.floats(allow_nan=True,
                                          allow_infinity=True)})))
    def test_generated_configs_exit_0_with_a_finite_cube_or_2(
            self, tmp_path_factory, values, texture, passes):
        tmp = tmp_path_factory.mktemp("scene")
        target = " ".join(repr(v) for v in values.pop("target"))
        text = "p = 2\nq = 4\nr_b = 2\n" + "".join(
            f"{key} = {value!r}\n"
            for key, value in {**values, **passes}.items())
        text += f"texture = {texture}\ntarget = {target}\n"
        out = tmp / "x.kph"
        with np.errstate(all="ignore"):
            code = run("simulate", "--config", write_config(tmp, text),
                       "--output", out)
        assert code in (0, DATA_ERROR)
        if code == 0:
            assert np.isfinite(read_phase_history(out).data).all()


class TestEstimate:
    @pytest.fixture()
    def clutter_file(self, tmp_path):
        config = write_config(tmp_path, CLUTTER_CONFIG)
        out = tmp_path / "scene.kph"
        assert run("simulate", "--config", config, "--output", out) == 0
        return out

    def test_spatial_factor_tracks_the_calibration(self, tmp_path,
                                                   clutter_file):
        fit = tmp_path / "fit.kes"
        assert run("estimate", "--input", clutter_file, "--output", fit,
                   "--ra", 1, "--rb", 3) == 0
        est = read_estimate(fit)
        _, vectors = np.linalg.eigh(est.spatial)
        top = vectors[:, -1]
        truth = scene_model(parse_scene_config(CLUTTER_CONFIG).scene)
        h = truth.calibration / np.linalg.norm(truth.calibration)
        angle = np.arccos(min(1.0, abs(np.vdot(top, h))))
        assert angle <= 1e-2

    def test_tighter_tolerance_never_iterates_less(self, tmp_path,
                                                   clutter_file):
        loose, tight = tmp_path / "a.kes", tmp_path / "b.kes"
        assert run("estimate", "--input", clutter_file, "--output", loose,
                   "--ra", 1, "--rb", 3, "--eps", "1e-4") == 0
        assert run("estimate", "--input", clutter_file, "--output", tight,
                   "--ra", 1, "--rb", 3, "--eps", "1e-6") == 0
        assert read_estimate(tight).iterations >= read_estimate(loose).iterations

    def test_thread_count_never_changes_the_bytes(self, tmp_path,
                                                  clutter_file):
        serial, threaded = tmp_path / "a.kes", tmp_path / "b.kes"
        assert run("estimate", "--input", clutter_file, "--output", serial,
                   "--ra", 1, "--rb", 3, "--threads", 1) == 0
        assert run("estimate", "--input", clutter_file, "--output", threaded,
                   "--ra", 1, "--rb", 3, "--threads", 8) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_iteration_cap_reports_no_convergence(self, tmp_path,
                                                  clutter_file):
        fit = tmp_path / "fit.kes"
        code = run("estimate", "--input", clutter_file, "--output", fit,
                   "--ra", 1, "--rb", 3, "--eps", "1e-14", "--max-iter", 1)
        assert code == NO_CONVERGENCE
        assert fit.exists()
        assert read_estimate(fit).converged is False

    def test_missing_input_is_a_data_error(self, tmp_path):
        code = run("estimate", "--input", tmp_path / "nope.kph",
                   "--output", tmp_path / "fit.kes", "--ra", 1, "--rb", 2)
        assert code == DATA_ERROR

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_a_nan_or_infinite_eps_exits_2_naming_the_flag(
            self, tmp_path, capsys, clutter_file, eps):
        fit = tmp_path / "fit.kes"
        code = run("estimate", "--input", clutter_file, "--output", fit,
                   "--ra", 1, "--rb", 3, "--eps", eps, "--max-iter", 7)
        assert code == DATA_ERROR
        assert f"--eps {eps}" in capsys.readouterr().err
        assert not fit.exists()

    def test_a_negative_infinite_eps_runs_max_iter(self, tmp_path,
                                                   clutter_file):
        fit = tmp_path / "fit.kes"
        code = run("estimate", "--input", clutter_file, "--output", fit,
                   "--ra", 1, "--rb", 3, "--eps=-inf", "--max-iter", 3)
        assert code == NO_CONVERGENCE
        assert read_estimate(fit).iterations == 3

    @pytest.mark.parametrize("eps", ["-1e-3", "-inf", "-.5", "-1"])
    @pytest.mark.parametrize("joined", [False, True])
    def test_a_negative_eps_parses_in_either_spelling(self, tmp_path,
                                                      clutter_file, eps,
                                                      joined):
        # a negative eps, in any float spelling, disables the stall check
        fit = tmp_path / "fit.kes"
        flag = [f"--eps={eps}"] if joined else ["--eps", eps]
        code = run("estimate", "--input", clutter_file, "--output", fit,
                   "--ra", 1, "--rb", 3, *flag, "--max-iter", 3)
        assert code == NO_CONVERGENCE
        assert read_estimate(fit).iterations == 3

    @pytest.mark.parametrize("n, scale", [(10, 2e76), (300, 5e76)],
                             ids=["snapshots", "dense"])
    def test_an_overflowing_fit_exits_2_and_writes_nothing(
            self, tmp_path, capsys, n, scale):
        # exit 3 with a KES2 that read_estimate refuses, at the parent
        x = helpers.complex_gauss(np.random.default_rng(86), (n, 4, 64))
        cube = tmp_path / "huge.kph"
        write_phase_history(cube, PhaseHistory(4, 64, 1, x[None] * scale))
        fit = tmp_path / "fit.kes"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("estimate", "--input", cube, "--output", fit,
                       "--ra", 1, "--rb", 3)
        assert code == DATA_ERROR
        assert "snapshot scale" in capsys.readouterr().err
        assert _files(tmp_path) == ["huge.kph"]

    @pytest.mark.parametrize("n_bins, stage", [(40, "_snapshot_sweeps"),
                                               (300, "_outer_average")])
    def test_a_fit_numpy_cannot_allocate_exits_2_with_its_working_set(
            self, tmp_path, capsys, monkeypatch, n_bins, stage):
        config = write_config(tmp_path, f"p = 2\nq = 64\nn_bins = {n_bins}"
                                        f"\nr_b = 3\nseed = 24\n")
        cube, fit = tmp_path / "scene.kph", tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", cube) == 0

        def refused(*args):
            raise MemoryError("refused")

        monkeypatch.setattr(lrkron, stage, refused)
        assert run("estimate", "--input", cube, "--output", fit,
                   "--ra", 1, "--rb", 3) == DATA_ERROR
        path, need = lrkron.working_set(n_bins, 2, 64)
        assert path == ("snapshot" if n_bins < 128 else "dense")
        err = capsys.readouterr().err
        assert f"the {path} path's fit of {n_bins} snapshots" in err
        assert f"{need:,} bytes" in err
        assert _files(tmp_path) == ["scene.cfg", "scene.kph"]

    def test_the_file_carries_the_residual_history(self, tmp_path,
                                                   clutter_file):
        fit = tmp_path / "fit.kes"
        assert run("estimate", "--input", clutter_file, "--output", fit,
                   "--ra", 1, "--rb", 3) == 0
        history = helpers.read_residuals_csv(str(fit) + ".residuals.csv")
        assert read_estimate(fit).residuals == history


class TestFilterAndDetect:
    @pytest.fixture()
    def fitted_scene(self, tmp_path):
        config = write_config(tmp_path, CLUTTER_CONFIG)
        clean = tmp_path / "clean.kph"
        fit = tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", clean) == 0
        assert run("estimate", "--input", clean, "--output", fit,
                   "--ra", 1, "--rb", 3) == 0
        return clean, fit

    def test_filter_strips_most_of_the_clutter_energy(self, tmp_path,
                                                      fitted_scene):
        clean, fit = fitted_scene
        out = tmp_path / "filtered.kph"
        assert run("filter", "--input", clean, "--estimate", fit,
                   "--output", out) == 0
        before = read_phase_history(clean)
        after = read_phase_history(out)
        assert np.linalg.norm(after.data) <= 0.2 * np.linalg.norm(before.data)

    def test_planted_target_wins_the_argmax(self, tmp_path, fitted_scene):
        _, fit = fitted_scene
        config = write_config(tmp_path, TARGET_CONFIG, "target.cfg")
        dirty = tmp_path / "dirty.kph"
        assert run("simulate", "--config", config, "--output", dirty) == 0
        out = tmp_path / "map.csv"
        assert run("detect", "--input", dirty, "--estimate", fit,
                   "--output", out) == 0
        image = helpers.read_detection_csv(out)
        flat = int(np.argmax(image.values))
        best_bin, best_doppler = np.unravel_index(flat, image.values.shape)
        assert best_bin == 11
        assert image.dopplers[best_doppler] == 0.25

    def test_planted_target_clears_the_clutter_floor_tenfold(self, tmp_path,
                                                             fitted_scene):
        clean, fit = fitted_scene
        config = write_config(tmp_path, TARGET_CONFIG, "target.cfg")
        dirty = tmp_path / "dirty.kph"
        assert run("simulate", "--config", config, "--output", dirty) == 0
        clean_map = tmp_path / "clean.csv"
        dirty_map = tmp_path / "dirty.csv"
        assert run("detect", "--input", clean, "--estimate", fit,
                   "--output", clean_map) == 0
        assert run("detect", "--input", dirty, "--estimate", fit,
                   "--output", dirty_map) == 0
        floor = helpers.read_detection_csv(clean_map).values.max()
        peak = helpers.read_detection_csv(dirty_map).values.max()
        assert peak >= 10.0 * floor

    def test_pgm_sidecar_is_written(self, tmp_path, fitted_scene):
        clean, fit = fitted_scene
        out = tmp_path / "map.csv"
        pgm = tmp_path / "map.pgm"
        assert run("detect", "--input", clean, "--estimate", fit,
                   "--output", out, "--pgm", pgm) == 0
        assert pgm.read_bytes().startswith(b"P5\n")

    def test_dimension_mismatch_is_a_data_error(self, tmp_path, fitted_scene):
        _, fit = fitted_scene
        other = write_config(tmp_path, "p = 2\nq = 8\nn_bins = 10\nr_b = 2\n",
                             "other.cfg")
        small = tmp_path / "small.kph"
        assert run("simulate", "--config", other, "--output", small) == 0
        code = run("detect", "--input", small, "--estimate", fit,
                   "--output", tmp_path / "map.csv")
        assert code == DATA_ERROR

    @pytest.mark.parametrize("flag", ["--grid-doppler", "--grid-spatial"])
    def test_an_unallocatable_grid_exits_2_naming_the_flag(self, tmp_path,
                                                           capsys,
                                                           fitted_scene,
                                                           flag):
        # 2**62 cells overflow numpy's byte count, so nothing is allocated
        clean, fit = fitted_scene
        out = tmp_path / "map.csv"
        count = 2 ** 62
        code = run("detect", "--input", clean, "--estimate", fit,
                   "--output", out, flag, count)
        assert code == DATA_ERROR
        assert f"{flag} {count}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ranks", [(0, 0), (99, 99)])
    def test_rank_budget_outside_the_dims_is_a_data_error(self, tmp_path,
                                                          fitted_scene,
                                                          ranks):
        # a KES2 rank budget is its stored pair count, so the file is
        # built by hand with as many (zero) pairs as the header says
        clean, fit = fitted_scene
        pairs = [(np.zeros(rank), np.zeros((dim, rank), complex))
                 for dim, rank in zip((3, 16), ranks)]
        bad = tmp_path / "bad.kes"
        bad.write_bytes(helpers.kes2_bytes(*pairs))
        out = tmp_path / "filtered.kph"
        code = run("filter", "--input", clean, "--estimate", bad,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filter", "detect"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cube_is_a_data_error(self, tmp_path, fitted_scene,
                                             command, bad):
        clean, fit = fitted_scene
        history = read_phase_history(clean)
        history.data[0, 150, 2, 5] = bad
        broken = tmp_path / "broken.kph"
        write_phase_history(broken, history)
        out = tmp_path / "out"
        code = run(command, "--input", broken, "--estimate", fit,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filter", "detect"])
    def test_negated_factors_are_a_data_error(self, tmp_path, fitted_scene,
                                              command):
        # (-A) x (-B) = A x B, but a negative semidefinite factor leaves
        # only rounding noise as its "top" eigen-direction. Its pairs are
        # the negated values, in descending order, and their vectors
        clean, fit = fitted_scene
        est = read_estimate(fit)
        bad = tmp_path / "negated.kes"
        bad.write_bytes(helpers.kes2_bytes(negated(est.spatial_pairs),
                                           negated(est.temporal_pairs)))
        out = tmp_path / "out"
        code = run(command, "--input", clean, "--estimate", bad,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filter", "detect"])
    def test_non_finite_factor_is_a_data_error(self, tmp_path, fitted_scene,
                                               command):
        clean, fit = fitted_scene
        est = read_estimate(fit)
        values, vectors = est.temporal_pairs
        vectors = vectors.copy()
        vectors[2, 2] = np.nan
        bad = tmp_path / "nan.kes"
        bad.write_bytes(helpers.kes2_bytes(est.spatial_pairs,
                                           (values, vectors)))
        out = tmp_path / "out"
        code = run(command, "--input", clean, "--estimate", bad,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()


def negated(pairs):
    """The eigenpairs of a negated factor, values descending."""
    values, vectors = pairs
    return -values[::-1], vectors[:, ::-1]


class TestDamagedEstimateFile:
    """A truncated or bit-flipped KES file never crashes filter or detect."""

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        # q = 24 at r_b = 2: a 24 x 2 temporal factor in the file
        tmp = tmp_path_factory.mktemp("damaged")
        config = write_config(tmp, "p = 2\nq = 24\nn_bins = 30\nr_b = 2\n"
                                   "sigma2 = 0.01\nseed = 23\n")
        scene = tmp / "scene.kph"
        fit = tmp / "fit.kes"
        assert run("simulate", "--config", config, "--output", scene) == 0
        assert run("estimate", "--input", scene, "--output", fit,
                   "--ra", 1, "--rb", 2) == 0
        return tmp, scene, fit.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_filter_and_detect_exit_0_or_2(self, fitted, data):
        tmp, scene, blob = fitted
        if data.draw(st.booleans()):
            damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged = bytes(flipped)
        path = tmp / "damaged.kes"
        path.write_bytes(damaged)
        try:
            read_estimate(path)
            readable = True
        except KronStapError:
            readable = False
        for command in ("filter", "detect"):
            code = run(command, "--input", scene, "--estimate", path,
                       "--output", tmp / f"out.{command}")
            assert code in (0, DATA_ERROR)
            if not readable:
                assert code == DATA_ERROR

    @pytest.mark.parametrize("command", ["filter", "detect"])
    def test_a_negated_temporal_factor_exits_2(self, fitted, command):
        # the negated 24 x 2 temporal pairs are refused where they are
        # read, before any filter is built
        tmp, scene, _ = fitted
        est = read_estimate(tmp / "fit.kes")
        bad = tmp / "negated.kes"
        bad.write_bytes(helpers.kes2_bytes(est.spatial_pairs,
                                           negated(est.temporal_pairs)))
        out = tmp / "negated.out"
        code = run(command, "--input", scene, "--estimate", bad,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()


def hand_built_cases(est):
    """(name, KES2 bytes) of files filter and detect must refuse, each
    from the pairs of a good estimate with one thing broken."""
    s, t = est.spatial_pairs, est.temporal_pairs
    good = helpers.kes2_bytes(s, t)
    tv, tu = t

    def temporal(values=tv, vectors=tu):
        return helpers.kes2_bytes(s, (values, vectors))

    skewed = tu.copy()
    skewed[:, 1] += 1e-6 * tu[:, 0]
    below_clamp = tv.copy()
    below_clamp[-1] = -1e-8 * tv[0]
    nan_value = tv.copy()
    nan_value[1] = np.nan
    zero = (np.zeros(0), np.zeros((tu.shape[0], 0), complex))
    q = tu.shape[0]
    wide = (np.zeros(q + 1), np.zeros((q, q + 1), complex))
    return [
        ("non-orthonormal vectors", temporal(vectors=skewed)),
        ("ascending values", temporal(values=tv[::-1].copy())),
        ("negative beyond the clamp", temporal(values=below_clamp)),
        ("NaN value", temporal(values=nan_value)),
        ("rank 0", helpers.kes2_bytes(s, zero)),
        ("rank above dim", helpers.kes2_bytes(s, wide)),
        ("truncated payload", good[:-1]),
        ("trailing bytes", good + bytes(8)),
        ("KES1", b"KES1" + good[4:]),
    ]


class TestHandBuiltEstimateFiles:
    """KES2 files damaged in each way read_estimate checks for."""

    CASES = ["non-orthonormal vectors", "ascending values",
             "negative beyond the clamp", "NaN value", "rank 0",
             "rank above dim", "truncated payload", "trailing bytes", "KES1"]

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("hand-built")
        config = write_config(tmp, CLUTTER_CONFIG)
        scene = tmp / "scene.kph"
        fit = tmp / "fit.kes"
        assert run("simulate", "--config", config, "--output", scene) == 0
        assert run("estimate", "--input", scene, "--output", fit,
                   "--ra", 1, "--rb", 3) == 0
        cases = dict(hand_built_cases(read_estimate(fit)))
        assert list(cases) == self.CASES
        return tmp, scene, cases

    def test_the_good_file_is_the_estimate_file(self, fitted):
        # the cases break a file that is, byte for byte, the real one
        tmp, _, _ = fitted
        est = read_estimate(tmp / "fit.kes")
        assert helpers.kes2_bytes(est.spatial_pairs, est.temporal_pairs,
                                  iterations=est.iterations,
                                  converged=int(est.converged),
                                  residuals=est.residuals) == \
            (tmp / "fit.kes").read_bytes()

    @pytest.mark.parametrize("command", ["filter", "detect"])
    @pytest.mark.parametrize("case", CASES)
    def test_filter_and_detect_exit_2(self, fitted, capsys, command, case):
        tmp, scene, cases = fitted
        path = tmp / "bad.kes"
        path.write_bytes(cases[case])
        out = tmp / f"out.{command}"
        out.unlink(missing_ok=True)
        code = run(command, "--input", scene, "--estimate", path,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()
        if case == "KES1":
            assert "re-run `kronstap estimate`" in capsys.readouterr().err


class TestNoSolveAfterEstimate:
    """filter and detect read the estimator's pairs and use them as they
    are: no eigensolve, no QR, no q x q array."""

    # q = 512 >= 4 * (rank + 4), and 2 * 24 snapshot rows keep the fit
    # on the span path; the cube is 24 * 2 * 512 entries, well below the
    # q x q factor's 512 * 512
    CONFIG = "p = 2\nq = 512\nn_bins = 24\nr_b = 4\nseed = 7\n" \
             "target = 5 0.375 3 0\n"

    @pytest.mark.parametrize("command", ["filter", "detect"])
    def test_no_eigensolve_and_no_q_by_q_array(self, tmp_path, monkeypatch,
                                               command):
        config = write_config(tmp_path, self.CONFIG)
        scene, fit = tmp_path / "scene.kph", tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", scene) == 0
        assert run("estimate", "--input", scene, "--output", fit,
                   "--ra", 1, "--rb", 4) == 0
        calls = []
        for name in ("eigh", "qr", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        # detect's Doppler operators are q x D: 8 cells keep them far
        # below a q x q array
        extra = ["--grid-doppler", 8] if command == "detect" else []
        q = 512
        code, peak, _ = helpers.traced_peak(
            run, command, "--input", scene, "--estimate", fit,
            "--output", tmp_path / "out", *extra)
        assert code == 0
        assert calls == []
        assert peak < q * q * 16 / 2


class TestNoHermitianCheckInThePipeline:
    """No stage runs linalg._hermitian_part: every matrix a stage uses
    is made or read checked, so only library callers reach the check."""

    @pytest.mark.parametrize("config, ranks, detect_flags", [
        ("p = 2\nq = 8\nn_bins = 24\nr_b = 2\nseed = 7\n", (1, 2), []),
        (FEW_SNAPSHOTS_CONFIG, (1, 3), []),
        (TWO_PASS_CONFIG, (2, 2), ["--multipass"]),
    ], ids=["dense", "snapshots", "multipass"])
    def test_simulate_to_detect_never_calls_it(self, tmp_path, monkeypatch,
                                               config, ranks, detect_flags):
        calls = []
        original = linalg._hermitian_part

        def counted(m, name):
            calls.append(name)
            return original(m, name)

        for module in (linalg, lrkron):
            monkeypatch.setattr(module, "_hermitian_part", counted)
        scene, fit = tmp_path / "scene.kph", tmp_path / "fit.kes"
        assert run("simulate", "--config", write_config(tmp_path, config),
                   "--output", scene) == 0
        assert run("estimate", "--input", scene, "--output", fit,
                   "--ra", ranks[0], "--rb", ranks[1]) == 0
        assert run("filter", "--input", scene, "--estimate", fit,
                   "--output", tmp_path / "filtered.kph") == 0
        assert run("detect", "--input", scene, "--estimate", fit,
                   "--output", tmp_path / "map.csv", *detect_flags) == 0
        assert calls == []


class TestThreadInvariance:
    def test_few_snapshot_pipeline_bytes_do_not_depend_on_threads(self,
                                                                  tmp_path):
        config = write_config(tmp_path, FEW_SNAPSHOTS_CONFIG)
        artifacts = {}
        for threads in (1, 4):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            assert run("simulate", "--config", config,
                       "--output", out / "scene.kph", "--threads", threads) == 0
            assert run("estimate", "--input", out / "scene.kph",
                       "--output", out / "fit.kes", "--ra", 1, "--rb", 3,
                       "--threads", threads) == 0
            assert run("filter", "--input", out / "scene.kph",
                       "--estimate", out / "fit.kes",
                       "--output", out / "filtered.kph",
                       "--threads", threads) == 0
            assert run("detect", "--input", out / "scene.kph",
                       "--estimate", out / "fit.kes", "--output", out / "map.csv",
                       "--pgm", out / "map.pgm", "--threads", threads) == 0
            artifacts[threads] = {path.name: path.read_bytes()
                                  for path in sorted(out.iterdir())}
        assert len(artifacts[1]) == 6
        assert artifacts[1] == artifacts[4]


    def test_span_truncated_fit_does_not_depend_on_threads(self, tmp_path,
                                                           monkeypatch):
        # 4 * p * n_bins <= q: the temporal truncation runs on the
        # snapshots' span, not the q x q eigensolve
        config = write_config(tmp_path, SPAN_PATH_CONFIG)
        scene = tmp_path / "scene.kph"
        assert run("simulate", "--config", config, "--output", scene) == 0
        full = helpers.CountFullSolves(monkeypatch)
        fits = []
        for threads in (1, 4):
            out = tmp_path / f"fit{threads}.kes"
            assert run("estimate", "--input", scene, "--output", out,
                       "--ra", 1, "--rb", 3, "--threads", threads) == 0
            fits.append(out.read_bytes())
        assert 128 not in full.sizes
        assert fits[0] == fits[1]

    def test_dense_fit_does_not_depend_on_blas_threads(self, tmp_path):
        # 512 bins of 4 x 64 >= p*q = 256 snapshots: the dense path, whose
        # ||S||_F over 65 536 entries must not be a BLAS dot, as its
        # partial sums split by BLAS thread (on this scene a BLAS dot
        # wrote different residuals under 1 and 2 threads). OpenBLAS
        # reads its thread count when it loads, so each count needs its
        # own interpreter.
        config = write_config(tmp_path, "p = 4\nq = 64\nn_bins = 512\n"
                              "r_b = 3\ntexture = inverse_gamma\nseed = 20\n")
        scene = tmp_path / "scene.kph"
        assert run("simulate", "--config", config, "--output", scene) == 0
        outputs = []
        for threads in (1, 2):
            fit = tmp_path / f"fit{threads}.kes"
            done = helpers.run_cli_child(
                "estimate", "--input", scene, "--output", fit,
                "--ra", 1, "--rb", 3, blas_threads=threads)
            assert done.returncode == 0, done.stderr
            residuals = tmp_path / f"fit{threads}.kes.residuals.csv"
            outputs.append((fit.read_bytes(), residuals.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_pooled_scene_does_not_depend_on_blas_threads(self, tmp_path):
        # simulate --threads 2 holds OpenBLAS at one thread, whatever it
        # started with; its speckle GEMMs would give the same bits anyway
        config = write_config(tmp_path, POOLED_SCENE_CONFIG)
        scenes = []
        for threads in (1, 2):
            scene = tmp_path / f"scene{threads}.kph"
            done = helpers.run_cli_child(
                "simulate", "--config", config, "--output", scene,
                "--threads", 2, blas_threads=threads)
            assert done.returncode == 0, done.stderr
            scenes.append(scene.read_bytes())
        assert scenes[0] == scenes[1]


class TestSimulatePool:
    """simulate draws its blocks on the --threads pool, with OpenBLAS
    held at one thread while it runs."""

    @pytest.fixture()
    def blas(self):
        calls = parallel._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread calls")
        get, set_ = calls
        old = get()
        set_(2)
        yield get
        set_(old)

    def test_scene_bytes_do_not_depend_on_threads(self, tmp_path):
        config = write_config(tmp_path, POOLED_SCENE_CONFIG)
        scenes = []
        for threads in (1, 2, 3):
            scene = tmp_path / f"scene{threads}.kph"
            assert run("simulate", "--config", config, "--output", scene,
                       "--threads", threads) == 0
            scenes.append(scene.read_bytes())
        assert scenes[0] == scenes[1] == scenes[2]

    def test_the_pool_runs_pinned_and_leaves_nothing_behind(
            self, tmp_path, monkeypatch, blas):
        # the target's block is handed to the calling thread while the
        # pool draws the next ones
        counts = []
        add_target = cli._add_target

        def recorded(*args, **kwargs):
            counts.append(blas())
            return add_target(*args, **kwargs)

        monkeypatch.setattr(cli, "_add_target", recorded)
        config = write_config(tmp_path, POOLED_SCENE_CONFIG)
        before = threading.active_count()
        assert run("simulate", "--config", config, "--output",
                   tmp_path / "pooled.kph", "--threads", 2) == 0
        assert counts == [1]
        assert blas() == 2
        assert threading.active_count() == before
        counts.clear()
        assert run("simulate", "--config", config, "--output",
                   tmp_path / "serial.kph", "--threads", 1) == 0
        assert counts == [1]
        assert blas() == 2

    # numpy's errstate does not reach the pool's threads
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failure_mid_stream_leaves_nothing_behind(self, tmp_path,
                                                        capsys, blas):
        # bins 256..511 are the first to overflow at this spread, on a
        # pool thread, while the calling thread writes bins 0..255
        config = write_config(tmp_path, OVERFLOW_LATER_CONFIG)
        before = threading.active_count()
        messages = []
        for threads in (1, 2, 3):
            out = tmp_path / f"scene{threads}.kph"
            assert run("simulate", "--config", config, "--output", out,
                       "--threads", threads) == DATA_ERROR
            assert not out.exists()
            assert blas() == 2
            assert threading.active_count() == before
            messages.append(capsys.readouterr().err)
        assert "bins 256..511" in messages[0]
        assert messages[1] == messages[0] and messages[2] == messages[0]

    def test_without_the_blas_symbols_the_bytes_stay(self, tmp_path,
                                                      monkeypatch):
        config = write_config(tmp_path, POOLED_SCENE_CONFIG)
        pinned, unpinned = tmp_path / "pinned.kph", tmp_path / "unpinned.kph"
        assert run("simulate", "--config", config, "--output", pinned,
                   "--threads", 2) == 0
        monkeypatch.setattr(parallel, "_blas_thread_calls", lambda: None)
        assert run("simulate", "--config", config, "--output", unpinned,
                   "--threads", 2) == 0
        assert pinned.read_bytes() == unpinned.read_bytes()


class TestParallelSite:
    """The estimator's snapshot sweeps are the one place WorkerPool.run
    runs; simulate's block pool goes through WorkerPool.ordered."""

    @pytest.fixture()
    def pool_runs(self, monkeypatch):
        runs = []
        original = WorkerPool.run

        def counted(pool, fn, spans):
            runs.append(len(spans))
            return original(pool, fn, spans)

        monkeypatch.setattr(WorkerPool, "run", counted)
        return runs

    @pytest.mark.parametrize("config_text, ra, multipass", [
        (TARGET_CONFIG, 1, False),
        (MANY_BIN_TWO_PASS_CONFIG, 2, True),
    ], ids=["single-pass", "multipass"])
    def test_dense_pipeline_runs_no_pool(self, tmp_path, pool_runs,
                                         config_text, ra, multipass):
        config = write_config(tmp_path, config_text)
        cube, fit = tmp_path / "scene.kph", tmp_path / "fit.kes"
        detect_flags = ["--multipass"] if multipass else []
        stages = [
            ["simulate", "--config", config, "--output", cube],
            ["estimate", "--input", cube, "--output", fit,
             "--ra", ra, "--rb", 2],
            ["filter", "--input", cube, "--estimate", fit,
             "--output", tmp_path / "filtered.kph"],
            ["detect", "--input", cube, "--estimate", fit,
             "--output", tmp_path / "map.csv", *detect_flags],
        ]
        for stage in stages:
            assert run(*stage, "--threads", 4) == 0
            assert pool_runs == [], stage[0]

    def test_few_snapshot_estimate_runs_the_pool(self, tmp_path, pool_runs):
        config = write_config(tmp_path, FEW_SNAPSHOTS_CONFIG)
        cube = tmp_path / "scene.kph"
        assert run("simulate", "--config", config, "--output", cube,
                   "--threads", 4) == 0
        assert pool_runs == []
        assert run("estimate", "--input", cube, "--output",
                   tmp_path / "fit.kes", "--ra", 1, "--rb", 3,
                   "--threads", 4) == 0
        assert len(pool_runs) >= 1


class TestMultipassCli:
    @pytest.fixture()
    def stacked_scene(self, tmp_path):
        config = write_config(tmp_path, TWO_PASS_CONFIG)
        cube = tmp_path / "passes.kph"
        fit = tmp_path / "joint.kes"
        assert run("simulate", "--config", config, "--output", cube) == 0
        assert run("estimate", "--input", cube, "--output", fit,
                   "--ra", 2, "--rb", 2) == 0
        return cube, fit

    def test_identical_passes_change_map_is_zero(self, tmp_path,
                                                 stacked_scene):
        cube, fit = stacked_scene
        out = tmp_path / "change.csv"
        assert run("detect", "--input", cube, "--estimate", fit,
                   "--output", out, "--multipass") == 0
        change = helpers.read_detection_csv(out)
        # identical passes cancel; rounding of the joint filter can leave
        # denormal-scale residue
        assert change.values.max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cube_is_a_data_error(self, tmp_path, stacked_scene,
                                             bad):
        cube, fit = stacked_scene
        history = read_phase_history(cube)
        history.data[1, 20, 2, 5] = bad
        broken = tmp_path / "broken.kph"
        write_phase_history(broken, history)
        out = tmp_path / "change.csv"
        code = run("detect", "--input", broken, "--estimate", fit,
                   "--output", out, "--multipass")
        assert code == DATA_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--grid-doppler", "--grid-spatial"])
    def test_an_unallocatable_grid_exits_2_naming_the_flag(self, tmp_path,
                                                           capsys,
                                                           stacked_scene,
                                                           flag):
        cube, fit = stacked_scene
        out = tmp_path / "change.csv"
        count = 2 ** 62
        code = run("detect", "--input", cube, "--estimate", fit,
                   "--output", out, "--multipass", flag, count)
        assert code == DATA_ERROR
        assert f"{flag} {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_multipass_flag_is_required_for_stacks(self, tmp_path,
                                                   stacked_scene):
        cube, fit = stacked_scene
        code = run("detect", "--input", cube, "--estimate", fit,
                   "--output", tmp_path / "map.csv")
        assert code == DATA_ERROR

    def test_stacked_filter_round_trips_the_cube_shape(self, tmp_path,
                                                       stacked_scene):
        cube, fit = stacked_scene
        out = tmp_path / "filtered.kph"
        assert run("filter", "--input", cube, "--estimate", fit,
                   "--output", out) == 0
        history = read_phase_history(out)
        assert history.n_passes == 2
        assert history.data.shape == read_phase_history(cube).data.shape

    @pytest.mark.parametrize("stacked", [True, False])
    def test_filter_matches_per_bin_filtering(self, tmp_path, stacked):
        config = write_config(tmp_path, MANY_BIN_TWO_PASS_CONFIG)
        cube = tmp_path / "passes.kph"
        fit = tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", cube) == 0
        if stacked:
            assert run("estimate", "--input", cube, "--output", fit,
                       "--ra", 2, "--rb", 2) == 0
        else:
            # a single-pass fit of the same shape filters each pass alone
            single = write_config(tmp_path, MANY_BIN_ONE_PASS_CONFIG,
                                  "single.cfg")
            assert run("simulate", "--config", single,
                       "--output", tmp_path / "single.kph") == 0
            assert run("estimate", "--input", tmp_path / "single.kph",
                       "--output", fit, "--ra", 1, "--rb", 2) == 0
        out = tmp_path / "filtered.kph"
        assert run("filter", "--input", cube, "--estimate", fit,
                   "--output", out) == 0
        history = read_phase_history(cube)
        filt = build_filter("kron", estimate=read_estimate(fit))
        k, n_bins, p, q = history.data.shape
        stack = stack_passes(history).data
        expected = np.empty_like(history.data)
        for m in range(n_bins):
            if stacked:
                expected[:, m] = filt.apply_matrix(stack[m]).reshape(k, p, q)
            else:
                for pass_index in range(k):
                    expected[pass_index, m] = filt.apply_matrix(
                        history.data[pass_index, m])
        assert np.array_equal(read_phase_history(out).data, expected)


class TestDenseMultipassEstimate:
    """More bins than K*p*q: the covariance is built from the pass cube."""

    @pytest.fixture()
    def cube(self, tmp_path):
        config = write_config(tmp_path, MANY_BIN_TWO_PASS_CONFIG)
        cube = tmp_path / "passes.kph"
        assert run("simulate", "--config", config, "--output", cube) == 0
        return cube

    @staticmethod
    def estimate(cube, fit, *extra):
        return run("estimate", "--input", cube, "--output", fit,
                   "--ra", 2, "--rb", 2, *extra)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cube_is_a_data_error(self, tmp_path, cube, bad):
        history = read_phase_history(cube)
        history.data[1, 123, 1, 5] = bad
        broken = tmp_path / "broken.kph"
        write_phase_history(broken, history)
        fit = tmp_path / "fit.kes"
        with np.errstate(invalid="ignore"):
            assert self.estimate(broken, fit) == DATA_ERROR
        assert not fit.exists()

    def test_thread_count_never_changes_the_bytes(self, tmp_path, cube):
        fits = []
        for threads in (1, 2):
            fit = tmp_path / f"fit{threads}.kes"
            assert self.estimate(cube, fit, "--threads", threads) == 0
            fits.append(fit.read_bytes())
        assert fits[0] == fits[1]

    def test_narrower_tiles_give_the_same_bytes(self, tmp_path, cube,
                                                monkeypatch):
        # p*q = 16 per pass: one tile per pass, or two of 8 columns
        whole, tiled = tmp_path / "whole.kes", tmp_path / "tiled.kes"
        assert self.estimate(cube, whole) == 0
        monkeypatch.setattr(lrkron, "_COV_TILE", 8)
        assert self.estimate(cube, tiled) == 0
        assert tiled.read_bytes() == whole.read_bytes()

    def test_filter_works_in_place(self, tmp_path):
        # 4096 bins of 2 passes x 2 x 64. The filter reads the cube,
        # writes each filtered block back into it and writes it out: a
        # peak of one cube plus a few 1 MB block temporaries, 1.3 cubes
        # here; a second cube for the output would take it past 2
        config = write_config(tmp_path, "p = 2\nq = 64\nn_bins = 4096\n"
                              "r_b = 2\nseed = 25\nK = 2\n")
        cube, fit = tmp_path / "passes.kph", tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", cube) == 0
        assert self.estimate(cube, fit) == 0
        cube_bytes = 2 * 4096 * 2 * 64 * 16
        code, peak, _ = helpers.traced_peak(
            run, "filter", "--input", cube, "--estimate", fit,
            "--output", tmp_path / "filtered.kph")
        assert code == 0
        assert peak < 1.5 * cube_bytes

    def test_estimate_makes_no_cube_sized_copy(self, tmp_path):
        # 1024 bins of 2 passes x 2 x 64. Besides the cube, estimate
        # holds the 256 x 256 matrix and tile-sized temporaries, a peak
        # of 1.55 cubes; a stacked or a conjugated copy of the whole
        # cube would take it past 2.25
        config = write_config(tmp_path, "p = 2\nq = 64\nn_bins = 1024\n"
                              "r_b = 2\nseed = 23\nK = 2\n")
        cube = tmp_path / "passes.kph"
        assert run("simulate", "--config", config, "--output", cube) == 0
        cube_bytes = 2 * 1024 * 2 * 64 * 16
        code, peak, _ = helpers.traced_peak(self.estimate, cube,
                                            tmp_path / "fit.kes")
        assert code == 0
        assert peak < 2.25 * cube_bytes


class TestBenchCli:
    def test_sweep_file_runs_and_reports(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("# tiny sweep\nrow = 2 16 1 1e-4\nrow = 2 16 1 1e-6\n")
        out = tmp_path / "bench.csv"
        assert run("bench", "--sweep", sweep, "--output", out,
                   "--trials", 2) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,q,n,eps,threads,trial,iterations,seconds,eta_final"
        assert len(lines) == 1 + 2 * 2
        stdout = capsys.readouterr().out
        assert "mean" in stdout

    def test_sweep_selection_must_be_unambiguous(self, tmp_path):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("row = 2 16 1 1e-4\n")
        out = tmp_path / "bench.csv"
        assert run("bench", "--output", out) == DATA_ERROR
        assert run("bench", "--output", out, "--sweep", sweep,
                   "--default-sweep") == DATA_ERROR

    def test_threads_flag_is_a_usage_error(self, tmp_path, monkeypatch):
        # pool widths come from the sweep rows; an ignored flag would lie
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("row = 2 16 1 1e-4\n")
        out = tmp_path / "bench.csv"
        assert run("bench", "--sweep", sweep, "--output", out,
                   "--trials", 1, "--threads", 2) == USAGE_ERROR
        assert not out.exists()
        # nor does bench read KRONSTAP_THREADS
        monkeypatch.setenv("KRONSTAP_THREADS", "junk")
        assert run("bench", "--sweep", sweep, "--output", out,
                   "--trials", 1) == 0

    @pytest.mark.parametrize("row, flags, named", [
        ("2 16 1 1e-4", ["--trials", 0], "--trials"),
        ("2 16 1 1e-4", ["--trials", -2], "--trials"),
        ("2 16 1 1e-4", ["--seed", -1], "--seed"),
        ("2 16 1 1e-4", ["--n", -1], "--n"),
        ("0 16 1 1e-4", [], "line 1"),
        ("2 0 1 1e-4", [], "line 1"),
        ("2 16 1 nan", [], "line 1"),
        ("2 16 1 inf", [], "line 1"),
    ], ids=["trials-0", "trials-negative", "seed-negative", "n-negative",
            "p-0", "q-0", "eps-nan", "eps-inf"])
    def test_bad_inputs_exit_2_naming_the_flag_or_line(self, tmp_path,
                                                        capsys, row, flags,
                                                        named):
        # a one-row sweep file, so no default sweep runs
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text(f"row = {row}\n")
        out = tmp_path / "bench.csv"
        assert run("bench", "--sweep", sweep, "--output", out,
                   *flags) == DATA_ERROR
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_sweep_rows_are_data_errors(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("row = 2 16 1\n")
        assert run("bench", "--sweep", sweep,
                   "--output", tmp_path / "b.csv") == DATA_ERROR
        sweep.write_text("# nothing\n")
        assert run("bench", "--sweep", sweep,
                   "--output", tmp_path / "b.csv") == DATA_ERROR
        # every row is checked before the first one runs
        capsys.readouterr()
        sweep.write_text("row = 2 16 1 1e-4\nrow = 2 16 1 nan\n")
        assert run("bench", "--sweep", sweep,
                   "--output", tmp_path / "b.csv") == DATA_ERROR
        captured = capsys.readouterr()
        assert "line 2" in captured.err
        assert "completed trial" not in captured.out


class TestExitCodesAndThreads:
    def test_usage_errors(self, tmp_path):
        assert run() == USAGE_ERROR
        assert run("estimate", "--input", "x") == USAGE_ERROR
        assert run("simulate", "--config", tmp_path / "c", "--output",
                   tmp_path / "o", "--threads", 0) == USAGE_ERROR

    def test_signed_without_multipass_is_a_usage_error(self, tmp_path,
                                                        capsys):
        # before, --signed was ignored and the map came out unsigned
        out = tmp_path / "map.csv"
        code = run("detect", "--input", tmp_path / "scene.kph",
                   "--estimate", tmp_path / "fit.kes", "--output", out,
                   "--signed")
        assert code == USAGE_ERROR
        assert "--multipass" in capsys.readouterr().err
        assert not out.exists()

    def test_module_run_is_the_cli(self, tmp_path):
        # `python -m kronstap.cli` on the source tree runs the stage it
        # names, with the same output and exit codes as the entry point
        good = write_config(tmp_path, "p = 2\nq = 8\nn_bins = 8\nr_b = 2\n")
        bad = write_config(tmp_path, "p = 2\np = 3\n", name="bad.cfg")
        src = str(Path(lrkron.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        assert run("simulate", "--config", good,
                   "--output", tmp_path / "want.kph") == 0
        for config, code in ((good, 0), (bad, DATA_ERROR)):
            out = tmp_path / "scene.kph"
            done = subprocess.run(
                [sys.executable, "-m", "kronstap.cli", "simulate",
                 "--config", config, "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == code, done.stderr
        assert "line 2" in done.stderr
        assert out.read_bytes() == (tmp_path / "want.kph").read_bytes()

    def test_thread_env_fallback(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "p = 2\nq = 8\nn_bins = 8\nr_b = 2\n")
        monkeypatch.setenv("KRONSTAP_THREADS", "3")
        assert run("simulate", "--config", config,
                   "--output", tmp_path / "a.kph") == 0
        monkeypatch.setenv("KRONSTAP_THREADS", "lots")
        assert run("simulate", "--config", config,
                   "--output", tmp_path / "b.kph") == USAGE_ERROR

    def test_explicit_threads_beat_the_environment(self, tmp_path,
                                                   monkeypatch):
        config = write_config(tmp_path, "p = 2\nq = 8\nn_bins = 8\nr_b = 2\n")
        monkeypatch.setenv("KRONSTAP_THREADS", "junk")
        assert run("simulate", "--config", config,
                   "--output", tmp_path / "a.kph", "--threads", 2) == 0


def test_importing_the_cli_loads_no_pool_or_foreign_module():
    # every stage starts a fresh interpreter, so the import is paid per
    # call: the serial pool keeps concurrent.futures out of it (see
    # parallel.WorkerPool), and numpy is the one runtime dependency.
    # numpy loads ctypes itself, so the child drops what numpy loaded of
    # these before it imports the package, and any import of them from
    # the package loads them afresh.
    code = (
        "import sys, numpy\n"
        "heavy = ('concurrent', 'ctypes', 'multiprocessing', 'scipy')\n"
        "for name in [m for m in sys.modules if m.split('.')[0] in heavy]:\n"
        "    del sys.modules[name]\n"
        "import kronstap.cli\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.split('.')[0] in heavy)))\n")
    src = str(Path(lrkron.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _files(path):
    return sorted(p.name for p in path.iterdir())


class TestAtomicOutputs:
    """Every output goes to a temporary file next to it and is renamed
    into place on success; a failed stage leaves nothing."""

    @pytest.fixture()
    def scene(self, tmp_path):
        # two filter blocks; the fit is made before the cube is damaged
        config = write_config(tmp_path, MANY_BIN_ONE_PASS_CONFIG)
        scene, fit = tmp_path / "scene.kph", tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", scene) == 0
        assert run("estimate", "--input", scene, "--output", fit,
                   "--ra", 1, "--rb", 2) == 0
        return scene, fit

    @pytest.mark.parametrize("command", ["filter", "detect"])
    def test_a_non_finite_last_block_leaves_no_output(self, tmp_path, scene,
                                                      command):
        clean, fit = scene
        history = read_phase_history(clean)
        history.data[0, -1, 1, 7] = np.nan
        broken = tmp_path / "broken.kph"
        write_phase_history(broken, history)
        before = _files(tmp_path)
        extra = ["--pgm", tmp_path / "map.pgm"] if command == "detect" \
            else []
        code = run(command, "--input", broken, "--estimate", fit,
                   "--output", tmp_path / "out", *extra)
        assert code == DATA_ERROR
        assert _files(tmp_path) == before

    def test_filter_over_its_own_input_writes_the_same_bytes(self, tmp_path,
                                                             scene):
        clean, fit = scene
        apart = tmp_path / "apart.kph"
        assert run("filter", "--input", clean, "--estimate", fit,
                   "--output", apart) == 0
        assert run("filter", "--input", clean, "--estimate", fit,
                   "--output", clean) == 0
        assert clean.read_bytes() == apart.read_bytes()

    def test_a_failed_simulate_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "x.kph"
        out.write_bytes(b"old")
        config = write_config(tmp_path, "p = 3\nq = 8\nr_b = 2\nn_bins = 5\n"
                              "K = 2\npass_gain_spread = 1e308\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("simulate", "--config", config, "--output", out)
        assert code == DATA_ERROR
        assert out.read_bytes() == b"old"
        assert _files(tmp_path) == ["scene.cfg", "x.kph"]


class TestRefusedBeforeAnyOutput:
    @pytest.mark.parametrize("line, size", [
        ("p = 4294967296\nq = 8\nn_bins = 5", "2,748,779,069,440 bytes"),
        ("p = 2\nq = 8\nn_bins = 5\nK = 4294967296",
         "5,497,558,138,880 bytes"),
        # a cube whose fields fit, but no disk holds: 2.95e20 bytes
        ("p = 65535\nq = 65535\nn_bins = 4294967295",
         "295,138,897,980,100,182,000 bytes"),
    ], ids=["p", "K", "free-space"])
    def test_simulate_refuses_a_cube_the_file_cannot_hold(self, tmp_path,
                                                          capsys, line, size):
        config = write_config(tmp_path, f"r_b = 2\n{line}\n")
        out = tmp_path / "x.kph"
        assert run("simulate", "--config", config, "--output", out) \
            == DATA_ERROR
        assert size in capsys.readouterr().err
        assert _files(tmp_path) == ["scene.cfg"]

    def test_simulate_refuses_more_than_the_free_space(self, tmp_path,
                                                      capsys, monkeypatch):
        class Fake:
            f_bavail, f_frsize = 2, 4096

        monkeypatch.setattr(os, "statvfs", lambda path: Fake)
        config = write_config(tmp_path, CLUTTER_CONFIG)
        assert run("simulate", "--config", config,
                   "--output", tmp_path / "x.kph") == DATA_ERROR
        assert "needs 153,600 bytes, more than the 8,192 bytes free" \
            in capsys.readouterr().err
        assert _files(tmp_path) == ["scene.cfg"]

    @pytest.mark.parametrize("command", ["estimate", "filter", "detect"])
    @pytest.mark.parametrize("damage", ["count", "bin", "trailing"])
    def test_a_corrupt_target_tail_exits_2_before_any_block_is_read(
            self, tmp_path, monkeypatch, command, damage):
        config = write_config(tmp_path, TARGET_CONFIG)
        scene, fit = tmp_path / "scene.kph", tmp_path / "fit.kes"
        assert run("simulate", "--config", config, "--output", scene) == 0
        assert run("estimate", "--input", scene, "--output", fit,
                   "--ra", 1, "--rb", 3) == 0
        blob = bytearray(scene.read_bytes())
        tail = len(blob) - 4 - 28
        if damage == "count":
            blob[tail:tail + 4] = (2).to_bytes(4, "little")
        elif damage == "bin":
            blob[tail + 4:tail + 8] = (200).to_bytes(4, "little")
        else:
            blob += b"\x00"
        scene.write_bytes(bytes(blob))
        reads = []
        original = formats.PhaseHistoryReader.read
        monkeypatch.setattr(formats.PhaseHistoryReader, "read",
                            lambda self, *a: reads.append(a) or
                            original(self, *a))
        before = _files(tmp_path)
        extra = ["--ra", 1, "--rb", 3] if command == "estimate" \
            else ["--estimate", fit]
        code = run(command, "--input", scene, "--output", tmp_path / "out",
                   *extra)
        assert code == DATA_ERROR
        assert reads == []
        assert _files(tmp_path) == before


STREAM_CONFIG = """
p = 2
q = 8
n_bins = {n_bins}
r_b = 2
sigma2 = 0.01
seed = 31
K = {k}
change_fraction = 0.1
target = {target} 0.375 4 1
target = {target} 0.125 0 2
"""


class TestStreamedStagesMatchTheLibrary:
    """Each CLI stage walks the cube in blocks; its artifact has the
    bytes of the in-memory library calls on the whole cube. The bin
    counts cut the simulate and filter blocks (256 bins) and the
    covariance chunks (1024 bins) on and off their edges."""

    @pytest.fixture(scope="class", params=[
        (n_bins, k) for n_bins in (1, 255, 256, 257, 1025) for k in (1, 2)],
        ids=lambda nk: f"{nk[0]}bins-K{nk[1]}")
    def fitted(self, request, tmp_path_factory):
        n_bins, k = request.param
        tmp = tmp_path_factory.mktemp("stream")
        text = STREAM_CONFIG.format(n_bins=n_bins, k=k, target=n_bins // 2)
        if k == 1:
            # one pass takes no pass keys
            text = text.replace("change_fraction = 0.1\n", "")
        scene, fit = tmp / "scene.kph", tmp / "fit.kes"
        assert run("simulate", "--config", write_config(tmp, text),
                   "--output", scene) == 0
        code = run("estimate", "--input", scene, "--output", fit,
                   "--ra", k, "--rb", 2)
        assert code in (0, NO_CONVERGENCE)
        return tmp, parse_scene_config(text), scene, fit

    @staticmethod
    def library_history(job):
        scene = job.scene
        if job.n_passes == 1:
            history = gen_clutter(scene)
        else:
            history = gen_multipass(scene, job.n_passes,
                                    change_fraction=job.change_fraction)
        for bin_index, doppler, amplitude in job.targets:
            history = inject_target(history, bin_index, doppler, amplitude,
                                    kappa=scene.kappa)
        return history

    def test_simulate(self, fitted):
        tmp, job, scene, _ = fitted
        want = tmp / "library.kph"
        write_phase_history(want, self.library_history(job))
        assert scene.read_bytes() == want.read_bytes()

    def test_estimate(self, fitted):
        tmp, job, scene, fit = fitted
        history = read_phase_history(scene)
        if job.n_passes == 1:
            n, p, q = history.n_bins, history.p, history.q
            scm = sample_covariance(history.data[0].reshape(n, p * q), p, q)
            est = lr_kron_estimate(scm, 1, 2)
        else:
            est = multipass_estimate(history, 2)
        want = tmp / "library.kes"
        write_estimate(want, est)
        assert fit.read_bytes() == want.read_bytes()
        assert helpers.read_residuals_csv(str(fit) + ".residuals.csv") \
            == est.residuals

    @pytest.mark.parametrize("kind", ["kron", "classical"])
    def test_filter(self, fitted, kind):
        tmp, job, scene, fit = fitted
        out = tmp / f"filtered-{kind}.kph"
        assert run("filter", "--input", scene, "--estimate", fit,
                   "--output", out, "--kind", kind) == 0
        history = read_phase_history(scene)
        k, n, p, q = history.data.shape
        filt = build_filter(kind, estimate=read_estimate(fit))
        stack = history.data.swapaxes(0, 1).reshape(n, k * p, q)
        filtered = filt.apply_matrix(stack if k > 1 else history.data[0])
        want = tmp / f"library-{kind}.kph"
        write_phase_history(want, PhaseHistory(
            p, q, k, filtered.reshape(n, k, p, q).swapaxes(0, 1),
            history.truth))
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("kind", ["kron", "classical"])
    def test_detect(self, fitted, kind):
        tmp, job, scene, fit = fitted
        out = tmp / f"map-{kind}.csv"
        flags = ["--multipass"] if job.n_passes > 1 else []
        assert run("detect", "--input", scene, "--estimate", fit,
                   "--output", out, "--kind", kind, *flags) == 0
        history = read_phase_history(scene)
        filt = build_filter(kind, estimate=read_estimate(fit))
        dopplers = make_doppler_grid(64)
        if job.n_passes > 1:
            image = change_detect(*pass_images(filt, history, dopplers, 16))
        else:
            image = detection_image(filt, history.data[0], dopplers,
                                    make_spatial_grid(history.p, 16))
        want = tmp / f"library-{kind}.csv"
        write_detection_csv(want, image)
        assert out.read_bytes() == want.read_bytes()


class TestStageMemoryDoesNotGrowWithTheBins:
    """Each cube stage holds a block of bins at a time: its tracemalloc
    peak at 4x the bins stays within 1.25x of the peak at 1x."""

    @staticmethod
    def peak(*args):
        code, peak, _ = helpers.traced_peak(run, *args)
        assert code == 0
        return peak

    @pytest.fixture(scope="class")
    def scenes(self, tmp_path_factory):
        # 1024 and 4096 bins of 4 x 64 (4 and 16 MB cubes): a full
        # covariance chunk at 1x, four at 4x; and a 16-bin warm-up
        tmp = tmp_path_factory.mktemp("memory")
        out = {}
        for n_bins in (16, 1024, 4096):
            config = write_config(tmp, f"p = 4\nq = 64\nn_bins = {n_bins}\n"
                                  f"r_b = 3\nseed = 9\ntarget = 5 0.25 3 0\n",
                                  name=f"{n_bins}.cfg")
            scene, fit = tmp / f"{n_bins}.kph", tmp / f"{n_bins}.kes"
            out[n_bins] = (config, scene, fit)
        return tmp, out

    def test_simulate_estimate_filter_detect(self, scenes):
        # the 16-bin pass goes first, so one-time costs (imports, caches)
        # land in neither measured pass
        tmp, files = scenes
        peaks = {}
        for n_bins, (config, scene, fit) in files.items():
            peaks[n_bins] = [
                self.peak("simulate", "--config", config, "--output", scene),
                # n >= pq = 256: the dense covariance, chunk by chunk
                # (the 16-bin scene takes the snapshot path)
                self.peak("estimate", "--input", scene, "--output", fit,
                          "--ra", 1, "--rb", 3),
                self.peak("filter", "--input", scene, "--estimate", fit,
                          "--output", tmp / "filtered.kph"),
                # the map, 512 bytes a bin at 64 Doppler cells, is what
                # grows: 1.14x here
                self.peak("detect", "--input", scene, "--estimate", fit,
                          "--output", tmp / "map.csv",
                          "--pgm", tmp / "map.pgm"),
            ]
        for stage, small, large in zip(
                ("simulate", "estimate", "filter", "detect"),
                peaks[1024], peaks[4096]):
            assert large < 1.25 * small, (stage, small, large)
