"""End-to-end CLI runs: pipelines, exit codes, thread handling."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kronstap import lrkron
from kronstap.cli import DATA_ERROR, NO_CONVERGENCE, USAGE_ERROR, main
from kronstap.errors import KronStapError
from kronstap.filters import BLOCK_BINS, build_filter
from kronstap.formats import (
    parse_scene_config,
    read_estimate,
    read_phase_history,
    write_estimate,
    write_phase_history,
)
from kronstap.multipass import stack_passes
from kronstap.parallel import WorkerPool
from kronstap.simulate import scene_model

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
        tracemalloc.start()
        try:
            assert run("simulate", "--config", config, "--output", out) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
        "K": st.integers(1, 2),
        "pass_gain_spread": st.floats(allow_nan=True, allow_infinity=True),
        "target": st.tuples(st.integers(-1, 6), st.floats(), st.floats(),
                            st.floats()),
    }), texture=st.sampled_from(["constant", "inverse_gamma"]))
    def test_generated_configs_exit_0_with_a_finite_cube_or_2(
            self, tmp_path_factory, values, texture):
        tmp = tmp_path_factory.mktemp("scene")
        target = " ".join(repr(v) for v in values.pop("target"))
        text = "p = 2\nq = 4\nr_b = 2\n" + "".join(
            f"{key} = {value!r}\n" for key, value in values.items())
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

    @pytest.mark.parametrize("ranks", [(0, 0), (99, 99)])
    def test_rank_budget_outside_the_dims_is_a_data_error(self, tmp_path,
                                                          fitted_scene,
                                                          ranks):
        clean, fit = fitted_scene
        est = read_estimate(fit)
        bad = tmp_path / "bad.kes"
        write_estimate(bad, replace(est, rank_spatial=ranks[0],
                                    rank_temporal=ranks[1]))
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
        # only rounding noise as its "top" eigen-direction
        clean, fit = fitted_scene
        est = read_estimate(fit)
        bad = tmp_path / "negated.kes"
        write_estimate(bad, replace(est, spatial=-est.spatial,
                                    temporal=-est.temporal))
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
        temporal = est.temporal.copy()
        temporal[2, 2] = np.nan
        bad = tmp_path / "nan.kes"
        write_estimate(bad, replace(est, temporal=temporal))
        out = tmp_path / "out"
        code = run(command, "--input", clean, "--estimate", bad,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()


class TestDamagedEstimateFile:
    """A truncated or bit-flipped KES file never crashes filter or detect."""

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        # q = 24 at r_b = 2 is wide enough for the range solve
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
        # the 24 x 24 temporal factor goes through the range solve
        tmp, scene, _ = fitted
        est = read_estimate(tmp / "fit.kes")
        bad = tmp / "negated.kes"
        write_estimate(bad, replace(est, temporal=-est.temporal))
        out = tmp / "negated.out"
        code = run(command, "--input", scene, "--estimate", bad,
                   "--output", out)
        assert code == DATA_ERROR
        assert not out.exists()


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


class TestParallelSite:
    """The estimator's snapshot sweeps are the one place a pool runs."""

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
            single = write_config(
                tmp_path, MANY_BIN_TWO_PASS_CONFIG.replace("K = 2", "K = 1"),
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
        tracemalloc.start()
        try:
            assert run("filter", "--input", cube, "--estimate", fit,
                       "--output", tmp_path / "filtered.kph") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cube_bytes

    def test_estimate_makes_no_cube_sized_copy(self, tmp_path):
        # 1024 bins of 2 passes x 2 x 64. Besides the cube, estimate
        # holds one conjugated tile of columns (half the cube here) and
        # the 256 x 256 matrix, a peak of 1.9 cubes; a stacked or a
        # conjugated copy of the whole cube would take it past 2.25
        config = write_config(tmp_path, "p = 2\nq = 64\nn_bins = 1024\n"
                              "r_b = 2\nseed = 23\nK = 2\n")
        cube = tmp_path / "passes.kph"
        assert run("simulate", "--config", config, "--output", cube) == 0
        cube_bytes = 2 * 1024 * 2 * 64 * 16
        tracemalloc.start()
        try:
            assert self.estimate(cube, tmp_path / "fit.kes") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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

    def test_malformed_sweep_rows_are_data_errors(self, tmp_path):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("row = 2 16 1\n")
        assert run("bench", "--sweep", sweep,
                   "--output", tmp_path / "b.csv") == DATA_ERROR
        sweep.write_text("# nothing\n")
        assert run("bench", "--sweep", sweep,
                   "--output", tmp_path / "b.csv") == DATA_ERROR


class TestExitCodesAndThreads:
    def test_usage_errors(self, tmp_path):
        assert run() == USAGE_ERROR
        assert run("estimate", "--input", "x") == USAGE_ERROR
        assert run("simulate", "--config", tmp_path / "c", "--output",
                   tmp_path / "o", "--threads", 0) == USAGE_ERROR

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
