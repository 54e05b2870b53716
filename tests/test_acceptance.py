"""Acceptance suite: one test per shipped guarantee.

Each test computes every check it covers, records a one-line verdict
(printed at the end of the run by the conftest summary hook), and only
then asserts, so a failing criterion still reports its measurements.
"""

import numpy as np
import pytest

import helpers
from kronstap.bench import (
    DEFAULT_EPS,
    DEFAULT_P,
    DEFAULT_Q,
    SPEEDUP_CONFIG,
    default_sweep,
    mean_seconds,
    run_bench,
)
from kronstap.cli import main
from kronstap.filters import (
    build_filter,
    detection_image,
    make_doppler_grid,
    make_spatial_grid,
    make_steering,
    projection_filter,
    sinr,
)
from kronstap.lrkron import SampleCovariance, lr_kron_estimate, sample_covariance
from kronstap.multipass import change_detect, multipass_estimate, stack_passes
from kronstap.rearrange import RearrangedMatrix, rearrange, unrearrange
from kronstap.simulate import (
    SceneConfig,
    gen_clutter,
    gen_multipass,
    inject_target,
    scene_model,
)

RESULTS = []


def report(number, name, ok, detail):
    line = f"criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append((number, line))
    print(line)
    return ok


def _exact_cov(s, p, q):
    return SampleCovariance(np.asarray(s, dtype=np.complex128), 1, p, q)


def test_criterion_01_rearrangement_matches_the_block_oracle():
    rng = np.random.default_rng(100)
    bad = []
    for p in range(1, 6):
        for q in range(1, 6):
            s = helpers.complex_gauss(rng, (p * q, p * q))
            fast = rearrange(s, p, q)
            if not np.array_equal(fast.data, helpers.block_rearrange(s, p, q)):
                bad.append((p, q, "blocks"))
            if not np.array_equal(unrearrange(fast), s):
                bad.append((p, q, "round trip"))
    ok = not bad
    assert report(1, "rearrangement oracle", ok,
                  "all 25 block shapes exact, round trip bitwise" if ok
                  else f"mismatches at {bad}")


def test_criterion_02_kron_rearranges_to_a_rank_one_outer_product():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        a = helpers.complex_gauss(rng, (m, m))
        b = helpers.complex_gauss(rng, (n, n))
        got = rearrange(np.kron(a, b), m, n).data
        want = np.outer(helpers.vec_loops(a), helpers.vec_loops(b))
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    ok = worst <= 1e-12
    assert report(2, "kron outer-product identity", ok,
                  f"worst relative error {worst:.2e} over 100 pairs")


def test_criterion_03_noiseless_kron_covariance_is_recovered_exactly():
    rng = np.random.default_rng(300)
    p, q = 3, 16
    h = helpers.complex_gauss(rng, p)
    truth = np.kron(np.outer(h, h.conj()), helpers.random_psd(rng, q, rank=4))
    est = lr_kron_estimate(_exact_cov(truth, p, q), 1, 4, tol=1e-12, max_iter=5)
    prod = np.kron(est.spatial, est.temporal)
    rel = np.linalg.norm(prod - truth) / np.linalg.norm(truth)
    herm = np.linalg.norm(prod - prod.conj().T) / np.linalg.norm(prod)
    ev = np.linalg.eigvalsh(prod)[::-1]
    ok = (est.iterations <= 5 and rel <= 1e-10 and herm <= 1e-12
          and ev[-1] >= -1e-10 * ev[0] and ev[4] <= 1e-10 * ev[0])
    assert report(3, "noiseless exact recovery", ok,
                  f"rel {rel:.2e} in {est.iterations} iterations, "
                  f"eig5/eig1 {ev[4] / ev[0]:.1e}")


def test_criterion_04_full_rank_fit_matches_the_svd_oracle():
    rng = np.random.default_rng(400)
    p, q = 2, 3
    worst = 0.0
    for _ in range(50):
        s = helpers.random_psd(rng, p * q)
        # negative tol never reads as converged, so every trial runs the
        # full budget and the fixed point itself is what gets compared
        est = lr_kron_estimate(_exact_cov(s, p, q), p, q, tol=-1.0,
                               max_iter=60)
        prod = np.kron(est.spatial, est.temporal)
        r = rearrange(s, p, q)
        oracle = unrearrange(
            RearrangedMatrix(p, q, helpers.svd_truncate(r.data, 1)))
        worst = max(worst, np.linalg.norm(prod - oracle)
                    / np.linalg.norm(oracle))
    ok = worst <= 1e-9
    assert report(4, "best rank-one factorization", ok,
                  f"worst relative error {worst:.2e} over 50 trials")


def _factored_scene(rng, p, q, rank):
    h = helpers.complex_gauss(rng, p)
    h /= np.linalg.norm(h)
    u_b, _ = np.linalg.qr(helpers.complex_gauss(rng, (q, rank)))
    weights = 1.0 + rng.random(rank)
    weights *= q / weights.sum()
    return h, u_b, weights


def _draw_bins(rng, h, u_b, weights, sigma2, count):
    p, (q, rank) = h.size, u_b.shape
    out = np.empty((count, p * q), dtype=np.complex128)
    for m in range(count):
        s = u_b @ (np.sqrt(weights) * helpers.complex_gauss(rng, rank))
        x = np.outer(h, s)
        if sigma2 > 0.0:
            x = x + np.sqrt(sigma2) * helpers.complex_gauss(rng, (p, q))
        out[m] = x.ravel()
    return out


def test_criterion_05_clutter_annihilation_and_noise_floor():
    p, q, rank = 3, 32, 4

    rng = np.random.default_rng(501)
    h, u_b, weights = _factored_scene(rng, p, q, rank)
    true_filter = projection_filter("kron", h[:, None], u_b, p, q)
    noiseless = _draw_bins(rng, h, u_b, weights, 0.0, 100)
    worst = max(np.linalg.norm(true_filter.apply(x)) / np.linalg.norm(x)
                for x in noiseless)
    ok_true = worst <= 1e-10

    sigma2 = 1e-2
    rng = np.random.default_rng(500)
    h, u_b, weights = _factored_scene(rng, p, q, rank)
    train = _draw_bins(rng, h, u_b, weights, sigma2, 10 * q)
    est = lr_kron_estimate(sample_covariance(train, p, q), 1, rank)
    fitted = build_filter("kron", estimate=est)
    test_bins = _draw_bins(rng, h, u_b, weights, sigma2, 100)
    resid = np.array([np.linalg.norm(fitted.apply(x)) ** 2
                      for x in test_bins])
    # white noise keeps sigma^2 per component on the (p-1)(q-rank)
    # dimensions the filter retains
    floor = sigma2 * (p - 1) * (q - rank)
    ratio = float(np.median(resid) / floor)
    ok_est = 0.5 <= ratio <= 2.0

    assert report(5, "clutter annihilation", ok_true and ok_est,
                  f"true-basis worst residual {worst:.1e}; estimated-basis "
                  f"median at {ratio:.2f}x the noise floor")


def test_criterion_06_small_sample_advantage_over_classical():
    p, q, rank, sigma2, n_train = 3, 32, 4, 1e-2, 5
    steering = make_steering(0.25, p, q, kappa=2.0)
    amplitude = 2.0
    kron_sinr, classical_sinr = [], []
    for t in range(100):
        config = SceneConfig(p=p, q=q, n_bins=n_train, rank_temporal=rank,
                             noise_power=sigma2, seed=1000 + t)
        cov = scene_model(config).total_covariance()
        cube = gen_clutter(config).data[0]
        scm = sample_covariance(helpers.cube_to_snapshots(cube), p, q)
        est = lr_kron_estimate(scm, 1, rank)
        for kind, acc in (("kron", kron_sinr),
                          ("classical", classical_sinr)):
            filt = build_filter(kind, estimate=est)
            acc.append(sinr(filt.apply(steering.vector), steering,
                            amplitude, cov))
    k_med = 10 * np.log10(np.median(kron_sinr))
    c_med = 10 * np.log10(np.median(classical_sinr))
    wins = sum(a > b for a, b in zip(kron_sinr, classical_sinr))
    ok = k_med > c_med
    assert report(6, "small-sample advantage", ok,
                  f"median SINR kron {k_med:.2f} dB vs classical "
                  f"{c_med:.2f} dB, {wins}/100 trialwise")


def test_criterion_07_robustness_to_corrupted_training():
    p, q, rank, sigma2 = 3, 32, 4, 1e-2
    n_train, n_bad = 20, 4
    steering = make_steering(0.45, p, q, kappa=2.0)
    amplitude = 2.0
    deg_kron, deg_classical = [], []
    for t in range(100):
        config = SceneConfig(p=p, q=q, n_bins=n_train, rank_temporal=rank,
                             noise_power=sigma2, seed=2000 + t)
        cov = scene_model(config).total_covariance()
        clean = gen_clutter(config)
        bad_rng = np.random.default_rng(50000 + t)
        dirty = clean
        for b in bad_rng.choice(n_train, size=n_bad, replace=False):
            doppler = float(bad_rng.uniform(0.1, 0.4))
            phase = np.exp(2j * np.pi * bad_rng.random())
            dirty = inject_target(dirty, int(b), doppler,
                                  3.0 * np.sqrt(p * q) * phase)
        out = {}
        for tag, history in (("clean", clean), ("dirty", dirty)):
            scm = sample_covariance(helpers.cube_to_snapshots(history.data[0]), p, q)
            est = lr_kron_estimate(scm, 1, rank)
            for kind in ("kron", "classical"):
                filt = build_filter(kind, estimate=est)
                out[tag, kind] = sinr(filt.apply(steering.vector), steering,
                                      amplitude, cov)
        deg_kron.append(
            10 * np.log10(out["clean", "kron"] / out["dirty", "kron"]))
        deg_classical.append(
            10 * np.log10(out["clean", "classical"]
                          / out["dirty", "classical"]))
    k_med = float(np.median(deg_kron))
    c_med = float(np.median(deg_classical))
    ok = k_med <= c_med
    assert report(7, "corrupted-training robustness", ok,
                  f"median SINR loss kron {k_med:.2f} dB vs classical "
                  f"{c_med:.2f} dB")


def test_criterion_08_multipass_rank_gain_and_cancellation():
    config = SceneConfig(p=3, q=8, n_bins=200, rank_temporal=2,
                         noise_power=0.0, seed=42)
    history = gen_multipass(config, 2, gain_spread=1.0)
    est = multipass_estimate(history, 2)
    ev = np.linalg.eigvalsh(est.spatial)[::-1]
    ok_rank = ev[1] >= 1e-6 * ev[0] and ev[2] <= 1e-8 * ev[0]

    multi_resid, single_resid = [], []
    for t in range(50):
        config = SceneConfig(p=3, q=16, n_bins=40, rank_temporal=6,
                             noise_power=1e-2, calibration_phase=0.3,
                             seed=900 + t)
        history = gen_multipass(config, 2)
        stacked = stack_passes(history)
        joint = build_filter("kron",
                             estimate=multipass_estimate(history, 4))
        e_multi = sum(np.linalg.norm(joint.apply_matrix(stacked.data[m])) ** 2
                      for m in range(stacked.n_bins))
        # baseline: fit the reference pass alone, filter every pass with it
        scm = sample_covariance(helpers.cube_to_snapshots(history.data[0]),
                                config.p, config.q)
        single = build_filter("kron", estimate=lr_kron_estimate(scm, 1, 4))
        e_single = sum(
            np.linalg.norm(single.apply_matrix(history.data[k][m])) ** 2
            for k in range(2) for m in range(config.n_bins))
        multi_resid.append(e_multi)
        single_resid.append(e_single)
    m_med = float(np.median(multi_resid))
    s_med = float(np.median(single_resid))
    ok_gain = m_med <= s_med

    config = SceneConfig(p=2, q=8, n_bins=24, rank_temporal=2,
                         noise_power=0.0, seed=11)
    history = gen_multipass(config, 2, shared_calibration=True,
                            unit_gains=True)
    scm = sample_covariance(helpers.cube_to_snapshots(history.data[0]), 2, 8)
    filt = build_filter("kron", estimate=lr_kron_estimate(scm, 1, 2))
    dopplers = make_doppler_grid(32)
    grid = make_spatial_grid(2, 8)
    images = [detection_image(filt, history.data[k], dopplers, grid)
              for k in range(2)]
    change = change_detect(images[0], images[1])
    ok_zero = not change.values.any()

    assert report(8, "multipass rank and gain", ok_rank and ok_gain and ok_zero,
                  f"stacked eig3/eig1 {ev[2] / ev[0]:.1e}; residual ratio "
                  f"{m_med / s_med:.2f}; identical-pass change max "
                  f"{change.values.max():.1e}")


@pytest.fixture(scope="module")
def sweep_rows():
    return run_bench(default_sweep())


def _thread_speedup(rows):
    """One-thread and pooled mean times at SPEEDUP_CONFIG, and their ratio."""
    p, q, threads, eps = SPEEDUP_CONFIG
    one = mean_seconds(rows, p, q, 1, eps)
    many = mean_seconds(rows, p, q, threads, eps)
    return one, many, one / many


def test_criterion_09_timing_sweep(sweep_rows):
    means = {row: mean_seconds(sweep_rows, *row) for row in default_sweep()}
    increasing, ratios, margins = [], [], []
    for p in DEFAULT_P:
        for eps in DEFAULT_EPS:
            times = [means[p, q, 1, eps] for q in DEFAULT_Q]
            increasing.append(all(b > a for a, b in zip(times, times[1:])))
            ratios.extend((b / a, p, eps, qa) for qa, a, b
                          in zip(DEFAULT_Q, times, times[1:]))
    for p in DEFAULT_P:
        for q in DEFAULT_Q:
            base = means[p, q, 1, 1e-4]
            margins.append(((means[p, q, 1, 1e-6] - base) / base, p, q))
    ok_grow = all(increasing)
    ok_ratio = all(2.5 <= r <= 6.0 for r, _, _, _ in ratios)
    ok_eps = all(m >= 0.0 for m, _, _ in margins)
    ok = ok_grow and ok_ratio and ok_eps
    lo, hi = min(ratios), max(ratios)
    worst = min(margins)
    # the speedup is gated by test_criterion_09_thread_speedup; shown here
    # so the sweep's line carries it on hosts where that test is skipped
    _, _, speedup = _thread_speedup(sweep_rows)
    assert report(9, "timing sweep", ok,
                  f"increasing in q: {'yes' if ok_grow else 'NO'}; doubling "
                  f"ratios {lo[0]:.2f}-{hi[0]:.2f} (max at p={hi[1]} "
                  f"eps={hi[2]:g} q={hi[3]}->{2 * hi[3]}); worst eps margin "
                  f"{worst[0]:+.1%} at p={worst[1]} q={worst[2]}; "
                  f"{SPEEDUP_CONFIG[2]}-thread speedup {speedup:.2f}x "
                  f"(not gated here)")


@pytest.mark.skipif(
    helpers.usable_cpus() < SPEEDUP_CONFIG[2],
    reason=f"a {SPEEDUP_CONFIG[2]}-thread speedup needs "
           f"{SPEEDUP_CONFIG[2]} usable CPUs; this process may run on "
           f"{helpers.usable_cpus()}")
def test_criterion_09_thread_speedup(sweep_rows):
    one, many, speedup = _thread_speedup(sweep_rows)
    assert report(9, "thread speedup", speedup >= 2.0,
                  f"p={SPEEDUP_CONFIG[0]} q={SPEEDUP_CONFIG[1]} "
                  f"eps={SPEEDUP_CONFIG[3]:g}: 1 thread {one:.3f} s, "
                  f"{SPEEDUP_CONFIG[2]} threads {many:.3f} s, speedup "
                  f"{speedup:.2f}x on {helpers.usable_cpus()} usable CPUs")


def test_criterion_10_bitwise_determinism_across_threads(tmp_path):
    config_text = ("p = 2\nq = 16\nn_bins = 48\nr_b = 3\nsigma2 = 0.01\n"
                   "seed = 7\ntarget = 5 0.25 8 0\n")
    artifacts = {}
    for threads in (1, 4, 8):
        base = tmp_path / f"threads{threads}"
        base.mkdir()
        config = base / "scene.cfg"
        config.write_text(config_text)
        cube = base / "scene.kph"
        fit = base / "fit.kes"
        filtered = base / "filtered.kph"
        image = base / "map.csv"
        pgm = base / "map.pgm"
        w = str(threads)
        assert main(["simulate", "--config", str(config), "--output",
                     str(cube), "--threads", w]) == 0
        assert main(["estimate", "--input", str(cube), "--output", str(fit),
                     "--ra", "1", "--rb", "3", "--threads", w]) == 0
        assert main(["filter", "--input", str(cube), "--estimate", str(fit),
                     "--output", str(filtered), "--threads", w]) == 0
        assert main(["detect", "--input", str(cube), "--estimate", str(fit),
                     "--output", str(image), "--pgm", str(pgm),
                     "--threads", w]) == 0
        artifacts[threads] = [path.read_bytes()
                              for path in (cube, fit, filtered, image, pgm)]
    ok_cli = artifacts[1] == artifacts[4] == artifacts[8]

    # the bench keys data by (seed, p, q, trial), so the three widths
    # must agree on every numerical column
    rows = run_bench([(2, 16, w, 1e-4) for w in (1, 4, 8)],
                     trials=2, n=5, seed=3, repeats=1)
    numerics = {w: [(r.trial, r.iterations, r.eta_final)
                    for r in rows if r.threads == w] for w in (1, 4, 8)}
    ok_bench = numerics[1] == numerics[4] == numerics[8]

    assert report(10, "bitwise determinism", ok_cli and ok_bench,
                  f"pipeline artifacts identical: "
                  f"{'yes' if ok_cli else 'NO'}; bench numerics identical: "
                  f"{'yes' if ok_bench else 'NO'}")
