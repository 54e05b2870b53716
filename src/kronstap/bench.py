"""Wall-clock benchmark of the Kronecker covariance estimator.

Training data follows the standard timing setup: a rank-one spatial
factor (random direction), identity temporal factor, a thermal noise
floor, and a handful of training snapshots. The noise keeps the sample
covariance off the exact Kronecker manifold, so a tighter tolerance
genuinely costs extra iterations. Each trial times the estimator on
its own seeded data; the sample covariance is the estimator's input
and is built outside the timed region. The timed call is repeated and
the fastest repeat kept, which suppresses scheduler preemption bursts
without changing what is measured (the estimator is deterministic, so
repeats redo identical work).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .lrkron import lr_kron_estimate, sample_covariance
from .parallel import WorkerPool

DEFAULT_P = (3, 6)
DEFAULT_Q = (64, 128, 256, 512, 1024)
DEFAULT_EPS = (1e-4, 1e-6)
#: Thread counts compared at the largest size of the smaller array.
SPEEDUP_CONFIG = (3, 1024, 4, 1e-4)


@dataclass
class BenchRow:
    """One timed estimator run."""

    p: int
    q: int
    n: int
    eps: float
    threads: int
    trial: int
    iterations: int
    seconds: float
    eta_final: float


def default_sweep():
    """The full grid at one thread plus the multithread comparison row."""
    sweep = [(p, q, 1, eps) for p in DEFAULT_P for q in DEFAULT_Q
             for eps in DEFAULT_EPS]
    sweep.append(SPEEDUP_CONFIG)
    return sweep


#: High noise floor (0 dB against unit clutter) keeps the alternating fit
#: from collapsing in one step, so the tolerance sweep exercises genuinely
#: different iteration counts.
_NOISE_POWER = 1.0


def _training_covariance(p, q, n, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed_key[0],
                                                       spawn_key=seed_key[1:]))
    direction = rng.standard_normal(2 * p)
    direction = (direction[0::2] + 1j * direction[1::2]) / np.sqrt(2.0)
    draws = rng.standard_normal((n, 2 * q))
    pulses = (draws[:, 0::2] + 1j * draws[:, 1::2]) / np.sqrt(2.0)
    snapshots = np.einsum("i,mj->mij", direction, pulses).reshape(n, p * q)
    wn = rng.standard_normal((n, 2 * p * q))
    noise = (wn[:, 0::2] + 1j * wn[:, 1::2]) * np.sqrt(_NOISE_POWER / 2.0)
    return sample_covariance(snapshots + noise, p, q)


def _repeats_for(q):
    """Timing repeats per call, more for cheap rows.

    Short calls are the ones a stray scheduler burst can inflate by
    integer factors, and extra repeats of them cost almost nothing.
    """
    if q <= 128:
        return 6
    if q <= 256:
        return 4
    if q <= 512:
        return 3
    return 2


def run_bench(sweep, trials=10, n=5, seed=0, repeats=None, progress=None):
    """Time the estimator for every (p, q, threads, eps) row in the sweep.

    Returns one BenchRow per (row, trial). Data is keyed by
    (seed, p, q, trial), so rows that differ only in tolerance or
    thread count time the estimator on identical inputs, and the
    ordering does not affect any numerical output. Each trial records
    the fastest of several identical calls (a size-dependent count, or
    `repeats` if given), and trials are the outer loop: every
    configuration is measured once per trial, back to back, so slow
    phases of a shared machine hit all configurations alike instead of
    biasing whichever one was running.
    """
    widths = sorted({threads for _, _, threads, _ in sweep})
    pools = {w: WorkerPool(w) for w in widths}
    rows = []
    try:
        for trial in range(trials):
            cache = {}
            for p, q, threads, eps in sweep:
                if (p, q) not in cache:
                    cache[p, q] = _training_covariance(p, q, n,
                                                      (seed, p, q, trial))
                scm = cache[p, q]
                pool = pools[threads]
                elapsed = math.inf
                for _ in range(max(repeats or _repeats_for(q), 1)):
                    start = time.perf_counter()
                    est = lr_kron_estimate(scm, 1, q, tol=eps, pool=pool)
                    elapsed = min(elapsed, time.perf_counter() - start)
                rows.append(BenchRow(p, q, n, eps, threads, trial,
                                     est.iterations, elapsed,
                                     est.residuals[-1]))
            if progress is not None:
                progress(trial, trials)
    finally:
        for pool in pools.values():
            pool.close()
    return rows


def mean_seconds(rows, p, q, threads, eps):
    """Mean wall time of the rows matching one sweep configuration."""
    times = [r.seconds for r in rows
             if r.p == p and r.q == q and r.threads == threads and r.eps == eps]
    if not times:
        raise ValueError(f"no rows for p={p} q={q} threads={threads} eps={eps}")
    return sum(times) / len(times)
