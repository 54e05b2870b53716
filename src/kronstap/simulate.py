"""Synthetic clutter scenes with compound-Gaussian statistics.

Each range bin is texture times speckle plus white noise. The speckle
is a single temporal draw shared by all channels, scaled per channel by
a fixed calibration vector, so the ideal clutter covariance is the
Kronecker product of a rank-one spatial factor and a low-rank temporal
factor. Multipass scenes reuse the temporal speckle across passes with
per-pass gains, and can flip a fraction of bins to independent speckle
to emulate scene change.

Randomness comes from keyed substreams of one seed. The bins are
walked in fixed blocks of BLOCK_BINS, and block b draws each quantity
for all of its bins at once from a stream of its own: (1, b, 0) the
speckle weights, (1, b, 1) the textures, and for pass k (2, b, k, 0)
the gains, (2, b, k, 1) the replacement speckle and (2, b, k, 2) the
noise. Stream (3, k) gives the per-pass calibrations and streams (0,),
(4,) the scene profile and the changed-bin selection. A block draws
only the bins that exist, in bin order, so bin m's data depends on the
seed, on m's block and on m's offset in that block, and on n_bins only
through which bins change: without scene change, a longer scene with
the same seed extends a shorter one. BLOCK_BINS is part of that
contract; changing it changes every scene.

The blocks do not depend on each other, so they can be drawn in any
order or at once. multipass_blocks streams a scene one block at a time
in bin order. On the serial pool it draws each block into one buffer
of BLOCK_BINS bins that every block reuses. On a WorkerPool of N
threads (the CLI's simulate --threads N) it draws up to N blocks
ahead, into N + 1 buffers made once, while the caller writes one. So
its working set is (blocks in flight) x (block size and the scratch
of its draw), for a scene of any length and any pass count.
gen_clutter and gen_multipass collect the same blocks into one cube.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError
from .parallel import get_pool, one_blas_thread

_TEXTURES = ("constant", "inverse_gamma")

# Bins per block of random draws. Part of the data contract: every block
# has its own streams, so changing this changes every scene. It is not
# filters.BLOCK_BINS, which only sets how many bins one batched call takes.
BLOCK_BINS = 256


@dataclass(frozen=True)
class SceneConfig:
    """Static description of a simulated clutter scene."""

    p: int
    q: int
    n_bins: int
    rank_temporal: int
    noise_power: float = 1e-2
    texture: str = "constant"
    texture_shape: float = 3.0
    calibration_phase: float = 0.1
    kappa: float = 0.5
    seed: int = 0

    def validate(self):
        if self.p < 1 or self.q < 1 or self.n_bins < 1:
            raise DataError("scene dimensions must be positive")
        for name in ("noise_power", "texture_shape", "calibration_phase",
                     "kappa"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value!r}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.rank_temporal <= self.q:
            raise DataError(
                f"temporal rank must be in [1, {self.q}], got {self.rank_temporal}"
            )
        if self.noise_power < 0:
            raise DataError("noise power must be non-negative")
        if self.texture not in _TEXTURES:
            raise DataError(f"unknown texture law {self.texture!r}")
        if self.texture == "inverse_gamma" and self.texture_shape <= 1.0:
            raise DataError("inverse_gamma texture needs shape > 1")


@dataclass(frozen=True)
class TargetTruth:
    """Injected mover: bin index, normalized Doppler, complex amplitude."""

    bin_index: int
    doppler: float
    amplitude: complex


@dataclass(eq=False)
class PhaseHistory:
    """Simulated data cube of shape (passes, bins, channels, pulses)."""

    p: int
    q: int
    n_passes: int
    data: np.ndarray
    truth: list = field(default_factory=list)

    @property
    def n_bins(self):
        return self.data.shape[1]

    def read(self, m0, m1):
        """The (passes, m1 - m0, channels, pulses) cube of bins [m0, m1):
        a PhaseHistory is a block source, as formats.PhaseHistoryReader
        is, for the library's block-by-block consumers."""
        return np.asarray(self.data[:, m0:m1], dtype=np.complex128)


@dataclass
class SceneModel:
    """Deterministic ground truth behind a scene config."""

    config: SceneConfig
    calibration: np.ndarray
    temporal_profiles: np.ndarray
    temporal_weights: np.ndarray

    def temporal_covariance(self):
        """The temporal clutter factor, trace q, rank rank_temporal."""
        b = (self.temporal_profiles * self.temporal_weights) \
            @ self.temporal_profiles.conj().T
        return (b + b.conj().T) / 2.0

    def total_covariance(self):
        """Exact snapshot covariance: clutter Kronecker term plus noise."""
        h = self.calibration
        spatial = np.outer(h, h.conj())
        full = np.kron(spatial, self.temporal_covariance())
        full += self.config.noise_power * np.eye(full.shape[0])
        return full

    def pass_calibration(self, pass_index):
        """Independent per-pass calibration vector."""
        rng = _stream(self.config.seed, 3, pass_index)
        phases = rng.uniform(-self.config.calibration_phase,
                             self.config.calibration_phase, self.config.p)
        return np.exp(1j * phases)


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _complex_normal(rng, shape, scale=1.0, out=None):
    """Circular complex normals of variance scale**2, viewed from float
    pairs; drawn into out, a C-contiguous float64 (*shape, 2) array, when
    given, with the same bits."""
    draws = rng.standard_normal((*shape, 2)) if out is None \
        else rng.standard_normal(out=out)
    draws *= scale / math.sqrt(2.0)
    return draws.view(np.complex128)[..., 0]


def scene_model(config):
    """Build the deterministic scene truth for a config.

    Temporal profiles are low-frequency pulse ramps with seeded
    frequency jitter, orthonormalized, weighted by a geometric eigen
    spectrum normalized to trace q. Per-element clutter power is then 1,
    so noise_power is directly the noise-to-clutter ratio per sample.
    """
    config.validate()
    rng = _stream(config.seed, 0)
    r = config.rank_temporal
    jitter = rng.uniform(0.0, 1.0, r)
    phases = rng.uniform(-config.calibration_phase, config.calibration_phase,
                         config.p)
    calibration = np.exp(1j * phases)
    freqs = (np.arange(r) + 0.3 * jitter) / (2.0 * config.q)
    raw = np.exp(2j * np.pi * np.outer(np.arange(config.q), freqs))
    profiles, _ = np.linalg.qr(raw / math.sqrt(config.q))
    weights = 0.5 ** np.arange(r)
    weights *= config.q / weights.sum()
    return SceneModel(config, calibration, profiles, weights)


def _texture_draws(rng, config, n):
    if config.texture == "constant":
        return np.ones(n)
    shape = config.texture_shape
    return 1.0 / np.sqrt(rng.gamma(shape, 1.0 / (shape - 1.0), n))


def _speckle(z, basis, out):
    """(nb, q) speckle of (nb, r) weights, a view of the (BLOCK_BINS, q)
    out; each row's bits ignore nb.

    The product always runs at the full block height, because numpy
    sends a lone row through a vector kernel whose rounding differs from
    the GEMM's, and a one-bin tail block would then break the prefix
    property.
    """
    padded = np.zeros((BLOCK_BINS, z.shape[1]), dtype=np.complex128)
    padded[:len(z)] = z
    return np.matmul(padded, basis, out=out)[:len(z)]


def _cmul(a, b, out, tmp=None):
    """out = a * b for broadcastable complex arrays, in real arithmetic;
    tmp, a float64 array of out's shape, holds the cross products when
    given.

    numpy's complex multiply rounds differently (with or without fused
    multiply-add) in its contiguous and broadcast loops, and which loop
    runs can hinge on how many bins share the call. Separate float64
    products and sums round the same way in every loop. A product with
    a real factor (textures) rounds once either way and needs no care.
    """
    np.multiply(a.real, b.real, out=out.real)
    out.real -= np.multiply(a.imag, b.imag, out=tmp)
    np.multiply(a.real, b.imag, out=out.imag)
    out.imag += np.multiply(a.imag, b.real, out=tmp)
    return out


def _empty_cube(n_passes, n_bins, p, q):
    """The (n_passes, n_bins, p, q) complex cube, or a DataError with its
    size when numpy cannot allocate it (numpy refuses that at once)."""
    shape = (n_passes, n_bins, p, q)
    try:
        return np.empty(shape, dtype=np.complex128)
    except (MemoryError, ValueError):
        raise DataError(
            f"a {n_passes} x {n_bins} x {p} x {q} cube needs "
            f"{math.prod(shape) * 16:,} bytes, more than can be allocated"
        ) from None


def _generate(model, n_passes, change_fraction, shared_calibration,
              unit_gains, gain_spread, pool):
    """Yield (m0, m1, block) for each BLOCK_BINS block of bins [m0, m1).

    block is the (n_passes, m1 - m0, p, q) cube of those bins, in a
    buffer that a later block reuses once the next one is asked for.
    One scan of each pass's block turns an overflow or a NaN into a
    DataError. The blocks are drawn on pool (see parallel.ordered), in
    one buffer on the serial pool and in pool.threads + 1 buffers on a
    wider one, with OpenBLAS held at one thread on either; each buffer
    comes with the scratch its draw reuses.
    """
    config = model.config
    seed, p, q, n_bins = config.seed, config.p, config.q, config.n_bins
    r = config.rank_temporal
    basis = (model.temporal_profiles * np.sqrt(model.temporal_weights)).T
    noise_amp = math.sqrt(config.noise_power)

    if shared_calibration:
        calibrations = [model.calibration] * n_passes
    else:
        calibrations = [model.pass_calibration(k) for k in range(n_passes)]

    height = min(BLOCK_BINS, n_bins)
    n_changed = int(round(change_fraction * n_bins))
    changed = np.zeros(n_bins, dtype=bool)
    if n_changed > 0:
        picks = _stream(seed, 4).choice(n_bins, size=n_changed,
                                        replace=False)
        changed[picks] = True

    def draw(b, slot):
        buffer, noise, base, fresh = slot
        m0 = b * BLOCK_BINS
        m1 = min(m0 + BLOCK_BINS, n_bins)
        nb = m1 - m0
        cross = noise.reshape(-1)[:nb * p * q].reshape(nb, p, q)
        speckle = _speckle(_complex_normal(_stream(seed, 1, b, 0), (nb, r)),
                           basis, base)
        tau = _texture_draws(_stream(seed, 1, b, 1), config, nb)
        block_changed = changed[m0:m1]
        for k in range(n_passes):
            if unit_gains:
                coef = tau
            else:
                zeta = _complex_normal(_stream(seed, 2, b, k, 0), (nb,))
                coef = tau * (1.0 + gain_spread * zeta)
            speckle_k = speckle
            if block_changed.any():
                speckle_k = _speckle(
                    _complex_normal(_stream(seed, 2, b, k, 1), (nb, r)),
                    basis, fresh)
                np.copyto(speckle_k, speckle, where=~block_changed[:, None])
            channel = _cmul(coef[:, None], calibrations[k],
                            np.empty((nb, p), dtype=np.complex128))
            out = _cmul(channel[:, :, None], speckle_k[:, None, :],
                        buffer[k, :nb], cross)
            if noise_amp > 0:
                out += _complex_normal(_stream(seed, 2, b, k, 2),
                                       (nb, p, q), noise_amp, noise[:nb])
            # max and min carry a NaN and reach an inf, with no flag array
            values = out.view(np.float64)
            if not (math.isfinite(values.max())
                    and math.isfinite(values.min())):
                raise DataError(
                    f"pass {k} is not finite in bins {m0}..{m1 - 1}: its "
                    f"clutter gain (pass_gain_spread {gain_spread!r}, "
                    f"texture {config.texture}) overflows or is NaN")
        return m0, m1, buffer[:, :nb]

    # a block's buffer and the scratch its draw needs, made once here on
    # the calling thread: temporaries made on pool threads stay in their
    # threads' malloc arenas, out of reach of the stages that follow.
    # The noise array holds the clutter product's cross terms before
    # the noise is drawn into it.
    slots = [(np.empty((n_passes, height, p, q), dtype=np.complex128),
              np.empty((height, p, q, 2)),
              np.empty((BLOCK_BINS, q), dtype=np.complex128),
              np.empty((BLOCK_BINS, q), dtype=np.complex128))
             for _ in range(1 if pool.threads == 1 else pool.threads + 1)]
    blocks = pool.ordered(draw, -(-n_bins // BLOCK_BINS), slots)
    # a threaded small product stalls behind the pool's threads, and on
    # the serial pool its second BLAS thread only spins; the speckle
    # GEMMs and the targets' short vector norms keep their bits at any
    # OpenBLAS thread count
    with one_blas_thread():
        yield from blocks


def _collect(config, n_passes, blocks):
    """The PhaseHistory of a scene's (m0, m1, block) stream; the cube is
    allocated before the first block is drawn."""
    data = _empty_cube(n_passes, config.n_bins, config.p, config.q)
    for m0, m1, block in blocks:
        data[:, m0:m1] = block
    return PhaseHistory(config.p, config.q, n_passes, data)


def multipass_blocks(config, n_passes, change_fraction=0.0,
                     shared_calibration=False, unit_gains=False,
                     gain_spread=0.5, pool=None):
    """gen_multipass's cube as a stream of (m0, m1, block), one block of
    BLOCK_BINS bins at a time (see _generate); the arguments are checked
    here, before the first block. One pass with shared_calibration and
    unit_gains is gen_clutter's cube. pool, a parallel.WorkerPool,
    draws the blocks ahead of the caller and does not change a bit;
    close the stream to stop its pool work when leaving it early."""
    if n_passes < 1:
        raise DimensionError(f"need at least one pass, got {n_passes}")
    if not 0.0 <= change_fraction <= 1.0:
        raise DataError(f"change fraction must be in [0, 1], got {change_fraction}")
    return _generate(scene_model(config), n_passes, change_fraction,
                     shared_calibration, unit_gains, gain_spread,
                     get_pool(pool))


def gen_clutter(config):
    """Single-pass clutter cube for a scene config."""
    return _collect(config, 1, multipass_blocks(
        config, 1, shared_calibration=True, unit_gains=True))


def gen_multipass(config, n_passes, change_fraction=0.0,
                  shared_calibration=False, unit_gains=False,
                  gain_spread=0.5):
    """Registered multipass cube with shared background speckle.

    Passes share each bin's temporal speckle and texture, scaled by a
    per-pass complex gain 1 + gain_spread * zeta, and get independent
    noise. change_fraction of the bins (chosen by a seeded stream) draw
    independent speckle per pass instead. shared_calibration reuses the
    base calibration for every pass; unit_gains pins the gains to 1,
    which together with change_fraction 0 and zero noise makes the
    passes identical.
    """
    return _collect(config, n_passes, multipass_blocks(
        config, n_passes, change_fraction, shared_calibration, unit_gains,
        gain_spread))


def inject_target(history, bin_index, doppler, amplitude, pass_index=0,
                  kappa=None):
    """Add a unit-norm mover signature scaled by amplitude to one bin.

    Returns a new PhaseHistory; injections are additive so their order
    does not matter. kappa defaults to the steering convention's 0.5.
    """
    if not 0 <= bin_index < history.n_bins:
        raise DimensionError(f"bin {bin_index} out of range")
    if not 0 <= pass_index < history.n_passes:
        raise DimensionError(f"pass {pass_index} out of range")
    injected = PhaseHistory(history.p, history.q, history.n_passes,
                            history.data.copy(), list(history.truth))
    _add_target(injected.data[pass_index, bin_index], bin_index, doppler,
                amplitude, kappa)
    injected.truth.append(
        TargetTruth(int(bin_index), float(doppler), complex(amplitude)))
    return injected


def _add_target(matrix, bin_index, doppler, amplitude, kappa=None):
    """inject_target's work, done in place on bin bin_index's (p, q)
    matrix; a result that is not finite is a DataError, and leaves the
    matrix as it was."""
    from .filters import make_steering

    p, q = matrix.shape
    sv = make_steering(doppler, p, q, 0.5 if kappa is None else kappa)
    signature = np.outer(sv.spatial, sv.temporal)
    signature /= np.linalg.norm(sv.spatial) * np.linalg.norm(sv.temporal)
    # a finite but huge Doppler or amplitude can still overflow here
    updated = matrix + amplitude * signature
    if not np.isfinite(updated).all():
        raise DataError(
            f"target at bin {bin_index} (doppler {doppler!r}, amplitude "
            f"{amplitude!r}) makes the bin non-finite")
    matrix[...] = updated
