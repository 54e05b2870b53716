"""Synthetic clutter scenes with compound-Gaussian statistics.

Each range bin is texture times speckle plus white noise. The speckle
is a single temporal draw shared by all channels, scaled per channel by
a fixed calibration vector, so the ideal clutter covariance is the
Kronecker product of a rank-one spatial factor and a low-rank temporal
factor. Multipass scenes reuse the temporal speckle across passes with
per-pass gains, and can flip a fraction of bins to independent speckle
to emulate scene change.

Randomness comes from keyed substreams of one seed: stream (1, m) feeds
bin m's shared draws (speckle, texture), stream (2, m, k) feeds pass k
of bin m (gain, replacement speckle, noise), stream (3, k) the per-pass
calibrations and streams (0,), (4,) the scene profile and the changed
bin selection. Bin m's data therefore depends on the seed and m, and on
n_bins only through which bins change: without scene change, a longer
scene with the same seed extends a shorter one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError
from .linalg import kron

_TEXTURES = ("constant", "inverse_gamma")


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
        full = kron(spatial, self.temporal_covariance())
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


def _complex_normal(rng, n):
    draws = rng.standard_normal(2 * n)
    return (draws[0::2] + 1j * draws[1::2]) / math.sqrt(2.0)


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


def _texture_draw(rng, config):
    if config.texture == "constant":
        return 1.0
    shape = config.texture_shape
    g = rng.gamma(shape, 1.0 / (shape - 1.0))
    return 1.0 / math.sqrt(g)


def _generate(model, n_passes, change_fraction, shared_calibration,
              unit_gains, gain_spread):
    config = model.config
    p, q, n_bins = config.p, config.q, config.n_bins
    r = config.rank_temporal
    scale = np.sqrt(model.temporal_weights)
    noise_amp = math.sqrt(config.noise_power)

    if shared_calibration:
        calibrations = [model.calibration] * n_passes
    else:
        calibrations = [model.pass_calibration(k) for k in range(n_passes)]

    n_changed = int(round(change_fraction * n_bins))
    changed = np.zeros(n_bins, dtype=bool)
    if n_changed > 0:
        picks = _stream(config.seed, 4).choice(n_bins, size=n_changed,
                                               replace=False)
        changed[picks] = True

    data = np.empty((n_passes, n_bins, p, q), dtype=np.complex128)
    for m in range(n_bins):
        shared_rng = _stream(config.seed, 1, m)
        z = _complex_normal(shared_rng, r)
        tau = _texture_draw(shared_rng, config)
        speckle = model.temporal_profiles @ (scale * z)
        for k in range(n_passes):
            pass_rng = _stream(config.seed, 2, m, k)
            zeta = _complex_normal(pass_rng, 1)[0]
            gain = 1.0 if unit_gains else 1.0 + gain_spread * zeta
            if changed[m]:
                z_k = _complex_normal(pass_rng, r)
                speckle_k = model.temporal_profiles @ (scale * z_k)
            else:
                speckle_k = speckle
            noise = _complex_normal(pass_rng, p * q).reshape(p, q)
            data[k, m] = (tau * gain) * np.outer(calibrations[k], speckle_k)
            data[k, m] += noise_amp * noise
    return PhaseHistory(p, q, n_passes, data)


def gen_clutter(config):
    """Single-pass clutter cube for a scene config."""
    model = scene_model(config)
    return _generate(model, 1, 0.0, shared_calibration=True,
                     unit_gains=True, gain_spread=0.0)


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
    if n_passes < 1:
        raise DimensionError(f"need at least one pass, got {n_passes}")
    if not 0.0 <= change_fraction <= 1.0:
        raise DataError(f"change fraction must be in [0, 1], got {change_fraction}")
    model = scene_model(config)
    return _generate(model, n_passes, change_fraction, shared_calibration,
                     unit_gains, gain_spread)


def inject_target(history, bin_index, doppler, amplitude, pass_index=0,
                  kappa=None):
    """Add a unit-norm mover signature scaled by amplitude to one bin.

    Returns a new PhaseHistory; injections are additive so their order
    does not matter. kappa defaults to the steering convention's 0.5.
    """
    from .filters import make_steering

    if not 0 <= bin_index < history.n_bins:
        raise DimensionError(f"bin {bin_index} out of range")
    if not 0 <= pass_index < history.n_passes:
        raise DimensionError(f"pass {pass_index} out of range")
    sv = make_steering(doppler, history.p, history.q,
                       0.5 if kappa is None else kappa)
    signature = np.outer(sv.spatial, sv.temporal)
    signature /= np.linalg.norm(sv.spatial) * np.linalg.norm(sv.temporal)
    data = history.data.copy()
    data[pass_index, bin_index] += amplitude * signature
    truth = list(history.truth)
    truth.append(TargetTruth(int(bin_index), float(doppler), complex(amplitude)))
    return PhaseHistory(history.p, history.q, history.n_passes, data, truth)
