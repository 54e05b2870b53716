"""File formats: binary phase-history cubes, estimates, CSV and PGM output.

Phase-history files ("KPH1") are little-endian throughout:

    magic      4 bytes  b"KPH1"
    version    u16      currently 1
    flags      u16      entry encoding; 8 means two float64 per entry,
                        real part first
    p, q, K, n_bins     u32 each
    payload    K * n_bins * p * q entries, ordered pass-major then
               bin-major, each bin as its p x q matrix row by row
    n_targets  u32
    targets    (bin u32, doppler f64, amplitude_re f64, amplitude_im f64)

Estimate files ("KES1") share the entry encoding and carry the two
factor matrices back to back after a fixed header.

Both binary formats are written from the arrays' memory and read
straight into the arrays the reader returns, so a file is held in
memory once either way; `read_estimate` symmetrizes each factor in
place. CSV outputs always carry a header row, with floats printed at
full precision so they read back exactly.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .linalg import _hermitian_part
from .lrkron import KronCovEstimate
from .simulate import PhaseHistory, SceneConfig, TargetTruth

PH_MAGIC = b"KPH1"
EST_MAGIC = b"KES1"
FORMAT_VERSION = 1
FLAG_COMPLEX128 = 8

_PH_HEADER = struct.Struct("<4sHHIIII")
_TARGET_RECORD = struct.Struct("<Iddd")
_EST_HEADER = struct.Struct("<4sHHIIIIII")


def write_phase_history(path, history):
    """Serialize a PhaseHistory; byte output depends only on the content.

    The payload goes to the file straight from the cube's memory, with
    no serialized copy.
    """
    data = np.ascontiguousarray(history.data, dtype="<c16")
    k, n_bins, p, q = data.shape
    with open(path, "wb") as fh:
        fh.write(_PH_HEADER.pack(PH_MAGIC, FORMAT_VERSION, FLAG_COMPLEX128,
                                 p, q, k, n_bins))
        data.tofile(fh)
        fh.write(struct.pack("<I", len(history.truth)))
        for target in history.truth:
            fh.write(_TARGET_RECORD.pack(
                target.bin_index, target.doppler,
                target.amplitude.real, target.amplitude.imag,
            ))


def read_phase_history(path):
    """Read a KPH1 file back into a PhaseHistory, verifying every byte.

    The payload is read straight into the returned cube, so the file is
    held in memory once. Sizes are checked against the file's length
    before anything that large is allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_PH_HEADER.size)
        if len(header) < _PH_HEADER.size:
            raise DataError("file too short for a phase-history header")
        magic, version, flags, p, q, k, n_bins = _PH_HEADER.unpack(header)
        if magic != PH_MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {PH_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported format version {version}")
        if flags != FLAG_COMPLEX128:
            raise DataError(f"unsupported entry encoding flags {flags}")
        if min(p, q, k, n_bins) < 1:
            raise DataError("dimension fields must be positive")
        payload_bytes = k * n_bins * p * q * 16
        if size < _PH_HEADER.size + payload_bytes + 4:
            raise DataError("truncated payload")
        # aligned, writable and native on little-endian hosts; astype
        # only copies on a big-endian one
        data = np.empty((k, n_bins, p, q), dtype="<c16")
        if fh.readinto(data) != payload_bytes:
            raise DataError("truncated payload")
        data = data.astype(np.complex128, copy=False)
        tail = fh.read()
    if len(tail) < 4:
        raise DataError("truncated payload")
    (n_targets,) = struct.unpack_from("<I", tail, 0)
    offset = 4
    expected = offset + n_targets * _TARGET_RECORD.size
    if len(tail) < expected:
        raise DataError("truncated target records")
    if len(tail) > expected:
        raise DataError("trailing bytes after target records")
    truth = []
    for _ in range(n_targets):
        bin_index, doppler, re, im = _TARGET_RECORD.unpack_from(tail, offset)
        offset += _TARGET_RECORD.size
        if bin_index >= n_bins:
            raise DataError(f"target bin {bin_index} out of range")
        truth.append(TargetTruth(bin_index, doppler, complex(re, im)))
    return PhaseHistory(p, q, k, data, truth)


def write_estimate(path, estimate):
    """Serialize the two factors of a KronCovEstimate.

    The factors go to the file straight from their memory, with no
    serialized copy.
    """
    spatial = np.ascontiguousarray(estimate.spatial, dtype="<c16")
    temporal = np.ascontiguousarray(estimate.temporal, dtype="<c16")
    sdim = spatial.shape[0]
    q = temporal.shape[0]
    with open(path, "wb") as fh:
        fh.write(_EST_HEADER.pack(EST_MAGIC, FORMAT_VERSION, FLAG_COMPLEX128,
                                  sdim, q, estimate.rank_spatial,
                                  estimate.rank_temporal, estimate.iterations,
                                  1 if estimate.converged else 0))
        spatial.tofile(fh)
        temporal.tofile(fh)


def read_estimate(path):
    """Read a KES1 file back into a KronCovEstimate.

    Both factors must be finite and Hermitian within linalg's tolerance,
    or DataError is raised. The estimate holds their Hermitian parts
    (m + m^H) / 2, which equal the stored factors when those are exactly
    Hermitian, as the estimator writes them. Each factor is read
    straight into its own array and symmetrized in place, so the file
    is held in memory once. The arrays are read-only and marked as
    checked, so build_filter does not check them again. Whether they
    are PSD is left to the filter's eigensolve, which the factors go
    through anyway.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_EST_HEADER.size)
        if len(header) < _EST_HEADER.size:
            raise DataError("file too short for an estimate header")
        (magic, version, flags, sdim, q, rank_spatial, rank_temporal,
         iterations, converged) = _EST_HEADER.unpack(header)
        if magic != EST_MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {EST_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported format version {version}")
        if flags != FLAG_COMPLEX128:
            raise DataError(f"unsupported entry encoding flags {flags}")
        if size != _EST_HEADER.size + (sdim * sdim + q * q) * 16:
            raise DataError("estimate payload size mismatch")
        if not 1 <= rank_spatial <= sdim:
            raise DataError(f"spatial rank {rank_spatial} outside [1, {sdim}]")
        if not 1 <= rank_temporal <= q:
            raise DataError(f"temporal rank {rank_temporal} outside [1, {q}]")
        factors = []
        for name, dim in (("spatial factor", sdim), ("temporal factor", q)):
            factor = np.empty((dim, dim), dtype="<c16")
            if fh.readinto(factor) != factor.nbytes:
                raise DataError("estimate payload size mismatch")
            # astype only copies on a big-endian host
            factor = _hermitian_part(factor.astype(np.complex128, copy=False),
                                     name, overwrite=True)
            factor.flags.writeable = False
            factors.append(factor)
    spatial, temporal = factors
    return KronCovEstimate(spatial, temporal, rank_spatial, rank_temporal,
                           iterations, [], bool(converged),
                           _checked=(spatial, temporal))


def write_residuals_csv(path, residuals):
    with open(path, "w") as fh:
        fh.write("iteration,residual\n")
        for i, eta in enumerate(residuals, start=1):
            fh.write(f"{i},{float(eta)!r}\n")


def write_detection_csv(path, image):
    """Detection map as CSV: one row per bin, one column per Doppler."""
    with open(path, "w") as fh:
        # plain-float reprs round-trip exactly and stay parseable
        header = ",".join(f"f={float(f)!r}" for f in image.dopplers)
        fh.write(f"bin,{header}\n")
        # tolist per row: a whole-map list would hold every value as a
        # Python float at once
        values = np.asarray(image.values, dtype=np.float64)
        for m, row in enumerate(values):
            fh.write(f"{m},{','.join(map(repr, row.tolist()))}\n")


def write_bench_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("p,q,n,eps,threads,trial,iterations,seconds,eta_final\n")
        for r in rows:
            fh.write(f"{r.p},{r.q},{r.n},{float(r.eps)!r},{r.threads},"
                     f"{r.trial},{r.iterations},{float(r.seconds)!r},"
                     f"{float(r.eta_final)!r}\n")


def write_pgm(path, values):
    """16-bit grayscale dump of a detection map, max scaled to white."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"image must be 2-D, got shape {values.shape}")
    peak = values.max() if values.size else 0.0
    if peak > 0:
        scaled = np.round(values / peak * 65535.0)
    else:
        scaled = np.zeros_like(values)
    pixels = scaled.astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode())
        fh.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# scene configs

_REQUIRED_KEYS = ("p", "q", "n_bins", "r_b")

_INT_KEYS = {"p", "q", "n_bins", "r_b", "seed", "K"}
_FLOAT_KEYS = {"sigma2", "texture_shape", "kappa", "change_fraction",
               "pass_gain_spread"}
_BOOL_KEYS = {"shared_calibration", "unit_pass_gains"}


@dataclass(frozen=True)
class SimJob:
    """Parsed simulation request: scene config plus run options."""

    scene: SceneConfig
    n_passes: int
    change_fraction: float
    shared_calibration: bool
    unit_pass_gains: bool
    pass_gain_spread: float
    targets: list


def _parse_bool(value, lineno):
    low = value.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ConfigError(lineno, f"expected a boolean, got {value!r}")


def parse_scene_config(text):
    """Parse the key-value scene format into a SimJob.

    One `key = value` pair per line, `#` starts a comment. Movers are
    listed as `target = BIN DOPPLER RE IM`, one per line.
    """
    values = {}
    targets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(lineno, f"missing value for {key!r}")
        if key == "target":
            parts = value.split()
            if len(parts) != 4:
                raise ConfigError(
                    lineno, "target takes exactly: bin doppler amp_re amp_im"
                )
            try:
                bin_index = int(parts[0])
                doppler = float(parts[1])
                amplitude = complex(float(parts[2]), float(parts[3]))
            except ValueError:
                raise ConfigError(lineno, f"bad target fields {value!r}") from None
            if not all(map(math.isfinite,
                           (doppler, amplitude.real, amplitude.imag))):
                raise ConfigError(
                    lineno, f"target doppler and amplitude must be finite, "
                            f"got {value!r}")
            targets.append((bin_index, doppler, amplitude))
            continue
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(lineno, f"{key} expects an integer, got {value!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(lineno, f"{key} expects a number, got {value!r}") from None
            if not math.isfinite(values[key]):
                raise ConfigError(lineno, f"{key} must be finite, got {value!r}")
        elif key in _BOOL_KEYS:
            values[key] = _parse_bool(value, lineno)
        elif key == "texture":
            values[key] = value
        else:
            raise ConfigError(lineno, f"unknown key {key!r}")

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise DataError(f"config missing required key {key!r}")

    scene = SceneConfig(
        p=values["p"],
        q=values["q"],
        n_bins=values["n_bins"],
        rank_temporal=values["r_b"],
        noise_power=values.get("sigma2", 1e-2),
        texture=values.get("texture", "constant"),
        texture_shape=values.get("texture_shape", 3.0),
        kappa=values.get("kappa", 0.5),
        seed=values.get("seed", 0),
    )
    scene.validate()
    n_passes = values.get("K", 1)
    if n_passes < 1:
        raise DataError(f"K must be >= 1, got {n_passes}")
    for bin_index, _, _ in targets:
        if not 0 <= bin_index < scene.n_bins:
            raise DataError(f"target bin {bin_index} out of range")
    return SimJob(
        scene,
        n_passes,
        values.get("change_fraction", 0.0),
        values.get("shared_calibration", False),
        values.get("unit_pass_gains", False),
        values.get("pass_gain_spread", 0.5),
        targets,
    )


def load_scene_config(path):
    with open(path) as fh:
        return parse_scene_config(fh.read())
