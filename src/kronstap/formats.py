"""File formats: binary phase-history cubes, estimates, CSV and PGM
output, and the scene and bench sweep text files.

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

Estimate files ("KES2") hold each factor as the eigenpairs its
truncation kept, not as a dense matrix, and are little-endian too:

    magic      4 bytes  b"KES2"
    version    u16      currently 1
    flags      u16      entry encoding, as for KPH1
    sdim, q    u32 each     spatial and temporal factor dims
    rank_spatial, rank_temporal
               u32 each     rank budgets, each in [1, its dim]: the
                            count of stored pairs
    iterations u32
    converged  u32      0 or 1
    n_residuals u32
    then, for the spatial and then the temporal factor:
    values     rank float64, descending
    vectors    dim x rank entries, row by row; column k belongs to value k
    residuals  n_residuals float64, the fit's residual history

The dense dim x dim factor is U diag(values) U^H, formed only when a
caller asks for it (linalg.Factor). Estimate files of the older "KES1"
layout, dense factors back to back, are refused with a message to
re-run `estimate`: one reader, not two.

A KPH1 cube is read and written in blocks of bins, through one reader
and one writer that only this module knows the layout for.
PhaseHistoryReader checks the header, the file's size and the target
tail when it opens, then reads the K pass segments of any bin range
into one buffer that it reuses: its working set is the largest block
asked for. phase_history_writer checks the header fields (each a u32)
and the file's size against the free space where it goes before it
opens anything, then writes each block's pass segments at their
offsets, and the tail last. read_phase_history and write_phase_history
are one block of every bin: the cube is read straight into the array
returned, or written from the array's memory, with no copy. A KES2
estimate is small and read and written whole, the same way.

Every writer here writes to a temporary file next to its path (its
name ends in TEMP_SUFFIX) and renames it into place once complete, so
a failed write leaves no partial file, and an existing file at the
path, even a stage's own input, stays whole until then. CSV outputs
always carry a header row, with floats printed at full precision so
they read back exactly.

Scene configs and bench sweeps are `key = value` text, read through
one line reader (_key_values) that names the line of each error. Only
this module opens files; a scene default is SceneConfig's or SimJob's.
A one-pass scene is gen_clutter's and takes no pass key.
"""

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .linalg import Factor
from .lrkron import KronCovEstimate
from .simulate import PhaseHistory, SceneConfig, TargetTruth

PH_MAGIC = b"KPH1"
EST_MAGIC = b"KES2"
# the dense-factor layout this one replaced; read_estimate names it
_OLD_EST_MAGIC = b"KES1"
FORMAT_VERSION = 1
FLAG_COMPLEX128 = 8

_PH_HEADER = struct.Struct("<4sHHIIII")
_TARGET_RECORD = struct.Struct("<Iddd")
_EST_HEADER = struct.Struct("<4sHHIIIIIII")
_U32_MAX = 2 ** 32 - 1

# Every output is written under a temporary name ending in this, next to
# where it goes, and renamed into place once it is complete.
TEMP_SUFFIX = ".tmp"


@contextmanager
def _replacing(path, mode="wb"):
    """A new file next to path, renamed to path when the block ends.

    The file is opened exclusively under a temporary name (mode "wb" or
    "w"), so a reader of path never sees a partial file and an existing
    path, even the input of the same stage, stays whole until the
    rename. When the block raises, the temporary file is removed.
    """
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory,
                        f".{name}.{os.urandom(4).hex()}{TEMP_SUFFIX}")
    try:
        with open(temp, mode.replace("w", "x")) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise


def _free_bytes(path):
    """Bytes free to an unprivileged writer where path goes, or None
    where the platform cannot tell."""
    if not hasattr(os, "statvfs"):
        return None
    stat = os.statvfs(os.path.dirname(os.fspath(path)) or ".")
    return stat.f_bavail * stat.f_frsize


def _ph_frame(p, q, n_passes, n_bins, truth):
    """The header and target tail of a KPH1 file, and its total size.

    Every header field must fit its u32, and every target's bin must lie
    in range(n_bins); otherwise DataError, which names the cube's byte
    size.
    """
    fields = (("p", p), ("q", q), ("K", n_passes), ("n_bins", n_bins))
    payload = n_passes * n_bins * p * q * 16
    cube = (f"a {n_passes} x {n_bins} x {p} x {q} cube needs "
            f"{payload:,} bytes")
    for name, value in fields:
        if not 1 <= value <= _U32_MAX:
            raise DataError(f"{cube}, and {name} = {value} does not fit "
                            f"the KPH header's u32 field")
    if len(truth) > _U32_MAX:
        raise DataError(f"{len(truth)} targets do not fit the KPH header")
    tail = [struct.pack("<I", len(truth))]
    for target in truth:
        if not 0 <= target.bin_index < n_bins:
            raise DataError(f"target bin {target.bin_index} out of range")
        tail.append(_TARGET_RECORD.pack(
            target.bin_index, target.doppler,
            target.amplitude.real, target.amplitude.imag))
    header = _PH_HEADER.pack(PH_MAGIC, FORMAT_VERSION, FLAG_COMPLEX128,
                             p, q, n_passes, n_bins)
    tail = b"".join(tail)
    return header, tail, len(header) + payload + len(tail), cube


@contextmanager
def phase_history_writer(path, p, q, n_passes, n_bins, truth=()):
    """Write a KPH1 file block by block; yields the block writer.

    The block writer takes the (n_passes, m, p, q) block of the next m
    bins and writes each pass's segment at its offset. When the block
    ends, every bin must have been written; the target tail goes last,
    and the file is renamed into place (see _replacing). The header
    fields and the targets are checked, and the file's size against the
    free space where it goes, before anything is opened.
    """
    header, tail, size, cube = _ph_frame(p, q, n_passes, n_bins, truth)
    free = _free_bytes(path)
    if free is not None and size > free:
        raise DataError(f"{cube}, more than the {free:,} bytes free "
                        f"where {os.fspath(path)} goes")
    bin_bytes = p * q * 16
    written = 0

    def write(block):
        nonlocal written
        if block.shape[:1] + block.shape[2:] != (n_passes, p, q) \
                or written + block.shape[1] > n_bins:
            raise DimensionError(
                f"block of shape {block.shape} does not continue a "
                f"({n_passes}, {n_bins}, {p}, {q}) cube at bin {written}")
        for pass_index, segment in enumerate(block):
            bin_index = pass_index * n_bins + written
            fh.seek(len(header) + bin_index * bin_bytes)
            fh.write(np.ascontiguousarray(segment, dtype="<c16"))
        written += block.shape[1]

    with _replacing(path) as fh:
        fh.write(header)
        yield write
        if written != n_bins:
            raise DimensionError(f"{written} of {n_bins} bins written")
        fh.seek(len(header) + n_passes * n_bins * bin_bytes)
        fh.write(tail)


def write_phase_history(path, history):
    """Serialize a PhaseHistory; byte output depends only on the content.

    One block of every bin through phase_history_writer: the payload
    goes to the file straight from the cube's memory, with no
    serialized copy.
    """
    k, n_bins, p, q = history.data.shape
    with phase_history_writer(path, p, q, k, n_bins, history.truth) as write:
        write(history.data)


class PhaseHistoryReader:
    """A KPH1 file opened for reading blocks of bins.

    Opening it checks every byte outside the payload: the header, the
    file's size against it, and the target tail, whose records become
    `truth`. `read(m0, m1)` then reads the K pass segments of bins
    [m0, m1) into a buffer that the next read reuses and returns it as
    an (n_passes, m1 - m0, p, q) complex128 cube. Like a PhaseHistory,
    it has p, q, n_passes, n_bins and truth, so the library's block
    consumers take either. Use it as a context manager, or close() it.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        self._buffer = np.empty(0, dtype="<c16")
        try:
            self._check()
        except BaseException:
            self._fh.close()
            raise

    def _check(self):
        fh = self._fh
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
        tail_at = _PH_HEADER.size + k * n_bins * p * q * 16
        if size < tail_at + 4:
            raise DataError("truncated payload")
        fh.seek(tail_at)
        (n_targets,) = struct.unpack("<I", fh.read(4))
        expected = tail_at + 4 + n_targets * _TARGET_RECORD.size
        if size < expected:
            raise DataError("truncated target records")
        if size > expected:
            raise DataError("trailing bytes after target records")
        records = fh.read(expected - tail_at - 4)
        truth = []
        for bin_index, doppler, re, im in _TARGET_RECORD.iter_unpack(records):
            if bin_index >= n_bins:
                raise DataError(f"target bin {bin_index} out of range")
            truth.append(TargetTruth(bin_index, doppler, complex(re, im)))
        self.p, self.q, self.n_passes, self.n_bins = p, q, k, n_bins
        self.truth = truth

    def read(self, m0, m1):
        """The (n_passes, m1 - m0, p, q) cube of bins [m0, m1).

        It lives in the reader's buffer until the next read.
        """
        if not 0 <= m0 < m1 <= self.n_bins:
            raise DimensionError(
                f"bins [{m0}, {m1}) outside [0, {self.n_bins})")
        k, m, p, q = self.n_passes, m1 - m0, self.p, self.q
        if self._buffer.size < k * m * p * q:
            self._buffer = np.empty(k * m * p * q, dtype="<c16")
        block = self._buffer[:k * m * p * q].reshape(k, m, p, q)
        for pass_index, segment in enumerate(block):
            bin_index = pass_index * self.n_bins + m0
            self._fh.seek(_PH_HEADER.size + bin_index * p * q * 16)
            if self._fh.readinto(segment) != segment.nbytes:
                raise DataError("truncated payload")
        # native on little-endian hosts; astype only copies on a
        # big-endian one
        return block.astype(np.complex128, copy=False)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_phase_history(path):
    """Read a KPH1 file back into a PhaseHistory, verifying every byte.

    One block of every bin through PhaseHistoryReader: the payload is
    read straight into the returned cube, and sizes are checked against
    the file's length before anything that large is allocated.
    """
    with PhaseHistoryReader(path) as reader:
        data = reader.read(0, reader.n_bins)
    return PhaseHistory(reader.p, reader.q, reader.n_passes, data,
                        reader.truth)


def write_estimate(path, estimate):
    """Serialize a KronCovEstimate as KES2: each factor's top
    rank-budget eigenpairs, then the residual history.

    A factor held as a dense matrix is decomposed here, once (see
    linalg.Factor). The pairs go to the file straight from their memory
    when they are contiguous little-endian, as the estimator's temporal
    pairs are.
    """
    payload = []
    dims = []
    for name in ("spatial", "temporal"):
        values, vectors = getattr(estimate, f"{name}_pairs")
        rank = getattr(estimate, f"rank_{name}")
        if not 1 <= rank <= values.size:
            raise DimensionError(
                f"{name} rank budget {rank} outside [1, {values.size}], "
                f"the eigenpairs held")
        dims.append(vectors.shape[0])
        payload += [np.ascontiguousarray(values[:rank], dtype="<f8"),
                    np.ascontiguousarray(vectors[:, :rank], dtype="<c16")]
    residuals = np.asarray(estimate.residuals, dtype="<f8")
    with _replacing(path) as fh:
        fh.write(_EST_HEADER.pack(EST_MAGIC, FORMAT_VERSION, FLAG_COMPLEX128,
                                  *dims, estimate.rank_spatial,
                                  estimate.rank_temporal, estimate.iterations,
                                  1 if estimate.converged else 0,
                                  residuals.size))
        for arr in payload:
            arr.tofile(fh)
        residuals.tofile(fh)


def read_estimate(path):
    """Read a KES2 file back into a KronCovEstimate; this is where an
    estimate from outside is checked, once.

    Every size must match the header before anything is allocated, with
    each rank budget in [1, its dim]. Each factor's pairs are read
    straight into their own arrays and checked by
    linalg.Factor.checked_pairs: finite, values descending and PSD up
    to rounding, vectors orthonormal. The residuals must be finite and
    non-negative. Any failure raises DataError; a KES1 file raises one
    that says to re-run `estimate`. No dense factor is formed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_EST_HEADER.size)
        if header[:4] == _OLD_EST_MAGIC:
            raise DataError(
                f"{path} is a KES1 estimate (dense factors), a layout no "
                f"longer read; re-run `kronstap estimate` to write KES2")
        if len(header) < _EST_HEADER.size:
            raise DataError("file too short for an estimate header")
        (magic, version, flags, sdim, q, rank_spatial, rank_temporal,
         iterations, converged, n_residuals) = _EST_HEADER.unpack(header)
        if magic != EST_MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {EST_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported format version {version}")
        if flags != FLAG_COMPLEX128:
            raise DataError(f"unsupported entry encoding flags {flags}")
        if converged not in (0, 1):
            raise DataError(f"converged flag must be 0 or 1, got {converged}")
        layout = (("spatial", sdim, rank_spatial),
                  ("temporal", q, rank_temporal))
        for name, dim, rank in layout:
            if not 1 <= rank <= dim:
                raise DataError(f"{name} rank {rank} outside [1, {dim}]")
        expected = _EST_HEADER.size + 8 * n_residuals + sum(
            rank * (8 + 16 * dim) for _, dim, rank in layout)
        if size != expected:
            raise DataError("estimate payload size mismatch")
        factors = []
        for name, dim, rank in layout:
            values = _read_array(fh, rank, "<f8")
            vectors = _read_array(fh, (dim, rank), "<c16")
            # astype only copies on a big-endian host
            factors.append(Factor.checked_pairs(
                values.astype(np.float64, copy=False),
                vectors.astype(np.complex128, copy=False), f"{name} factor"))
        residuals = _read_array(fh, n_residuals, "<f8")
    if not (np.isfinite(residuals).all() and (residuals >= 0).all()):
        raise DataError("residual history must be finite and non-negative")
    return KronCovEstimate(*factors, rank_spatial, rank_temporal, iterations,
                           residuals.tolist(), bool(converged))


def _read_array(fh, shape, dtype):
    arr = np.empty(shape, dtype=dtype)
    if fh.readinto(arr) != arr.nbytes:
        raise DataError("estimate payload size mismatch")
    return arr


def write_residuals_csv(path, residuals):
    with _replacing(path, "w") as fh:
        fh.write("iteration,residual\n")
        for i, eta in enumerate(residuals, start=1):
            fh.write(f"{i},{float(eta)!r}\n")


def write_detection_csv(path, image):
    """Detection map as CSV: one row per bin, one column per Doppler."""
    with _replacing(path, "w") as fh:
        # plain-float reprs round-trip exactly and stay parseable
        header = ",".join(f"f={float(f)!r}" for f in image.dopplers)
        fh.write(f"bin,{header}\n")
        # tolist per row: a whole-map list would hold every value as a
        # Python float at once
        values = np.asarray(image.values, dtype=np.float64)
        for m, row in enumerate(values):
            fh.write(f"{m},{','.join(map(repr, row.tolist()))}\n")


def write_bench_csv(path, rows):
    with _replacing(path, "w") as fh:
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
    with _replacing(path) as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode())
        fh.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# scene and sweep files

@dataclass(frozen=True)
class SimJob:
    """Parsed simulation request: a scene config, its pass options (with
    simulate.multipass_blocks' defaults, or gen_clutter's for one pass)
    and its targets."""

    scene: SceneConfig
    n_passes: int = 1
    change_fraction: float = 0.0
    shared_calibration: bool = False
    unit_pass_gains: bool = False
    pass_gain_spread: float = 0.5
    targets: list = field(default_factory=list)


# scene key -> (the dataclass it sets, its field, its type)
_KEYS = {
    "p": (SceneConfig, "p", int), "q": (SceneConfig, "q", int),
    "n_bins": (SceneConfig, "n_bins", int), "seed": (SceneConfig, "seed", int),
    "r_b": (SceneConfig, "rank_temporal", int),
    "sigma2": (SceneConfig, "noise_power", float),
    "texture": (SceneConfig, "texture", str),
    "texture_shape": (SceneConfig, "texture_shape", float),
    "kappa": (SceneConfig, "kappa", float),
    "K": (SimJob, "n_passes", int),
    "change_fraction": (SimJob, "change_fraction", float),
    "shared_calibration": (SimJob, "shared_calibration", bool),
    "unit_pass_gains": (SimJob, "unit_pass_gains", bool),
    "pass_gain_spread": (SimJob, "pass_gain_spread", float),
}
_REQUIRED_KEYS = ("p", "q", "n_bins", "r_b")
_PASS_KEYS = ("change_fraction", "shared_calibration", "unit_pass_gains",
              "pass_gain_spread")
_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}
_EXPECTS = {int: "an integer", float: "a number", bool: "a boolean"}


def _key_values(text, repeats):
    """(lineno, key, value) for each `key = value` line of text; a line
    without `=` or a value, or a key not in repeats set twice, raises
    ConfigError naming the line."""
    first = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(lineno, f"expected 'key = value', got {line!r}")
        if not value:
            raise ConfigError(lineno, f"missing value for {key!r}")
        if key in first and key not in repeats:
            raise ConfigError(lineno, f"{key!r} is set again, first on "
                                      f"line {first[key]}")
        first.setdefault(key, lineno)
        yield lineno, key, value


def _typed(lineno, key, value, kind):
    """value as kind: a string, a boolean or a finite number."""
    try:
        typed = _BOOLS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ConfigError(lineno, f"{key} expects {_EXPECTS[kind]}, "
                                  f"got {value!r}") from None
    if kind is float and not math.isfinite(typed):
        raise ConfigError(lineno, f"{key} must be finite, got {value!r}")
    return typed


def _target(lineno, value):
    parts = value.split()
    if len(parts) != 4:
        raise ConfigError(lineno,
                          "target takes exactly: bin doppler amp_re amp_im")
    try:
        bin_index = int(parts[0])
        doppler, re, im = map(float, parts[1:])
    except ValueError:
        raise ConfigError(lineno, f"bad target fields {value!r}") from None
    if not all(map(math.isfinite, (doppler, re, im))):
        raise ConfigError(lineno, f"target doppler and amplitude must be "
                                  f"finite, got {value!r}")
    return bin_index, doppler, complex(re, im)


def parse_scene_config(text):
    """Parse the key-value scene format into a SimJob.

    One `key = value` pair per line, `#` starts a comment. Movers are
    listed as `target = BIN DOPPLER RE IM`, one per line; no other key
    may be set twice. A key left out takes its dataclass's default. A
    pass key (_PASS_KEYS) with K = 1 raises ConfigError naming its line.
    """
    given = {SceneConfig: {}, SimJob: {"targets": []}}
    pass_keys = []
    for lineno, key, value in _key_values(text, repeats={"target"}):
        if key == "target":
            given[SimJob]["targets"].append(_target(lineno, value))
        elif key in _KEYS:
            owner, name, kind = _KEYS[key]
            given[owner][name] = _typed(lineno, key, value, kind)
            if key in _PASS_KEYS:
                pass_keys.append((lineno, key))
        else:
            raise ConfigError(lineno, f"unknown key {key!r}")
    if given[SimJob].get("n_passes", 1) == 1:
        if pass_keys:
            lineno, key = pass_keys[0]
            raise ConfigError(lineno, f"{key} needs K >= 2")
        given[SimJob].update(shared_calibration=True, unit_pass_gains=True)
    for key in _REQUIRED_KEYS:
        if _KEYS[key][1] not in given[SceneConfig]:
            raise DataError(f"config missing required key {key!r}")
    scene = SceneConfig(**given[SceneConfig])
    scene.validate()
    job = SimJob(scene, **given[SimJob])
    if job.n_passes < 1:
        raise DataError(f"K must be >= 1, got {job.n_passes}")
    for bin_index, _, _ in job.targets:
        if not 0 <= bin_index < scene.n_bins:
            raise DataError(f"target bin {bin_index} out of range")
    return job


def load_scene_config(path):
    with open(path) as fh:
        return parse_scene_config(fh.read())


def load_sweep(path):
    """The (p, q, threads, eps) rows of a bench sweep file's repeatable
    `row = p q threads eps` lines, every one checked before any is
    returned: p, q and threads >= 1, eps below +inf (a negative eps,
    -inf too, turns off the estimator's stall test)."""
    with open(path) as fh:
        text = fh.read()
    rows = []
    for lineno, key, value in _key_values(text, repeats={"row"}):
        if key != "row":
            raise ConfigError(lineno, f"unknown key {key!r}")
        parts = value.split()
        if len(parts) != 4:
            raise ConfigError(lineno, "row takes exactly: p q threads eps")
        try:
            row = (*map(int, parts[:3]), float(parts[3]))
        except ValueError:
            raise ConfigError(lineno, f"bad row fields {value!r}") from None
        if min(row[:3]) < 1:
            raise ConfigError(lineno, f"p, q and threads must be >= 1, "
                                      f"got {value!r}")
        if not row[3] < math.inf:
            raise ConfigError(lineno, f"eps must not be NaN or +inf, "
                                      f"got {parts[3]!r}")
        rows.append(row)
    if not rows:
        raise DataError("sweep file lists no rows")
    return rows
