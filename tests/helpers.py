"""Shared oracles and builders for the test suite.

The oracles here deliberately take the dumb route: explicit loops,
literal block extraction, textbook recursions. They exist so the fast
index-arithmetic implementations have something independent to be
checked against.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from kronstap import linalg
from kronstap.errors import DataError, DimensionError
from kronstap.filters import RANK_TOL, DetectionMap, SteeringVector
from kronstap.multipass import StackedHistory
from kronstap.rearrange import RearrangedMatrix
from kronstap.simulate import PhaseHistory


def usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS
    exposes one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_cli_child(*args, blas_threads):
    """Run `kronstap *args` in a fresh interpreter whose OpenBLAS starts
    with blas_threads threads, with this checkout's source first on its
    path; returns the subprocess.CompletedProcess. OpenBLAS reads
    OPENBLAS_NUM_THREADS when it loads, so each count needs its own
    interpreter."""
    src = str(Path(linalg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               OPENBLAS_NUM_THREADS=str(blas_threads))
    return subprocess.run(
        [sys.executable, "-c", "from kronstap.cli import entry; entry()",
         *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120)


def complex_gauss(rng, shape):
    """Standard complex normal draws, unit variance per entry."""
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    return (real + 1j * imag) / np.sqrt(2.0)


def kron_loops(a, b):
    """Kronecker product straight from the block definition."""
    a = np.asarray(a)
    b = np.asarray(b)
    pa, qa = a.shape
    pb, qb = b.shape
    out = np.zeros((pa * pb, qa * qb), dtype=np.complex128)
    for i in range(pa):
        for j in range(qa):
            out[i * pb:(i + 1) * pb, j * qb:(j + 1) * qb] = a[i, j] * b
    return out


def vec_loops(m):
    """Column-major vectorization by explicit iteration."""
    m = np.asarray(m)
    rows, cols = m.shape
    out = np.zeros(rows * cols, dtype=np.complex128)
    for c in range(cols):
        for r in range(rows):
            out[c * rows + r] = m[r, c]
    return out


def cube_to_snapshots(cube):
    """Flatten an (n_bins, p, q) stack into (n_bins, p*q) snapshots."""
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise DimensionError(f"cube must be 3-D, got shape {cube.shape}")
    n_bins, p, q = cube.shape
    return np.ascontiguousarray(cube).reshape(n_bins, p * q)


def vec(m):
    """Stack the columns of a finite matrix into one vector (column-major)."""
    return linalg.as_matrix(m).ravel(order="F")


def unvec(v, rows, cols):
    """Inverse of vec for a rows x cols target shape."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if v.size != rows * cols:
        raise DimensionError(
            f"cannot reshape length {v.size} into {rows}x{cols}"
        )
    return v.reshape((rows, cols), order="F")


def lr_kron_init(r):
    """Block sums over the rearrangement, as a length p^2 vector.

    Averages the rearranged columns, which compresses each q x q block
    of the source to its entry sum / q^2. Its p x p unvec is Hermitian
    PSD whenever the source is, and for a Kronecker product input it is
    proportional to the vec of the spatial factor. The estimator starts
    from the same block sums, read off the covariance directly.
    """
    if not isinstance(r, RearrangedMatrix):
        raise DimensionError("lr_kron_init expects a RearrangedMatrix")
    return linalg.as_matrix(r.data, "rearranged data").sum(axis=1) \
        / float(r.q * r.q)


def block_rearrange(s, p, q):
    """Literal block-extraction rearrangement oracle.

    Cuts the pq x pq matrix into its p x p grid of q x q blocks and
    writes the vec of block (i, j) into output row j*p + i, one block
    at a time.
    """
    s = np.asarray(s)
    out = np.zeros((p * p, q * q), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            block = s[i * q:(i + 1) * q, j * q:(j + 1) * q]
            out[j * p + i] = vec_loops(block)
    return out


def charpoly_coeffs(m):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion. Only matrix products and traces, no eigensolver."""
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ work + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ work) / k
    return coeffs


def eigvals_from_charpoly(m):
    """Real eigenvalues of a Hermitian matrix via its characteristic
    polynomial, sorted descending."""
    roots = np.roots(charpoly_coeffs(m))
    return np.sort(roots.real)[::-1]


def svd_truncate(m, rank):
    """Best rank-`rank` approximation through the SVD."""
    u, s, vh = np.linalg.svd(np.asarray(m))
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


def subspace_angle(u, v):
    """Largest principal angle (radians) between two column spans."""
    qu, _ = np.linalg.qr(np.asarray(u))
    qv, _ = np.linalg.qr(np.asarray(v))
    sv = np.linalg.svd(qu.conj().T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


def random_psd(rng, n, rank=None):
    """Random Hermitian PSD matrix with the given eigen-rank."""
    rank = n if rank is None else rank
    g = complex_gauss(rng, (n, rank))
    m = g @ g.conj().T
    return (m + m.conj().T) / 2.0


def dense_subspace_basis(matrix, rank):
    """Orthonormal basis for the top eigen-subspace of a dense matrix.

    Declared oracle for build_filter's bases from a dense factor. The
    matrix is checked and decomposed as a caller's dense factor is, by
    linalg.Factor.checked and its full eigensolve, so a matrix that is
    not finite, Hermitian within tolerance and PSD up to rounding is a
    DataError. Of the pairs, at most `rank` directions are kept, none
    with an eigenvalue below RANK_TOL times the largest; None when
    nothing survives.
    """
    values, vectors = linalg.Factor.checked(matrix, "matrix").pairs
    top = values[0] if values.size else 0.0
    if top <= 0.0:
        return None
    keep = min(int(np.sum(values > RANK_TOL * top)), rank)
    return vectors[:, :keep] if keep else None


def random_kron_cov(rng, p, q, rank_spatial, rank_temporal):
    """PSD factors with prescribed ranks and their Kronecker product."""
    a = random_psd(rng, p, rank_spatial)
    b = random_psd(rng, q, rank_temporal)
    return a, b, np.kron(a, b)


def outer_average_real(x, chunk=None):
    """The dense sample covariance as one real product, folded.

    Declared oracle for lrkron's tiled builder, whose bits it has: x is
    (n, d) snapshot rows, and v is their (n, 2d) float64 view, in which
    column c's real and imaginary parts are columns 2c and 2c + 1. The
    2 x 2 block (r, c) of M = v^T v holds rr, ri, ir and ii, the four
    real sums of entry (r, c), and the result is (S + S^H) / 2 of
    S = ((rr + ii) + i (ir - ri)) / n. With chunk, M is the sum, in
    order, of the products over consecutive chunks of that many rows,
    as the builder sums them (lrkron._COV_CHUNK).
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    v = x.view(np.float64)
    n = x.shape[0]
    step = n if chunk is None else chunk
    m = v[:step].T @ v[:step]
    for m0 in range(step, n, step):
        m += v[m0:m0 + step].T @ v[m0:m0 + step]
    out = np.empty((x.shape[1], x.shape[1]), dtype=np.complex128)
    out.real = (m[0::2, 0::2] + m[1::2, 1::2]) / n
    out.imag = (m[1::2, 0::2] - m[0::2, 1::2]) / n
    return (out + out.conj().T) / 2.0


def outer_average_gemm(x):
    """The dense sample covariance as one complex GEMM, then symmetrized.

    Complex reference for lrkron's builder, which meets it only to
    rounding: x is (n, d) snapshot rows, and the result is
    (G + G^H) / 2 of G = x^T conj(x) / n.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    out = x.T @ np.conj(x)
    out /= x.shape[0]
    return (out + out.conj().T) / 2.0


def relative_error(approx, exact):
    exact = np.asarray(exact)
    scale = np.linalg.norm(exact)
    if scale == 0.0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(np.asarray(approx) - exact) / scale)


class WhiteningFilter:
    """The optimal clutter filter x -> Sigma^{-1} x for a known covariance.

    Declared oracle: the SINR-optimal reference for small problems,
    built on numpy's Cholesky factor and two solves per call. It takes
    one (p, q) bin or a (..., p, q) stack, like StapFilter.apply_matrix.
    """

    def __init__(self, sigma, p, q):
        try:
            self.chol = np.linalg.cholesky(np.asarray(sigma, np.complex128))
        except np.linalg.LinAlgError as exc:
            raise DataError("covariance is not positive definite") from exc
        self.p = p
        self.q = q

    def apply_matrix(self, x):
        x = np.asarray(x, dtype=np.complex128)
        flat = x.reshape(-1, self.p * self.q).T
        half = np.linalg.solve(self.chol, flat)
        return np.linalg.solve(self.chol.conj().T, half).T.reshape(x.shape)

    def apply(self, x):
        v = np.asarray(x).ravel()
        return self.apply_matrix(v.reshape(self.p, self.q)).reshape(-1)


def filter_output(filt, steering, x):
    """Filtered matched-filter output (F d)^H x for one snapshot."""
    d = steering.vector if isinstance(steering, SteeringVector) \
        else np.asarray(steering)
    w = filt.apply(d)
    return complex(np.vdot(w, np.asarray(x).ravel()))


def read_residuals_csv(path):
    """The residuals formats.write_residuals_csv wrote, read back.

    Declared oracle for the residual CSV round trip: the package writes
    this file but never reads it.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "iteration,residual":
        raise DataError("missing residual CSV header")
    return [float(line.split(",")[1]) for line in lines[1:]]


def read_detection_csv(path):
    """The DetectionMap formats.write_detection_csv wrote, read back.

    Declared oracle for the detection CSV round trip and the CLI's maps:
    the package writes this file but never reads it. The spatial grid
    is not in the file and comes back as None.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("bin,"):
        raise DataError("missing detection CSV header")
    dopplers = []
    for cell in lines[0].split(",")[1:]:
        if not cell.startswith("f="):
            raise DataError(f"bad Doppler column label {cell!r}")
        dopplers.append(float(cell[2:]))
    values = []
    for line in lines[1:]:
        cells = line.split(",")
        values.append([float(c) for c in cells[1:]])
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(dopplers):
        raise DataError("detection CSV rows do not match header")
    return DetectionMap(values, np.asarray(dopplers), None)


def random_pairs(rng, dim, values):
    """Eigenpairs with the given values and random orthonormal vectors:
    (float64 values, dim x len(values) complex128 vectors)."""
    vectors, _ = np.linalg.qr(complex_gauss(rng, (dim, len(values))))
    return np.asarray(values, dtype=np.float64), vectors


def kes2_bytes(spatial, temporal, rank_spatial=None, rank_temporal=None,
               dims=None, iterations=1, converged=1, residuals=(0.5,),
               magic=b"KES2"):
    """A KES2 estimate file built by hand, byte by byte from its layout.

    spatial and temporal are (values, vectors) pairs, written as given.
    The header's rank budgets default to each pair count and its dims
    to each vector row count, so either can be set to disagree with
    the payload.
    """
    (sv, su), (tv, tu) = spatial, temporal
    sdim, q = dims or (su.shape[0], tu.shape[0])
    ra = len(sv) if rank_spatial is None else rank_spatial
    rb = len(tv) if rank_temporal is None else rank_temporal
    out = [struct.pack("<4sHHIIIIIII", magic, 1, 8, sdim, q, ra, rb,
                       iterations, converged, len(residuals))]
    for values, vectors in (spatial, temporal):
        out.append(np.asarray(values, dtype="<f8").tobytes())
        out.append(np.asarray(vectors, dtype="<c16").tobytes())
    out.append(np.asarray(residuals, dtype="<f8").tobytes())
    return b"".join(out)


def unstack_passes(stacked):
    """Invert multipass.stack_passes, one pass block at a time."""
    if not isinstance(stacked, StackedHistory):
        raise DimensionError("unstack_passes expects a StackedHistory")
    p, k = stacked.p, stacked.n_passes
    data = np.empty((k, stacked.n_bins, p, stacked.q), dtype=np.complex128)
    for pass_index in range(k):
        data[pass_index] = stacked.data[:, pass_index * p:(pass_index + 1) * p]
    return PhaseHistory(p, stacked.q, k, data, list(stacked.truth))


def per_bin_maps(filt, passes, dopplers, grids):
    """Detection maps of a (K, n_bins, p, q) pass cube, one bin at a time.

    Declared oracle for the folded detection scan: each bin's K*p
    pass-stacked rows are filtered with apply_matrix first, then matched
    against every grid's candidates and the Doppler steering.
    """
    k, n_bins, p, q = passes.shape
    temporal = np.exp(2j * np.pi * np.outer(np.arange(q), dopplers))
    temporal /= np.sqrt(q)
    maps = [np.empty((n_bins, len(dopplers))) for _ in grids]
    for m in range(n_bins):
        filtered = filt.apply_matrix(passes[:, m].reshape(k * p, q))
        per_doppler = filtered @ temporal.conj()
        for out, grid in zip(maps, grids):
            out[m] = np.abs(grid.conj() @ per_doppler).max(axis=0)
    return maps


def assert_map_matches(actual, expected, scale):
    """actual is within 1e-12 of expected's peak, with the same argmax.

    A map the filter annihilates (peak below 1e-12 * scale, the input's
    largest magnitude) is rounding noise in both: then each map only
    has to stay below that bound.
    """
    peak = expected.max()
    if peak <= 1e-12 * scale:
        assert actual.max() <= 1e-12 * scale
        return
    assert np.abs(actual - expected).max() <= 1e-12 * peak
    assert np.argmax(actual) == np.argmax(expected)


class CountFullSolves:
    """Records the size of every linalg._full_eig call while installed."""

    def __init__(self, mp):
        self.sizes = []
        original = linalg._full_eig

        def counted(sym):
            self.sizes.append(sym.shape[0])
            return original(sym)

        mp.setattr(linalg, "_full_eig", counted)
