"""Dense complex matrix helpers.

The carrier type throughout the package is a 2-D numpy array of
complex128. Eigenwork delegates to LAPACK through numpy, with the
ordering and phase conventions pinned down here so repeated runs give
identical output.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import DataError, DimensionError

#: Eigendecomposition result: real values sorted descending, vectors in
#: matching columns with orthonormal columns.
EigenPairs = namedtuple("EigenPairs", ["values", "vectors"])

_HERMITIAN_RTOL = 1e-8
# Relative magnitude below which a negative eigenvalue of a nominally
# PSD matrix is treated as rounding noise.
_CLAMP_RTOL = 1e-10
# Edge of the square tiles the Hermitian check and symmetrization walk.
_SYM_TILE = 64


def as_matrix(m, name="matrix"):
    """Validate and return a 2-D complex128 array with finite entries."""
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def vec(m):
    """Stack columns of m into a single vector (column-major)."""
    return as_matrix(m).ravel(order="F")


def unvec(v, rows, cols):
    """Inverse of vec for a rows x cols target shape."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if v.size != rows * cols:
        raise DimensionError(
            f"cannot reshape length {v.size} into {rows}x{cols}"
        )
    return v.reshape((rows, cols), order="F")


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a, "left factor"), as_matrix(b, "right factor"))


def _hermitian_part(m, name):
    """Check that m is square and Hermitian; return (m + m^H) / 2.

    The work goes tile pair by tile pair, so the transposed reads of a
    large matrix stay in cache; every entry is still computed as in the
    untiled expression.
    """
    m = as_matrix(m, name)
    n = m.shape[0]
    if m.shape[1] != n:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    sym = np.empty_like(m)
    acc = 0.0
    for i0 in range(0, n, _SYM_TILE):
        rows = slice(i0, i0 + _SYM_TILE)
        for j0 in range(0, n, _SYM_TILE):
            cols = slice(j0, j0 + _SYM_TILE)
            a = m[rows, cols]
            b = m[cols, rows].conj().T
            d = a - b
            acc += np.vdot(d, d).real
            np.add(a, b, out=sym[rows, cols])
    sym /= 2.0
    scale = math.sqrt(np.vdot(m, m).real)
    if scale > 0 and math.sqrt(acc) > _HERMITIAN_RTOL * scale:
        raise DataError(f"{name} deviates from Hermitian beyond tolerance")
    return sym


def hermitian_eig(m):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized before the solve so rounding-level
    asymmetry cannot leak into the result. Values come back real and
    sorted descending. Ties are ordered by the index of each vector's
    largest-magnitude component, and every vector is rotated so that
    component is real and positive, which makes the output reproducible.
    """
    sym = _hermitian_part(m, "matrix")
    values, vectors = np.linalg.eigh(sym)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()

    n = values.size
    if n > 1:
        # sorted values: the largest magnitude sits at one end
        tie_tol = max(abs(values[0]), abs(values[-1])) * 1e-12
        start = 0
        while start < n:
            stop = start + 1
            while stop < n and abs(values[stop] - values[stop - 1]) <= tie_tol:
                stop += 1
            if stop - start > 1:
                dominant = [
                    int(np.argmax(np.abs(vectors[:, k])))
                    for k in range(start, stop)
                ]
                order = np.argsort(dominant, kind="stable") + start
                values[start:stop] = values[order]
                vectors[:, start:stop] = vectors[:, order]
            start = stop

    for k, pivot in enumerate(np.argmax(np.abs(vectors), axis=0)):
        entry = vectors[pivot, k]
        mag = abs(entry)
        if mag > 0:
            vectors[:, k] *= entry.conj() / mag
    return EigenPairs(values, vectors)


def eig_truncate(m, rank):
    """Best Hermitian approximation keeping the top `rank` eigenpairs.

    Negative eigenvalues within rounding distance of zero are clamped
    before truncation, so a PSD input yields a PSD result. rank equal to
    the full dimension short-circuits to the symmetrized input.
    """
    m = as_matrix(m, "matrix")
    n = m.shape[0]
    if not 1 <= rank <= n:
        raise DimensionError(f"rank must be in [1, {n}], got {rank}")
    if rank == n:
        return _hermitian_part(m, "matrix")
    values, vectors = hermitian_eig(m)
    top = max(abs(values[0]), abs(values[-1]))   # values sorted descending
    lam = values[:rank]
    lam = np.where((lam < 0) & (np.abs(lam) <= _CLAMP_RTOL * top), 0.0, lam)
    u = vectors[:, :rank]
    out = (u * lam) @ u.conj().T
    return (out + out.conj().T) / 2.0
