"""Dense complex matrix helpers.

The carrier type throughout the package is a 2-D numpy array of
complex128. Eigenwork delegates to LAPACK through numpy, with the
ordering and phase conventions pinned down here so repeated runs give
identical output.

Two solves share those conventions. `hermitian_eig` always runs the
full n x n eigh. `_top_eigenpairs` first tries a Rayleigh-Ritz solve
on a k-column range (Halko, Martinsson & Tropp 2011) and keeps it only
when the range is checked to hold the whole matrix up to rounding. It
runs the full solve otherwise: when the rank budget is not below k,
when k is more than n / _RANGE_MIN_RATIO, when the residual is too
large (a full-rank or slowly decaying spectrum), or when a tie
straddles the rank cut. It has two callers:

- the filter, for a factor's subspace, on the range of the factor
  times a fixed random n x (rank + _RANGE_OVERSAMPLE) test matrix;
- a truncation given a `span`, which is the estimator's final
  temporal truncation on the snapshot path, on the span of the
  snapshot rows, which holds the temporal iterate's range.

Without a span, as in the estimator's spatial truncation and on its
dense path, a truncation runs the full solve. The estimator calls
`_truncate`, `eig_truncate` without its input check.
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
# Relative spacing within which sorted eigenvalues count as tied.
_TIE_RTOL = 1e-12
# Range solve of _top_eigenpairs: extra test columns beyond the rank
# budget, the least n / (rank + oversampling) worth trying it at, the
# seed of its test matrix, and the accepted residual relative to the
# largest Ritz magnitude. The residual bounds every eigenvalue the range
# leaves out, so it sits far below the PSD clamp. From an in-process
# sweep (n 10..768, rank 1..8, 2-CPU host): the solve's time grows with
# its k columns, 2.2-3.1 ms at n = 768 with 4 extra against 120-134 ms
# for eigh, and 4 extra columns still accept a factor up to 4 ranks
# above its budget. At n = 4k it takes at most half the full solve's
# time and a declined try adds at most a fifth; at n = 2k it can lose.
_RANGE_OVERSAMPLE = 4
_RANGE_MIN_RATIO = 4
_RANGE_SEED = 0x6B726F6E
_RANGE_RTOL = 1e-2 * _CLAMP_RTOL


def as_matrix(m, name="matrix"):
    """Validate and return a 2-D complex128 array with finite entries."""
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a, "left factor"), as_matrix(b, "right factor"))


def _hermitian_part(m, name, overwrite=False):
    """Check that m is square and Hermitian; return (m + m^H) / 2.

    The work goes tile pair by tile pair, so the transposed reads of a
    large matrix stay in cache; every entry is still computed as in the
    untiled expression. With overwrite, the result is written over m,
    which must then be a writable complex128 array, and m is returned:
    the same bits without a second n x n array. m is overwritten even
    when the check fails.

    When ||m||_F^2 overflows, the check runs on a copy of m scaled by
    its largest component instead, so an asymmetry that overflows as
    well cannot pass as a ratio of two infinities, and m is halved
    before the sum, which would overflow for entries above ~9e307.
    """
    m = as_matrix(m, name)
    n = m.shape[0]
    if m.shape[1] != n:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    scale2 = np.vdot(m, m).real
    halved = not math.isfinite(scale2)
    if halved:
        scaled = m / max(np.abs(m.real).max(), np.abs(m.imag).max())
        d = scaled - scaled.conj().T
        _check_hermitian(np.vdot(d, d).real, np.vdot(scaled, scaled).real,
                         name)
        # m + m^H overflows for entries above ~9e307: halve first
        m = np.multiply(m, 0.5, out=m if overwrite else None)
    out = m if overwrite else np.empty_like(m)
    acc = 0.0
    # each tile pair's conjugate transposes are copies, taken before
    # the tile they come from is written, so out may be m
    for i0 in range(0, n, _SYM_TILE):
        rows = slice(i0, i0 + _SYM_TILE)
        for j0 in range(i0, n, _SYM_TILE):
            cols = slice(j0, j0 + _SYM_TILE)
            a = m[rows, cols]
            b_h = m[cols, rows].conj().T
            d = a - b_h
            # the mirror tile's difference is -d^H, of the same norm
            acc += (1.0 if i0 == j0 else 2.0) * np.vdot(d, d).real
            if j0 > i0:
                np.add(m[cols, rows], a.conj().T, out=out[cols, rows])
            np.add(a, b_h, out=out[rows, cols])
    if not halved:
        out /= 2.0
        # a finite scale bounds the asymmetry by 4 * scale2, so an
        # overflowed acc means an asymmetry above the scale: a failure
        _check_hermitian(acc, scale2, name)
    return out


def _check_hermitian(acc, scale2, name):
    if scale2 > 0 and math.sqrt(acc) > _HERMITIAN_RTOL * math.sqrt(scale2):
        raise DataError(f"{name} deviates from Hermitian beyond tolerance")


def _pin_conventions(values, vectors):
    """Fix the order of ties and the phase of every vector, in place.

    values are sorted descending with vectors in matching columns. Runs
    of values within _TIE_RTOL of the largest magnitude of each other
    are ordered by the index of each vector's largest-magnitude
    component, and every vector is rotated so that component is real
    and positive.
    """
    n = values.size
    if n > 1:
        # sorted values: the largest magnitude sits at one end
        tie_tol = max(abs(values[0]), abs(values[-1])) * _TIE_RTOL
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


def _full_eig(sym):
    """Every eigenpair of a checked Hermitian matrix, by one n x n eigh."""
    values, vectors = np.linalg.eigh(sym)
    return _pin_conventions(values[::-1].copy(), vectors[:, ::-1].copy())


def hermitian_eig(m):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized before the solve so rounding-level
    asymmetry cannot leak into the result. Values come back real and
    sorted descending. Ties are ordered by the index of each vector's
    largest-magnitude component, and every vector is rotated so that
    component is real and positive, which makes the output reproducible.
    """
    return _full_eig(_hermitian_part(m, "matrix"))


def _top_eigenpairs(sym, rank, span=None):
    """Leading eigenpairs of a checked Hermitian matrix under a rank budget.

    sym must already be Hermitian (a `_hermitian_part` result). The
    result is either the k Ritz pairs of sym on an orthonormal basis Q
    of a k-column range, or, when that solve is declined,
    `_full_eig(sym)`. Both carry the same conventions, sorted
    descending. The range is that of sym times a fixed Gaussian test
    matrix of k = rank + _RANGE_OVERSAMPLE columns, or the columns of
    span when the caller knows a matrix whose range holds sym's (k is
    then span's column count). It is tried only when rank < k and
    _RANGE_MIN_RATIO * k <= n.

    The range result is kept only when ||sym - Q (sym Q)^H||_F is at
    most _RANGE_RTOL times the largest Ritz magnitude. Every eigenvalue
    of sym is then within sqrt(2) times that residual of a Ritz value or
    of zero, so the Ritz values carry the PSD verdict, the largest
    magnitude and the leading values of the full solve, and what they
    leave out is rounding noise. It is also declined when the rank cut
    splits a tie of values above the PSD clamp (_CLAMP_RTOL times the
    largest magnitude), which covers a tie reaching the last Ritz value:
    which members of such a tie fall inside the budget is decided by
    the solver, not the matrix, and the full solve's choice is kept.
    The residual is summed over row tiles, so no n x n temporary is
    formed.
    """
    n = sym.shape[0]
    k = rank + _RANGE_OVERSAMPLE if span is None else span.shape[1]
    if not 1 <= rank < k or _RANGE_MIN_RATIO * k > n:
        return _full_eig(sym)
    # entries near the float limit overflow in these products; the full
    # solve scales such a matrix, so non-finite results decline to it
    with np.errstate(over="ignore", invalid="ignore"):
        if span is None:
            rng = np.random.default_rng(_RANGE_SEED)
            span = sym @ rng.standard_normal((n, 2 * k)).view(np.complex128)
        q, _ = np.linalg.qr(span)
        sq = sym @ q
        sq_h = sq.conj().T
        tile = np.empty((min(n, _SYM_TILE), n), dtype=sym.dtype)
        resid2 = 0.0
        for r0 in range(0, n, _SYM_TILE):
            r1 = min(r0 + _SYM_TILE, n)
            d = np.matmul(q[r0:r1], sq_h, out=tile[:r1 - r0])
            np.subtract(sym[r0:r1], d, out=d)
            resid2 += np.vdot(d, d).real
        t = q.conj().T @ sq
    if not np.isfinite(t).all():
        return _full_eig(sym)
    values, w = np.linalg.eigh((t + t.conj().T) / 2.0)
    top = max(abs(values[0]), abs(values[-1]))
    if not math.sqrt(resid2) <= _RANGE_RTOL * top:
        return _full_eig(sym)
    values = values[::-1].copy()
    if (abs(values[rank] - values[rank - 1]) <= _TIE_RTOL * top
            and abs(values[rank - 1]) > _CLAMP_RTOL * top):
        return _full_eig(sym)
    return _pin_conventions(values, q @ w[:, ::-1])


def eig_truncate(m, rank, span=None):
    """Best Hermitian approximation keeping the top `rank` eigenpairs.

    m is checked once, by `_hermitian_part`: finite, square and
    Hermitian within tolerance, then symmetrized. Negative eigenvalues
    within rounding distance of zero are clamped before truncation, so
    a PSD input yields a PSD result. rank equal to the full dimension
    short-circuits to the symmetrized input.

    span, an n x k matrix whose columns span a range that holds m's,
    lets the eigenpairs come from the checked Rayleigh-Ritz solve of
    `_top_eigenpairs` on that range; the full solve still runs whenever
    that solve is declined. Without it the full solve always runs.
    """
    sym = _hermitian_part(m, "matrix")
    n = sym.shape[0]
    if not 1 <= rank <= n:
        raise DimensionError(f"rank must be in [1, {n}], got {rank}")
    return _truncate(sym, rank, span)


def _truncate(sym, rank, span=None):
    """eig_truncate of a finite Hermitian sym, 1 <= rank <= n: no check."""
    if rank == sym.shape[0]:
        return sym
    if span is None:
        values, vectors = _full_eig(sym)
    else:
        values, vectors = _top_eigenpairs(sym, rank, span)
    top = max(abs(values[0]), abs(values[-1]))   # values sorted descending
    lam = values[:rank]
    lam = np.where((lam < 0) & (np.abs(lam) <= _CLAMP_RTOL * top), 0.0, lam)
    u = vectors[:, :rank]
    out = (u * lam) @ u.conj().T
    return (out + out.conj().T) / 2.0
