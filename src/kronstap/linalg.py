"""Dense complex matrix helpers and the eigenpair form of a factor.

The carrier type throughout the package is a 2-D numpy array of
complex128. Eigenwork delegates to LAPACK through numpy, with the
ordering and phase conventions pinned down here so repeated runs give
identical output.

Two solves share those conventions. `hermitian_eig` and `_full_eig`
run the full n x n eigh. `_top_eigenpairs` runs a Rayleigh-Ritz solve
on the span of a caller's matrix whose columns hold the matrix's range,
and keeps it only when that is checked to hold the whole matrix up to
rounding; it runs the full solve otherwise. Its one caller is the
estimator's final temporal truncation on the snapshot path, through
`_truncated` on the span of the p*n snapshot rows, which holds the
temporal iterate's range; `eig_truncate` always runs the full solve.

A caller's dense matrix is checked by `_hermitian_part`, the plain
(m + m^H) / 2 after a Hermitian check. Only library entry points reach
it (`lrkron.SampleCovariance`, `Factor.checked`, `eig_truncate`,
`hermitian_eig`); no CLI stage does.

A Kronecker factor is a `Factor`: its kept eigenpairs, its dense
matrix, or both, with the missing one formed on first use. A truncation
(`_truncated`) keeps the pairs it computed and forms no matrix; the
filter only needs the pairs. A caller's dense matrix enters through
`Factor.checked`, which checks it once, and its pairs come from the full
solve when first asked for.
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
# Largest entry of U^H U - I accepted for eigenvectors from outside:
# eigh's vectors of random 64..1024-square PSD matrices left 2e-15 to
# 4e-15, so this is some 10^4 times that.
_ORTHO_TOL = 1e-10
# Rows per tile of the two n x k walks that form no n x n temporary:
# checked_pairs' U^H U and the span solve's residual (_top_eigenpairs).
_SYM_TILE = 64
# Relative spacing within which sorted eigenvalues count as tied.
_TIE_RTOL = 1e-12
# Span solve of _top_eigenpairs: the least n / (span columns) worth
# trying it at, and the accepted residual relative to the largest Ritz
# magnitude. The residual bounds every eigenvalue the span leaves out,
# so it sits far below the PSD clamp. At n = 4k the solve took at most
# half the full solve's time in an in-process sweep (2-CPU host), and a
# declined try adds at most a fifth; at n = 2k it can lose.
_RANGE_MIN_RATIO = 4
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


def _hermitian_part(m, name):
    """Check that m is square and Hermitian; return (m + m^H) / 2.

    When ||m||_F^2 overflows, the check runs on a copy of m scaled by
    its largest component instead, so an asymmetry that overflows as
    well cannot pass as a ratio of two infinities, and m is halved
    before the sum, which would overflow for entries above ~9e307.
    """
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    scale2 = np.vdot(m, m).real
    if math.isfinite(scale2):
        d = m - m.conj().T
        # a finite scale bounds the asymmetry by 4 * scale2, so an
        # overflowed norm of d means an asymmetry above the scale: a failure
        _check_hermitian(np.vdot(d, d).real, scale2, name)
        return (m + m.conj().T) / 2.0
    scaled = m / max(np.abs(m.real).max(), np.abs(m.imag).max())
    d = scaled - scaled.conj().T
    _check_hermitian(np.vdot(d, d).real, np.vdot(scaled, scaled).real, name)
    half = m * 0.5
    return half + half.conj().T


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


def _top_eigenpairs(sym, rank, span):
    """Leading eigenpairs of a checked Hermitian matrix under a rank budget.

    sym must already be Hermitian (a `_hermitian_part` result), and the
    columns of span, an n x k matrix, must span a range that holds
    sym's. The result is either the k Ritz pairs of sym on an
    orthonormal basis Q of span, or, when that solve is declined,
    `_full_eig(sym)`. Both carry the same conventions, sorted
    descending. The span solve is tried only when rank < k and
    _RANGE_MIN_RATIO * k <= n.

    The span result is kept only when ||sym - Q (sym Q)^H||_F is at
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
    k = span.shape[1]
    if not 1 <= rank < k or _RANGE_MIN_RATIO * k > n:
        return _full_eig(sym)
    # entries near the float limit overflow in these products; the full
    # solve scales such a matrix, so non-finite results decline to it
    with np.errstate(over="ignore", invalid="ignore"):
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


def _check_psd(values, name):
    """Raise DataError unless sorted eigenvalues are PSD up to rounding:
    none below -_CLAMP_RTOL times the largest magnitude."""
    # sorted descending, so the largest magnitude sits at one end
    scale = max(abs(values[0]), abs(values[-1])) if values.size else 0.0
    if values.size and values[-1] < -_CLAMP_RTOL * scale:
        raise DataError(
            f"{name} is not positive semidefinite: eigenvalue "
            f"{values[-1]:.3e} against largest magnitude {scale:.3e}"
        )


def _read_only(arr):
    arr.flags.writeable = False
    return arr


class Factor:
    """One Hermitian PSD Kronecker factor: eigenpairs, dense matrix or both.

    Whichever of the two is missing is formed on first use and kept;
    both are read-only.

    - `pairs` of a factor held as a matrix are all n eigenpairs, from
      one full solve, and a matrix that is not PSD up to rounding
      raises DataError there (see `_check_psd`).
    - `matrix` of a factor held as pairs is `_rebuild(pairs)`.

    The constructor trusts what it is given: the estimator's own
    results and pairs that formats.read_estimate checked. A caller's
    matrix goes through `Factor.checked`.
    """

    __slots__ = ("_pairs", "_matrix", "name")

    def __init__(self, pairs=None, matrix=None, name="factor"):
        if pairs is not None:
            pairs = EigenPairs(*map(_read_only, pairs))
        self._pairs = pairs
        self._matrix = None if matrix is None else _read_only(matrix)
        self.name = name

    @classmethod
    def checked(cls, m, name):
        """A caller's dense factor, checked once by `_hermitian_part`:
        finite, square and Hermitian within tolerance; it keeps the
        Hermitian part."""
        return cls(matrix=_hermitian_part(m, name), name=name)

    @classmethod
    def checked_pairs(cls, values, vectors, name):
        """Eigenpairs from outside, checked once: r real values and the
        dim x r matrix of their vectors, 1 <= r <= dim.

        Every entry must be finite; the values descending to within
        _CLAMP_RTOL times the largest magnitude (which leaves room for
        the tie order `_pin_conventions` sets) and PSD up to rounding
        (see `_check_psd`); and the vectors orthonormal: no entry of
        U^H U - I above _ORTHO_TOL in magnitude, an r x r check. The
        arrays are kept, read-only, not copied.
        """
        if not np.isfinite(values).all():
            raise DataError(f"{name} has non-finite eigenvalues")
        top = max(abs(values[0]), abs(values[-1]))
        if np.any(np.diff(values) > _CLAMP_RTOL * top):
            raise DataError(f"{name} eigenvalues are not in descending order")
        _check_psd(values, name)
        # summed over row tiles, so no copy of the vectors is made;
        # finite vectors can still overflow it, to inf or NaN
        gram = np.zeros((values.size, values.size), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(0, vectors.shape[0], _SYM_TILE):
                tile = vectors[r0:r0 + _SYM_TILE]
                if not np.isfinite(tile).all():
                    raise DataError(f"{name} has non-finite eigenvectors")
                gram += tile.conj().T @ tile
            gram[np.diag_indices_from(gram)] -= 1.0
            err = np.abs(gram).max()
        if not err <= _ORTHO_TOL:
            raise DataError(
                f"{name} eigenvectors are not orthonormal: |U^H U - I| "
                f"reaches {err:.3e}, above {_ORTHO_TOL:.0e}")
        return cls(EigenPairs(values, vectors), name=name)

    def __repr__(self):
        held = [kind for kind, arr in (("pairs", self._pairs),
                                       ("matrix", self._matrix))
                if arr is not None]
        pairs = "" if self._pairs is None else \
            f", pairs={self._pairs.values.size}"
        return (f"Factor({self.name!r}, dim={self.dim}{pairs}, "
                f"held={'+'.join(held)})")

    @property
    def dim(self):
        held = self._matrix if self._matrix is not None else self._pairs.vectors
        return held.shape[0]

    @property
    def pairs(self):
        if self._pairs is None:
            values, vectors = _full_eig(self._matrix)
            _check_psd(values, self.name)
            self._pairs = EigenPairs(_read_only(values), _read_only(vectors))
        return self._pairs

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = _read_only(_rebuild(self._pairs))
        return self._matrix


def eig_truncate(m, rank):
    """Best Hermitian approximation keeping the top `rank` eigenpairs.

    m is checked once, by `_hermitian_part`: finite, square and
    Hermitian within tolerance, then symmetrized. The pairs come from
    the full eigensolve. Negative eigenvalues within rounding distance
    of zero are clamped before truncation, so a PSD input yields a PSD
    result. rank equal to the full dimension short-circuits to the
    symmetrized input. The result is read-only.
    """
    sym = _hermitian_part(m, "matrix")
    n = sym.shape[0]
    if not 1 <= rank <= n:
        raise DimensionError(f"rank must be in [1, {n}], got {rank}")
    return _truncated(sym, rank).matrix


def _truncated(sym, rank, span=None, name="factor"):
    """eig_truncate of a finite Hermitian sym, 1 <= rank <= n, as a
    Factor that holds the kept pairs and no matrix: no check.

    span, an n x k matrix whose columns span a range that holds sym's,
    lets the pairs come from the checked Rayleigh-Ritz solve of
    `_top_eigenpairs` on that range; the full solve still runs whenever
    that solve is declined. rank equal to n holds sym itself, whose
    pairs wait for first use.
    """
    if rank == sym.shape[0]:
        return Factor(matrix=sym, name=name)
    values, vectors = _kept_pairs(sym, rank, span)
    return Factor(EigenPairs(values, np.ascontiguousarray(vectors)),
                  name=name)


def _kept_pairs(sym, rank, span=None):
    """The top `rank` eigenpairs of a finite Hermitian sym, 1 <= rank < n,
    negative values within rounding distance of zero clamped: no check.

    The vectors are a column slice of the solve's result.
    """
    if span is None:
        values, vectors = _full_eig(sym)
    else:
        values, vectors = _top_eigenpairs(sym, rank, span)
    top = max(abs(values[0]), abs(values[-1]))   # values sorted descending
    lam = values[:rank]
    lam = np.where((lam < 0) & (np.abs(lam) <= _CLAMP_RTOL * top), 0.0, lam)
    return EigenPairs(lam, vectors[:, :rank])


def _rebuild(pairs):
    """The Hermitian matrix U lam U^H of eigenpairs, exactly Hermitian."""
    lam, u = pairs
    out = (u * lam) @ u.conj().T
    return (out + out.conj().T) / 2.0
