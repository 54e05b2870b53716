"""Dense complex matrix helpers and the eigenpair form of a factor.

The carrier type throughout the package is a 2-D numpy array of
complex128. Eigenwork delegates to LAPACK through numpy, with the
ordering and phase conventions pinned down here so repeated runs give
identical output.

Two solves share those conventions. `_full_eig` runs the full n x n
eigh, for `hermitian_eig`, a dense factor's pairs and every truncation
(`_kept_pairs`, `eig_truncate`); a truncation pins only the pairs it
keeps. `_top_eigenpairs` serves only the estimator's final temporal
truncation on the snapshot path. That iterate is
B = rows^T ((conj(A) kron I_n) / n) conj(rows) / ||A||^2 for the p*n
snapshot rows, so its Ritz pairs on the span of the rows come from a
p*n x p*n matrix formed from the rows' QR factor, with no q x q
product. It keeps them only when they are checked against the computed
iterate, and returns None otherwise, for the full solve.

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
# Relative spacing within which sorted eigenvalues count as tied.
_TIE_RTOL = 1e-12
# Ritz solve of _top_eigenpairs: the least q / (p*n) worth trying it
# at, and the accepted eigen-residual of the kept pairs relative to the
# largest Ritz magnitude, far below the PSD clamp. At q = 4 p*n the
# earlier span solve, which formed two q x q by q x p*n products, took
# at most half the full solve's time in an in-process sweep (2-CPU
# host), and a declined try added at most a fifth; the factored solve
# costs less.
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


def _pin_conventions(values, vectors, top=None):
    """Fix the order of ties and the phase of every vector, in place.

    values are sorted descending with vectors in matching columns. Runs
    of values within _TIE_RTOL of top of each other are ordered by the
    index of each vector's largest-magnitude component, and every vector
    is rotated so that component is real and positive. top defaults to
    the largest magnitude of values; a caller that pins a prefix of a
    spectrum passes the whole spectrum's.
    """
    n = values.size
    if n > 1:
        # sorted values: the largest magnitude sits at one end
        if top is None:
            top = _largest_magnitude(values)
        tie_tol = top * _TIE_RTOL
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


def _largest_magnitude(values):
    """Largest magnitude of values sorted descending: one of the ends."""
    return max(abs(values[0]), abs(values[-1]))


def _tie_run_end(values, rank, top):
    """End of the tie run (see _pin_conventions) that holds value
    rank - 1 of values sorted descending: rank when the cut after it
    splits no tie."""
    tie_tol = top * _TIE_RTOL
    stop = rank
    while stop < values.size and abs(values[stop] - values[stop - 1]) <= tie_tol:
        stop += 1
    return stop


def _full_eig(sym):
    """Every eigenpair of a checked Hermitian matrix, by one n x n eigh,
    sorted descending; the conventions are not pinned yet, and the
    vectors are a reversed view of eigh's."""
    values, vectors = np.linalg.eigh(sym)
    return values[::-1].copy(), vectors[:, ::-1]


def _all_pairs(sym):
    """Every eigenpair of a checked Hermitian matrix, conventions pinned."""
    values, vectors = _full_eig(sym)
    return _pin_conventions(values, vectors.copy())


def hermitian_eig(m):
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized before the solve so rounding-level
    asymmetry cannot leak into the result. Values come back real and
    sorted descending. Ties are ordered by the index of each vector's
    largest-magnitude component, and every vector is rotated so that
    component is real and positive, which makes the output reproducible.
    """
    return _all_pairs(_hermitian_part(m, "matrix"))


def _top_eigenpairs(b, rank, rows, conj_a, norm_a2):
    """Top `rank` eigenpairs of a snapshot-path temporal iterate from its
    factors, or None when the check declines them.

    b is the q x q iterate as the fit computed it, Hermitian up to
    rounding, from the (p*n, q) snapshot rows (channel-major: row
    i*n + m is snapshot m's channel i) and the conj_a and norm_a2 of its
    sweep: B = rows^T ((conj_a kron I_n) / n) conj(rows) / norm_a2. With
    the QR rows^T = Q K, B = Q T Q^H exactly, for the p*n x p*n Ritz
    matrix T = K ((conj_a kron I_n) / n) K^H / norm_a2, so the pairs are
    eigh(T)'s lifted by Q, and no q x q product is formed. Only the kept
    vectors are formed and pinned. Tried only when rank < p*n and
    _RANGE_MIN_RATIO * p*n <= q; None otherwise.

    The pairs are checked against sym = (b + b^H) / 2, the matrix the
    full solve would take, and kept only when:
    - every product is finite;
    - the cut after them splits no tie (see _pin_conventions): which
      members of a tie fall inside the budget is decided by the solver,
      not the matrix;
    - the last kept value exceeds the PSD clamp (_CLAMP_RTOL times top,
      the largest Ritz magnitude) and the Frobenius mass the Ritz values
      theta leave unexplained, sqrt(max(||b||_F^2 - sum theta^2, 0)),
      where ||b||_F bounds ||sym||_F from above. An eigenvalue of sym
      that no Ritz value accounts for, among them the q - p*n zeros
      outside the span, is at most that mass in magnitude, so none
      outranks a kept value;
    - the kept pairs (U, lam) leave ||sym U - U lam||_F at most
      _RANGE_RTOL * top, so they are eigenpairs of sym up to rounding.
      sym U is formed as (b U + (U^H b)^H) / 2: q^2 * rank work.
    The kept values are then all positive, and the result is
    _kept_pairs(sym, rank) up to rounding, with contiguous vectors.
    """
    q_dim = b.shape[0]
    k = rows.shape[0]
    if not 1 <= rank < k or _RANGE_MIN_RATIO * k > q_dim:
        return None
    p = conj_a.shape[0]
    n = k // p
    # entries near the float limit overflow in these products; the full
    # solve scales such a matrix, so non-finite results decline to it
    with np.errstate(over="ignore", invalid="ignore"):
        q, k_mat = np.linalg.qr(rows.T)
        # conj(rows) = K^H Q^H: T takes K^H where the B sweep takes conj(rows)
        z = ((conj_a / n) @ k_mat.conj().T.reshape(p, n * k)).reshape(k, k)
        t = k_mat @ z
        t /= norm_a2
        if not np.isfinite(t).all():
            return None
        values, w = np.linalg.eigh((t + t.conj().T) / 2.0)
        values = values[::-1].copy()
        top = _largest_magnitude(values)
        if _tie_run_end(values, rank, top) > rank:
            return None
        mass2 = np.vdot(b, b).real - np.dot(values, values)
        floor = max(math.sqrt(max(mass2, 0.0)), _CLAMP_RTOL * top)
        if not floor < values[rank - 1]:
            return None
        lam, u = _pin_conventions(values[:rank], q @ w[:, ::-1][:, :rank],
                                  top)
        # sym U as (b U + (U^H b)^H) / 2: q^2 * rank work, no q x q copy
        resid = b @ u
        resid += (u.conj().T @ b).conj().T
        resid /= 2.0
        resid -= u * lam
        if not math.sqrt(np.vdot(resid, resid).real) <= _RANGE_RTOL * top:
            return None
    return EigenPairs(lam, u)


def _check_psd(values, name):
    """Raise DataError unless sorted eigenvalues are PSD up to rounding:
    none below -_CLAMP_RTOL times the largest magnitude."""
    scale = _largest_magnitude(values) if values.size else 0.0
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
        top = _largest_magnitude(values)
        if np.any(np.diff(values) > _CLAMP_RTOL * top):
            raise DataError(f"{name} eigenvalues are not in descending order")
        _check_psd(values, name)
        if not np.isfinite(vectors).all():
            raise DataError(f"{name} has non-finite eigenvectors")
        # U^H U from the 2 x 2 blocks of one real product over the float64
        # view, as in lrkron._outer_average: no copy, but it may overflow
        w = vectors.view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            m = w.T @ w
            real = m[0::2, 0::2] + m[1::2, 1::2] - np.eye(values.size)
            err = np.hypot(real, m[0::2, 1::2] - m[1::2, 0::2]).max()
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
            values, vectors = _all_pairs(self._matrix)
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


def _truncated(sym, rank, name="factor"):
    """eig_truncate of a finite Hermitian sym, 1 <= rank <= n, as a
    Factor that holds the kept pairs and no matrix: no check.

    rank equal to n holds sym itself, whose pairs wait for first use.
    """
    if rank == sym.shape[0]:
        return Factor(matrix=sym, name=name)
    values, vectors = _kept_pairs(sym, rank)
    return Factor(EigenPairs(values, np.ascontiguousarray(vectors)),
                  name=name)


def _kept_pairs(sym, rank):
    """The top `rank` eigenpairs of a finite Hermitian sym, 1 <= rank < n,
    by the full solve, negative values within rounding distance of zero
    clamped: no check.

    Only the kept pairs, and the rest of a tie run that crosses the cut,
    have their conventions pinned, with the tie tolerance of the whole
    spectrum, so they carry the bits of the all-pairs result. The
    vectors are a column slice of the solve's result.
    """
    values, vectors = _full_eig(sym)
    top = _largest_magnitude(values)
    stop = _tie_run_end(values, rank, top)
    values, vectors = _pin_conventions(values[:stop], vectors[:, :stop], top)
    lam = values[:rank]
    lam = np.where((lam < 0) & (np.abs(lam) <= _CLAMP_RTOL * top), 0.0, lam)
    return EigenPairs(lam, vectors[:, :rank])


def _rebuild(pairs):
    """The Hermitian matrix U lam U^H of eigenpairs, exactly Hermitian."""
    lam, u = pairs
    out = (u * lam) @ u.conj().T
    return (out + out.conj().T) / 2.0
