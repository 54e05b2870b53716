"""Low-rank Kronecker-factored covariance estimation.

Fits kron(A, B) to a sample covariance by alternating least squares,
which on the rearranged matrix is a rank-one fit (Van Loan & Pitsianis
1993). The sweeps never materialize the rearrangement, and they run on
whichever representation the SampleCovariance keeps, fixed by its
shape alone:

- built by `sample_covariance` from n < p*q snapshots, it keeps the
  (n, p, q) snapshot stack and the pq x pq matrix is never formed.
  With S = (1/n) sum x_m x_m^H, ||S||_F comes from the n x n Gram
  matrix, the block-sum start from per-channel row sums, and each
  sweep is a sum over snapshots computed as two GEMMs;
- built by `sample_covariance` from n >= p*q snapshots, it holds the
  dense matrix, formed exactly Hermitian from the upper tile pairs
  of _COV_TILE columns as real products on the float64 view of the
  snapshots (a dsyrk on each diagonal tile), summed over fixed chunks
  of _COV_CHUNK snapshots, read from the rows or chunk by chunk from
  a K-pass cube's block source such as a cube file, without stacking
  or conjugating it, and checked there for finite entries;
- constructed from a user's matrix, it holds that matrix, checked in
  full and symmetrized once by the constructor; the estimator never
  checks a covariance again.

On either dense path each sweep is one einsum over the (p, q, p, q)
block view, and ||S||_F is a numpy reduction over the float64 view, so
it does not depend on the BLAS thread count. Only the snapshot sweeps
split their GEMMs over a WorkerPool; the dense path, like the sample
covariance, runs on the calling thread.

The spatial factor is eigen-truncated to its rank budget every
iteration, by the full p x p eigensolve, and rebuilt as the dense A the
next sweep needs; the temporal factor is truncated once at the end.
Each of these iterates is symmetrized in place and tested once for
finite entries, not checked again. On the snapshot path the final
temporal iterate is B = rows^T ((conj(A) kron I_n) / n) conj(rows) /
||A||^2 for the p*n snapshot rows, so its truncation takes the Ritz
pairs of the factors (`linalg._top_eigenpairs`): for an A of rank r,
a p x p eigh of conj(A), a q x r*n QR of the rows its eigenvectors
mix, an r*n x r*n product and eigh, and a check of the kept pairs
against the computed B in q^2 * rank work, instead of the q x q eigh.
B is then never symmetrized. The full solve of the symmetrized B runs
when the check declines, when rank_temporal >= r*n, or when r*n is
more than q / 4 (see linalg).

The estimate keeps each factor as a linalg.Factor: the kept eigenpairs
of its truncation, which is all the filter needs, and the dense matrix
only where the fit formed it anyway (the spatial A). rank_temporal == q
keeps the symmetrized B itself, on either path, and its eigenpairs are
formed on first use, outside the fit.

Residuals are the relative Frobenius misfit of the rank-one model,
recorded after the spatial truncation, and iteration stops when the
residual stops moving by more than the tolerance.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateInputError, DimensionError
from .linalg import _HERMITIAN_RTOL, Factor, _hermitian_part, _kept_pairs, \
    _rebuild, _top_eigenpairs, _truncated
# perfbench's span tracer wraps lrkron.eig_truncate by name
from .linalg import eig_truncate  # noqa: F401
from .parallel import chunk_spans, get_pool


# Widest column tile of the dense sample covariance. On a 2-CPU host
# (OpenBLAS 0.3.31, medians of 8 rounds) 1 x 10000 x 256 snapshots took
# 51 ms at 128 columns and 41-42 ms at 256 or 512 (one tile), and
# 2 x 4000 x 512 took 298, 243 and 239 ms; on that cube the 512-column
# tiles' larger temporaries raised a standalone `estimate`'s peak RSS
# from 114.8 to 128.4 MB.
_COV_TILE = 256
# Tiles start on multiples of this (8 float64 view columns), so an entry
# meets the same BLAS kernel code as in one product over the whole view:
# at 4, every tiling of pass widths 20-300 that are multiples of 4 kept
# that product's bits; at 1 or 2, most moved entries by rounding.
_COV_ALIGN = 4
# Snapshots per chunk of the dense sample covariance: each tile pair's
# real product is summed over chunks of this many, so a cube read from
# its file is held one chunk at a time. The cut depends only on n, so a
# cube in memory and one read from its file give the same bits. On the
# `multipass` cube (2 x 4000 x 512, 2-CPU host) a standalone `estimate`
# peaked at 68.0, 76.7 and 92.7 MB RSS with chunks of 512, 1024 and
# 2048 bins, and at 122.3 MB with the whole cube as one chunk, taking
# 0.28-0.32 s at each size.
_COV_CHUNK = 1024


def working_set(n, d):
    """(path, bytes): the path a fit of n snapshots of length d = p*q
    takes, and about how many bytes it holds at once. The snapshot path
    (n < d) holds about five n x d complex arrays and the n x n Gram
    (see _snapshot_sweeps); the dense path the d x d matrix, the tile
    pairs' real sums, as large again, and one chunk of snapshots."""
    if n < d:
        return "snapshot", 16 * (5 * n * d + n * n)
    return "dense", 16 * (2 * d * d + min(n, _COV_CHUNK) * d)


class SampleCovariance:
    """Mean of snapshot outer products, tagged with the bin shape.

    It holds exactly one of the read-only dense `matrix` and the
    read-only (n, p, q) `snapshots` stack; the other is None.
    Constructed from a pq x pq matrix, it checks it in full, once:
    finite, Hermitian within tolerance, with a non-negative diagonal;
    it keeps the symmetrized copy as `matrix`. `sample_covariance`
    checks its own input and skips this: from n < p*q snapshots it
    keeps only the stack, and from n >= p*q it holds the dense matrix,
    built exactly Hermitian.
    """

    def __init__(self, matrix, n_samples, p, q):
        s = _hermitian_part(matrix, "covariance")
        if s.shape != (p * q, p * q):
            raise DimensionError(
                f"covariance shape {s.shape} does not match p*q = {p * q}")
        diag = s.diagonal().real
        if diag.min(initial=0.0) < -_HERMITIAN_RTOL * diag.max(initial=0.0):
            raise DataError("covariance has a negative diagonal, not PSD")
        self._fill(s, n_samples, p, q)

    def _fill(self, held, n_samples, p, q):
        """Keep held read-only: the (n, p, q) stack or the dense matrix."""
        held.flags.writeable = False
        stack = held.ndim == 3
        self.matrix = None if stack else held
        self.snapshots = held if stack else None
        self.n_samples = n_samples
        self.p = p
        self.q = q

    @classmethod
    def _from_checked(cls, held, n, p, q):
        """One that sample_covariance built and checked: no check here."""
        scm = cls.__new__(cls)
        scm._fill(held, n, p, q)
        return scm


@dataclass(eq=False)
class KronCovEstimate:
    """Kronecker-factored covariance estimate and its fit history.

    Each factor is a linalg.Factor. A caller may give a dense matrix
    instead, which goes through `Factor.checked` once, here. `spatial`
    and `temporal` are the factors' read-only dense matrices, formed on
    first access from the kept eigenpairs; `spatial_pairs` and
    `temporal_pairs` are the eigenpairs, formed by one full solve on
    first access to a factor held as a matrix.
    """

    spatial_factor: Factor
    temporal_factor: Factor
    rank_spatial: int
    rank_temporal: int
    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = True

    def __post_init__(self):
        for name in ("spatial", "temporal"):
            factor = getattr(self, f"{name}_factor")
            if not isinstance(factor, Factor):
                setattr(self, f"{name}_factor",
                        Factor.checked(factor, f"{name} factor"))

    @property
    def spatial(self):
        return self.spatial_factor.matrix

    @property
    def temporal(self):
        return self.temporal_factor.matrix

    @property
    def spatial_pairs(self):
        return self.spatial_factor.pairs

    @property
    def temporal_pairs(self):
        return self.temporal_factor.pairs


def sample_covariance(snapshots, p, q):
    """Average of x x^H over snapshots, exactly Hermitian.

    No mean is subtracted; the clutter model is zero mean. Snapshots
    are length p*q vectors in the channel-major layout, given either as
    the rows of an (n, p*q) matrix or as a block source of a K-pass
    cube: a PhaseHistory or a formats.PhaseHistoryReader, whose
    (K, m, p_pass, q) blocks of bins are read one at a time. Pass k of
    such a block holds column block k of every snapshot, so the cube's
    (K, n_bins, p_pass*q) view is its pass-stacked snapshots, with
    p = K * p_pass channels, without the stacking copy; no other split
    of a block source is taken.

    Fewer than p*q snapshots are checked for finite entries and kept as
    a snapshot stack (see SampleCovariance); a pass cube is stacked for
    that. Otherwise the dense matrix is formed here, chunk by chunk of
    _COV_CHUNK bins, from the upper tile pairs and mirrored, which makes
    it exactly Hermitian with a non-negative diagonal, and checked here
    for finite entries. Either way this is the one check the estimator's
    input gets.
    """
    if hasattr(snapshots, "read"):
        k, n = snapshots.n_passes, snapshots.n_bins
        d_pass = snapshots.p * snapshots.q
        if (p, q) != (k * snapshots.p, snapshots.q):
            raise DimensionError(f"the cube splits as ({k * snapshots.p}, "
                                 f"{snapshots.q}), not ({p}, {q})")

        def read(m0, m1):
            return snapshots.read(m0, m1).reshape(k, m1 - m0, d_pass)
    else:
        x = np.asarray(snapshots, dtype=np.complex128)
        if x.ndim != 2:
            raise DimensionError(f"snapshots must be 2-D or a block "
                                 f"source, got shape {x.shape}")
        x = np.ascontiguousarray(x)[None]
        k, n, d_pass = x.shape

        def read(m0, m1):
            return x[:, m0:m1]
    if n < 1:
        raise DimensionError("need at least one snapshot")
    d = k * d_pass
    if d != p * q:
        raise DimensionError(f"snapshot length {d} does not match p*q = {p * q}")
    if n < d:
        # the one check the snapshot path needs: the stack is Hermitian
        # PSD by construction, and no validated matrix is ever formed
        cube = read(0, n)
        if not np.isfinite(cube).all():
            raise DataError("snapshots contain non-finite entries")
        stack = np.array(cube.swapaxes(0, 1), order="C").reshape(n, p, q)
        return SampleCovariance._from_checked(stack, n, p, q)
    s = _outer_average(read, k, n, d_pass)
    # finite only if the snapshots were and their products did not overflow
    if not np.isfinite(s).all():
        raise DataError("covariance contains non-finite entries")
    return SampleCovariance._from_checked(s, n, p, q)


def _outer_average(read, k, n, d_pass):
    """Dense (1/n) sum of x_m x_m^H over the snapshots of a pass cube.

    read(m0, m1) gives the (K, m1 - m0, d_pass) pass cube x of
    snapshots [m0, m1), with rows contiguous; snapshot m is x[0, m],
    ..., x[K-1, m] back to back, so pass k's rows are column block k of the
    snapshot matrix X and S = X^T conj(X) / n. Each pass is cut into the
    fewest tiles of at most _COV_TILE columns, of equal width rounded up
    to _COV_ALIGN, and only the tile pairs on and above the diagonal are
    multiplied. The products are real, on the float64 view of each pass,
    in which column c's real and imaginary parts are columns 2c and
    2c + 1, so no conjugated copy is made. The snapshots go through in
    chunks of _COV_CHUNK, a cut that depends only on n, and each tile
    pair's products over the chunks are summed in chunk order. In a
    tile pair's sum M = V_a^T V_b, the 2 x 2 block of entry (r, c)
    holds rr, ri, ir and ii, the sums of products of row r's and column
    c's real (r) and imaginary (i) parts, and the entry is
    ((rr + ii) + i (ir - ri)) / n. A diagonal tile's product is V^T V,
    which numpy runs as a dsyrk, at half the flops of a GEMM. Each tile
    above the diagonal is mirrored below it and each diagonal tile t
    becomes (t + t^H) / 2, so S is exactly Hermitian with a real
    diagonal.

    With one chunk, S has the bits of the same fold of the one product
    over the whole float64 view, symmetrized, when the BLAS computes
    every entry of a tile as it does in that product. OpenBLAS 0.3.31
    (x86-64, Haswell kernels) does when d_pass and the tiles are
    multiples of 4; otherwise entries can move by rounding.
    """
    n_tiles = -(-d_pass // _COV_TILE)
    step = -(-d_pass // n_tiles)
    step += -step % _COV_ALIGN
    # (pass, first and last column within the pass, first column in S)
    tiles = [(l, c0, min(c0 + step, d_pass), l * d_pass + c0)
             for l in range(k) for c0 in range(0, d_pass, step)]
    pairs = [(a, b) for j, b in enumerate(tiles) for a in tiles[:j + 1]]
    sums = [None] * len(pairs)
    for m0 in range(0, n, _COV_CHUNK):
        x_f = read(m0, min(m0 + _COV_CHUNK, n)).view(np.float64)
        for index, ((l_a, a0, a1, _), (l_b, b0, b1, _)) in enumerate(pairs):
            v_a = x_f[l_a, :, 2 * a0:2 * a1]
            v_b = x_f[l_b, :, 2 * b0:2 * b1]
            # no name keeps a later chunk's product once it is added
            if sums[index] is None:
                sums[index] = v_a.T @ v_b
            else:
                sums[index] += v_a.T @ v_b
    # np.empty touches no page of S: the fold pages it in after the last
    # chunk has gone (a block reader lets go of its buffer after the
    # last bin), so resident memory never holds the chunk, the sums and
    # S at once. Folded sums stay in malloc's heap, so folding during
    # the last chunk would page S in on top of the chunk.
    out = np.empty((k * d_pass, k * d_pass), dtype=np.complex128)
    del x_f, v_a, v_b
    for index, ((_, a0, a1, i0), (_, b0, b1, j0)) in enumerate(pairs):
        m, sums[index] = sums[index], None
        rows = slice(i0, i0 + a1 - a0)
        cols = slice(j0, j0 + b1 - b0)
        t = out[rows, cols]
        t_f = t.view(np.float64)
        np.add(m[0::2, 0::2], m[1::2, 1::2], out=t_f[:, 0::2])
        np.subtract(m[1::2, 0::2], m[0::2, 1::2], out=t_f[:, 1::2])
        t_f /= n
        if i0 == j0:
            t += t.conj().T
            t /= 2.0
        else:
            np.conjugate(t.T, out=out[cols, rows])
    return out


# The four kernels one ALS fit needs from its covariance: its Frobenius
# norm; the block-sum start sum_rc S[ir, jc] / q^2; the B sweep, which
# writes sum_ij S[ir, jc] conj_a[i, j] into `out`; and the V sweep,
# which returns sum_rc S[ir, jc] conj_b[r, c]. The snapshot sweeps split
# their GEMMs over chunk_spans(q); each span writes its own slice of the
# output, so the result does not depend on the pool width. `rows` is
# the (p*n, q) snapshot rows, channel-major, in which every B sweep is
# rows^T ((conj_a kron I_n) / n) conj(rows), or None on the dense path.
_Sweeps = namedtuple("_Sweeps",
                     ["fro", "start", "b_sweep", "v_sweep", "rows"])


def _dense_sweeps(s, p, q):
    # axes (i, r, j, c): S[i*q + r, j*q + c] is entry (r, c) of block (i, j)
    s4 = s.reshape(p, q, p, q)

    def start():
        return np.einsum("irjc->ij", s4) / float(q * q)

    def b_sweep(conj_a, out):
        np.einsum("irjc,ij->rc", s4, conj_a, out=out)

    def v_sweep(conj_b):
        return np.einsum("irjc,rc->ij", s4, conj_b)

    # ||S||_F^2 as a numpy reduction over the float64 view, not a BLAS
    # dot, whose partial sums split by BLAS thread
    s_f = s.view(np.float64)
    return _Sweeps(math.sqrt(np.einsum("ij,ij->", s_f, s_f)), start, b_sweep,
                   v_sweep, None)


def _snapshot_sweeps(x, pool):
    # B = (1/n) sum_m X_m^T conj(A) conj(X_m), V = (1/n) sum_m X_m conj(B) X_m^H.
    # Regrouped channel-major, rows[i*n + m, r] = X_m[i, r], each sum over
    # snapshots is a plain 2-D GEMM with (channel, snapshot) as one axis.
    n, p, q = x.shape
    flat = x.reshape(n, p * q)
    gram = flat @ flat.conj().T
    rows = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(p * n, q)
    conj_wide = np.conj(rows).reshape(p, n * q)
    spans = chunk_spans(q, min_chunk=32)
    w = np.empty_like(rows)

    def start():
        sums = x.sum(axis=2)
        return (sums.T @ sums.conj()) / float(n * q * q)

    def b_sweep(conj_a, out):
        z = ((conj_a / n) @ conj_wide).reshape(p * n, q)

        def step(r0, r1):
            out[r0:r1] = rows[:, r0:r1].T @ z

        pool.run(step, spans)

    def v_sweep(conj_b):
        def step(c0, c1):
            w[:, c0:c1] = rows @ conj_b[:, c0:c1]

        pool.run(step, spans)
        return (w.reshape(p, n * q) @ conj_wide.T) / n

    return _Sweeps(math.sqrt(np.vdot(gram, gram).real) / n,
                   start, b_sweep, v_sweep, rows)


def _symmetrize_iterate(m, name):
    """Overwrite an iterate of the fit with (m + m^H) / 2; check it finite.

    The iterate is Hermitian up to rounding by construction. The bits
    are _hermitian_part's whenever ||m||_F^2 is finite, and an overflow
    raises DataError here, before any eigensolve.
    """
    m += m.conj().T
    m /= 2
    if not np.isfinite(m).all():
        raise DataError(f"{name} iterate contains non-finite entries")
    return m


def _overflow_error(scm):
    """The DataError of a fit whose ||S||_F^2 or residual is not finite,
    naming the snapshot scale: the root of S's largest diagonal entry,
    the RMS size of the largest snapshot entry."""
    if scm.snapshots is not None:
        power = (np.abs(scm.snapshots) ** 2).mean(axis=0).max()
    else:
        power = scm.matrix.diagonal().real.max()
    return DataError(
        f"the fit's residual is non-finite: ||S||_F^2 or the residual "
        f"overflows at snapshot scale {math.sqrt(power):.3g} (RMS of the "
        f"largest entry); scale the snapshots down")


def lr_kron_estimate(scm, rank_spatial, rank_temporal, tol=1e-4,
                     max_iter=100, pool=None):
    """Alternating Kronecker-factor fit to a sample covariance.

    Parameters
    ----------
    scm : SampleCovariance
        Hermitian PSD covariance of p*q snapshots, already checked where
        it was made (see SampleCovariance); it is not checked again.
    rank_spatial, rank_temporal : int
        Eigen-rank budgets for the p x p and q x q factors.
    tol : float
        Stop once the residual changes by no more than this between
        iterations. The residual is quadratically flat near the
        optimum, so a stall guarantees factor accuracy only to about
        sqrt(machine epsilon); pass a negative tol, -inf included, to
        disable the stall check and run exactly max_iter iterations
        instead. NaN and +inf raise DimensionError: one would never
        stop and the other would stop after one iteration. A residual
        eta carries about eps / eta^2 relative rounding (eps = 2.2e-16),
        since its terms ||S||^2, ||A||^2 ||B||^2 and 2 cross each round
        at about eps ||S||^2: at the `many-bins` benchmark's eta = 2e-3,
        1e-13 absolute. A tol below that compares noise.
    max_iter : int
        Iteration cap. Hitting it flags the estimate as not converged
        but still returns the partial factors.
    pool : WorkerPool, optional
        Thread pool for the snapshot sweeps (n < p*q); the dense path
        runs on the calling thread. Does not change the result.

    An iterate that is not finite raises DataError where it is formed.
    So does a residual that is not finite, as when ||S||_F^2 overflows
    for snapshots near 1e77, and its message names the snapshot scale:
    such a fit would otherwise run to max_iter on NaN residuals.
    """
    if not isinstance(scm, SampleCovariance):
        raise DimensionError("estimator expects a SampleCovariance")
    p, q = scm.p, scm.q
    if not 1 <= rank_spatial <= p:
        raise DimensionError(f"spatial rank must be in [1, {p}], got {rank_spatial}")
    if not 1 <= rank_temporal <= q:
        raise DimensionError(f"temporal rank must be in [1, {q}], got {rank_temporal}")
    if max_iter < 1:
        raise DimensionError(f"max_iter must be >= 1, got {max_iter}")
    if math.isnan(tol) or tol == math.inf:
        raise DimensionError(
            f"tol must not be NaN or +inf (a negative tol means no stall "
            f"check), got {tol}")
    if scm.snapshots is not None:
        sweeps = _snapshot_sweeps(scm.snapshots, get_pool(pool))
    else:
        sweeps = _dense_sweeps(scm.matrix, p, q)

    fro = sweeps.fro
    if fro == 0.0:
        return KronCovEstimate(
            Factor(matrix=np.zeros((p, p), dtype=np.complex128),
                   name="spatial factor"),
            Factor(matrix=np.zeros((q, q), dtype=np.complex128),
                   name="temporal factor"),
            rank_spatial, rank_temporal, 0, [0.0], True,
        )

    a_mat = sweeps.start()
    # ||A||^2 of the next sweep's A, carried over from each residual
    next_a2 = np.vdot(a_mat, a_mat).real
    b_mat = np.empty((q, q), dtype=np.complex128)
    residuals = []
    eta_prev = math.inf
    converged = False
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        norm_a2 = next_a2
        if norm_a2 == 0.0:
            raise DegenerateInputError("spatial iterate collapsed to zero")
        conj_a = np.conj(a_mat)
        sweeps.b_sweep(conj_a, b_mat)
        b_mat /= norm_a2

        norm_b2 = np.vdot(b_mat, b_mat).real
        if norm_b2 == 0.0:
            raise DegenerateInputError("temporal iterate collapsed to zero")
        v_mat = sweeps.v_sweep(np.conj(b_mat))

        # the truncation, as eig_truncate's: the sweeps need A dense
        v_sym = _symmetrize_iterate(v_mat / norm_b2, "spatial")
        kept = _kept_pairs(v_sym, rank_spatial) if rank_spatial < p else None
        a_mat = v_sym if kept is None else _rebuild(kept)

        # || R - a b^T ||^2 expanded; v_mat already holds R conj(b)
        cross = np.vdot(a_mat, v_mat).real
        next_a2 = np.vdot(a_mat, a_mat).real
        eta2 = fro * fro + next_a2 * norm_b2 - 2.0 * cross
        if not math.isfinite(eta2):
            raise _overflow_error(scm)
        eta = math.sqrt(max(eta2, 0.0)) / fro
        residuals.append(eta)

        if abs(eta_prev - eta) <= tol:
            converged = True
            break
        eta_prev = eta

    spatial = Factor(kept, a_mat, name="spatial factor")
    # on the snapshot path the final B's pairs come from its factors
    # (conj_a and norm_a2 are still the final sweep's), unless declined
    pairs = None
    if sweeps.rows is not None:
        pairs = _top_eigenpairs(b_mat, rank_temporal, sweeps.rows, conj_a,
                                norm_a2)
    if pairs is None:
        temporal = _truncated(_symmetrize_iterate(b_mat, "temporal"),
                              rank_temporal, name="temporal factor")
    else:
        temporal = Factor(pairs, name="temporal factor")
    return KronCovEstimate(
        spatial, temporal, rank_spatial, rank_temporal,
        iterations, residuals, converged,
    )
