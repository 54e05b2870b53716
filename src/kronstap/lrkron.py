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
- built from n >= p*q snapshots, or constructed from a matrix, it
  holds the dense matrix, which is validated and symmetrized once;
  each sweep is then one einsum over its (p, q, p, q) block view.

Only the snapshot sweeps split their GEMMs over a WorkerPool; the
dense path, like the sample covariance, runs on the calling thread.

The spatial factor is eigen-truncated to its rank budget every
iteration, the temporal factor once at the end. Residuals are the
relative Frobenius misfit of the rank-one model, recorded after the
spatial truncation, and iteration stops when the residual stops moving
by more than the tolerance.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateInputError, DimensionError
from .linalg import _HERMITIAN_RTOL, _hermitian_part, eig_truncate
from .parallel import chunk_spans, get_pool


class SampleCovariance:
    """Mean of snapshot outer products, tagged with the bin shape.

    `sample_covariance` keeps only the read-only (n, p, q) `snapshots`
    stack when n < p*q; `matrix` is then formed on first access, with
    the same arithmetic as the dense path, and the estimator never asks
    for it. From n >= p*q snapshots, or when constructed directly from
    a pq x pq matrix, the dense `matrix` is held and `snapshots` is
    None.
    """

    def __init__(self, matrix, n_samples, p, q):
        self._matrix = matrix
        self.n_samples = n_samples
        self.p = p
        self.q = q
        self.snapshots = None

    @classmethod
    def _from_snapshots(cls, x, p, q):
        scm = cls(None, x.shape[0], p, q)
        scm.snapshots = x.reshape(x.shape[0], p, q)
        scm.snapshots.flags.writeable = False
        return scm

    @property
    def matrix(self):
        if self._matrix is None and self.snapshots is not None:
            self._matrix = _outer_average(
                self.snapshots.reshape(self.n_samples, -1))
        return self._matrix


@dataclass
class KronCovEstimate:
    """Kronecker-factored covariance estimate and its fit history."""

    spatial: np.ndarray
    temporal: np.ndarray
    rank_spatial: int
    rank_temporal: int
    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = True
    # the factor arrays formats.read_estimate checked and symmetrized at
    # the file boundary; build_filter does not check these again
    _checked: tuple = field(default=(), repr=False, compare=False)


def sample_covariance(snapshots, p, q):
    """Average of x x^H over snapshot rows, symmetrized.

    No mean is subtracted; the clutter model is zero mean. Snapshots
    are length p*q vectors in the channel-major layout. Fewer than p*q
    of them are checked for finite entries and kept as a snapshot stack
    (see SampleCovariance); otherwise the dense matrix is formed here
    and the estimator validates it.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise DimensionError(f"snapshots must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < 1:
        raise DimensionError("need at least one snapshot")
    if d != p * q:
        raise DimensionError(f"snapshot length {d} does not match p*q = {p * q}")
    if n < d:
        # the one check the snapshot path needs: the stack is Hermitian
        # PSD by construction, and no validated matrix is ever formed
        if not np.isfinite(x).all():
            raise DataError("snapshots contain non-finite entries")
        return SampleCovariance._from_snapshots(np.array(x), p, q)
    return SampleCovariance(_outer_average(np.ascontiguousarray(x)), n, p, q)


def _outer_average(x):
    """Dense (1/n) sum of x_m x_m^H over the rows of x, symmetrized."""
    out = x.T @ np.conj(x)
    out /= x.shape[0]
    return (out + out.conj().T) / 2.0


def _validate_covariance(scm):
    if not isinstance(scm, SampleCovariance):
        raise DimensionError("estimator expects a SampleCovariance")
    p, q = scm.p, scm.q
    s = _hermitian_part(scm.matrix, "covariance")
    if s.shape != (p * q, p * q):
        raise DimensionError(
            f"covariance shape {s.shape} does not match p*q = {p * q}"
        )
    diag = s.diagonal().real
    if diag.size and np.min(diag) < -_HERMITIAN_RTOL * max(np.max(diag), 0.0):
        raise DataError("covariance has a negative diagonal, not PSD")
    return s, p, q


# The four kernels one ALS fit needs from its covariance: its Frobenius
# norm; the block-sum start sum_rc S[ir, jc] / q^2; the B sweep, which
# writes sum_ij S[ir, jc] conj_a[i, j] into `out`; and the V sweep,
# which returns sum_rc S[ir, jc] conj_b[r, c]. The snapshot sweeps split
# their GEMMs over chunk_spans(q); each span writes its own slice of the
# output, so the result does not depend on the pool width.
_Sweeps = namedtuple("_Sweeps", ["fro", "start", "b_sweep", "v_sweep"])


def _dense_sweeps(s, p, q):
    # axes (i, r, j, c): S[i*q + r, j*q + c] is entry (r, c) of block (i, j)
    s4 = s.reshape(p, q, p, q)

    def start():
        return np.einsum("irjc->ij", s4) / float(q * q)

    def b_sweep(conj_a, out):
        np.einsum("irjc,ij->rc", s4, conj_a, out=out)

    def v_sweep(conj_b):
        return np.einsum("irjc,rc->ij", s4, conj_b)

    return _Sweeps(math.sqrt(np.vdot(s, s).real), start, b_sweep, v_sweep)


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
                   start, b_sweep, v_sweep)


def lr_kron_estimate(scm, rank_spatial, rank_temporal, tol=1e-4,
                     max_iter=100, pool=None, keep_iterates=False):
    """Alternating Kronecker-factor fit to a sample covariance.

    Parameters
    ----------
    scm : SampleCovariance
        Hermitian PSD covariance of p*q snapshots. A snapshot stack is
        used as is; a dense matrix is validated and the fit runs on its
        Hermitian part (m + m^H) / 2.
    rank_spatial, rank_temporal : int
        Eigen-rank budgets for the p x p and q x q factors.
    tol : float
        Stop once the residual changes by no more than this between
        iterations. The residual is quadratically flat near the
        optimum, so a stall guarantees factor accuracy only to about
        sqrt(machine epsilon); pass a negative tol to disable the
        stall check and run exactly max_iter iterations instead.
    max_iter : int
        Iteration cap. Hitting it flags the estimate as not converged
        but still returns the partial factors.
    pool : WorkerPool, optional
        Thread pool for the snapshot sweeps (n < p*q); the dense path
        runs on the calling thread. Does not change the result.
    keep_iterates : bool
        Record the per-iteration factor matrices on the estimate as
        an `iterates` attribute (testing hook).
    """
    if isinstance(scm, SampleCovariance) and scm.snapshots is not None:
        p, q = scm.p, scm.q
        sweeps = _snapshot_sweeps(scm.snapshots, get_pool(pool))
    else:
        s, p, q = _validate_covariance(scm)
        sweeps = _dense_sweeps(s, p, q)
    if not 1 <= rank_spatial <= p:
        raise DimensionError(f"spatial rank must be in [1, {p}], got {rank_spatial}")
    if not 1 <= rank_temporal <= q:
        raise DimensionError(f"temporal rank must be in [1, {q}], got {rank_temporal}")
    if max_iter < 1:
        raise DimensionError(f"max_iter must be >= 1, got {max_iter}")

    fro = sweeps.fro
    if fro == 0.0:
        est = KronCovEstimate(
            np.zeros((p, p), dtype=np.complex128),
            np.zeros((q, q), dtype=np.complex128),
            rank_spatial, rank_temporal, 0, [0.0], True,
        )
        if keep_iterates:
            est.iterates = []
        return est

    a_mat = sweeps.start()
    b_mat = np.empty((q, q), dtype=np.complex128)
    residuals = []
    iterates = []
    spatial = None
    eta_prev = math.inf
    converged = False
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        norm_a2 = np.vdot(a_mat, a_mat).real
        if norm_a2 == 0.0:
            raise DegenerateInputError("spatial iterate collapsed to zero")
        sweeps.b_sweep(np.conj(a_mat), b_mat)
        b_mat /= norm_a2

        norm_b2 = np.vdot(b_mat, b_mat).real
        if norm_b2 == 0.0:
            raise DegenerateInputError("temporal iterate collapsed to zero")
        v_mat = sweeps.v_sweep(np.conj(b_mat))

        spatial = eig_truncate(v_mat / norm_b2, rank_spatial)
        a_mat = spatial

        # || R - a b^T ||^2 expanded; v_mat already holds R conj(b)
        cross = np.vdot(a_mat, v_mat).real
        eta2 = fro * fro + np.vdot(a_mat, a_mat).real * norm_b2 - 2.0 * cross
        eta = math.sqrt(max(eta2, 0.0)) / fro
        residuals.append(eta)
        if keep_iterates:
            iterates.append((spatial.copy(), b_mat.copy()))

        if abs(eta_prev - eta) <= tol:
            converged = True
            break
        eta_prev = eta

    temporal = eig_truncate(b_mat, rank_temporal)
    est = KronCovEstimate(
        spatial, temporal, rank_spatial, rank_temporal,
        iterations, residuals, converged,
    )
    if keep_iterates:
        est.iterates = iterates
    return est
