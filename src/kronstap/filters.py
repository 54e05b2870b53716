"""Steering vectors, clutter-cancelation filters and detection maps.

Three filter kinds are supported. "optimal" whitens with the inverse of
a known covariance and is only meant for small problems where that
matrix is available. "classical" projects out the joint subspace
spanned by the Kronecker product of the spatial and temporal bases.
"kron" applies the complementary projector in each factor separately,
which also removes every cross term between the two subspaces.

Projection filters are kept factored; applying one works on the p x q
bin matrix through two-sided products, so the pq x pq operator is never
materialized. StapFilter.apply_matrix takes one bin or a whole
(..., p, q) stack, and gives every bin of a stack the same bits as a
call on that bin alone. detection_image, and the CLI's filter stage,
walk a cube in blocks of BLOCK_BINS bins, one batched call per block,
on the calling thread. No worker pool is used: spreading the same
blocks over a 2-thread pool measured slower than the serial loop.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DataError, DimensionError
from .layout import from_snapshot, to_snapshot
from .linalg import as_matrix, hermitian_eig

FILTER_KINDS = ("optimal", "classical", "kron")

# Bins per batched call when a cube is filtered or scanned: enough to
# amortize numpy's per-call cost, few enough that each block's
# temporaries stay a few MB at any n_bins.
BLOCK_BINS = 256


def bin_blocks(n_bins):
    """(start, stop) spans of at most BLOCK_BINS bins covering range(n_bins)."""
    return [(m0, min(m0 + BLOCK_BINS, n_bins))
            for m0 in range(0, n_bins, BLOCK_BINS)]


def _as_rows(stack, p, q):
    """A (..., p, q) stack as (m*p, q) rows, so a right product is one GEMM.

    A p = 1 bin is a lone row, which numpy sends through a vector kernel
    with other rounding than a GEMM; p = 1 stacks stay as they are and
    multiply bin by bin, so results match per-bin calls bitwise.
    """
    return stack.reshape(-1, q) if p > 1 else stack


@dataclass(frozen=True)
class SteeringVector:
    """Spatial and temporal steering for one normalized Doppler."""

    spatial: np.ndarray
    temporal: np.ndarray
    doppler: float
    kappa: float

    @property
    def vector(self):
        """Unit-norm channel-major steering snapshot."""
        full = np.kron(self.spatial, self.temporal)
        return full / np.linalg.norm(full)


def make_steering(doppler, p, q, kappa=0.5):
    """Steering for a mover at the given normalized Doppler.

    The spatial phase ramp is kappa * doppler per channel, so the first
    channel entry is always 1. The temporal part is the unit-norm
    Doppler ramp across pulses.
    """
    if p < 1 or q < 1:
        raise DimensionError(f"steering needs positive dims, got p={p}, q={q}")
    spatial = np.exp(2j * np.pi * kappa * doppler * np.arange(p))
    temporal = np.exp(2j * np.pi * doppler * np.arange(q)) / np.sqrt(q)
    return SteeringVector(spatial, temporal, float(doppler), float(kappa))


def subspace_basis(matrix, rank, tol=1e-9):
    """Orthonormal basis for the top eigen-subspace of a Hermitian matrix.

    Keeps at most `rank` directions and drops eigenvalues below
    tol * largest. Returns None when nothing survives, which downstream
    code treats as an empty subspace.
    """
    values, vectors = hermitian_eig(matrix)
    top = values[0] if values.size else 0.0
    if top <= 0.0:
        return None
    keep = int(np.sum(values > tol * top))
    keep = min(keep, rank)
    if keep == 0:
        return None
    return vectors[:, :keep]


@dataclass
class StapFilter:
    """Factored clutter filter for p-channel, q-pulse snapshots."""

    kind: str
    p: int
    q: int
    spatial_basis: np.ndarray = None
    temporal_basis: np.ndarray = None
    spatial_only: bool = False
    # Cholesky factor of the covariance, set for kind "optimal" only
    _chol: tuple = field(default=None, repr=False, compare=False)

    def apply_matrix(self, x):
        """Filter one (p, q) bin matrix, or a (..., p, q) stack of them.

        The input is checked once per call: its trailing shape, then that
        every entry is finite. Each bin of a stack comes out bitwise
        equal to filtering it alone. The kron path runs its temporal
        product over the whole stack as one (m*p, q) GEMM; the spatial
        products broadcast over the stack. "optimal" solves every bin
        with one multi-RHS Cholesky solve.
        """
        x = np.asarray(x)
        if x.ndim < 2 or x.shape[-2:] != (self.p, self.q):
            raise DimensionError(
                f"bin shape {x.shape} does not match filter "
                f"(..., {self.p}, {self.q})"
            )
        x = np.ascontiguousarray(x, dtype=np.complex128)
        if not np.isfinite(x).all():
            raise DataError("bin matrix contains non-finite entries")
        if self.kind == "optimal":
            flat = x.reshape(-1, self.p * self.q)
            solved = cho_solve(self._chol, flat.T, check_finite=False)
            return solved.T.reshape(x.shape)
        u_a = self.spatial_basis
        u_b = None if self.spatial_only else self.temporal_basis
        if self.kind == "kron":
            out = x
            if u_b is not None:
                rows = _as_rows(out, self.p, self.q)
                rows = rows - (rows @ u_b.conj()) @ u_b.T
                out = rows.reshape(x.shape)
            if u_a is not None:
                out = out - u_a @ (u_a.conj().T @ out)
            return np.array(out) if out is x else out
        # classical: subtract the joint-subspace component
        if u_a is None:
            return np.array(x)
        if self.spatial_only:
            return x - u_a @ (u_a.conj().T @ x)
        if self.temporal_basis is None:
            return np.array(x)
        u_b = self.temporal_basis
        inner = u_a.conj().T @ x @ u_b.conj()
        return x - u_a @ inner @ u_b.T

    def apply(self, x):
        """Filter one channel-major snapshot vector."""
        return to_snapshot(self.apply_matrix(from_snapshot(x, self.p, self.q)))


def projection_filter(kind, spatial_basis, temporal_basis, p, q,
                      spatial_only=False):
    """Build a classical or kron filter from explicit subspace bases."""
    if kind not in ("classical", "kron"):
        raise DimensionError(f"unknown projection filter kind {kind!r}")
    for name, basis, dim in (("spatial", spatial_basis, p),
                             ("temporal", temporal_basis, q)):
        if basis is not None and basis.shape[0] != dim:
            raise DimensionError(
                f"{name} basis has {basis.shape[0]} rows, expected {dim}"
            )
    return StapFilter(kind, p, q, spatial_basis, temporal_basis, spatial_only)


def build_filter(kind, estimate=None, sigma=None, p=None, q=None,
                 drop_temporal=False, rank_tol=1e-9):
    """Construct a StapFilter.

    kind "optimal" takes the full covariance `sigma` with its bin shape
    (p, q). The projection kinds take a KronCovEstimate and pull their
    bases from the factor eigendecompositions, honoring the estimate's
    rank budgets. drop_temporal skips the temporal projection, leaving
    spatial-only cancelation.
    """
    if kind not in FILTER_KINDS:
        raise DimensionError(f"unknown filter kind {kind!r}")
    if kind == "optimal":
        if sigma is None or p is None or q is None:
            raise DimensionError("optimal filter needs sigma and its bin shape")
        sigma = as_matrix(sigma, "covariance")
        if sigma.shape != (p * q, p * q):
            raise DimensionError(
                f"covariance shape {sigma.shape} does not match p*q = {p * q}"
            )
        try:
            chol = cho_factor(sigma, lower=True)
        except LinAlgError as exc:
            raise DataError("covariance is not positive definite") from exc
        return StapFilter("optimal", p, q, _chol=chol)
    if estimate is None:
        raise DimensionError(f"{kind} filter needs a covariance estimate")
    u_a = subspace_basis(estimate.spatial, estimate.rank_spatial, rank_tol)
    u_b = subspace_basis(estimate.temporal, estimate.rank_temporal, rank_tol)
    return StapFilter(
        kind,
        estimate.spatial.shape[0],
        estimate.temporal.shape[0],
        u_a,
        u_b,
        spatial_only=drop_temporal,
    )


def filter_output(filt, steering, x):
    """Filtered matched-filter output (F d)^H x for one snapshot."""
    d = steering.vector if isinstance(steering, SteeringVector) else np.asarray(steering)
    w = filt.apply(d)
    return complex(np.vdot(w, np.asarray(x).ravel()))


def sinr(weights, steering, amplitude, sigma):
    """Output signal-to-interference-plus-noise ratio of a weight vector.

    Scale invariant in the weights. sigma is the true interference plus
    noise covariance used for evaluation.
    """
    w = np.asarray(weights).ravel()
    d = steering.vector if isinstance(steering, SteeringVector) else np.asarray(steering).ravel()
    sigma = as_matrix(sigma, "covariance")
    denom = np.vdot(w, sigma @ w).real
    if denom <= 0.0:
        raise DataError("weights have no response power under this covariance")
    num = (abs(amplitude) ** 2) * abs(np.vdot(w, d)) ** 2
    return float(num / denom)


def make_doppler_grid(count):
    """Normalized Doppler bins, evenly spaced over [0, 1)."""
    if count < 1:
        raise DimensionError(f"doppler grid needs at least one bin, got {count}")
    return np.arange(count, dtype=np.float64) / count


def make_spatial_grid(p, count=16):
    """Unit-norm spatial candidates from a discretized phase-slope grid.

    Row g is the p-channel ramp at slope g / count, covering [0, 1).
    """
    if count < 1:
        raise DimensionError(f"spatial grid needs at least one point, got {count}")
    slopes = np.arange(count, dtype=np.float64) / count
    grid = np.exp(2j * np.pi * np.outer(slopes, np.arange(p)))
    return grid / np.sqrt(p)


def make_stacked_spatial_grid(p, n_passes, count=16):
    """Spatial candidates for pass-stacked snapshots.

    Each single-pass candidate is replicated once per pass with zeros in
    the other pass blocks, so a target present in a single pass is still
    matched. Rows are ordered pass-major.
    """
    base = make_spatial_grid(p, count)
    out = np.zeros((n_passes * count, n_passes * p), dtype=np.complex128)
    for k in range(n_passes):
        out[k * count:(k + 1) * count, k * p:(k + 1) * p] = base
    return out


@dataclass
class DetectionMap:
    """Per-bin, per-Doppler detection magnitudes with their grids."""

    values: np.ndarray
    dopplers: np.ndarray
    spatial_grid: np.ndarray


def detection_image(filt, cube, dopplers, spatial_grid):
    """Max matched-filter magnitude over spatial candidates, per bin and Doppler.

    cube is (n_bins, p, q) with p matching the filter. The cube goes
    through in blocks of BLOCK_BINS bins on the calling thread, with no
    worker pool: each block is filtered by one apply_matrix call, its
    Doppler responses come from one (m*p, q) GEMM, and the spatial
    candidates broadcast over the block. Every bin's row is bitwise
    equal to scanning that bin alone.
    """
    cube = np.asarray(cube)
    if cube.ndim != 3 or cube.shape[1:] != (filt.p, filt.q):
        raise DimensionError(
            f"cube shape {cube.shape} does not match filter ({filt.p}, {filt.q})"
        )
    dopplers = np.asarray(dopplers, dtype=np.float64).ravel()
    spatial_grid = np.asarray(spatial_grid, dtype=np.complex128)
    if spatial_grid.ndim != 2 or spatial_grid.shape[1] != filt.p:
        raise DimensionError(
            f"spatial grid shape {spatial_grid.shape} does not match p = {filt.p}"
        )
    n_bins = cube.shape[0]
    temporal = np.exp(2j * np.pi * np.outer(np.arange(filt.q), dopplers))
    temporal /= np.sqrt(filt.q)
    temporal_conj = temporal.conj()
    spatial_conj = spatial_grid.conj()
    values = np.empty((n_bins, dopplers.size), dtype=np.float64)
    for m0, m1 in bin_blocks(n_bins):
        filtered = filt.apply_matrix(cube[m0:m1])
        rows = _as_rows(filtered, filt.p, filt.q)
        per_doppler = (rows @ temporal_conj).reshape(m1 - m0, filt.p, -1)
        responses = spatial_conj @ per_doppler
        values[m0:m1] = np.abs(responses).max(axis=1)
    return DetectionMap(values, dopplers, spatial_grid)
