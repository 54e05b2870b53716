"""Steering vectors, clutter-cancelation filters and detection maps.

A range bin is a p x q (channels x pulses) matrix, and its snapshot
lists the channel blocks back to back: element i * q + j is channel i,
pulse j. So the spatial factor of a Kronecker covariance acts across
the channel blocks, the temporal factor within each, and a steering
product kron(a, b) lines up with the data.

Two filter kinds are supported. "classical" projects out the joint
subspace spanned by the Kronecker product of the spatial and temporal
bases. "kron" applies the complementary projector in each factor
separately, which also removes every cross term between the two
subspaces.

A factor's subspace is read off its eigenpairs (linalg.Factor): for an
estimate from the estimator or from formats.read_estimate, the pairs
its truncation kept, so building a filter runs no eigensolve and forms
no dim x dim array. A caller's dense factor is checked once
and decomposed by the full eigensolve.

Projection filters are kept factored; applying one works on the p x q
bin matrix through two-sided products, so the pq x pq operator is never
materialized. StapFilter.apply_matrix takes one bin or a whole
(..., p, q) stack, and gives every bin of a stack the same bits as a
call on that bin alone. The CLI's filter stage reads, filters and
writes a cube in blocks of BLOCK_BINS bins, one batched call per block.

Detection never forms a filtered cube. A kron filter is P_a x P_b, so
a map's responses conj(G) P_a x P_b conj(T) fold the projectors into
the two detection operators, formed once per scan: the Doppler side
M = P_b conj(T) (q x D) and the spatial side G' = conj(G) P_a (S x p).
The classical filter subtracts its joint-subspace part from x conj(T)
through the rank-sized core U_a^H x conj(U_b). _scan_maps reads the raw
bins from a block source (a PhaseHistory in memory, or
formats.PhaseHistoryReader on a file) in blocks of BLOCK_BINS, checks
each block for finite entries, and costs one (m*p, q) @ M GEMM and one
broadcast G' product per block;
a pass cube's block gathers its passes' rows, and every spatial grid
(one per pass) reads the same product. detection_image and
multipass.pass_images both scan through it, on the calling thread.
No worker pool is used: spreading the same blocks over a 2-thread pool
measured slower than the serial loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
# hermitian_eig stays importable from here: perfbench's span tracer wraps
# filters.hermitian_eig by name, while a factor decomposes through
# linalg.Factor
from .linalg import as_matrix, hermitian_eig  # noqa: F401
from .simulate import PhaseHistory

FILTER_KINDS = ("classical", "kron")

# build_filter drops a factor's eigendirections below this fraction of
# its largest eigenvalue (see _factor_basis).
RANK_TOL = 1e-9

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


@dataclass
class StapFilter:
    """Factored clutter filter for p-channel, q-pulse snapshots."""

    kind: str
    p: int
    q: int
    spatial_basis: np.ndarray = None
    temporal_basis: np.ndarray = None

    def apply_matrix(self, x):
        """Filter one (p, q) bin matrix, or a (..., p, q) stack of them.

        The input is checked once per call: its trailing shape, then that
        every entry is finite. Each bin of a stack comes out bitwise
        equal to filtering it alone. The kron path runs its temporal
        product over the whole stack as one (m*p, q) GEMM; the spatial
        products broadcast over the stack.
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
        u_a = self.spatial_basis
        u_b = self.temporal_basis
        if self.kind == "kron":
            out = x
            # each projection's product is fresh, so the difference
            # overwrites it: one stack-sized temporary per side, not two
            if u_b is not None:
                rows = _as_rows(out, self.p, self.q)
                proj = (rows @ u_b.conj()) @ u_b.T
                out = np.subtract(rows, proj, out=proj).reshape(x.shape)
            if u_a is not None:
                proj = u_a @ (u_a.conj().T @ out)
                out = np.subtract(out, proj, out=proj)
            return np.array(out) if out is x else out
        # classical: subtract the joint-subspace component
        if u_a is None or u_b is None:
            return np.array(x)
        inner = u_a.conj().T @ x @ u_b.conj()
        return x - u_a @ inner @ u_b.T

    def _detection_operators(self, temporal_conj, grid_conj):
        """(right, left, joint): the detection operators of this filter.

        A kron filter gives a map's responses as left @ (x @ right),
        with the temporal projector folded into right = P_b conj(T) and
        the spatial one into left = conj(G) P_a; joint is None. A
        classical filter with both bases keeps right = conj(T) and
        left = conj(G), and joint = (U_a, conj(U_b), U_b^T conj(T)) for
        the subtracted part U_a (U_a^H x conj(U_b)) (U_b^T conj(T)).
        """
        u_a = self.spatial_basis
        u_b = self.temporal_basis
        if self.kind == "classical":
            if u_a is None or u_b is None:
                return temporal_conj, grid_conj, None
            return (temporal_conj, grid_conj,
                    (u_a, u_b.conj(), u_b.T @ temporal_conj))
        right, left = temporal_conj, grid_conj
        if u_b is not None:
            right = right - u_b.conj() @ (u_b.T @ right)
        if u_a is not None:
            left = left - (left @ u_a) @ u_a.conj().T
        return right, left, None

    def apply(self, x):
        """Filter one channel-major snapshot vector of length p*q."""
        v = np.asarray(x).ravel()
        if v.size != self.p * self.q:
            raise DimensionError(
                f"snapshot length {v.size} does not match {self.p}x{self.q}")
        return self.apply_matrix(v.reshape(self.p, self.q)).reshape(-1)


def projection_filter(kind, spatial_basis, temporal_basis, p, q):
    """Build a classical or kron filter from explicit subspace bases.

    A basis of None is an empty subspace. Spatial-only cancelation,
    (I - P_a) x I, is the kron filter with no temporal basis.
    """
    if kind not in FILTER_KINDS:
        raise DimensionError(f"unknown projection filter kind {kind!r}")
    for name, basis, dim in (("spatial", spatial_basis, p),
                             ("temporal", temporal_basis, q)):
        if basis is not None and basis.shape[0] != dim:
            raise DimensionError(
                f"{name} basis has {basis.shape[0]} rows, expected {dim}"
            )
    return StapFilter(kind, p, q, spatial_basis, temporal_basis)


def _factor_basis(estimate, name):
    """Orthonormal basis of one factor's top eigen-subspace, from its
    eigenpairs: at most its rank budget, which must lie in [1, dim], of
    the directions above RANK_TOL times the largest eigenvalue; None
    when none is positive, an empty subspace. A dense factor that is
    not PSD up to rounding raises DataError at its eigensolve."""
    factor = getattr(estimate, f"{name}_factor")
    rank, dim = getattr(estimate, f"rank_{name}"), factor.dim
    if not 1 <= rank <= dim:
        raise DimensionError(f"{name} rank budget {rank} outside [1, {dim}]")
    values, vectors = factor.pairs
    if values[0] <= 0.0:
        return None
    keep = min(int(np.sum(values > RANK_TOL * values[0])), rank)
    return vectors[:, :keep]


def build_filter(kind, estimate, drop_temporal=False):
    """Construct a projection StapFilter from a KronCovEstimate.

    The bases come from the factors' eigenpairs (see _factor_basis),
    honoring the estimate's rank budgets. drop_temporal still derives,
    and so checks, the temporal basis but leaves it out: spatial-only
    cancelation, the kron filter with no temporal basis, for any kind.
    """
    if kind not in FILTER_KINDS:
        raise DimensionError(f"unknown filter kind {kind!r}")
    if estimate is None:
        raise DimensionError(f"{kind} filter needs a covariance estimate")
    u_a = _factor_basis(estimate, "spatial")
    u_b = _factor_basis(estimate, "temporal")
    p, q = estimate.spatial_factor.dim, estimate.temporal_factor.dim
    if drop_temporal:
        return projection_filter("kron", u_a, None, p, q)
    return projection_filter(kind, u_a, u_b, p, q)


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


def _scan_maps(filt, source, dopplers, grids):
    """Detection magnitudes of a K-pass block source, one map per grid.

    source is a PhaseHistory or a formats.PhaseHistoryReader: its
    n_bins, and read(m0, m1) giving the (K, m1 - m0, p, q) cube of bins
    [m0, m1). The filter acts on each bin's K*p pass-stacked rows
    (pass-major, so K = 1 is the bin itself), and every grid is an
    (S, K*p) block of spatial candidates. Returns one (n_bins, D) array
    per grid: the largest response magnitude over the grid's
    candidates, per bin and Doppler. The operators are formed once;
    then the cube is read in blocks of BLOCK_BINS bins, each checked
    for finite entries and never filtered: the filter lives in the
    operators of StapFilter._detection_operators. Every bin's row is
    bitwise equal to scanning that bin's block alone.
    """
    rows, q = filt.p, filt.q
    temporal = np.exp(2j * np.pi * np.outer(np.arange(q), dopplers))
    temporal /= np.sqrt(q)
    right, left, joint = filt._detection_operators(
        temporal.conj(), np.concatenate(grids).conj())
    edges = np.cumsum([0] + [len(grid) for grid in grids])
    maps = [np.empty((source.n_bins, dopplers.size), dtype=np.float64)
            for _ in grids]
    for m0, m1 in bin_blocks(source.n_bins):
        # bin-major block; a bin's K*p rows are its K pass blocks of p,
        # gathered for this block alone
        passes = source.read(m0, m1)
        block = passes[0] if len(passes) == 1 else \
            passes.swapaxes(0, 1).reshape(m1 - m0, rows, q)
        if not np.isfinite(block).all():
            raise DataError("bin matrix contains non-finite entries")
        x = _as_rows(block, rows, q)
        y = (x @ right).reshape(m1 - m0, rows, -1)
        if joint is not None:
            u_a, u_b_conj, tail = joint
            core = u_a.conj().T @ (x @ u_b_conj).reshape(m1 - m0, rows, -1)
            y -= u_a @ (core @ tail)
        magnitudes = np.abs(left @ y)
        for out, s0, s1 in zip(maps, edges[:-1], edges[1:]):
            out[m0:m1] = magnitudes[:, s0:s1].max(axis=1)
    return maps


def detection_image(filt, cube, dopplers, spatial_grid):
    """Max matched-filter magnitude over spatial candidates, per bin and Doppler.

    cube is (n_bins, p, q) with p matching the filter, or a one-pass
    block source (a PhaseHistory or formats.PhaseHistoryReader) of that
    shape. It is scanned by _scan_maps, which folds the filter into the
    detection operators and never forms a filtered copy of the cube; a
    non-finite bin is a DataError.
    """
    if hasattr(cube, "read"):
        if (cube.n_passes, cube.p, cube.q) != (1, filt.p, filt.q):
            raise DimensionError(
                f"{cube.n_passes}-pass cube of {cube.p} x {cube.q} bins "
                f"does not match a one-pass filter ({filt.p}, {filt.q})")
        source = cube
    else:
        cube = np.asarray(cube, dtype=np.complex128)
        if cube.ndim != 3 or cube.shape[1:] != (filt.p, filt.q):
            raise DimensionError(
                f"cube shape {cube.shape} does not match filter "
                f"({filt.p}, {filt.q})")
        source = PhaseHistory(filt.p, filt.q, 1, cube[None])
    dopplers = np.asarray(dopplers, dtype=np.float64).ravel()
    spatial_grid = np.asarray(spatial_grid, dtype=np.complex128)
    if spatial_grid.ndim != 2 or spatial_grid.shape[1] != filt.p:
        raise DimensionError(
            f"spatial grid shape {spatial_grid.shape} does not match p = {filt.p}"
        )
    values, = _scan_maps(filt, source, dopplers, [spatial_grid])
    return DetectionMap(values, dopplers, spatial_grid)
