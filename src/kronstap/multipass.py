"""Pass stacking, joint covariance estimation and change detection.

K registered passes of a p-channel system stack into Kp-channel
snapshots, channel blocks ordered by pass. A background common to the
passes keeps the stacked spatial factor rank K, so the joint estimate
uses a spatial rank budget of K. The joint covariance needs no stacked
copy: pass k's rows are column block k of the stacked snapshots, so
`sample_covariance` reads the (K, n_bins, p, q) pass cube as is, chunk
by chunk, and stacks only on its snapshot path, with fewer bins than
Kpq. Both multipass_estimate and the CLI hand it the cube through
joint_snapshots: a PhaseHistory in memory, or a
formats.PhaseHistoryReader on its file (see PhaseHistory.read).
Neither does detection: pass_images scans the pass cube as read, and
gathers the passes of one block of bins at a time, as the CLI's filter
does. The joint filter folds into the detection operators (see
filters), so one product per block serves the detection images of
every pass, and no filtered cube is formed. Change detection subtracts
the pixel magnitudes of two per-pass detection images formed from the
same jointly filtered bins.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
# detection_image stays importable from here: perfbench's span tracer
# wraps multipass.detection_image by name, while pass_images scans the
# pass cube through filters._scan_maps
from .filters import DetectionMap, _scan_maps, detection_image, \
    make_stacked_spatial_grid  # noqa: F401
from .lrkron import lr_kron_estimate, sample_covariance
from .simulate import PhaseHistory


@dataclass(eq=False)
class StackedHistory:
    """Pass-stacked cube: (bins, passes * channels, pulses)."""

    p: int
    q: int
    n_passes: int
    data: np.ndarray
    truth: list = field(default_factory=list)

    @property
    def n_bins(self):
        return self.data.shape[0]


def stack_passes(history):
    """Stack the passes of a PhaseHistory along the channel axis.

    Rows 0..p-1 of each stacked bin are pass 0, the next p rows pass 1,
    and so on.
    """
    if not isinstance(history, PhaseHistory):
        raise DimensionError("stack_passes expects a PhaseHistory")
    k, n_bins, p, q = history.data.shape
    stacked = np.ascontiguousarray(
        history.data.transpose(1, 0, 2, 3)
    ).reshape(n_bins, k * p, q)
    return StackedHistory(p, q, k, stacked, list(history.truth))


def joint_snapshots(history):
    """sample_covariance's (snapshots, K*p, q) for the joint fit of a
    PhaseHistory or another block source such as formats.PhaseHistoryReader:
    the snapshots are the source itself, whose (K, m, p, q) blocks are
    its pass cube's, read chunk by chunk."""
    if not hasattr(history, "read"):
        raise DimensionError(
            "joint_snapshots expects a PhaseHistory or a block source")
    return history, history.n_passes * history.p, history.q


def multipass_estimate(history, rank_temporal):
    """Joint Kronecker covariance fit of a PhaseHistory's K passes.

    The covariance is the CLI estimate's (see joint_snapshots), and the
    fit runs with lr_kron_estimate's defaults, as the CLI's does. The
    spatial rank budget is the pass count: each stacked clutter snapshot
    lies in the span of the per-pass calibration directions. K = 1 is
    exactly the single-pass estimate.
    """
    scm = sample_covariance(*joint_snapshots(history))
    return lr_kron_estimate(scm, history.n_passes, rank_temporal)


def pass_images(filt, history, dopplers, spatial_count=16):
    """One detection image per pass from jointly filtered pass-stacked bins.

    history is a PhaseHistory of K passes, or a block source of them
    such as formats.PhaseHistoryReader, and filt the joint filter of
    their K*p stacked channels. The spatial candidates for pass k are
    the single-pass grid embedded in pass k's channel block with zeros
    elsewhere, so each image reads out one pass of the jointly filtered
    bins. One scan of the pass cube forms all K images: each block of
    bins gathers its passes and takes one product for every pass.
    """
    if not hasattr(history, "read"):
        raise DimensionError(
            "pass_images expects a PhaseHistory or a block source")
    k, p, q = history.n_passes, history.p, history.q
    if filt.p != k * p or filt.q != q:
        raise DimensionError(
            f"filter ({filt.p}, {filt.q}) does not match stacked shape "
            f"({k * p}, {q})"
        )
    dopplers = np.asarray(dopplers, dtype=np.float64).ravel()
    grid = make_stacked_spatial_grid(p, k, spatial_count)
    grids = [grid[i * spatial_count:(i + 1) * spatial_count]
             for i in range(k)]
    maps = _scan_maps(filt, history, dopplers, grids)
    return [DetectionMap(values, dopplers, block)
            for values, block in zip(maps, grids)]


def change_detect(image_a, image_b, signed=False):
    """Pixelwise difference of two detection images.

    Default output is the absolute difference of the magnitudes; signed
    keeps the sign (first minus second).
    """
    for name, img in (("first", image_a), ("second", image_b)):
        if not isinstance(img, DetectionMap):
            raise DimensionError(f"{name} input is not a DetectionMap")
    if image_a.values.shape != image_b.values.shape:
        raise DimensionError(
            f"image shapes differ: {image_a.values.shape} vs {image_b.values.shape}"
        )
    if not np.array_equal(image_a.dopplers, image_b.dopplers):
        raise DimensionError("images use different Doppler grids")
    diff = image_a.values - image_b.values
    if not signed:
        diff = np.abs(diff)
    return DetectionMap(diff, image_a.dopplers.copy(), image_a.spatial_grid)
