"""Pass stacking, joint covariance estimation and change detection.

K registered passes of a p-channel system stack into Kp-channel
snapshots, channel blocks ordered by pass. A background common to the
passes keeps the stacked spatial factor rank K, so the joint estimate
uses a spatial rank budget of K. The joint covariance needs no stacked
copy: pass k's rows are column block k of the stacked snapshots, so
`sample_covariance` reads a (K, n_bins, p*q) pass cube as is (the CLI
does so) and stacks only on its snapshot path, with fewer bins than
Kpq. The CLI's filter gathers the passes of one block of bins at a
time. Change detection subtracts the pixel magnitudes of two per-pass
detection images formed from the same filtered stacked data.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .filters import DetectionMap, detection_image, make_stacked_spatial_grid
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

    @property
    def stacked_channels(self):
        return self.n_passes * self.p


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


def multipass_estimate(stacked, rank_temporal, tol=1e-4, max_iter=100,
                       pool=None):
    """Joint Kronecker covariance fit of the stacked snapshots.

    The spatial rank budget is the pass count: each stacked clutter
    snapshot lies in the span of the per-pass calibration directions.
    K = 1 is exactly the single-pass estimate.
    """
    if not isinstance(stacked, StackedHistory):
        raise DimensionError("multipass_estimate expects a StackedHistory")
    scm = sample_covariance(stacked.data.reshape(stacked.n_bins, -1),
                            stacked.stacked_channels, stacked.q)
    return lr_kron_estimate(scm, stacked.n_passes, rank_temporal,
                            tol=tol, max_iter=max_iter, pool=pool)


def pass_images(filt, stacked, dopplers, spatial_count=16):
    """One detection image per pass from jointly filtered stacked bins.

    The spatial candidates for pass k are the single-pass grid embedded
    in pass k's channel block with zeros elsewhere, so each image reads
    out one pass of the filtered stack. Each image is one
    detection_image call, which walks the bins in batched blocks.
    """
    if filt.p != stacked.stacked_channels or filt.q != stacked.q:
        raise DimensionError(
            f"filter ({filt.p}, {filt.q}) does not match stacked shape "
            f"({stacked.stacked_channels}, {stacked.q})"
        )
    grid = make_stacked_spatial_grid(stacked.p, stacked.n_passes, spatial_count)
    images = []
    for k in range(stacked.n_passes):
        block = grid[k * spatial_count:(k + 1) * spatial_count]
        images.append(
            detection_image(filt, stacked.data, dopplers, block)
        )
    return images


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
