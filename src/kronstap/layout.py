"""Snapshot layout convention.

A range bin holds a channels x pulses matrix X (p rows, q columns). The
corresponding snapshot vector lists channel blocks back to back:
element (i * q + j) is channel i, pulse j. Under this layout the
spatial factor of a Kronecker-structured covariance acts across the
p channel blocks and the temporal factor within each block, and a
spatial-by-temporal steering product kron(a, b) lines up with the data.

Conversions between bin matrices and snapshot vectors go through here
so the convention lives in exactly one place.
"""

import numpy as np

from .errors import DimensionError


def to_snapshot(x):
    """Flatten a (p, q) bin matrix into a channel-major snapshot."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionError(f"bin matrix must be 2-D, got shape {x.shape}")
    return np.ascontiguousarray(x).reshape(-1)


def from_snapshot(v, p, q):
    """Reshape a snapshot vector back into its (p, q) bin matrix."""
    v = np.asarray(v).ravel()
    if v.size != p * q:
        raise DimensionError(f"snapshot length {v.size} does not match {p}x{q}")
    return v.reshape(p, q)

