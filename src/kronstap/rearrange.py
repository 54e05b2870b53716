"""Block rearrangement that turns Kronecker structure into rank-one structure.

A pq x pq matrix S is viewed as a p x p grid of q x q blocks S(i, j).
The rearranged matrix R has one row per block and one column per
within-block position: the row holding vec(S(i, j)) sits where the
column-major vec of a p x p matrix puts entry (i, j), and likewise for
columns. With that alignment

    rearrange(kron(A, B)) == outer(vec(A), vec(B))

for every A, B, so a Kronecker product of any two factors collapses to
a rank-one matrix. The map is a pure permutation of entries: it is
exactly invertible and preserves the Frobenius norm.

On the (p, q, p, q) view S4[i, r, j, c] = S[i*q + r, j*q + c] the map is
one axis transpose to (j, i, c, r), so rearrange and unrearrange are
each one reshape-transpose. The test suite checks them against a
literal block-extraction oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix


@dataclass
class RearrangedMatrix:
    """p^2 x q^2 rearrangement of a pq x pq matrix, with its block shape."""

    p: int
    q: int
    data: np.ndarray


def _check_dims(s, p, q, name="matrix"):
    if p < 1 or q < 1:
        raise DimensionError(f"block shape must be positive, got p={p}, q={q}")
    s = as_matrix(s, name)
    if s.shape != (p * q, p * q):
        raise DimensionError(
            f"{name} shape {s.shape} does not match p*q = {p * q}"
        )
    return s


def rearrange(s, p, q):
    """Rearrange a pq x pq matrix into its p^2 x q^2 block form."""
    s = _check_dims(s, p, q)
    out = s.reshape(p, q, p, q).transpose(2, 0, 3, 1).reshape(p * p, q * q)
    return RearrangedMatrix(p, q, out)


def unrearrange(r):
    """Invert rearrange exactly (entry permutation, no arithmetic)."""
    if not isinstance(r, RearrangedMatrix):
        raise DimensionError("unrearrange expects a RearrangedMatrix")
    p, q = r.p, r.q
    data = as_matrix(r.data, "rearranged data")
    if data.shape != (p * p, q * q):
        raise DimensionError(
            f"rearranged data shape {data.shape} does not match p={p}, q={q}"
        )
    return data.reshape(p, p, q, q).transpose(1, 3, 0, 2).reshape(p * q, p * q)

