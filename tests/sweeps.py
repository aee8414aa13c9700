"""numpy oracles for the exhaustive small-word laws, kept beside the certificate.

The library decides 0-hyperbolicity and the triangle inequality with the
quadratic certificate ``tree.ultrametric_violation``.  These sweeps decide
the same laws a second way: length vectors become order-preserving integer
keys, and every ordered triple is swept with numpy.  The acceptance
criteria run both on the 937 reduced words of length <= 4.
"""

from typing import Sequence, Tuple

import numpy as np

from bigfree.ordered_abelian import LexVector
from bigfree.words import Word, inverse, length_vector, multiply

_KEY_BASE = 64
_SWEEP_BLOCK = 8  # rows per numpy block of the exhaustive sweeps, bounding their block x n x n temporaries


def encode_vector(vec: LexVector, max_index: int) -> int:
    """Order-preserving, addition-preserving integer key.

    Requires integer coordinates in [0, 31] supported on 1..max_index so
    that sums of two keys never carry between digits.
    """
    key = 0
    for idx, v in vec.entries:
        if not (isinstance(idx, int) and 1 <= idx <= max_index and 0 <= v < _KEY_BASE // 2):
            raise ValueError(f"vector {vec} not encodable over 1..{max_index}")
        key += v * _KEY_BASE ** (max_index - idx)
    return key


def pair_tables(words: Sequence[Word], max_index: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distance and doubled-Gromov-product keys for every ordered pair."""
    n = len(words)
    lengths = [length_vector(w) for w in words]
    inverses = [inverse(w) for w in words]
    dist = np.zeros((n, n), dtype=np.int64)
    two_c = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        gi_inv, li = inverses[i], lengths[i]
        for j in range(i, n):
            diff_len = length_vector(multiply(gi_inv, words[j]))
            dk = encode_vector(diff_len, max_index)
            ck = encode_vector(li + lengths[j] - diff_len, max_index)
            dist[i, j] = dist[j, i] = dk
            two_c[i, j] = two_c[j, i] = ck
    return dist, two_c


def _downcast(matrix: np.ndarray) -> np.ndarray:
    if matrix.size and matrix.max() < 2**30:
        return matrix.astype(np.int32)
    return matrix


def exhaustive_two_smallest_violations(two_c: np.ndarray) -> int:
    """Ordered triples where the two smallest pairwise products differ.

    That is, the least of x, y, z is unique: z < min(x, y), or
    min(x, y) < z with x != y.  Only the order of the keys matters, so the
    keys are replaced by their ranks in the smallest unsigned type.
    """
    keys, ranks = np.unique(two_c, return_inverse=True)
    two_c = ranks.reshape(two_c.shape).astype(np.min_scalar_type(max(len(keys) - 1, 0)))
    n = two_c.shape[0]
    violations = 0
    for start in range(0, n, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, n)
        x = two_c[start:stop, :, None]   # (b, j) against k
        y = two_c[start:stop, None, :]   # (b, k) against j
        z = two_c[None, :, :]            # (j, k)
        lo = np.minimum(x, y)
        violations += int(np.count_nonzero(z < lo)) + int(np.count_nonzero((lo < z) & (x != y)))
    return violations


def exhaustive_triangle_violations(dist: np.ndarray) -> int:
    """Ordered triples violating d(i,k) <= d(i,j) + d(j,k) (keys are additive)."""
    dist = _downcast(dist)
    n = dist.shape[0]
    violations = 0
    for start in range(0, n, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, n)
        left = dist[start:stop, None, :]         # d(i,k)
        right = dist[start:stop, :, None] + dist[None, :, :]  # d(i,j) + d(j,k)
        violations += int(np.count_nonzero(left > right))
    return violations
