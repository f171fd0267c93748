"""Reference kernel for the ordering DP's served power f(S).

``rop._served_power`` builds each segment's islands over the subsets of
its own subtree's damaged lines only. This module keeps the kernel it
replaced, which works on all 2^K subsets for every segment: the island
mask of each segment as one 2^K array, the distinct islands found by
``np.unique`` and looked up by ``np.searchsorted``. Both score islands
with ``rop._island_values`` and add the segments in the same order, so
the tests hold the two equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from gridrestore import rop


def served_power(network) -> np.ndarray:
    """f(S) for every damaged-line subset S, bit k for the k-th damaged line."""
    tree = rop._FeederTree(network)
    subsets = np.arange(1 << (len(tree.seg_top) - 1), dtype=np.uint32)
    served = np.zeros(len(subsets))
    below: dict[int, np.ndarray] = {}  # segment -> connected segments under it
    for j in range(len(tree.seg_top) - 1, -1, -1):  # children before parents
        mask = np.full(len(subsets), 1 << j, dtype=np.uint32)
        if j in below:
            mask |= below.pop(j)
        islands = np.unique(mask)
        values = rop._island_values(islands, tree)[np.searchsorted(islands, mask)]
        if j:
            closed = (subsets >> tree.seg_top[j]) & 1
            values[closed == 1] = 0.0  # j belongs to the island of its parent
            parent = tree.seg_parent[j]
            below[parent] = below.get(parent, 0) | mask * closed
        served += values
    return served
