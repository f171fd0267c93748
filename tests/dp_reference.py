"""Reference kernels for the ordering DP: the served power f(S) and the fold.

``rop._served_power`` builds each segment's islands over the subsets of
its own subtree's damaged lines only, and scores the islands of every
segment in one ``rop._island_values`` call. :func:`served_power` keeps
the kernel it replaced, which works on all 2^K subsets for every
segment: the island mask of each segment as one 2^K array, the distinct
islands found by ``np.unique`` and looked up by ``np.searchsorted``,
one scoring call per segment. Both add the segments in the same order,
so the tests hold the two equal bit for bit.

``rop._fold`` folds V(S) = f(S) + max_e V(S + e) in row blocks over
the free bits of each subset only. :func:`layered_fold` keeps the fold it
replaced, which visits one popcount layer of subsets at a time, takes the
maximum over every bit for each, and sets the layer's own entries to
-inf so that a bit already in S never wins; the tests hold the two V
equal bit for bit. :func:`best_order` is the plain Held-Karp loop over
single subsets, with the same tie rule.
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


def layered_fold(values: np.ndarray, k_lines: int, n_periods: int) -> np.ndarray:
    """V from f, in place, one popcount layer of subsets at a time."""
    values[-1] *= n_periods - k_lines  # periods K .. T-1 have every line back
    popcount = np.zeros(1, dtype=np.uint8)  # uint8 keys: the stable sort is a radix sort
    for _ in range(k_lines):
        popcount = np.concatenate((popcount, popcount + 1))
    by_layer = np.argsort(popcount, kind="stable")
    starts = np.searchsorted(popcount[by_layer], np.arange(k_lines + 1))
    for layer in range(k_lines - 1, -1, -1):
        s = by_layer[starts[layer] : starts[layer + 1]]
        own = values[s]
        values[s] = -np.inf  # s | bit is s itself for a bit already in s
        best = np.full(len(s), -np.inf)
        for k in range(k_lines):
            np.maximum(best, values[s | 1 << k], out=best)
        values[s] = own + best
    return values


def best_order(f, k_lines: int, n_periods: int) -> tuple[list[int], float]:
    """Optimal repair order (as bit indices) and its value, from f(S).

    Subsets are visited in descending numeric order, so every S + e is
    done before S. The last K..T-1 periods have every line back; each
    other S adds f(S) to the best V(S + e) over its free bits. The order
    follows the argmax from {}, the lowest bit winning a tie within
    ``rop.DP_TIE_REL``.
    """
    full = (1 << k_lines) - 1
    value = [0.0] * (full + 1)
    for s in range(full, -1, -1):
        if s == full:
            value[s] = float(f[s]) * (n_periods - k_lines)
            continue
        best = max(value[s | 1 << k] for k in range(k_lines) if not s >> k & 1)
        value[s] = float(f[s]) + best
    order, s = [], 0
    for _ in range(k_lines):
        cand = {k: value[s | 1 << k] for k in range(k_lines) if not s >> k & 1}
        top = max(cand.values())
        k = next(k for k, v in cand.items() if v >= top - rop.DP_TIE_REL * abs(top))
        order.append(k)
        s |= 1 << k
    return order, value[0]
