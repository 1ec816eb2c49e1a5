"""Weighted sampling without replacement: two samplers, one law.

The selection law is sequential: draw one index with probability
proportional to its weight, remove it, renormalize, repeat. Tests
enumerate small cases against that definition.

`sample_without_replacement` is the exponential race: give index i the
key E_i / w_i with E_i iid standard exponential, and keep the k smallest
keys. The joint law of the winners is exactly the sequential-draw law,
reached in one O(n) vectorized pass over a weight vector built for the
draw. The lbm and lbm-g models use it, because their distance factor
changes every weight at every insertion.

`IncrementLog` serves ba, af and mf, whose weights never decrease. It
keeps an append-only log of weight increments (who gained, and the
running total), so one draw proportional to the current weights is a
binary search of a uniform point in the prefix sums. Without replacement
is rejection of repeats: iid draws are taken in batches and a draw whose
node is already chosen is discarded. The first draw not yet chosen is
proportional to weight among the unchosen nodes, so the accepted draws
follow the sequential law exactly. Once the chosen nodes hold at least
`DENSE_SHARE` of the total weight, rejections would dominate, and the
insertion is finished with the exponential race over the unchosen nodes.
That switch depends only on the chosen set, and both ways draw the rest
from the same conditional law, so the mix of the two stays exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["IncrementLog", "sample_without_replacement"]

# chosen share of the total weight from which an insertion finishes with
# the exponential race instead of rejecting repeats
DENSE_SHARE = 0.999


def sample_without_replacement(weights, k: int, rng: np.random.Generator) -> np.ndarray:
    """Select k distinct indices with probability proportional to weight.

    Parameters
    ----------
    weights:
        1-D array of non-negative finite weights. Zero-weight indices are
        never selected.
    k:
        Number of indices to draw. Must not exceed the number of
        positive-weight entries.
    rng:
        numpy Generator; the only source of randomness.

    Returns
    -------
    Sorted int64 array of k distinct indices.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError(f"weights must be 1-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights contain non-finite values")
    if w.size and w.min() < 0.0:
        bad = int(np.argmin(w))
        raise ValidationError(f"negative weight {w[bad]} at index {bad}")
    k = int(k)
    if k < 0:
        raise ValidationError(f"sample size must be non-negative, got {k}")
    if k == 0:
        return np.empty(0, dtype=np.int64)

    positive = w > 0.0
    n_pos = int(np.count_nonzero(positive))
    if k > n_pos:
        raise ValidationError(
            f"need {k} targets but only {n_pos} candidates have positive weight "
            f"(deficit {k - n_pos})")

    e = rng.exponential(size=w.size)
    # e/w can overflow for denormal-small weights; an inf key means the
    # candidate is never picked, which is the right limit, so keep quiet
    with np.errstate(over="ignore"):
        keys = np.divide(e, w, out=np.full(w.size, np.inf), where=positive)
    if k == w.size:
        chosen = np.arange(w.size, dtype=np.int64)
    else:
        chosen = np.argpartition(keys, k - 1)[:k].astype(np.int64)
    chosen.sort()
    return chosen


class IncrementLog:
    """Node weights that only grow, held as an append-only increment log.

    Entry t of the log credits `owner[t]` with a weight increment; `cum`
    holds the running total after each entry. A node's weight is the sum
    of its entries, so a uniform point in [0, total) lands in a node's
    entries with probability weight / total. A zero increment has zero
    width and is never hit.

    Parameters
    ----------
    weights:
        Initial weights of nodes 0..n-1, one entry each.
    max_nodes, max_entries:
        Capacity: the most nodes and log entries the log will hold.
    """

    def __init__(self, weights, max_nodes: int, max_entries: int):
        w = np.asarray(weights, dtype=np.float64)
        n = w.size
        self.owner = np.empty(max_entries, dtype=np.int64)
        self.cum = np.empty(max_entries, dtype=np.float64)
        self.weights = np.zeros(max_nodes, dtype=np.float64)
        self.owner[:n] = np.arange(n)
        np.cumsum(w, out=self.cum[:n])
        self.weights[:n] = w
        self.n_nodes = n
        self.size = n

    def add_node(self, cited: np.ndarray, gains: np.ndarray, weight: float) -> None:
        """Credit each distinct node in `cited` with its gain, then append
        one new node (id `n_nodes`) of initial weight `weight`."""
        t = self.size
        end = t + len(cited) + 1
        base = self.cum[t - 1] if t else 0.0
        self.owner[t:end - 1] = cited
        self.owner[end - 1] = self.n_nodes
        block = self.cum[t:end]
        block[:-1] = gains
        block[-1] = weight
        np.cumsum(block, out=block)
        block += base
        self.weights[cited] += gains
        self.weights[self.n_nodes] = weight
        self.n_nodes += 1
        self.size = end

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Select k distinct nodes with probability proportional to weight,
        under the sequential law of `sample_without_replacement`.

        Returns a sorted int64 array. When fewer than k nodes have positive
        weight, all of them are returned and the caller fills the gap.
        """
        cum = self.cum[:self.size]
        total = float(cum[-1])
        weights = self.weights
        chosen: set[int] = set()
        chosen_w = 0.0
        while len(chosen) < k:
            if chosen_w >= DENSE_SHARE * total:
                w = weights[:self.n_nodes].copy()
                w[list(chosen)] = 0.0
                rest = min(k - len(chosen), int(np.count_nonzero(w)))
                if rest:
                    chosen.update(sample_without_replacement(w, rest, rng).tolist())
                break
            need = k - len(chosen)
            # expected draws for `need` acceptances at the current rejection rate
            batch = min(int(need * total / (total - chosen_w)) + 2, self.n_nodes)
            # u < 1 makes u * total < total, so the search stays inside the log
            hits = cum.searchsorted(rng.random(batch) * total, side="right")
            for node in self.owner[hits].tolist():
                if node not in chosen:
                    chosen.add(node)
                    chosen_w += weights[node]
                    if len(chosen) == k:
                        break
        return np.array(sorted(chosen), dtype=np.int64)
