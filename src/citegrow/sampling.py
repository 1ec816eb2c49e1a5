"""Weighted sampling without replacement: two samplers, one law.

The selection law is sequential: draw one index with probability
proportional to its weight, remove it, renormalize, repeat. Tests
enumerate small cases against that definition.

`sample_without_replacement` is the exponential race: give index i the
key E_i / w_i with E_i iid standard exponential, and keep the k smallest
keys. The joint law of the winners is exactly the sequential-draw law,
reached in one O(n) vectorized pass over a weight vector built for the
draw.

`IncrementLog` holds the weights of every growth model. Its node weights
never decrease: it keeps an append-only log of weight increments (who
gained, and the running total), so one draw proportional to the current
weights is a binary search of a uniform point in the prefix sums. Without
replacement is rejection of repeats: iid draws are taken in batches and a
draw whose node is already chosen is discarded. The first draw not yet
chosen is proportional to weight among the unchosen nodes, so the
accepted draws follow the sequential law exactly. Once the chosen nodes
hold at least `DENSE_SHARE` of the total weight, rejections would
dominate, and the insertion is finished with the exponential race over
the unchosen nodes. That switch depends only on the chosen set, and both
ways draw the rest from the same conditional law, so the mix of the two
stays exact.

lbm and lbm-g scale the log's weights by a distance factor g_i <= 1
(`IncrementLog.sample_near`). The nodes of a ball around the new node
race with their exact weights w_i = a_i * g_i. Every other node has
g_j <= c, a bound the ball supplies, so its race key E_j / w_j is the
first arrival of a Poisson process of rate w_j. Those processes are one
thinned process: arrivals at rate c * A (A the log total) propose node j
with probability a_j / A, a proposal inside the ball is dropped, and one
outside is kept with probability g_j / c. Superposition and thinning give
each tail node a Poisson process of rate a_j * g_j, independent of the
others and of the ball's keys, so the first kept arrival of each tail
node is distributed as its race key, and the k smallest keys of ball and
tail are the race's winners: the sequential law, exactly. Only arrivals
before the k-th smallest key found so far can win, so the process stops
there. The ball, c and the choice to hand an insertion to the full race
(when the ball holds fewer than k positive weights, or the tail would
need too many proposals) are fixed before the first draw, so they cannot
bias it.
"""

from __future__ import annotations

from bisect import bisect_right, insort

import numpy as np

from .errors import ValidationError

__all__ = ["IncrementLog", "sample_without_replacement"]

# chosen share of the total weight from which an insertion finishes with
# the exponential race instead of rejecting repeats
DENSE_SHARE = 0.999
# bound on the expected tail arrivals, per node, from which an lbm/lbm-g
# insertion runs the exponential race over all nodes instead
HANDOFF = 16.0
# expected tail arrivals per time segment
SEGMENT = 64.0

_EMPTY = np.empty(0, dtype=np.int64)

# what `IncrementLog.counts` tallies: targets by the way they were drawn,
# log draws rejected as repeats, tail arrivals proposed and accepted, and
# insertions handed to the race (lbm/lbm-g) or finished by it (ba/af/mf)
COUNTERS = ("log_draws", "ball_draws", "tail_draws", "race_draws", "log_rejects",
            "tail_proposed", "tail_accepted", "race_handoffs", "dense_handoffs")


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

    The arrays are allocated once at capacity and never resized. The ba,
    af and mf draw and `add_node` touch a handful of entries per
    insertion, so they read and write them one at a time through
    memoryviews of the same arrays, as Python floats and ints; the lbm and
    lbm-g draws read the arrays whole, with numpy.

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
        self._owner = memoryview(self.owner)
        self._cum = memoryview(self.cum)
        self._weights = memoryview(self.weights)
        self.n_nodes = n
        self.size = n
        self.counts = dict.fromkeys(COUNTERS, 0)

    def add_node(self, cited, gains, weight: float) -> None:
        """Credit each distinct node i in `cited` with `gains[i]`, then
        append one new node (id `n_nodes`) of initial weight `weight`."""
        owner, cum, weights = self._owner, self._cum, self._weights
        t = self.size
        base = cum[t - 1] if t else 0.0
        # running sums of the new entries, each then added to the base: the
        # additions, in order, of a cumsum over the block plus base
        running = 0.0
        for node in cited:
            gain = gains[node]
            running += gain
            owner[t] = node
            cum[t] = base + running
            weights[node] += gain
            t += 1
        owner[t] = self.n_nodes
        cum[t] = base + (running + weight)
        weights[self.n_nodes] = weight
        self.n_nodes += 1
        self.size = t + 1

    def sample(self, k: int, rng: np.random.Generator) -> list:
        """Select k distinct nodes with probability proportional to weight,
        under the sequential law of `sample_without_replacement`.

        Returns a sorted list of node ids. When fewer than k nodes have
        positive weight, all of them are returned and the caller fills the
        gap.
        """
        owner, cum, weights = self._owner, self._cum, self._weights
        size = self.size
        total = cum[size - 1]
        chosen: set[int] = set()
        chosen_w = 0.0
        rejects = 0
        need = k
        while need:
            if chosen_w >= DENSE_SHARE * total:
                w = self.weights[:self.n_nodes].copy()
                w[list(chosen)] = 0.0
                chosen.update(_race_positive(w, need, rng).tolist())
                self.counts["dense_handoffs"] += 1
                break
            # expected draws for `need` acceptances at the current rejection rate
            batch = min(int(need * total / (total - chosen_w)) + 2, self.n_nodes)
            # u < 1 makes u * total < total, so the search stays inside the log
            for u in rng.random(batch).tolist():
                node = owner[bisect_right(cum, u * total, 0, size)]
                if node in chosen:
                    rejects += 1
                else:
                    chosen.add(node)
                    chosen_w += weights[node]
                    need -= 1
                    if not need:
                        break
        self.counts["log_draws"] += len(chosen)
        self.counts["log_rejects"] += rejects
        return sorted(chosen)

    def sample_near(self, k: int, rng: np.random.Generator, ball) -> np.ndarray:
        """Select k distinct nodes with probability proportional to weight
        times a distance factor, under the sequential law.

        `ball` (a `spatial.Ball`) gives the factor: `ball.decay` for the
        nodes `ball.nodes`, and for every other node at most
        `ball.envelope`, reached as `ball.envelope *
        ball.tail_acceptance(node)`. The ball's nodes race with their
        exact weights; the rest are the first accepted arrivals of a
        Poisson process of rate `envelope * total` whose arrivals are drawn
        from the log and thinned by `tail_acceptance`. The k smallest keys
        of both win. When the ball holds fewer than k positive weights, or
        the expected number of arrivals, bounded with the ball's weight
        alone, exceeds `HANDOFF` times the node count, the insertion runs
        the exponential race over all nodes instead.

        Returns a sorted int64 array; fewer than k nodes when fewer have
        positive weight, as `sample` does.
        """
        n = self.n_nodes
        counts = self.counts
        nodes = ball.nodes
        w = self.weights.take(nodes) * ball.decay
        rate = ball.envelope * float(self.cum[self.size - 1])
        if np.count_nonzero(w) < k or (rate and rate * k > HANDOFF * n * float(w.sum())):
            chosen = _race_positive(self.weights[:n] * ball.decay_everywhere(), k, rng)
            counts["race_handoffs"] += 1
            counts["race_draws"] += len(chosen)
            return chosen
        with np.errstate(divide="ignore", over="ignore"):
            keys = rng.exponential(size=w.size) / w
        if k < w.size:
            top = np.argpartition(keys, k - 1)[:k]
            keys, nodes = keys[top], nodes[top]
        tail = self._tail(keys, k, rng, ball, rate) if rate else None
        from_tail = 0
        if tail:
            keys = np.concatenate([keys, list(tail.values())])
            won = np.argpartition(keys, k - 1)[:k]
            nodes = np.concatenate([nodes, list(tail)])[won]
            from_tail = int(np.count_nonzero(won >= k))
        counts["ball_draws"] += k - from_tail
        counts["tail_draws"] += from_tail
        return np.sort(nodes)

    def _tail(self, keys, k, rng, ball, rate) -> dict:
        """The first accepted arrival (as node: key) of each tail node that
        arrives before the k-th best key.

        The arrivals in a time segment are Poisson in number and uniform
        in time, so the process is drawn one segment at a time, each
        expected to hold `SEGMENT` arrivals. The k-th best key only falls
        as arrivals are accepted, and the process stops once it passes
        that key, so no arrival that could win is left out."""
        cum = self.cum[:self.size]
        total = float(cum[-1])
        bound = float(keys.max())
        best = None
        first: dict[int, float] = {}
        start = 0.0
        while start < bound:
            stop = min(bound, start + SEGMENT / rate)
            count = int(rng.poisson(rate * (stop - start)))
            if count:
                u = rng.random(3 * count)
                hits = self.owner[cum.searchsorted(u[count:2 * count] * total, side="right")]
                took = np.flatnonzero(u[2 * count:] < ball.tail_acceptance(hits))
                self.counts["tail_proposed"] += count
                # accepted arrivals in time order; a node's key is its first
                for time, node in sorted(zip((start + u[took] * (stop - start)).tolist(),
                                             hits[took].tolist())):
                    if time >= bound:
                        break
                    if node not in first:
                        first[node] = time
                        if best is None:
                            best = sorted(keys.tolist())
                        insort(best, time)
                        best.pop()
                        bound = best[-1]
            start = stop
        self.counts["tail_accepted"] += len(first)
        return first


def _race_positive(w: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The exponential race for k nodes, or for all positive-weight nodes
    when fewer than k have weight; consumes no random numbers when none do."""
    k = min(k, int(np.count_nonzero(w)))
    return sample_without_replacement(w, k, rng) if k else _EMPTY
