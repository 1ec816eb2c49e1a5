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
replacement is rejection of repeats: a draw whose node is already chosen
is discarded. The first draw not yet chosen is proportional to weight
among the unchosen nodes, so the accepted draws follow the sequential law
exactly. Once the chosen nodes hold at least `DENSE_SHARE` of the weight
drawn from, rejections would dominate, and the insertion is finished with
the exponential race over the unchosen nodes. That switch depends only on
the chosen set, and both ways draw the rest from the same conditional
law, so the mix of the two stays exact.

A whole run's insertions happen in one pass, `IncrementLog.grow`: the
draw, the uniform fill of a short draw, the edge writes and the log
append, with the log's arrays bound to locals. Under every model, an
insertion that needs more targets than there are nodes of weight gets
all of them, as the sequential law gives it, and reads no random
number: the pass counts the nodes of weight and takes them before any
draw. Two things keep the ba, af and mf draw off the repeats and the
searches that condensation would otherwise cost:
- Heavy nodes. A node whose gain per citation is more than `HEAVY` times
  the mean gain (at most `HEAVY_MAX` of them; none when the gains are
  equal, as under ba and af) keeps its weight in a short list beside the
  log for the pass, its log entries at width 0. A draw is a uniform point
  in the unchosen heavy weight plus the log total: below the first it is
  the heavy node it lands on by a scan of the list, above it a point of
  the log. A chosen heavy node leaves the weight drawn from, so it is
  never drawn again; a node of the log still is, and is rejected. A heavy
  draw lowers the unchosen heavy weight by one subtraction, and sets it
  to exactly 0 once the insertion has chosen every heavy node of weight,
  which the pass counts: otherwise the rounding of the subtractions could
  leave a point below it with no unchosen heavy node to land on. The
  count depends only on the chosen set and reads no random number, so
  each draw stays proportional to weight.
- A frozen prefix. With every block of `BLOCK` uniforms the log is frozen
  as it stands, and one search finds the nodes of `BLOCK` further
  uniform points below its total. The log only grows at its end, so a
  point of the log that falls below the frozen total is uniform on it,
  and its node is distributed as the node of an independent point there:
  the draw takes the next of the nodes found. A point above the frozen
  total is searched for among the entries appended since. Both ways keep
  the sequential law exactly.

lbm and lbm-g scale the log's weights by a distance factor g_i <= 1 and
draw one of two ways, chosen per run before its first draw from its
locations, out-degrees and decay alone (`spatial.choose_draw`), so the
choice cannot bias the draw.

By cells, when the factor varies by at most a factor e along the side of
a fixed grid of about 256 cells (`spatial.Cells`). Each cell keeps an
append-only increment log of its own nodes, appended in the same pass as
the run's log. A try draws a cell c in proportion to its weight total
A_c times e_c = exp(-gamma * dist(x, c)), an envelope of every factor in
the cell, then a node j of c in proportion to a_j from c's log, and keeps
j with probability g_j / e_c. A try therefore keeps node j with
probability a_j * g_j / sum_c(A_c * e_c), and rejecting repeats of chosen
nodes, as the log draw does, gives the sequential law exactly. A failed
try, an envelope miss or a repeat, says nothing of which node the next
kept try brings, so after `CELL_TRIES` failed tries per target the
insertion is finished by the exponential race over the unchosen nodes,
from the same conditional law.

By ball and tail (`IncrementLog.sample_near`), otherwise. The nodes of a
ball around the new node race with their exact weights w_i = a_i * g_i.
Every other node has g_j <= c, a bound the ball supplies, so its race
key E_j / w_j is the first arrival of a Poisson process of rate w_j.
Those processes are one thinned process (Lewis & Shedler, "Simulation
of nonhomogeneous Poisson processes by thinning", 1979): arrivals at
rate c * A (A the log total) propose node j with probability a_j / A, a
proposal inside the ball is dropped, and one outside is kept with
probability g_j / c.
Superposition and thinning give each tail node a Poisson process of rate
a_j * g_j, independent of the others and of the ball's keys, so the
first kept arrival of each tail node is distributed as its race key, and
the k smallest keys of ball and tail are the race's winners: the
sequential law, exactly. Only arrivals before the k-th smallest key
found so far can win, so the process stops there. A segment's count is
numpy's Poisson draw, except that a mean whose exp(-mean) rounds to 1
(below about 1.1e-16) gives 0 without reading the generator: numpy's
inversion would return 0 for every uniform there, so only the random
numbers consumed change. The ball, c and the choice to hand an
insertion to the full race (when the ball holds fewer than k weights
above `_TINY`, or the tail would need too many proposals) are fixed
before the first draw, so they cannot bias it. A weight at
most `_TINY`, 0 included, can overflow its key E / w to inf, and inf
keys would tie; the race ranks by log E - log w when fewer than k of its
keys are finite. The race that takes a handed-off insertion or finishes
a cell draw (`_race_decayed`) ranks by log E - log a - log g, log g =
-gamma * (d - d_min) from `spatial.earlier_decay`, finite for every node
of weight however far, where g itself may underflow to 0."""

from __future__ import annotations

from bisect import bisect_right, insort
from math import dist, exp, inf
from time import perf_counter

import numpy as np

from .errors import ValidationError
from .spatial import Cells, earlier_decay

__all__ = ["IncrementLog", "sample_without_replacement"]

# chosen share of the weight drawn from at which a ba/af/mf insertion
# finishes with the exponential race instead of rejecting repeats
DENSE_SHARE = 0.999
# bound on the expected tail arrivals, per node, from which an lbm/lbm-g
# insertion runs the exponential race over all nodes instead
HANDOFF = 16.0
# expected tail arrivals per time segment
SEGMENT = 64.0
# uniforms the ba/af/mf draw takes from the generator per call, and nodes
# found for as many points by one search of the frozen log prefix
BLOCK = 256
# a node whose gain is more than HEAVY times the mean gain keeps its weight
# beside the log during a ba/af/mf pass, up to HEAVY_MAX such nodes
HEAVY = 16.0
HEAVY_MAX = 32
# failed tries per target after which a cell draw finishes its insertion
# with the exponential race over the unchosen nodes
CELL_TRIES = 64

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_VIEW = memoryview(np.empty(0))
# numpy's ufunc reductions, without the Python wrappers of ndarray.min/max/sum
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce
_mul, _accumulate = np.multiply, np.add.accumulate
# a weight w above this gives a finite key E / w for every E numpy's
# exponential returns, the largest being 7.7 - log(2^-53) < 45
_TINY = 45.0 / np.finfo(np.float64).max

# what `IncrementLog.counts` tallies: targets by the way they were drawn
# (the log, its heavy list, the ball, the tail, the cells, the race), log
# draws rejected as repeats, failed cell tries (envelope misses and
# repeats), tail arrivals proposed and accepted, and insertions handed to
# or finished by the race (lbm/lbm-g) or finished by it (ba/af/mf)
COUNTERS = ("log_draws", "heavy_draws", "ball_draws", "tail_draws", "cell_draws",
            "race_draws", "log_rejects", "cell_rejects", "tail_proposed", "tail_accepted",
            "race_handoffs", "dense_handoffs")


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
    with np.errstate(over="ignore"):
        keys = np.divide(e, w, out=np.full(w.size, np.inf), where=positive)
    if k == w.size:
        return np.arange(w.size, dtype=np.int64)
    chosen = np.argpartition(keys, k - 1)[:k]
    if keys[chosen[k - 1]] == np.inf:
        # e / w overflowed for weights near the float minimum, and inf keys
        # would tie, broken by position: rank them by log e - log w instead,
        # the same order, finite for every positive weight
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = np.where(positive, np.log(e) - np.log(w), np.inf)
        chosen = np.argpartition(keys, k - 1)[:k]
    chosen.sort()
    return chosen.astype(np.int64)


class IncrementLog:
    """Node weights that only grow, held as an append-only increment log.

    Entry t of the log credits `owner[t]` with a weight increment; `cum`
    holds the running total after each entry. A node's weight is the sum
    of its entries, so a uniform point in [0, total) lands in a node's
    entries with probability weight / total. A zero increment has zero
    width and is never hit.

    The arrays are allocated once at capacity and never resized. The
    insertion pass (`grow`) holds the ba, af and mf draw, the lbm and
    lbm-g cell draw and the append of every model. They touch a handful
    of entries per insertion, so they read and write them one at a time
    through memoryviews of the same arrays, as Python floats and ints; the
    lbm and lbm-g ball draw (`sample_near`) reads the arrays whole, with
    numpy. While a ba, af or
    mf pass runs, the entries of its heavy nodes have width 0 and their
    weight is held beside the log; at its end each heavy node's weight is
    put back, on its first entry.

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
        # seconds spent finding lbm/lbm-g balls, and proposing and thinning
        # their tail arrivals
        self.ball_seconds = 0.0
        self.tail_seconds = 0.0

    def grow(self, degrees, entry, gains, cited, rng: np.random.Generator,
             near=None) -> int:
        """Insert one node per entry of `degrees`, in order; return the
        number of targets filled uniformly.

        The j-th new node (id `n_nodes` at its insertion) draws
        `degrees[j]` distinct earlier nodes, writes them in ascending
        order to the next places of `cited`, credits each target i with
        `gains[i]`, and enters with weight `entry[j]`. Without `near` (ba,
        af, mf) it draws under the sequential law of
        `sample_without_replacement`, one target at a time: a uniform point
        in the unchosen mass of the heavy nodes (`_set_aside`), kept beside
        the log for the pass, plus the log's total; in the log, the node
        found for the next point of the frozen prefix or a binary search
        of the entries appended since, a repeat rejected; and the race
        over the unchosen nodes once the chosen ones hold `DENSE_SHARE`
        of the mass. With `near`, the draw `spatial.choose_draw` picked
        for an lbm or lbm-g run, it draws by cells from per-cell logs
        appended in this pass (`_CellLogs.draw`), or, given an iterator of
        the balls of the insertions with targets, with `sample_near`. Every
        insertion with targets takes the next query of either draw. An
        insertion that needs more targets than there are nodes of weight
        takes them all without a draw, whichever the draw. A draw that
        finds fewer than k nodes of positive weight is completed by a
        uniform choice among the other earlier nodes.
        """
        owner, cum, weights = self._owner, self._cum, self._weights
        search, dense, block = bisect_right, DENSE_SHARE, BLOCK
        n, t = self.n_nodes, self.size
        cut, heavy = (inf, []) if near is not None else self._set_aside(gains)
        cell_logs = _CellLogs(self, near) if isinstance(near, Cells) else None
        append = cell_logs.append if cell_logs is not None else None
        balls = near is not None and cell_logs is None
        # the counter of the targets an insertion takes when it needs more
        # than there are nodes of weight
        way = "log_draws" if near is None else "ball_draws" if balls else "cell_draws"
        heavy_w = sum(self.weights.take(heavy).tolist())
        # the heavy nodes of weight, which a heavy draw can choose
        heavy_positive = int(np.count_nonzero(self.weights.take(heavy)))
        positive = int(np.count_nonzero(self.weights[:n]))
        total = cum[t - 1] if t else 0.0
        # uniforms for the draws, and the nodes found for `block` uniform
        # points below the log total `frozen` of the first `t_frozen` entries
        points = iter(())
        found: list = []
        f, t_frozen, frozen = 0, 0, 0.0
        e = fills = draws = rejects = handoffs = heavy_draws = taken = 0
        ball_s = 0.0
        # the query of the cell or ball draw: the place of the insertion
        # among those with targets
        q = -1
        for k, weight in zip(degrees, entry):
            if k and near is not None:
                q += 1
                if balls:
                    t0 = perf_counter()
                    ball = next(near)
                    ball_s += perf_counter() - t0
            if not k:
                targets = ()
            elif k > positive:
                # fewer nodes have weight than the insertion needs: the
                # sequential law takes them all, a uniform fill the rest
                targets = np.flatnonzero(self.weights[:n]).tolist()
                taken += len(targets)
            elif near is None:
                chosen: set[int] = set()
                chosen_w = 0.0
                left = heavy_w
                heavy_left = heavy_positive
                mass = left + total
                limit = dense * mass
                need = k
                while need:
                    if chosen_w >= limit:
                        w = self.weights[:n].copy()
                        w[list(chosen)] = 0.0
                        chosen.update(_race_positive(w, need, rng).tolist())
                        handoffs += 1
                        break
                    for u in points:
                        # u < 1 makes u * mass < mass
                        x = u * mass
                        if x < left:
                            # rounding that carries the scan past its end
                            # leaves the last unchosen heavy node of weight
                            for h in heavy:
                                if weights[h] and h not in chosen:
                                    node = h
                                    x -= weights[h]
                                    if x < 0.0:
                                        break
                            heavy_draws += 1
                            chosen.add(node)
                            # exactly 0 once every heavy node of weight is
                            # chosen, whatever rounding the subtractions left
                            heavy_left -= 1
                            left = left - weights[node] if heavy_left else 0.0
                            mass = left + total
                            limit = dense * mass
                            break
                        x -= left
                        if x < frozen:
                            node = found[f]
                            f += 1
                        elif x < total:
                            node = owner[search(cum, x, t_frozen, t)]
                        else:
                            # rounding in mass - left put the point past the log
                            continue
                        if node in chosen:
                            rejects += 1
                        else:
                            chosen_w += weights[node]
                            break
                    else:
                        # a new block of uniforms, and the log frozen as
                        # it stands, with a node found for each uniform
                        points = iter(rng.random(block).tolist())
                        if total:
                            found, frozen, t_frozen, f = self._freeze(rng, block, t), total, t, 0
                        continue
                    chosen.add(node)
                    need -= 1
                draws += len(chosen)
                targets = sorted(chosen)
            elif cell_logs is not None:
                targets = cell_logs.draw(k, q, n, rng)
            else:
                targets = self.sample_near(k, n, t, rng, ball)
            if len(targets) < k:
                pool = np.setdiff1d(np.arange(n, dtype=np.int64),
                                    np.array(targets, dtype=np.int64), assume_unique=True)
                extra = rng.choice(pool, size=k - len(targets), replace=False).tolist()
                fills += k - len(targets)
                # a drawn node already has weight; a filled one may gain it
                positive += sum(1 for node in extra if not weights[node] and gains[node])
                targets = sorted([*targets, *extra])
            # running sums of the new entries, each then added to the total:
            # the additions, in order, of a cumsum over the entries plus
            # total; a heavy node's entries have width 0
            running = 0.0
            for node in targets:
                cited[e] = node
                e += 1
                gain = gains[node]
                if gain > cut:
                    if not weights[node]:
                        heavy_positive += 1
                    heavy_w += gain
                else:
                    running += gain
                owner[t] = node
                cum[t] = total + running
                weights[node] += gain
                if append is not None:
                    append(node, gain)
                t += 1
            owner[t] = n
            weights[n] = weight
            if append is not None:
                append(n, weight)
            if weight:
                positive += 1
            if gains[n] > cut:
                heavy.append(n)
                heavy_w += weight
                if weight:
                    heavy_positive += 1
                weight = 0.0
            total = cum[t] = total + (running + weight)
            n += 1
            t += 1
        self.n_nodes, self.size = n, t
        if heavy:
            self._reweigh(heavy, whole=True)
        counts = self.counts
        counts["log_draws"] += draws - heavy_draws
        counts[way] += taken
        counts["heavy_draws"] += heavy_draws
        counts["log_rejects"] += rejects
        counts["dense_handoffs"] += handoffs
        if cell_logs is not None:
            for name, value in cell_logs.counts.items():
                counts[name] += value
        self.ball_seconds += ball_s
        return fills

    def _set_aside(self, gains) -> tuple[float, list]:
        """The gain above which a node is heavy, more than `HEAVY` times
        the mean gain with at most `HEAVY_MAX` nodes above it, and the
        heavy nodes already in the log, whose entries it sets to width 0."""
        g = np.array(gains, dtype=np.float64)
        cut = HEAVY * _sum(g) / max(g.size, 1)
        if g.size > HEAVY_MAX:
            cut = max(cut, float(np.partition(g, -HEAVY_MAX - 1)[-HEAVY_MAX - 1]))
        heavy = np.flatnonzero(g[:self.n_nodes] > cut).tolist()
        if heavy:
            self._reweigh(heavy, whole=False)
        return cut, heavy

    def _freeze(self, rng: np.random.Generator, count: int, size: int) -> list:
        """The nodes of `count` uniform points below the total of the
        first `size` entries, found in one search."""
        points = rng.random(count)
        points *= self._cum[size - 1]
        return self.owner.take(self.cum[:size].searchsorted(points, side="right")).tolist()

    def _reweigh(self, nodes, whole: bool) -> None:
        """Rebuild the running totals with the entries of `nodes` at width
        0, or, `whole`, with each one's weight on its first entry."""
        size = self.size
        widths = np.diff(self.cum[:size], prepend=0.0)
        hit = np.flatnonzero(np.isin(self.owner[:size], nodes))
        widths[hit] = 0.0
        if whole:
            ids, first = np.unique(self.owner[hit], return_index=True)
            widths[hit[first]] = self.weights[ids]
        np.cumsum(widths, out=self.cum[:size])

    def sample_near(self, k: int, n: int, t: int, rng: np.random.Generator, ball) -> list:
        """Select k distinct nodes of the first n, whose weights the first t
        entries of the log hold, with probability proportional to weight
        times a distance factor, under the sequential law.

        `ball` (a `spatial.Ball`) gives the factor: `ball.decay` for the
        nodes `ball.nodes`, and for every other node at most
        `ball.envelope`, reached as `ball.envelope *
        ball.tail_acceptance(node)`. The ball's nodes race with their
        exact weights; the rest are the first accepted arrivals of a
        Poisson process of rate `envelope * total` whose arrivals are drawn
        from the log and thinned by `tail_acceptance`. The k smallest keys
        of both win. When the ball holds fewer than k weights above
        `_TINY`, or the expected number of arrivals, bounded with the
        ball's weight alone, exceeds `HANDOFF` times the node count, the
        insertion runs the exponential race over all nodes instead.

        Returns a sorted list of node ids; fewer than k when fewer nodes
        have a factor times weight above 0.
        """
        counts = self.counts
        nodes = ball.nodes
        w = self.weights.take(nodes)
        w *= ball.decay
        rate = ball.envelope * self._cum[t - 1]
        size = w.size
        least = _min(w) if size >= k else 0.0
        tiny = least <= _TINY
        # the sum is at least the least weight, which often settles the bound
        if (size < k or tiny and np.count_nonzero(w > _TINY) < k
                or rate and rate * k > HANDOFF * n * least and rate * k > HANDOFF * n * _sum(w)):
            chosen = _race_decayed(self.weights[:n], earlier_decay(ball.axes, n, ball.gamma),
                                   k, rng).tolist()
            counts["race_handoffs"] += 1
            counts["race_draws"] += len(chosen)
            return chosen
        keys = rng.exponential(size=size)
        if tiny:
            # weights at most _TINY may give inf keys, which lose to the k finite ones
            with np.errstate(divide="ignore", over="ignore"):
                keys /= w
        else:
            keys /= w
        if k < size:
            top = keys.argpartition(k - 1)[:k]
            keys, nodes = keys.take(top), nodes.take(top)
        if rate:
            # the partition puts the k-th smallest key, the largest kept, last
            bound = keys[k - 1] if k < size else _max(keys)
            chosen, from_tail = self._tail(keys, nodes, t, rng, ball, rate, float(bound))
        else:
            chosen, from_tail = nodes.tolist(), 0
        counts["ball_draws"] += k - from_tail
        counts["tail_draws"] += from_tail
        chosen.sort()
        return chosen

    def _tail(self, keys, nodes, t, rng, ball, rate, bound) -> tuple[list, int]:
        """The k winners of the ball's best `keys` (of `nodes`), the largest
        of them `bound`, and the first accepted arrival of each tail node
        proposed from the first t entries of the log, and how many of the
        winners came from the tail.

        The arrivals in a time segment are Poisson in number and uniform
        in time, so the process is drawn one segment at a time, each
        expected to hold `SEGMENT` arrivals. The k-th best key only falls
        as arrivals are accepted, and the process stops once it passes
        that key, so no arrival that could win is left out."""
        t0 = perf_counter()
        step = SEGMENT / rate
        start = 0.0
        stop = min(bound, step)
        count = _poisson(rng, rate * stop)
        if not count and stop >= bound:
            # the usual end when the envelope is far below the ball's factors
            self.tail_seconds += perf_counter() - t0
            return nodes.tolist(), 0
        cum = self.cum[:t]
        owner = self.owner
        total = self._cum[t - 1]
        accept = ball.tail_acceptance
        best = None
        first: set[int] = set()
        proposed = 0
        while True:
            if count:
                proposed += count
                u = rng.random(3 * count)
                picks = u[count:2 * count]
                picks *= total
                hits = owner.take(cum.searchsorted(picks, side="right"))
                took = (u[2 * count:] < accept(hits)).nonzero()[0]
                if took.size:
                    width = stop - start
                    # accepted arrivals in time order; a node's key is its first
                    for time, node in sorted(zip([start + t * width for t in u.take(took).tolist()],
                                                 hits.take(took).tolist())):
                        if time >= bound:
                            break
                        if node not in first:
                            first.add(node)
                            if best is None:
                                best = sorted(zip(keys.tolist(), nodes.tolist()))
                            insort(best, (time, node))
                            best.pop()
                            bound = best[-1][0]
            start = stop
            if start >= bound:
                break
            stop = min(bound, start + step)
            count = _poisson(rng, rate * (stop - start))
        counts = self.counts
        counts["tail_proposed"] += proposed
        counts["tail_accepted"] += len(first)
        self.tail_seconds += perf_counter() - t0
        if best is None:
            return nodes.tolist(), 0
        return [node for _, node in best], sum(node in first for _, node in best)


class _CellLogs:
    """The cell draw of an lbm/lbm-g pass over `cells` (a `spatial.Cells`).

    Each cell keeps an append-only increment log of its nodes, like the
    run's, in numpy arrays read and written through memoryviews: entry t
    of cell c credits `owner[c][t]`, `cum[c][t]` is the running total and
    `totals[c]` the last one, so a uniform point below a cell's total
    finds one of its nodes in proportion to weight. A cell starts with one
    entry per node of weight, appended in node order; its arrays are made
    when it first needs them, with room for its share of the run's
    entries, and doubled when full. `counts` tallies the cell draw's
    counters for the pass."""

    def __init__(self, log: IncrementLog, cells: Cells):
        self.log = log
        self.cells = cells
        self.count = count = cells.count
        self.cell = cells.cell.tolist()
        self.points = cells.points
        self.gammas = cells.gammas.tolist()
        per_node = len(log.cum) / max(len(log.weights), 1)
        self.room = (np.bincount(cells.cell, minlength=count) * per_node + 16).astype(np.int64)
        self.size = [0] * count
        self.owner = [_EMPTY_VIEW] * count
        self.cum = [_EMPTY_VIEW] * count
        self.totals = np.zeros(count)
        self._totals = memoryview(self.totals)
        for node, weight in enumerate(log.weights[:log.n_nodes].tolist()):
            self.append(node, weight)
        self.env = np.empty(count)
        self.cenv = np.empty(count)
        self._cenv = memoryview(self.cenv)
        self.tries = iter(())
        self.counts = {"cell_draws": 0, "cell_rejects": 0, "race_draws": 0,
                       "race_handoffs": 0}

    def append(self, node: int, gain: float) -> None:
        """Credit `node` with `gain` in its cell's log."""
        if not gain:
            return
        c = self.cell[node]
        t = self.size[c]
        if t == len(self.cum[c]):
            self._widen(c)
        total = self._totals[c] + gain
        self.owner[c][t] = node
        self.cum[c][t] = total
        self._totals[c] = total
        self.size[c] = t + 1

    def _widen(self, c: int) -> None:
        """Give cell c's log twice its room, or its share when it has none."""
        t = self.size[c]
        for views, dtype in ((self.owner, np.int64), (self.cum, np.float64)):
            wider = np.empty(max(2 * t, int(self.room[c])), dtype=dtype)
            wider[:t] = views[c][:t]
            views[c] = memoryview(wider)

    def draw(self, k: int, q: int, node: int, rng: np.random.Generator) -> list:
        """The k targets of insertion `node`, query q of `cells`, under the
        sequential law for weight times exp(-gamma * d), as a sorted list.

        A try draws a cell in proportion to its total times its factor
        exp(-gamma * dist(x, cell)), a node of the cell from its log, and
        keeps the node with probability exp(-gamma * (d - dist(x, cell)))
        unless it is already chosen. After `CELL_TRIES` failed tries per
        target, or when the envelope underflows to 0, the race over the
        unchosen nodes draws the rest: a try fails independently of which
        node the next kept try brings, so the switch cannot bias it."""
        counts = self.counts
        distances, base, factors = self.cells.row(q)
        count = self.count
        _mul(self.totals, factors, out=self.env)
        _accumulate(self.env, out=self.cenv)
        cenv, mass = self._cenv, self._cenv[count - 1]
        gamma = self.gammas[q]
        point = self.points[node]
        points, owners, cums, totals, sizes = (self.points, self.owner, self.cum,
                                              self._totals, self.size)
        search = bisect_right
        chosen: set[int] = set()
        need = k
        fails = 0
        limit = CELL_TRIES * k if mass > 0.0 else 0
        tries = self.tries
        while need and fails < limit:
            for u, v, w in tries:
                c = search(cenv, u * mass, 0, count)
                # rounding may put a point at the total it is a share of
                if c < count:
                    size = sizes[c]
                    t = search(cums[c], v * totals[c], 0, size)
                    if t < size:
                        i = owners[c][t]
                        if i not in chosen and w < exp(
                                gamma * (distances[base + c] - dist(points[i], point))):
                            chosen.add(i)
                            need -= 1
                            if not need:
                                break
                        else:
                            fails += 1
                            if fails == limit:
                                break
            else:
                # three uniforms a try, `BLOCK` tries at a time
                tries = zip(*[iter(rng.random(3 * BLOCK).tolist())] * 3)
        self.tries = tries
        counts["cell_draws"] += len(chosen)
        counts["cell_rejects"] += fails
        if len(chosen) < k:
            a = self.log.weights[:node].copy()
            a[list(chosen)] = 0.0
            more = _race_decayed(a, earlier_decay(self.cells.axes, node, gamma),
                                 k - len(chosen), rng).tolist()
            counts["race_handoffs"] += 1
            counts["race_draws"] += len(more)
            chosen.update(more)
        return sorted(chosen)


def _poisson(rng: np.random.Generator, mean: float) -> int:
    """A Poisson count of mean `mean`, as `rng.poisson` draws it. When
    exp(-mean) rounds to 1, numpy's inversion returns 0 for every uniform
    it could read (their running product stays below exp(-mean)), so the
    count is 0 and no random number is read."""
    return int(rng.poisson(mean)) if exp(-mean) != 1.0 else 0


def _race_positive(w: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The exponential race for k nodes, or for all positive-weight nodes
    when fewer than k have weight; consumes no random numbers when none do."""
    k = min(k, int(np.count_nonzero(w)))
    return sample_without_replacement(w, k, rng) if k else _EMPTY


def _race_decayed(a: np.ndarray, log_decay: np.ndarray, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The exponential race for k nodes of weight a * exp(log_decay), or
    for every node with a > 0 when fewer than k have it, as a sorted
    array; consumes no random numbers when none do. It draws one
    exponential E per node and ranks by log E - log a - log_decay, finite
    for every a > 0 however far exp(log_decay) would underflow."""
    positive = a > 0.0
    k = min(k, int(np.count_nonzero(positive)))
    if not k:
        return _EMPTY
    e = rng.exponential(size=a.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.where(positive, np.log(e) - np.log(a) - log_decay, inf)
    chosen = keys.argpartition(k - 1)[:k] if k < a.size else np.arange(a.size)
    chosen.sort()
    return chosen
