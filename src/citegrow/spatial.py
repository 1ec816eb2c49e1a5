"""Balls of near earlier nodes: the spatial half of the lbm and lbm-g draw.

An lbm or lbm-g insertion at location x draws k earlier nodes with
probability proportional to `a_i * exp(-gamma * d_i)`, where a_i is the
node's degree/fitness weight and d_i its distance to x. The draw
(`IncrementLog.sample_near`) splits the earlier nodes into a ball
B = {i : d_i < R}, whose exact weights race, and a tail, which it proposes
from the increment log and thins by distance. This module supplies each
insertion's ball and radius R.

The locations of a whole run are drawn before its first insertion, so
the balls are found on grids over the final locations, for a window of
up to `MAX_QUERIES` insertions at a time:

- Levels. Level l cuts the bounding cube of all locations into cells of
  side h = span / 2^l. A level's node ids are sorted by (cell, id), so the
  nodes of a cell inserted before node n are one contiguous run, found by
  binary search. A level is built when a window first needs it and
  dropped when a window no longer does.
- Radius. R trades ball size against tail proposals. A fine level at
  which the 2^dim cells nearest x still hold `MIN_BLOCK * (k + 1) / 2`
  earlier nodes (walked to from the last window's level) gives the local
  density and the smallest R, that level's cell side. Above it, R minimizes the expected ball size plus `ARRIVAL_COST`
  times the expected proposals, `k * exp(-gamma * R) * A / W`, with the
  ratio of total weight to decayed weight A / W estimated as if the local
  density held everywhere.
- Ball. B is gathered from the cells that meet the cube of half-width R
  around x, at the finest level where at most `GATHER_WIDTH` cells a side
  do (3 above two dimensions); every earlier node outside those cells is
  at least R from x.
- Small runs and many dimensions. An insertion with no more earlier nodes
  than the cells should hold gets an empty ball and no tail, so the draw
  races all earlier nodes; so does every insertion with more than
  `GRID_DIMS` dimensions.

None of this looks at the weights or at the draw, so none of it can bias
the draw. A window's balls are gathered in pieces of at most
`MAX_ENTRIES` nodes, so memory stays bounded whatever the run's length.
Ball, tail and race take every squared distance from
`_squared_distances`, so they agree to the bit on which nodes lie inside.
Ball factors are relative to the nearest ball node,
`exp(-gamma * (d_i - d_min))`, which keeps that node's factor at 1 where
`exp(-gamma * d_i)` would underflow.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator

import numpy as np

__all__ = ["Ball", "balls"]

# gathered nodes held at once
MAX_ENTRIES = 1 << 14
# insertions whose radii and cells are chosen together
MAX_QUERIES = 256
# the cells that set the smallest radius hold MIN_BLOCK * (k + 1) / 2
# earlier nodes
MIN_BLOCK = 16
# cells a side a ball is gathered from, in one and two dimensions (3 above)
GATHER_WIDTH = 5
# most dimensions with a grid: beyond, the 3^dim cells around a node cost
# more than the race over all earlier nodes that every insertion gets
GRID_DIMS = 3
# a tail proposal costs about this many ball nodes
ARRIVAL_COST = 8.0
# finest level; 2^30 cells a side is far below float resolution anyway
MAX_LEVEL = 30
# shaves R so that rounding in a cell index never puts an ungathered node
# closer than R
_SHAVE = 1.0 - 1e-9


class Ball:
    """The ball of insertion `node`: the earlier nodes closer than `radius`
    to `center`, their distance factors relative to the nearest of them,
    and `envelope`, a bound on the factor of every earlier node outside
    (0 for no tail)."""

    __slots__ = ("node", "nodes", "decay", "envelope", "center", "gamma", "radius",
                 "_axes")

    def __init__(self, node, nodes, decay, envelope, center, gamma, radius, axes):
        self.node = node
        self.nodes = nodes
        self.decay = decay
        self.envelope = envelope
        self.center = center
        self.gamma = gamma
        self.radius = radius
        self._axes = axes

    def tail_acceptance(self, nodes: np.ndarray) -> np.ndarray:
        """Per node outside the ball: exp(-gamma * (d - radius)), its factor
        as a share of the envelope; 0 for a node inside the ball."""
        d2 = _squared_distances(self._axes, nodes, self.center)
        # d >= radius outside the ball, so the clamp changes no value there
        return (np.exp(np.minimum(self.gamma * (self.radius - np.sqrt(d2)), 0.0))
                * (d2 >= self.radius * self.radius))

    def decay_everywhere(self) -> np.ndarray:
        """The factor of every earlier node relative to the nearest one:
        the weights of a hand-off to the exponential race."""
        d = np.sqrt(_squared_distances(self._axes, np.arange(self.node), self.center))
        return np.exp(-self.gamma * (d - d.min()))


def balls(locations: np.ndarray, degrees: np.ndarray, gamma: Callable[[int], float],
          first: int) -> Iterator[Ball]:
    """The balls of insertions `first`, `first + 1`, ... in order, skipping
    those with out-degree 0.

    `locations` holds every node of the run, `degrees[j]` is the
    out-degree of node `first + j`, and `gamma(n)` is the decay strength
    when node n is inserted.
    """
    queries = first + np.flatnonzero(degrees)
    degrees = degrees[queries - first]
    needs = MIN_BLOCK * (1 + degrees) // 2
    gammas = np.array([gamma(n) for n in queries.tolist()])
    # one contiguous row per axis, for gathering coordinates by node
    axes = np.ascontiguousarray(locations.T)
    if locations.shape[1] > GRID_DIMS:
        for n, g in zip(queries.tolist(), gammas.tolist()):
            yield _all_earlier(axes, n, g)
        return
    levels = _Levels(locations, axes)
    start = 0
    while start < len(queries):
        if queries[start] <= needs[start]:
            # too few earlier nodes for a grid to choose from: all of them
            yield _all_earlier(axes, int(queries[start]), float(gammas[start]))
            start += 1
            continue
        part = slice(start, start + MAX_QUERIES)
        q, g = queries[part], gammas[part]
        radius = levels.radius(q, g, degrees[part], needs[part])
        box = levels.box(q, radius)
        # gather in pieces of at most MAX_ENTRIES entries (or one query)
        ends = np.cumsum((box[2] - box[1]).sum(axis=1))
        a = 0
        while a < len(q):
            done = int(ends[a - 1]) if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + MAX_ENTRIES, side="right")))
            yield from levels.gather(q[a:b], g[a:b], radius[a:b], [x[a:b] for x in box])
            a = b
        levels.keep_used()
        start += len(q)


def _all_earlier(axes: np.ndarray, node: int, gamma: float) -> Ball:
    """An empty ball with no tail: the draw races every earlier node."""
    return Ball(node, np.empty(0, dtype=np.int64), np.empty(0), 0.0, axes[:, node], gamma,
                0.0, axes)


def _squared_distances(axes: np.ndarray, nodes: np.ndarray, center) -> np.ndarray:
    """Squared distances of `nodes` to `center` (per axis, one coordinate
    or one per node), summed axis by axis."""
    d2 = np.zeros(len(nodes))
    for row, c in zip(axes, center):
        d2 += (row.take(nodes) - c) ** 2
    return d2


class _Grid:
    """One level: cubic cells of side `side`, node ids sorted by (cell, id)."""

    def __init__(self, cells: np.ndarray, side: float, radix: int):
        n, dim = cells.shape
        self.side = side
        self.n = n
        # looked-up cells run from -1 to 2^l + 1; +1 keeps their keys unique
        # (cells past the last one a query gathers may alias, and are masked)
        self.powers = radix ** np.arange(dim, dtype=np.int64)
        self.keys, rank, sizes = np.unique((cells + 1) @ self.powers,
                                           return_inverse=True, return_counts=True)
        # rank * n + id sorts by cell, then id, and id = entry % n
        self.order = np.sort(rank * n + np.arange(n))
        self.starts = np.cumsum(sizes) - sizes

    def ranges(self, cells: np.ndarray, bound: np.ndarray):
        """Where each cell's nodes with id < bound lie in `ids`: (lo, hi)
        arrays shaped like `cells` without its last axis. Cells that hold
        no node come out empty."""
        keys = (cells + 1) @ self.powers
        rank = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        lo = self.starts[rank]
        hi = np.searchsorted(self.order, rank * self.n + bound[:, None])
        return lo, np.where(self.keys[rank] == keys, hi, lo)


class _Levels:
    """The grid levels over a run's final locations, built on demand."""

    def __init__(self, locations: np.ndarray, axes: np.ndarray):
        self.locations = locations
        self.axes = axes
        self.dim = dim = locations.shape[1]
        self.origin = locations.min(axis=0)
        self.span = float((locations.max(axis=0) - self.origin).max()) or 1.0
        # (2^l + 3)^dim cell keys must fit in int64
        self.top = max(0, min(MAX_LEVEL, 62 // dim - 1))
        self.grids: dict[int, _Grid] = {}
        self.used: set[int] = set()
        self.guess: int | None = None
        self.pair = np.array(list(itertools.product((0, 1), repeat=dim)))
        # a ball is gathered from at most `width` cells a side
        self.width = GATHER_WIDTH if dim <= 2 else 3
        self.spread = np.array(list(itertools.product(range(self.width), repeat=dim)))

    def side(self, level):
        return self.span / 2.0 ** level

    def cells(self, level, points: np.ndarray) -> np.ndarray:
        side = self.side(np.asarray(level))[..., None]
        return np.floor((points - self.origin) / side).astype(np.int64)

    def grid(self, level: int) -> _Grid:
        self.used.add(level)
        if level not in self.grids:
            self.grids[level] = _Grid(self.cells(level, self.locations), self.side(level),
                                      2 ** level + 3)
        return self.grids[level]

    def keep_used(self) -> None:
        """Drop the levels the last window did not touch."""
        self.grids = {level: g for level, g in self.grids.items() if level in self.used}
        self.used = set()

    def ranges(self, levels: np.ndarray, queries: np.ndarray, corner: np.ndarray,
               offsets: np.ndarray):
        """(lo, hi) of each query's cells `corner + offsets` at its level."""
        lo = np.empty((len(queries), len(offsets)), dtype=np.int64)
        hi = np.empty_like(lo)
        for level in sorted(set(levels.tolist())):
            sel = levels == level
            cells = corner[sel][:, None, :] + offsets
            lo[sel], hi[sel] = self.grid(level).ranges(cells, queries[sel])
        return lo, hi

    def counts(self, levels: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Earlier nodes in the 2^dim cells nearest each query at its level,
        which cover the cube of half a cell side around it."""
        side = self.side(levels)[:, None]
        corner = self.cells(levels, self.locations[queries] - side / 2)
        lo, hi = self.ranges(levels, queries, corner, self.pair)
        return (hi - lo).sum(axis=1)

    def radius(self, queries, gammas, degrees, needs) -> np.ndarray:
        """Each query's ball radius R (see the module docstring)."""
        dim, top = self.dim, self.top
        # the finest level whose 2^dim cells hold `needs`, walked from the
        # last window's typical level (at first, the level that would hold
        # them at even density); a level holding 2^dim times `needs` is
        # worth trying one finer
        if self.guess is None:
            guess = np.floor(np.log2(2.0 ** dim * queries / needs) / dim)
        else:
            guess = np.full(len(queries), self.guess)
        levels = np.clip(guess, 0, top).astype(np.int64)
        counts = self.counts(levels, queries)
        short = (counts < needs) & (levels > 0)
        while short.any():
            levels[short] -= 1
            counts[short] = self.counts(levels[short], queries[short])
            short &= (counts < needs) & (levels > 0)
        finer = (counts >= 2 ** dim * needs) & (levels < top)
        while finer.any():
            idx = np.flatnonzero(finer)
            more = self.counts(levels[idx] + 1, queries[idx])
            ok = more >= needs[idx]
            levels[idx[ok]] += 1
            counts[idx[ok]] = more[ok]
            finer[idx] = ok & (more >= 2 ** dim * needs[idx])
            finer &= levels < top
        self.guess = int(np.sort(levels)[len(levels) // 2])
        side = self.side(levels)
        density = counts / (2.0 * side) ** dim
        # x = gamma * R solves x + (dim - 1) ln x = target, where the
        # derivative of the expected ball size matches that of
        # ARRIVAL_COST * k * (A / W) * exp(-x)
        unit = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)  # unit-ball volume
        with np.errstate(divide="ignore"):
            target = np.log(ARRIVAL_COST * degrees * queries * gammas ** (2 * dim)
                            / (density ** 2 * unit ** 2 * dim * math.factorial(dim)))
        x = target
        for _ in range(4):
            x = target - (dim - 1) * np.log(np.maximum(x, 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(x > 0, x / gammas, 0.0)
        # beyond 2 * span * sqrt(dim) every node is inside anyway
        return np.clip(np.nan_to_num(want), side, 2.0 * self.span * math.sqrt(dim))

    def box(self, queries: np.ndarray, radius: np.ndarray):
        """Each query's gathering level and the (lo, hi) of the cells that
        meet the cube of half-width `radius` around it, at the finest level
        whose cells are wide enough that at most `width` a side do."""
        with np.errstate(divide="ignore"):
            # the margin keeps 2 * radius / side below width - 1 despite rounding
            levels = np.floor(np.log2(self.span * (self.width - 1)
                                      / (2.000001 * radius)))
        levels = np.clip(levels, 0, self.top).astype(np.int64)
        points = self.locations[queries]
        ends = 2 ** levels[:, None]
        low = np.maximum(self.cells(levels, points - radius[:, None]), 0)
        high = np.minimum(self.cells(levels, points + radius[:, None]), ends)
        lo, hi = self.ranges(levels, queries, low, self.spread)
        beyond = (low[:, None, :] + self.spread > high[:, None, :]).any(axis=-1)
        return levels, lo, np.where(beyond, lo, hi)

    def gather(self, queries, gammas, radius, box) -> list[Ball]:
        """The balls of `queries`, in order, from their boxes."""
        levels, lo, hi = box
        balls: list = [None] * len(queries)
        for level in sorted(set(levels.tolist())):
            pos = np.flatnonzero(levels == level)
            for j, ball in zip(pos.tolist(), self._gather(
                    self.grid(level), queries[pos], gammas[pos], radius[pos] * _SHAVE,
                    lo[pos], hi[pos])):
                balls[j] = ball
        return balls

    def _gather(self, grid: _Grid, queries, gammas, radius, lo, hi) -> list[Ball]:
        sizes = (hi - lo).ravel()
        entries = np.repeat(lo.ravel() - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        owner = np.repeat(np.arange(len(queries)), (hi - lo).sum(axis=1))
        loc = self.locations
        nodes = grid.order.take(entries) % grid.n
        d2 = _squared_distances(self.axes, nodes, (c.take(owner) for c in loc[queries].T))
        inside = d2 < (radius * radius).take(owner)
        nodes = nodes[inside]
        owner, d = owner[inside], np.sqrt(d2[inside])
        bounds = np.searchsorted(owner, np.arange(len(queries) + 1))
        nearest = np.full(len(queries), np.inf)
        full = bounds[:-1] < bounds[1:]
        nearest[full] = np.minimum.reduceat(d, bounds[:-1][full])
        decay = np.exp(-gammas.take(owner) * (d - nearest.take(owner)))
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.where(np.diff(bounds) == queries, 0.0,
                                np.exp(-gammas * (radius - nearest)))
        return [Ball(n, nodes[a:b], decay[a:b], e, loc[n], g, r, self.axes)
                for n, a, b, e, g, r in zip(queries.tolist(), bounds[:-1].tolist(),
                                            bounds[1:].tolist(), envelope.tolist(),
                                            gammas.tolist(), radius.tolist())]
