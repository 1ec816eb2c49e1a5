"""Cells and balls of near earlier nodes: the spatial half of the lbm and
lbm-g draw.

An lbm or lbm-g insertion at location x draws k earlier nodes with
probability proportional to `a_i * exp(-gamma * d_i)`, where a_i is the
node's degree/fitness weight and d_i its distance to x. The locations of
a whole run are drawn before its first insertion, so `choose_draw` picks
one of two draws for the run from its final locations, its out-degrees
and its decay alone, before the first draw:

- Cells, when every insertion's gamma times the side of a fixed grid of
  about `CELLS` cubic cells over the final locations is at most
  `CELL_DECAY`. The distance factor then varies by at most a factor
  e^CELL_DECAY along a cell side, and a flat envelope per cell is tight
  (after the cell samplers of Bringmann, Keusch & Lengler, "Sampling
  geometric inhomogeneous random graphs in linear time", ESA 2017): a
  target is a cell drawn in proportion to its weight total times
  exp(-gamma * dist(x, cell)), then a node of that cell drawn in
  proportion to its weight and kept with probability
  exp(-gamma * (d_i - dist(x, cell))) (`sampling._CellLogs.draw`).
  `Cells` supplies each node's cell and each insertion's distance to
  every cell, a window of `CELL_WINDOW` insertions at a time. A cell
  distance is shaved by a margin far above rounding, so no node of a
  cell is closer than it, and every acceptance is at most 1.
- Balls otherwise. The draw (`IncrementLog.sample_near`) splits
  the earlier nodes into a ball B = {i : d_i < R}, whose exact weights
  race, and a tail, which it proposes from the increment log and thins by
  distance. The rest of this docstring is about the balls and their
  radius R.

The balls are found on grids over the final locations, for a window of
up to `MAX_QUERIES` (1024) insertions at a time, whose radius walks, boxes
and grid levels are found together:

- Levels. Level l cuts the bounding cube of all locations into cells of
  side h = span / 2^l. A level's node ids are sorted by (cell, id), so the
  nodes of a cell inserted before node n are one contiguous run, found by
  binary search. A level is built when a window first needs it and
  dropped when a window no longer does.
- Radius. R trades ball size against tail proposals. A fine level at
  which the 2^dim cells nearest x still hold `MIN_BLOCK * (k + 1) / 2`
  earlier nodes (walked to from the last window's level) gives the local
  density and the smallest R, that level's cell side. Above it, R
  minimizes the expected ball size plus `ARRIVAL_COST` times the expected
  proposals, `k * exp(-gamma * R) * A / W`, with the ratio of total
  weight to decayed weight A / W estimated as if the local density held
  everywhere.
- Ball. B is gathered from the cells that meet the cube of half-width R
  around x, at the finest level where at most `GATHER_WIDTH` cells a side
  do (3 above two dimensions); every earlier node outside those cells is
  at least R from x.
- Small runs and many dimensions. An insertion with no more earlier nodes
  than the cells should hold gets an empty ball and no tail, so the draw
  races all earlier nodes; so does every insertion with more than
  `GRID_DIMS` dimensions.

None of this, and neither the choice between cells and balls, looks at
the weights or at the draw, so none of it can bias the draw. A window's
balls are gathered in pieces of at most `MAX_ENTRIES` nodes, so memory
stays bounded whatever the run's length.
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

__all__ = ["Ball"]

# cells of the cell draw's grid, about: CELLS ** (1 / dim) a side, rounded
CELLS = 256
# a run draws by cells when every insertion's gamma times the cell side is
# at most CELL_DECAY
CELL_DECAY = 1.0
# insertions whose distances to every cell are computed together
CELL_WINDOW = 256
# gathered nodes held at once
MAX_ENTRIES = 1 << 14
# insertions whose radii, boxes and balls are found together: each window
# pays one radius walk, one box lookup per level and the level builds
MAX_QUERIES = 1024
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
    to its location, their distance factors relative to the nearest of
    them, and `envelope`, a bound on the factor of every earlier node
    outside (0 for no tail)."""

    __slots__ = ("node", "nodes", "decay", "envelope", "gamma", "radius", "axes")

    def __init__(self, node, nodes, decay, envelope, gamma, radius, axes):
        self.node = node
        self.nodes = nodes
        self.decay = decay
        self.envelope = envelope
        self.gamma = gamma
        self.radius = radius
        self.axes = axes

    def tail_acceptance(self, nodes: np.ndarray) -> np.ndarray:
        """Per node outside the ball: exp(-gamma * (d - radius)), its factor
        as a share of the envelope; 0 for a node inside the ball."""
        radius = self.radius
        axes = self.axes
        x = _squared_distances(axes, nodes, axes[:, self.node, None])
        outside = x >= radius * radius
        np.sqrt(x, out=x)
        np.subtract(radius, x, out=x)
        x *= self.gamma
        # d >= radius outside the ball, so the clamp changes no value there
        np.minimum(x, 0.0, out=x)
        np.exp(x, out=x)
        x *= outside
        return x


class Cells:
    """The grid of the cell draw: `count` cells, `per_side` a side, over
    the cube of side `span` from `origin` that holds a run's final
    `locations`; `cell[i]` is the cell of node i and `points[i]` its
    location.

    `queries` are the insertions with targets, in order, and `gammas`
    their decay strengths. `row(q)` gives query q its distances to every
    cell, computed for a window of `CELL_WINDOW` queries at a time."""

    def __init__(self, locations: np.ndarray, queries: np.ndarray, gammas: np.ndarray,
                 origin: np.ndarray, span: float, per_side: int):
        dim = locations.shape[1]
        self.count = per_side ** dim
        # co-located nodes share one cell of any width
        width = (span or 1.0) / per_side
        coords = np.minimum(((locations - origin) / width).astype(np.int64), per_side - 1)
        self.cell = coords @ per_side ** np.arange(dim, dtype=np.int64)
        # each axis's cell edges, widened by a margin far above the rounding
        # of a cell index or a distance, so that no node of a cell is closer
        # to a query than the shaved cell distance
        margin = 1e-9 * (width + float(np.abs(origin).max()))
        edges = origin[:, None] + width * np.arange(per_side + 1)
        self.lo, self.hi = edges[:, :-1] - margin, edges[:, 1:] + margin
        self.queries = queries
        self.gammas = gammas
        self.axes = np.ascontiguousarray(locations.T)
        self.points = locations.tolist()
        self.start = self.end = 0

    def row(self, q: int):
        """Query q's shaved distances to every cell box, as a flat
        memoryview of its window and the offset of q's row there, and its
        factors exp(-gamma * distance)."""
        if not self.start <= q < self.end:
            self.start, self.end = q, min(q + CELL_WINDOW, len(self.queries))
            nodes = self.queries[self.start:self.end]
            d2 = np.zeros((len(nodes), 1))
            for lo, hi, axis in zip(self.lo, self.hi, self.axes):
                x = axis.take(nodes)[:, None]
                gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
                gap *= gap
                # cell c of the axes before this one and i on it is cell
                # c + i * per_side^axis
                d2 = (gap[:, :, None] + d2[:, None, :]).reshape(len(nodes), -1)
            distances = np.sqrt(d2)
            self.factors = np.exp(-self.gammas[self.start:self.end, None] * distances)
            self.distances = memoryview(distances.reshape(-1))
        r = q - self.start
        return self.distances, r * self.count, self.factors[r]


def choose_draw(locations: np.ndarray, degrees: np.ndarray, gamma: Callable, first: int):
    """The draw of a run whose insertions `first`, `first + 1`, ... have
    out-degrees `degrees`: its `Cells` when every insertion's gamma times
    their side is at most `CELL_DECAY`, else an iterator of the balls of
    its insertions with out-degree above 0, in order.

    `locations` holds every node of the run, and `gamma(nodes)` gives the
    decay strength when each node of the int array `nodes` is inserted:
    an array like `nodes`, or one float for all of them. Each insertion's
    gamma is computed here, once, and no random number is read."""
    queries = first + np.flatnonzero(degrees)
    gammas = np.full(queries.shape, gamma(queries), dtype=np.float64)
    per_side = max(1, round(CELLS ** (1 / locations.shape[1])))
    origin = locations.min(axis=0)
    span = float((locations.max(axis=0) - origin).max())
    if gammas.max(initial=0.0) * span / per_side <= CELL_DECAY:
        return Cells(locations, queries, gammas, origin, span, per_side)
    return _balls(locations, queries, degrees[queries - first], gammas)


def _balls(locations: np.ndarray, queries: np.ndarray, degrees: np.ndarray,
           gammas: np.ndarray) -> Iterator[Ball]:
    """The balls of `queries`, whose out-degrees are `degrees`."""
    needs = MIN_BLOCK * (1 + degrees) // 2
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
    return Ball(node, np.empty(0, dtype=np.int64), np.empty(0), 0.0, gamma, 0.0, axes)


def earlier_decay(axes: np.ndarray, node: int, gamma: float) -> np.ndarray:
    """-gamma * (d - d_min) for every node before `node`, d its distance
    from `node` by the columns of `axes`: the log distance factors of a
    finish with the exponential race, on the cell draw or the ball draw,
    finite however far a node is, where the factor itself may underflow."""
    d = np.sqrt(_squared_distances(axes, np.arange(node), axes[:, node, None]))
    return -gamma * (d - d.min())


def _squared_distances(axes: np.ndarray, nodes: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances of the columns `nodes` of `axes` (one row per
    axis) to `center`, one column or one per node, summed axis by axis."""
    d = axes.take(nodes, axis=1)
    d -= center
    d *= d
    return np.add.reduce(d)


class _Grid:
    """One level: cubic cells of side `side`, node ids sorted by (cell, id)."""

    def __init__(self, cells: np.ndarray, side: float, radix: int, shift: int):
        n, dim = cells.shape
        self.side = side
        self.shift = shift
        # looked-up cells run from -1 to 2^l + 1; +1 keeps their keys unique
        # (cells past the last one a query gathers may alias, and are masked)
        self.powers = radix ** np.arange(dim, dtype=np.int64)
        keys, rank, sizes = np.unique((cells + 1) @ self.powers, return_inverse=True,
                                      return_counts=True)
        # a last cell past every looked-up key, starting at n, so that every
        # key finds a cell
        self.keys = np.append(keys, np.iinfo(np.int64).max)
        self.starts = np.append(np.cumsum(sizes) - sizes, n)
        # (rank << shift) + id sorts by cell, then id, and id = entry & mask
        self.order = np.sort((rank << shift) + np.arange(n))

    def ranges(self, keys: np.ndarray, bound: np.ndarray):
        """Where the nodes with id < bound of each cell key lie in `order`:
        (lo, hi) arrays shaped like `keys`, one row per bound. Cells that
        hold no node come out empty."""
        rank = self.keys.searchsorted(keys)
        lo = self.starts.take(rank)
        hi = self.order.searchsorted((rank << self.shift) + bound[:, None])
        return lo, np.where(self.keys.take(rank) == keys, hi, lo)


def _runs(levels: np.ndarray):
    """The stable order that sorts `levels`, and the (level, start, stop)
    of each level's run in that order."""
    runs = []
    start = 0
    for level, size in enumerate(np.bincount(levels).tolist()):
        if size:
            runs.append((level, start, start + size))
            start += size
    return levels.argsort(kind="stable"), runs


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
        # node ids take the low `shift` bits of a grid entry
        self.shift = len(locations).bit_length()
        self.mask = (1 << self.shift) - 1
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
                                      2 ** level + 3, self.shift)
        return self.grids[level]

    def keep_used(self) -> None:
        """Drop the levels the last window did not touch."""
        self.grids = {level: g for level, g in self.grids.items() if level in self.used}
        self.used = set()

    def ranges(self, levels: np.ndarray, queries: np.ndarray, corner: np.ndarray,
               offsets: np.ndarray, skip: np.ndarray | None = None):
        """(lo, hi) of each query's cells `corner + offsets` at its level;
        the cells where `skip` holds come out empty."""
        perm, runs = _runs(levels)
        queries, corner = queries.take(perm), corner.take(perm, axis=0)
        if skip is not None:
            skip = skip.take(perm, axis=0)
        parts = []
        for level, a, b in runs:
            grid = self.grid(level)
            # the key of cell corner + offset is the corner's plus the offset's
            keys = ((corner[a:b] + 1) @ grid.powers)[:, None] + offsets @ grid.powers
            if skip is not None:
                # the last cell, past every key, holds no node
                keys[skip[a:b]] = grid.keys[-1]
            parts.append(grid.ranges(keys, queries[a:b]))
        lo = np.empty((len(queries), len(offsets)), dtype=np.int64)
        hi = np.empty_like(lo)
        lo[perm] = np.concatenate([part[0] for part in parts])
        hi[perm] = np.concatenate([part[1] for part in parts])
        return lo, hi

    def counts(self, levels: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Earlier nodes in the 2^dim cells nearest each query at its level,
        which cover the cube of half a cell side around it."""
        side = self.side(levels)[:, None]
        corner = self.cells(levels, self.locations[queries] - side / 2)
        lo, hi = self.ranges(levels, queries, corner, self.pair)
        return np.add.reduce(hi - lo, 1)

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
        beyond = (low[:, None, :] + self.spread > high[:, None, :]).any(axis=-1)
        lo, hi = self.ranges(levels, queries, low, self.spread, skip=beyond)
        return levels, lo, hi

    def gather(self, queries, gammas, radius, box) -> list[Ball]:
        """The balls of `queries`, in order, from their boxes."""
        levels, lo, hi = box
        # gathered one level after another: a level's candidates are a run
        perm, runs = _runs(levels)
        queries, gammas, radius = queries.take(perm), gammas.take(perm), radius.take(perm)
        lo, hi = lo.take(perm, axis=0), hi.take(perm, axis=0)
        radius = radius * _SHAVE
        sizes = hi - lo
        counts = np.add.reduce(sizes, 1)
        sizes = sizes.ravel()
        ends = counts.cumsum()
        # the candidates of each query, cell after cell, by their place in the grid
        entries = np.repeat(lo.ravel() - sizes.cumsum() + sizes, sizes) + np.arange(ends[-1])
        nodes = np.empty_like(entries)
        for level, a, b in runs:
            part = slice(ends[a - 1] if a else 0, ends[b - 1])
            self.grids[level].order.take(entries[part], out=nodes[part])
        nodes &= self.mask
        d2 = _squared_distances(self.axes, nodes,
                                np.repeat(self.axes.take(queries, axis=1), counts, axis=1))
        inside = (d2 < np.repeat(radius * radius, counts)).nonzero()[0]
        nodes = nodes.take(inside)
        d = np.sqrt(d2.take(inside))
        # query j's ball is nodes[bounds[j]:bounds[j + 1]]
        bounds = inside.searchsorted(np.append(0, ends))
        held = np.diff(bounds)
        nearest = np.full(len(queries), np.inf)
        full = held > 0
        nearest[full] = np.minimum.reduceat(d, bounds[:-1][full])
        decay = np.exp(np.repeat(-gammas, held) * (d - np.repeat(nearest, held)))
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.where(held == queries, 0.0, np.exp(-gammas * (radius - nearest)))
        axes = self.axes
        bounds = bounds.tolist()
        balls = [Ball(n, nodes[a:b], decay[a:b], e, g, r, axes)
                 for n, a, b, e, g, r in zip(queries.tolist(), bounds, bounds[1:],
                                             envelope.tolist(), gammas.tolist(),
                                             radius.tolist())]
        in_order = [None] * len(balls)
        for j, ball in zip(perm.tolist(), balls):
            in_order[j] = ball
        return in_order
