"""Seed initialization and the sequential growth loop.

A run starts from a seed network, then walks a year schedule: for every
scheduled out-degree k it inserts one node with attributes drawn from the
model's samplers and cites k distinct existing nodes, sampled without
replacement in proportion to the model's weight rule. Nodes inserted
earlier in the same year are valid targets, so within-year order matters.

Every model keeps its node weights in one `IncrementLog`. The
degree/fitness part of each rule (`attachment_weights`; the mf rule for
lbm and lbm-g) is affine in the effective degree, so a citation raises
the cited node's weight by a fixed gain and a new node enters with its
initial weight; the log appends both. The insertion loop itself is
`IncrementLog.grow`, one pass over the schedule that draws, fills, writes
the cited side of the edges and appends to the log. ba, af and mf draw
from the log, with repeats rejected, and from a short list of heavy
nodes kept beside it. lbm and lbm-g weight the log by the distance
factor exp(-gamma * d) to the new node and draw one of two ways, which
`spatial.choose_draw` picks for the whole run before its first draw. When
every insertion's gamma times the side of a grid of about 256 cells is at
most 1, a target is a cell drawn by its weight times a bound on the
factor across it, then a node of the cell drawn from a per-cell log and
kept with the ratio of its factor to the bound. Otherwise the insertion
runs `IncrementLog.sample_near`: an exponential race over a ball of near
nodes, with factors relative to the nearest node, plus a tail proposed
from the log and thinned by distance. An insertion with k = 0 draws no
targets, and one with more than there are nodes of weight takes them all
without a draw. Every way follows the sequential law exactly.

The fitness of every scheduled node is drawn before the first insertion,
and so are lbm and lbm-g locations: none of them depends on which nodes
get cited, and the lbm-g walk clock reads only the schedule. So the
cells or the balls of a whole run can be found on its final locations,
and each insertion's gamma is computed once, by `spatial.choose_draw`.

When fewer than k existing nodes have positive weight, the gap is filled
uniformly from the remaining nodes; every such fill is counted on the
returned graph (`fallback_fills`), never silently absorbed. The graph
also carries the sampler's counters (`sampler`), with the seconds of the
insertion pass and, of those, the seconds spent finding balls and
running tails (both 0 on the cell draw).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .errors import SimulationError, ValidationError
from .graph import GrowthGraph, YearSchedule, check_citations
from .models import (
    ModelKind,
    ModelSpec,
    attachment_weights,
    sample_fitness,
    sample_location_active,
    sample_location_uniform,
)
from .sampling import IncrementLog
from .spatial import choose_draw

__all__ = ["init_from_seed", "run_simulation"]


def init_from_seed(seed_nodes, seed_edges, model: ModelSpec,
                   rng_seed: int) -> GrowthGraph:
    """Turn a bare seed network into a GrowthGraph under `model`.

    `seed_nodes` is a sequence of (id, year) pairs whose ids must be the
    dense range 0..n-1 in order; `seed_edges` are (citing, cited) pairs
    pointing to earlier insertion positions. Fitness and location values
    are drawn here, from a generator seeded with `rng_seed`, so the same
    seed network yields different attribute draws under different seeds.
    """
    nodes = [(int(i), int(y)) for i, y in seed_nodes]
    if not nodes:
        raise ValidationError("seed must contain at least one node")
    n = len(nodes)
    if [nid for nid, _ in nodes] != list(range(n)):
        raise ValidationError("seed node ids must be the dense range 0..n-1 in insertion order")
    years = np.array([y for _, y in nodes], dtype=np.int64)

    edges_arr = np.array([(int(u), int(v)) for u, v in seed_edges],
                         dtype=np.int64).reshape(-1, 2)
    check_citations(edges_arr, years, label="seed edge")
    out_deg = np.bincount(edges_arr[:, 0], minlength=n)

    rng = np.random.default_rng(rng_seed)
    fitness = (sample_fitness(rng, model.alpha, model.xm, n)
               if model.uses_fitness else np.ones(n, dtype=np.float64))
    if model.kind is ModelKind.LBM:
        locations = sample_location_uniform(rng, model.dim, n)
    elif model.kind is ModelKind.LBMG:
        locations = sample_location_active(rng, _walk_start(model), model.sigma, n)
    else:
        locations = np.zeros((n, 0), dtype=np.float64)

    return GrowthGraph(
        years=years,
        sub_years=np.zeros(n, dtype=np.float64),
        fitness=fitness,
        locations=locations,
        out_degrees=out_deg,
        edges=edges_arr,
        n_seed=n,
    )


def run_simulation(seed: GrowthGraph, schedule: YearSchedule, model: ModelSpec,
                   rng_seed: int) -> GrowthGraph:
    """Grow `seed` through `schedule` under `model`.

    Within a year of m insertions the j-th new node gets sub-year position
    j/m. For lbm-g the subspace-mean clock starts at the first scheduled
    year and is checked after every insertion, applying as many shifts as
    the elapsed time (or node count) owes.

    Returns a new GrowthGraph; the seed graph is left untouched. An empty
    schedule returns the seed unchanged.
    """
    if model.uses_location and seed.dim != model.dim:
        raise ValidationError(
            f"seed graph carries dim-{seed.dim} locations but model needs dim {model.dim}; "
            "build the seed with init_from_seed under the same model")
    if not model.uses_location and seed.dim != 0:
        raise ValidationError("seed graph has locations but the model uses none")

    years_plan = schedule.years
    if not years_plan:
        return seed
    if seed.n_nodes and min(years_plan) <= int(seed.years.max()):
        raise ValidationError(
            f"schedule year {min(years_plan)} does not lie strictly after the "
            f"last seed year {int(seed.years.max())}")

    n_seed = seed.n_nodes
    sizes = [len(schedule.entries[year]) for year in years_plan]
    degrees = np.array([k for year in years_plan for k in schedule.entries[year]],
                       dtype=np.int64)
    n_total = n_seed + len(degrees)
    m_seed = seed.n_edges
    m_total = m_seed + int(degrees.sum())

    years = np.empty(n_total, dtype=np.int64)
    sub_years = np.empty(n_total, dtype=np.float64)
    fitness = np.empty(n_total, dtype=np.float64)
    dim = seed.dim
    locations = np.empty((n_total, dim), dtype=np.float64)
    out_deg = np.empty(n_total, dtype=np.int64)
    edges = np.empty((m_total, 2), dtype=np.int64)

    years[:n_seed] = seed.years
    sub_years[:n_seed] = seed.sub_years
    fitness[:n_seed] = seed.fitness
    locations[:n_seed] = seed.locations
    out_deg[:n_seed] = seed.out_degrees
    edges[:m_seed] = seed.edges
    # the schedule alone fixes each new node's year, its position j/m among
    # the m nodes of its year, its out-degree and its side of its citations
    years[n_seed:] = np.repeat(years_plan, sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    sub_years[n_seed:] = (np.arange(len(degrees)) - first) / np.repeat(sizes, sizes)
    out_deg[n_seed:] = degrees
    edges[m_seed:, 0] = np.repeat(np.arange(n_seed, n_total), degrees)

    # node n meets the n nodes before it
    short = np.flatnonzero(degrees > np.arange(n_seed, n_total)) + n_seed
    if short.size:
        n = int(short[0])
        raise SimulationError(
            f"year {years[n]}: scheduled out-degree {out_deg[n]} exceeds the {n} existing nodes")

    rng = np.random.default_rng(rng_seed)
    log, gains, entry = _increment_log(seed, degrees, model, fitness, rng)
    shifts = 0
    near = None
    if model.uses_location:
        locations[n_seed:], shifts = _scheduled_locations(model, schedule, rng)
        near = choose_draw(locations, degrees, model.gamma_at, n_seed)
    t0 = perf_counter()
    fallback_fills = log.grow(degrees.tolist(), entry[n_seed:].tolist(), gains.tolist(),
                              memoryview(edges[m_seed:, 1]), rng, near)
    seconds = perf_counter() - t0

    return GrowthGraph(
        years=years, sub_years=sub_years, fitness=fitness, locations=locations,
        out_degrees=out_deg, edges=edges, n_seed=n_seed,
        fallback_fills=fallback_fills, subspace_shifts=shifts,
        sampler={**log.counts, "seconds": seconds, "ball_seconds": log.ball_seconds,
                 "tail_seconds": log.tail_seconds},
    )


def _scheduled_locations(model: ModelSpec, schedule: YearSchedule,
                         rng: np.random.Generator):
    """Locations of every scheduled lbm or lbm-g node, and the number of
    subspace mean shifts the run applies.

    lbm draws uniform locations. lbm-g keeps a clock that starts at the
    first scheduled year and is checked after every insertion, applying
    as many shifts as the elapsed time (or node count) owes; the clock
    reads only the schedule, so all walk steps are drawn first and each
    node's location comes from the subspace current at its insertion."""
    if model.kind is ModelKind.LBM:
        return sample_location_uniform(rng, model.dim, schedule.total_nodes), 0
    shifts = _shifts_owed(model, schedule)
    total = int(shifts[-1]) if shifts.size else 0
    means = [_walk_start(model)]
    for _ in range(total):
        # a step of scale rho 0 keeps the mean but still counts
        means.append(means[-1] if model.rho == 0.0 else rng.normal(means[-1], model.rho))
    # a node takes the mean current at its insertion: the one after the
    # steps owed by the node before it
    current = np.stack(means)[np.concatenate(([0], shifts))[:-1]]
    if model.sigma == 0.0:
        return current, total
    # N(mean, sigma^2 I), node after node, as `sample_location_active`
    # draws each mean's nodes
    return rng.normal(current, model.sigma), total


def _shifts_owed(model: ModelSpec, schedule: YearSchedule) -> np.ndarray:
    """The lbm-g walk steps owed in all after each scheduled insertion.

    The clock starts at the first scheduled year and is checked after
    every insertion. By nodes, a step is owed every `shift_every` nodes.
    By months, the j-th of a year's m nodes is at time year + (j + 1) / m,
    and steps are owed while that time is at least `shift_every` months
    past the clock, less a tolerance for float error in the sub-year
    time; each step moves the clock on by `shift_every` months."""
    sizes = [len(schedule.entries[year]) for year in schedule.years]
    n = sum(sizes)
    if model.shift_unit == "nodes":
        return np.arange(1, n + 1) // int(model.shift_every)
    if not n:
        return np.zeros(0, dtype=np.int64)
    start = float(schedule.years[0])
    step = model.shift_every / 12.0
    least = step - 1e-12
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    now = (np.repeat(np.array(schedule.years, dtype=np.float64), sizes)
           + (np.arange(1, n + 1) - first) / np.repeat(sizes, sizes))
    # the clock after each step, summed one step at a time, as far as a
    # step the last node does not owe
    count = int((now[-1] - start) / step) + 2
    while True:
        clock = np.add.accumulate(np.append(start, np.full(count, step)))
        if now[-1] - clock[-1] < least:
            break
        count *= 2
    # the steps owed after node i are the clock readings c with
    # now[i] - c >= least, which hold up to some reading: found by bisection
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, clock.size - 1)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        owed = now - clock.take(mid) >= least
        lo, hi = np.where(owed, mid + 1, lo), np.where(owed, hi, mid)
    return lo


def _walk_start(model: ModelSpec) -> np.ndarray:
    """The lbm-g subspace mean before any shift: the centre of the unit
    hypercube."""
    return np.full(model.dim, 0.5)


def _increment_log(seed: GrowthGraph, degrees: np.ndarray, model: ModelSpec,
                   fitness: np.ndarray, rng: np.random.Generator):
    """Weights of a run, set up before its first insertion.

    A new node enters with effective degree 1, or its out-degree k under
    "total"; every later citation raises a node's effective degree by
    one. The rule is affine in the effective degree, so each citation adds
    the fixed gain w(1) - w(0). The fitness of every scheduled node is
    drawn into `fitness` here, for every model that has one; `degrees`
    are the scheduled out-degrees in insertion order.

    Returns the log holding the seed nodes, the per-node gains and the
    per-node initial weights (meaningful for scheduled nodes).
    """
    n_seed = seed.n_nodes
    n_total = n_seed + len(degrees)
    fitness[n_seed:] = (sample_fitness(rng, model.alpha, model.xm, n_total - n_seed)
                        if model.uses_fitness else 1.0)
    eff = np.zeros(n_total, dtype=np.float64)
    if seed.n_edges:
        eff[:n_seed] = np.bincount(seed.edges[:, 1], minlength=n_seed)
    if model.degree_mode == "in-plus-one":
        eff[:n_seed] += 1.0
        eff[n_seed:] = 1.0
    else:
        eff[:n_seed] += seed.out_degrees
        eff[n_seed:] = degrees
    weights = attachment_weights(model.kind, eff, fitness=fitness)
    gains = (attachment_weights(model.kind, np.ones(n_total), fitness=fitness)
             - attachment_weights(model.kind, np.zeros(n_total), fitness=fitness))
    log = IncrementLog(weights[:n_seed], max_nodes=n_total,
                       max_entries=n_total + int(degrees.sum()))
    return log, gains, weights
