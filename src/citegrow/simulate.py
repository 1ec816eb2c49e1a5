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
initial weight; the log appends both. ba, af and mf draw straight from
the log, by binary search with repeats rejected. lbm and lbm-g scale the
log's weights by the distance factor to the new node (`distance_decay`)
and run the exponential race over all n nodes. An insertion with k = 0
draws no targets. Both ways follow the sequential law exactly.

ba, af and mf draw the fitness of every scheduled node up front. lbm and
lbm-g draw each new node's fitness and location at its insertion, so
under the mf rule their gains are the fitness values themselves and a
new node's initial weight (fitness times entry degree) is finished then.

When fewer than k existing nodes have positive weight, the gap is filled
uniformly from the remaining nodes; every such fill is counted on the
returned graph (`fallback_fills`), never silently absorbed.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationError, ValidationError
from .graph import GrowthGraph, YearSchedule, check_citations
from .models import (
    ModelKind,
    ModelSpec,
    attachment_weights,
    distance_decay,
    gamma_value,
    initial_subspace,
    sample_fitness,
    sample_location_active,
    sample_location_uniform,
    shift_due,
    shift_subspace,
)
from .sampling import IncrementLog

__all__ = ["init_from_seed", "run_simulation"]

_NO_TARGETS = np.empty(0, dtype=np.int64)


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
    fitness = (sample_fitness(rng, model.alpha, model.xm, size=n)
               if model.uses_fitness else np.ones(n, dtype=np.float64))
    if model.kind is ModelKind.LBM:
        locations = sample_location_uniform(rng, model.dim, size=n)
    elif model.kind is ModelKind.LBMG:
        locations = sample_location_active(rng, initial_subspace(model), size=n)
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
    n_total = n_seed + schedule.total_nodes
    m_total = seed.n_edges + schedule.total_edges

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
    edges[:seed.n_edges] = seed.edges

    rng = np.random.default_rng(rng_seed)
    spatial = model.uses_location
    lbmg = model.kind is ModelKind.LBMG
    gamma, shift = model.gamma, model.shift
    log, gains, entry = _increment_log(seed, schedule, model, fitness, rng)
    subspace = initial_subspace(model) if lbmg else None
    last_shift_time = float(years_plan[0])
    nodes_since_shift = 0
    shifts = 0
    fallback_fills = 0

    n = n_seed
    e = seed.n_edges
    for year in years_plan:
        degs = schedule.entries[year]
        m = len(degs)
        for j, k in enumerate(degs):
            if k > n:
                raise SimulationError(
                    f"year {year}: scheduled out-degree {k} exceeds the {n} existing nodes")

            if spatial:
                fitness[n] = sample_fitness(rng, model.alpha, model.xm)
                locations[n] = (sample_location_active(rng, subspace) if lbmg
                                else sample_location_uniform(rng, model.dim))
                entry[n] *= fitness[n]  # the mf rule: entry degree times fitness
            targets = _NO_TARGETS
            if k:
                scale = (distance_decay(locations[:n], locations[n], gamma_value(gamma, n))
                         if spatial else None)
                targets = log.sample(k, rng, scale)
            if len(targets) < k:
                pool = np.setdiff1d(np.arange(n, dtype=np.int64), targets,
                                    assume_unique=True)
                extra = rng.choice(pool, size=k - len(targets), replace=False)
                fallback_fills += k - len(targets)
                targets = np.sort(np.concatenate([targets, extra]))

            years[n] = year
            sub_years[n] = j / m
            out_deg[n] = k
            edges[e:e + k, 0] = n
            edges[e:e + k, 1] = targets
            log.add_node(targets, gains[targets], entry[n])
            e += k
            n += 1

            if lbmg:
                nodes_since_shift += 1
                t_now = year + (j + 1) / m
                while shift_due(shift, t_now - last_shift_time, nodes_since_shift):
                    subspace = shift_subspace(subspace, model.rho, rng)
                    shifts += 1
                    if shift.unit == "months":
                        last_shift_time += shift.every / 12.0
                    else:
                        nodes_since_shift = 0

    return GrowthGraph(
        years=years, sub_years=sub_years, fitness=fitness, locations=locations,
        out_degrees=out_deg, edges=edges, n_seed=n_seed,
        fallback_fills=fallback_fills, subspace_shifts=shifts,
    )


def _increment_log(seed: GrowthGraph, schedule: YearSchedule, model: ModelSpec,
                   fitness: np.ndarray, rng: np.random.Generator):
    """Weights of a run, set up before its first insertion.

    A new node enters with effective degree 1, or its out-degree k under
    "total"; every later citation raises a node's effective degree by
    one. The rule is affine in the effective degree, so each citation adds
    the fixed gain w(1) - w(0). ba, af and mf draw the fitness of every
    scheduled node into `fitness` here (the only per-node draw these
    models make). lbm and lbm-g draw it at each insertion: until then a
    new node's fitness reads 1, so its initial weight holds only its entry
    degree, and its gain, the mf rule's w(1) - w(0) = xi, is read from
    `fitness` itself.

    Returns the log holding the seed nodes, the per-node gains and the
    per-node initial weights (meaningful for scheduled nodes).
    """
    n_seed = seed.n_nodes
    n_total = n_seed + schedule.total_nodes
    fitness[n_seed:] = (sample_fitness(rng, model.alpha, model.xm, size=n_total - n_seed)
                        if model.uses_fitness and not model.uses_location else 1.0)
    eff = np.zeros(n_total, dtype=np.float64)
    if seed.n_edges:
        eff[:n_seed] = np.bincount(seed.edges[:, 1], minlength=n_seed)
    if model.degree_mode == "in-plus-one":
        eff[:n_seed] += 1.0
        eff[n_seed:] = 1.0
    else:
        eff[:n_seed] += seed.out_degrees
        eff[n_seed:] = [k for year in schedule.years for k in schedule.entries[year]]
    weights = attachment_weights(model.kind, eff, fitness=fitness)
    gains = (fitness if model.uses_location else
             attachment_weights(model.kind, np.ones(n_total), fitness=fitness)
             - attachment_weights(model.kind, np.zeros(n_total), fitness=fitness))
    log = IncrementLog(weights[:n_seed], max_nodes=n_total,
                       max_entries=n_total + schedule.total_edges)
    return log, gains, weights
