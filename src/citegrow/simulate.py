"""Seed initialization and the sequential growth loop.

A run starts from a seed network, then walks a year schedule: for every
scheduled out-degree k it inserts one node with attributes drawn from the
model's samplers and cites k distinct existing nodes, sampled without
replacement in proportion to the model's weight rule. Nodes inserted
earlier in the same year are valid targets, so within-year order matters.

The two samplers of `sampling` split the models:

- lbm and lbm-g weigh every node by its distance to the new node, so each
  insertion rebuilds all n weights and runs the O(n) exponential race
  (`sample_without_replacement`). An insertion with k = 0 skips both.
- ba, af and mf weights depend only on a node's own degree and fitness
  and never decrease: a citation raises the cited node's weight by a
  fixed gain, and a new node enters with its initial weight. The run
  evaluates both once for every node with `attachment_weights`, draws the
  new nodes' fitness up front, and keeps the weights in an `IncrementLog`
  that draws by binary search and rejects repeats, switching to the race
  only when the chosen nodes hold nearly all the weight. Both ways follow
  the sequential law exactly.

When fewer than k existing nodes have positive weight, the gap is filled
uniformly from the remaining nodes; every such fill is counted on the
returned graph (`fallback_fills`), never silently absorbed.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationError, ValidationError
from .graph import GrowthGraph, YearSchedule
from .models import (
    ModelKind,
    ModelSpec,
    attachment_weights,
    gamma_value,
    initial_subspace,
    sample_fitness,
    sample_location_active,
    sample_location_uniform,
    shift_due,
    shift_subspace,
)
from .sampling import IncrementLog, sample_without_replacement

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
    seen: set[int] = set()
    for nid, _ in nodes:
        if nid in seen:
            raise ValidationError(f"duplicate node id {nid} in seed")
        seen.add(nid)
    ids = [nid for nid, _ in nodes]
    n = len(nodes)
    if ids != list(range(n)):
        raise ValidationError("seed node ids must be the dense range 0..n-1 in insertion order")
    years = np.array([y for _, y in nodes], dtype=np.int64)

    edges = [(int(u), int(v)) for u, v in seed_edges]
    seen_edges: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"seed edge ({u}, {v}) references a missing node")
        if u == v:
            raise ValidationError(f"seed edge ({u}, {v}) is a self-citation")
        if v > u:
            raise ValidationError(
                f"seed edge ({u}, {v}) cites a later insertion position")
        if years[u] < years[v]:
            raise ValidationError(
                f"seed edge ({u}, {v}) cites a later year ({years[v]} > {years[u]})")
        if (u, v) in seen_edges:
            raise ValidationError(f"duplicate seed edge ({u}, {v})")
        seen_edges.add((u, v))

    edges_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    out_deg = (np.bincount(edges_arr[:, 0], minlength=n)
               if edges else np.zeros(n, dtype=np.int64))

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
    kind = model.kind
    in_plus_one = model.degree_mode == "in-plus-one"
    lbmg = kind is ModelKind.LBMG
    gamma, shift = model.gamma, model.shift
    if model.uses_location:
        log = None
        in_deg = np.zeros(n_total, dtype=np.float64)
        if seed.n_edges:
            in_deg[:n_seed] = np.bincount(seed.edges[:, 1], minlength=n_seed)
        out_deg_f = np.zeros(n_total, dtype=np.float64)
        out_deg_f[:n_seed] = seed.out_degrees
    else:
        log, gains, new_weights = _increment_log(seed, schedule, model, fitness, rng)
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

            if log is not None:
                targets = log.sample(k, rng) if k else _NO_TARGETS
            else:
                fitness[n] = sample_fitness(rng, model.alpha, model.xm)
                locations[n] = (sample_location_active(rng, subspace) if lbmg
                                else sample_location_uniform(rng, model.dim))
                targets = _NO_TARGETS
                if k:
                    eff = in_deg[:n] + 1.0 if in_plus_one else in_deg[:n] + out_deg_f[:n]
                    w = attachment_weights(kind, eff, fitness=fitness[:n],
                                           locations=locations[:n], new_location=locations[n],
                                           gamma=gamma_value(gamma, n))
                    k_main = min(k, int(np.count_nonzero(w > 0.0)))
                    if k_main:
                        targets = sample_without_replacement(w, k_main, rng)
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
            if log is not None:
                log.add_node(targets, gains[targets], new_weights[n])
            else:
                out_deg_f[n] = k
                in_deg[targets] += 1.0
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
    """Weights of a ba, af or mf run, set up before its first insertion.

    Draws the fitness of every scheduled node into `fitness` (the only
    per-node draw these models make), then evaluates the weight rule once
    for all nodes. A new node enters with effective degree 1, or its
    out-degree k under "total"; every later citation raises a node's
    effective degree by one. The rule is affine in the effective degree
    for these models, so each citation adds the fixed gain w(1) - w(0).

    Returns the log holding the seed nodes, the per-node gains and the
    per-node initial weights (meaningful for scheduled nodes).
    """
    n_seed = seed.n_nodes
    n_total = n_seed + schedule.total_nodes
    fitness[n_seed:] = (sample_fitness(rng, model.alpha, model.xm, size=n_total - n_seed)
                        if model.uses_fitness else 1.0)
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
    gains = (attachment_weights(model.kind, np.ones(n_total), fitness=fitness)
             - attachment_weights(model.kind, np.zeros(n_total), fitness=fitness))
    log = IncrementLog(weights[:n_seed], max_nodes=n_total,
                       max_entries=n_total + schedule.total_edges)
    return log, gains, weights
