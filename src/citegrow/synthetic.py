"""Synthetic seed networks and schedules shaped like a real corpus.

Desk-scale stand-ins for experiments that do not ship the real data:
a small seed network spread over the seed years, and a growth schedule
whose yearly volumes rise geometrically and whose out-degrees follow an
overdispersed count law (negative binomial), echoing how citation corpora
grow. All draws are deterministic in the seed argument.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph import SeedNetwork, YearSchedule

__all__ = ["synthetic_seed", "corpus_like_schedule"]

SEED_START_YEAR, SEED_END_YEAR, SEED_MEAN_OUT = 1960, 1975, 1.2
SCHEDULE_MEAN_OUT, SCHEDULE_GROWTH, SCHEDULE_MAX_OUT = 2.1, 1.09, 200


def synthetic_seed(n_nodes: int = 400, rng_seed: int = 0) -> SeedNetwork:
    """Seed network with years spread evenly over SEED_START_YEAR to
    SEED_END_YEAR and Poisson out-degrees citing strictly older seed
    papers."""
    if n_nodes < 1:
        raise ValidationError(f"seed size must be >= 1, got {n_nodes}")
    rng = np.random.default_rng(rng_seed)
    n_years = SEED_END_YEAR - SEED_START_YEAR + 1
    years = np.array([SEED_START_YEAR + (i * n_years) // n_nodes for i in range(n_nodes)],
                     dtype=np.int64)
    nodes = [(i, int(years[i])) for i in range(n_nodes)]
    edges: list[tuple[int, int]] = []
    for i in range(n_nodes):
        older = int(np.searchsorted(years, years[i], side="left"))
        if older == 0:
            continue
        k = min(int(rng.poisson(SEED_MEAN_OUT)), older)
        if k:
            targets = rng.choice(older, size=k, replace=False)
            edges.extend((i, int(v)) for v in np.sort(targets))
    return SeedNetwork(nodes=tuple(nodes), edges=tuple(edges))


def corpus_like_schedule(n_nodes: int = 20000, start_year: int = 1976,
                         end_year: int = 2000, rng_seed: int = 0) -> YearSchedule:
    """Year schedule with volumes growing by SCHEDULE_GROWTH a year and
    totalling exactly `n_nodes`, and negative-binomial out-degrees of mean
    SCHEDULE_MEAN_OUT capped at SCHEDULE_MAX_OUT."""
    if n_nodes < 1:
        raise ValidationError(f"schedule size must be >= 1, got {n_nodes}")
    if end_year < start_year:
        raise ValidationError("end_year must not precede start_year")
    rng = np.random.default_rng(rng_seed)
    n_years = end_year - start_year + 1
    raw = SCHEDULE_GROWTH ** np.arange(n_years)
    quota = raw / raw.sum() * n_nodes
    counts = np.floor(quota).astype(np.int64)
    # largest-remainder rounding keeps the total exact and deterministic
    short = n_nodes - int(counts.sum())
    if short:
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:short]] += 1
    # negative binomial with shape 2: variance mean * (1 + mean / 2)
    shape = 2.0
    p = shape / (shape + SCHEDULE_MEAN_OUT)
    entries = {}
    for offset, c in enumerate(counts):
        degs = rng.negative_binomial(shape, p, size=int(c))
        entries[start_year + offset] = np.minimum(degs, SCHEDULE_MAX_OUT).tolist()
    return YearSchedule(entries)
