"""Published reference values for the two citation corpora.

Category percentages are reported figures for real trajectory
classifications on each corpus; they are normalized into proportions
before any distance computation. Dataset sizes are kept for sanity checks
when the full corpora are available locally.
"""

from __future__ import annotations

from .trajectory import CategoryDistribution

__all__ = [
    "MAS_CATEGORY_PERCENT",
    "APS_CATEGORY_PERCENT",
    "DATASET_STATS",
    "mas_reference",
    "aps_reference",
]

# order: er, fr, lr, sr, ot
MAS_CATEGORY_PERCENT = (6.78, 26.38, 32.87, 11.96, 22.04)
APS_CATEGORY_PERCENT = (9.98, 1.42, 24.76, 0.09, 63.73)

DATASET_STATS = {
    "mas": {
        "complete_nodes": 711_810,
        "complete_edges": 1_231_266,
        "window_nodes": 282_919,
        "window_edges": 589_201,
        "seed_nodes": 4_134,
        "seed_edges": 4_872,
    },
    "aps": {
        "complete_nodes": 463_347,
        "complete_edges": 4_710_547,
        "window_nodes": 277_999,
        "window_edges": 2_474_076,
        "seed_nodes": 3_569,
        "seed_edges": 4_108,
    },
}


def mas_reference() -> CategoryDistribution:
    return CategoryDistribution.from_proportions(MAS_CATEGORY_PERCENT)


def aps_reference() -> CategoryDistribution:
    return CategoryDistribution.from_proportions(APS_CATEGORY_PERCENT)
