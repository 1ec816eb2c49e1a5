"""Growth-graph container, year schedules, and canonical serialization.

Nodes are papers. Each carries a publication year, a fractional position
inside that year, a fitness value, an optional location vector, and the
out-degree it was created with. Edges point from the citing paper to the
cited one. Growth only appends nodes that cite already-inserted nodes, so
insertion order is a topological order and the graph is acyclic by
construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "SeedNetwork",
    "YearSchedule",
    "GrowthGraph",
    "load_graph",
    "loads_graph",
]


@dataclass(frozen=True)
class SeedNetwork:
    """Bare seed graph: (id, year) pairs plus citation edges among them.

    Node ids must be the dense range 0..n-1 in insertion order, and every
    edge (citing, cited) must point to an earlier insertion position.
    Attribute values (fitness, locations) are not part of a seed network;
    they are drawn later, when a model turns the seed into a GrowthGraph.
    """

    nodes: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple((int(i), int(y)) for i, y in self.nodes))
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def years(self) -> np.ndarray:
        return np.array([y for _, y in self.nodes], dtype=np.int64)


class YearSchedule:
    """Per-year insertion plan: {year: [out-degree of each new node]}.

    The list order within a year is the insertion order. A year may map to
    an empty list (no insertions); years absent from the mapping are
    skipped entirely.
    """

    def __init__(self, entries: dict):
        clean: dict[int, list[int]] = {}
        for year, degs in entries.items():
            y = int(year)
            row = [int(d) for d in degs]
            for d in row:
                if d < 0:
                    raise ValidationError(f"year {y}: negative out-degree {d} in schedule")
            clean[y] = row
        self.entries = clean

    @property
    def years(self) -> list[int]:
        return sorted(self.entries)

    @property
    def total_nodes(self) -> int:
        return sum(len(v) for v in self.entries.values())

    @property
    def total_edges(self) -> int:
        return sum(sum(v) for v in self.entries.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, YearSchedule) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"YearSchedule({self.total_nodes} nodes over {len(self.entries)} years)"

    def to_tsv(self, path) -> None:
        Path(path).write_text(self.dumps_tsv(), encoding="utf-8")

    def dumps_tsv(self) -> str:
        lines = []
        for year in self.years:
            degs = ",".join(str(d) for d in self.entries[year])
            lines.append(f"{year}\t{degs}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, path) -> "YearSchedule":
        return cls.loads_tsv(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def loads_tsv(cls, text: str) -> "YearSchedule":
        entries: dict[int, list[int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValidationError(f"schedule line {lineno}: expected 'year<TAB>degrees'")
            ystr, dstr = line.split("\t", 1)
            try:
                year = int(ystr)
                degs = [int(d) for d in dstr.split(",")] if dstr.strip() else []
            except ValueError as exc:
                raise ValidationError(f"schedule line {lineno}: {exc}") from None
            if year in entries:
                raise ValidationError(f"schedule line {lineno}: duplicate year {year}")
            entries[year] = degs
        return cls(entries)


class GrowthGraph:
    """Columnar citation graph produced by seeding or by a growth run.

    Parameters
    ----------
    years, sub_years, fitness, out_degrees:
        Per-node arrays in insertion order (node id == row index).
    locations:
        (n, d) array of node locations; d == 0 for models without a
        location space.
    edges:
        (m, 2) array of (citing, cited) pairs in creation order.
    n_seed:
        The first `n_seed` nodes form the seed network; they are excluded
        from trajectory classification.
    fallback_fills:
        How many citation targets were filled uniformly because fewer
        positive-weight candidates existed than requested.
    subspace_shifts:
        How many active-subspace mean shifts a growth run applied.

    Arrays are frozen after construction; a finished graph is read-only.
    """

    def __init__(self, years, sub_years, fitness, locations, out_degrees, edges,
                 n_seed: int, fallback_fills: int = 0, subspace_shifts: int = 0):
        self.years = np.ascontiguousarray(years, dtype=np.int64)
        self.sub_years = np.ascontiguousarray(sub_years, dtype=np.float64)
        self.fitness = np.ascontiguousarray(fitness, dtype=np.float64)
        self.locations = np.ascontiguousarray(locations, dtype=np.float64)
        self.out_degrees = np.ascontiguousarray(out_degrees, dtype=np.int64)
        self.edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n_seed = int(n_seed)
        self.fallback_fills = int(fallback_fills)
        self.subspace_shifts = int(subspace_shifts)

        n = self.years.shape[0]
        if self.locations.ndim != 2 or self.locations.shape[0] != n:
            raise ValidationError("locations must be a (n_nodes, dim) array")
        for name in ("sub_years", "fitness", "out_degrees"):
            if getattr(self, name).shape != (n,):
                raise ValidationError(f"{name} must have one entry per node")
        if not 0 <= self.n_seed <= n:
            raise ValidationError(f"n_seed {self.n_seed} outside 0..{n}")
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
            raise ValidationError("edge endpoint outside node range")

        for arr in (self.years, self.sub_years, self.fitness, self.locations,
                    self.out_degrees, self.edges):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.years.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    # -- serialization ----------------------------------------------------

    def dumps(self) -> str:
        """Text dump: one N line per node (id order), one E line per edge
        (creation order). Floats use repr, so a dump round-trips exactly."""
        out = []
        d = self.dim
        for i in range(self.n_nodes):
            head = (f"N {i} {self.years[i]} {float(self.sub_years[i])!r} "
                    f"{float(self.fitness[i])!r}")
            if d:
                locs = ",".join(repr(float(v)) for v in self.locations[i])
                out.append(f"{head} {locs}")
            else:
                out.append(head)
        for u, v in self.edges:
            out.append(f"E {u} {v}")
        return "\n".join(out) + "\n"

    def dump(self, path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")

    def canonical_bytes(self) -> bytes:
        """Canonical byte encoding: header counts then each column as
        little-endian int64/float64, in a fixed field order."""
        head = np.array([self.n_nodes, self.n_edges, self.dim, self.n_seed],
                        dtype="<i8")
        parts = [
            b"citegrow-graph/1\n",
            head.tobytes(),
            self.years.astype("<i8").tobytes(),
            self.sub_years.astype("<f8").tobytes(),
            self.fitness.astype("<f8").tobytes(),
            np.ascontiguousarray(self.locations, dtype="<f8").tobytes(),
            self.out_degrees.astype("<i8").tobytes(),
            np.ascontiguousarray(self.edges, dtype="<i8").tobytes(),
        ]
        return b"".join(parts)

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical byte encoding."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def check_citations(edges: np.ndarray, years: np.ndarray, label: str = "edge") -> None:
    """Reject citations growth cannot produce. Each (citing, cited) row of
    `edges` must name two of the nodes whose years are `years`, cite an
    earlier id of no later year, and appear once. Raises ValidationError
    naming the first offending edge under the first rule it breaks."""
    n = years.shape[0]
    u, v = edges[:, 0], edges[:, 1]

    def reject(bad, reason):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"{label} ({u[i]}, {v[i]}) {reason(i)}")

    reject((u < 0) | (u >= n) | (v < 0) | (v >= n), lambda i: "references a missing node")
    reject(u == v, lambda i: "is a self-citation")
    reject(v > u, lambda i: "cites a later insertion position")
    reject(years[u] < years[v],
           lambda i: f"cites a later year ({years[v[i]]} > {years[u[i]]})")
    repeat = np.ones(len(u), dtype=bool)
    repeat[np.unique(u * n + v, return_index=True)[1]] = False
    reject(repeat, lambda i: "appears twice")


def loads_graph(text: str, seed_end: int | None = None) -> GrowthGraph:
    """Parse a text dump produced by :meth:`GrowthGraph.dumps`.

    The dump format carries no seed marker, so `seed_end` (last seed year,
    inclusive) is needed to restore the seed/grown split; without it every
    node counts as grown.
    """
    years, subs, fits, locs = [], [], [], []
    edges = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "N":
                nid = int(fields[1])
                if nid != len(years):
                    raise ValidationError(
                        f"line {lineno}: node id {nid} out of order (expected {len(years)})")
                years.append(int(fields[2]))
                subs.append(float(fields[3]))
                fits.append(float(fields[4]))
                if len(fields) == 6:
                    row = [float(v) for v in fields[5].split(",")]
                elif len(fields) == 5:
                    row = []
                else:
                    raise ValidationError(f"line {lineno}: malformed N record")
                if dim is None:
                    dim = len(row)
                elif len(row) != dim:
                    raise ValidationError(f"line {lineno}: inconsistent location dimension")
                locs.append(row)
            elif fields[0] == "E":
                edges.append((int(fields[1]), int(fields[2])))
            else:
                raise ValidationError(f"line {lineno}: unknown record type {fields[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"line {lineno}: malformed record ({exc})") from None
    n = len(years)
    if n == 0:
        raise ValidationError("graph dump contains no nodes")
    dim = dim or 0
    years_arr = np.array(years, dtype=np.int64)
    edges_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    out_deg = np.bincount(edges_arr[:, 0], minlength=n) if edges else np.zeros(n, dtype=np.int64)
    check_citations(edges_arr, years_arr)
    n_seed = int(np.count_nonzero(years_arr <= seed_end)) if seed_end is not None else 0
    return GrowthGraph(
        years=years_arr,
        sub_years=np.array(subs, dtype=np.float64),
        fitness=np.array(fits, dtype=np.float64),
        locations=np.array(locs, dtype=np.float64).reshape(n, dim),
        out_degrees=out_deg,
        edges=edges_arr,
        n_seed=n_seed,
    )


def load_graph(path, seed_end: int | None = None) -> GrowthGraph:
    return loads_graph(Path(path).read_text(encoding="utf-8"), seed_end=seed_end)
