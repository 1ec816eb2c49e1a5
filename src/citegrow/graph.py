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
from itertools import chain
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
    sampler:
        Counters of the growth run's sampler: targets by the way they were
        drawn (`log_draws` and, from the heavy list beside the log,
        `heavy_draws` for ba/af/mf; `cell_draws`, `ball_draws`,
        `tail_draws` and `race_draws` for lbm/lbm-g), the log draws that
        hit an already-chosen node (`log_rejects`), the failed cell tries,
        envelope misses and repeats (`cell_rejects`), the tail arrivals
        proposed and accepted, the hand-offs to the exponential race
        (`race_handoffs`, `dense_handoffs`), the seconds of the insertion
        pass (`seconds`: the draws, the uniform fills, the edge writes and
        the log appends of every insertion) and, of those, the seconds
        spent finding lbm/lbm-g balls (`ball_seconds`) and running their
        tails (`tail_seconds`).
        Like the two counts above, it is not part of the canonical bytes or
        the digest.

    Arrays are frozen after construction; a finished graph is read-only.
    """

    def __init__(self, years, sub_years, fitness, locations, out_degrees, edges,
                 n_seed: int, fallback_fills: int = 0, subspace_shifts: int = 0,
                 sampler: dict | None = None):
        self.years = np.ascontiguousarray(years, dtype=np.int64)
        self.sub_years = np.ascontiguousarray(sub_years, dtype=np.float64)
        self.fitness = np.ascontiguousarray(fitness, dtype=np.float64)
        self.locations = np.ascontiguousarray(locations, dtype=np.float64)
        self.out_degrees = np.ascontiguousarray(out_degrees, dtype=np.int64)
        self.edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n_seed = int(n_seed)
        self.fallback_fills = int(fallback_fills)
        self.subspace_shifts = int(subspace_shifts)
        self.sampler = dict(sampler or {})

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
        n, m, d = self.n_nodes, self.n_edges, self.dim
        # One %-format over the whole table. tolist() gives Python ints and
        # floats, and %d and %r write them as str(int) and repr(float), so
        # the text is that of formatting each line on its own.
        node = "N %d %d %r %r" + (" " + ",".join(["%r"] * d) if d else "") + "\n"
        values = chain.from_iterable(zip(range(n), self.years.tolist(), self.sub_years.tolist(),
                                         self.fitness.tolist(), *self.locations.T.tolist()))
        text = ((node * n) % tuple(values)
                + ("E %d %d\n" * m) % tuple(self.edges.ravel().tolist()))
        # a graph without nodes or edges dumps as one empty line
        return text or "\n"

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


# The dump grammar loads_graph accepts. Every line ends in "\n" (the last
# one may end the text instead), fields are separated by single spaces,
# and all N lines come before all E lines:
#
#   N <id> <year> <sub_year> <fitness>[ <loc>,<loc>,...]
#   E <citing> <cited>
#
# Ids, years and edge ends are integers: digits with an optional leading
# "-", at most _WIDTH characters, so they are exact as float64. The other
# fields are floats as numpy's text parser reads them, without a capital
# N; every float repr is one. Ids run 0, 1, 2, ... and every N line has
# as many coordinates as the first. The text is checked and parsed in
# pieces of about _PIECE characters, each ending on a line end, so no
# byte array spans more than one piece.
_PIECE = 1 << 16
_WIDTH = 15
_NODE_SEPARATORS = bytes.maketrans(b"N,", b"  ")
_EDGE_SEPARATORS = bytes.maketrans(b"E", b" ")


def _pieces(text: str, start: int, end: int):
    """(offset, piece) for text[start:end] cut into pieces of about _PIECE
    characters, each ending with a line end."""
    while start < end:
        stop = text.rfind("\n", start, min(start + _PIECE, end)) + 1
        if stop <= start:  # a line longer than a piece
            stop = text.find("\n", start + _PIECE, end) + 1 or end
        piece = text[start:stop]
        yield start, piece if piece.endswith("\n") else piece + "\n"
        start = stop


def _digits(b: np.ndarray) -> np.ndarray:
    return (b >= 48) & (b <= 57)


def _lines(piece: str, kind: int, n_spaces: int):
    """The bytes of a piece, its line ends and the (lines, n_spaces) space
    positions, or None unless the piece is ASCII without control bytes
    other than line ends, every line starts with the record letter `kind`
    and a space and has exactly n_spaces spaces with a non-empty field
    after each, and the letter appears nowhere else."""
    try:
        b = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    ends = np.flatnonzero(b == 10)
    spaces = np.flatnonzero(b == 32)
    if (spaces.size != ends.size * n_spaces or np.count_nonzero(b < 32) != ends.size
            or np.count_nonzero(b == kind) != ends.size):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    sp = spaces.reshape(ends.size, n_spaces)
    if not ((b[starts] == kind).all() and (sp[:, 0] == starts + 1).all()
            and (np.diff(sp, axis=1) > 1).all() and (ends - sp[:, -1] > 1).all()):
        return None
    return b, ends, sp


def _node_piece(piece: str, first_id: int, dim: int) -> np.ndarray | None:
    """(lines, 4 + dim) values of a piece of N lines, or None if it breaks
    the grammar: id order and the integer form of ids and years included."""
    lines = _lines(piece, ord("N"), 5 if dim else 4)
    if lines is None:
        return None
    b, ends, sp = lines
    commas = np.flatnonzero(b == 44)
    if commas.size != ends.size * max(dim - 1, 0):
        return None
    if commas.size:
        cm = commas.reshape(ends.size, dim - 1)
        if not ((cm[:, 0] - sp[:, -1] > 1).all() and (np.diff(cm, axis=1) > 1).all()
                and (ends - cm[:, -1] > 1).all()):
            return None
    # ids and years, the bytes from the first space to the third, hold
    # only digits, minus signs and the space between them
    region = np.zeros(b.size + 1, dtype=np.int8)
    region[sp[:, 0]] = 1
    region[sp[:, 2]] = -1
    inside = np.cumsum(region[:-1], dtype=np.int8).view(bool)
    if (inside & ~(_digits(b) | (b == 45) | (b == 32))).any():
        return None
    try:
        values = np.fromstring(b.tobytes().translate(_NODE_SEPARATORS), sep=" ")
    except ValueError:
        return None
    if values.size != ends.size * (4 + dim):
        return None
    values = values.reshape(ends.size, 4 + dim)
    if not ((values[:, 0] == np.arange(first_id, first_id + ends.size)).all()
            and (sp[:, 2] - sp[:, 1] <= _WIDTH + 1).all()):
        return None
    return values


def _edge_piece(piece: str) -> np.ndarray | None:
    """(lines, 2) ends of a piece of E lines, or None if it breaks the
    grammar."""
    lines = _lines(piece, ord("E"), 2)
    if lines is None:
        return None
    b, ends, sp = lines
    # digits with an optional leading minus sign, _WIDTH characters at most
    minus = np.flatnonzero(b == 45)
    if (np.count_nonzero(_digits(b)) + minus.size + 4 * ends.size != b.size
            or not ((b[minus - 1] == 32).all() and _digits(b[minus + 1]).all())
            or (sp[:, 1] - sp[:, 0] > _WIDTH + 1).any() or (ends - sp[:, 1] > _WIDTH + 1).any()):
        return None
    try:
        values = np.fromstring(b.tobytes().translate(_EDGE_SEPARATORS),
                               dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if values.size != 2 * ends.size:
        return None
    return values.reshape(ends.size, 2)


def _reject(piece: str, lineno: int, next_id: int, dim: int | None, edges_seen: bool):
    """Raise the ValidationError that names the first line of a piece that
    breaks the dump grammar, checking one line at a time. Faults a looser
    line-by-line reading would also reject come first, with its messages;
    `next_id`, `dim` and `edges_seen` are the state before the piece."""
    for line in piece[:-1].split("\n"):
        fields = line.split()
        if not fields:
            raise ValidationError(f"line {lineno}: blank line")
        try:
            if fields[0] == "N":
                nid = int(fields[1])
                if nid != next_id:
                    raise ValidationError(
                        f"line {lineno}: node id {nid} out of order (expected {next_id})")
                int(fields[2])
                float(fields[3])
                float(fields[4])
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
            elif fields[0] == "E":
                int(fields[1])
                int(fields[2])
            else:
                raise ValidationError(f"line {lineno}: unknown record type {fields[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"line {lineno}: malformed record ({exc})") from None
        if fields[0] == "N" and edges_seen:
            raise ValidationError(f"line {lineno}: N record after the first E record")
        record = line + "\n"
        if (_node_piece(record, next_id, dim) if fields[0] == "N"
                else _edge_piece(record)) is None:
            raise ValidationError(f"line {lineno}: malformed {fields[0]} record")
        next_id += fields[0] == "N"
        edges_seen |= fields[0] == "E"
        lineno += 1
    # not reached: a piece whose lines each pass the piece check passes it
    raise ValidationError(f"line {lineno - 1}: malformed graph dump")


def loads_graph(text: str, seed_end: int | None = None) -> GrowthGraph:
    """Parse a text dump produced by :meth:`GrowthGraph.dumps`; see the
    grammar above.

    The dump format carries no seed marker, so `seed_end` (last seed year,
    inclusive) is needed to restore the seed/grown split; without it every
    node counts as grown.
    """
    split = 0 if text.startswith("E") else text.find("\nE") + 1 or len(text)
    eol = text.find("\n", 0, split)
    first = text[:eol if eol >= 0 else split]
    dim = first.count(",") + 1 if first.count(" ") > 4 else 0
    nodes, edges = [], []
    n = 0
    for start, piece in _pieces(text, 0, split):
        values = _node_piece(piece, n, dim)
        if values is None:
            _reject(piece, text.count("\n", 0, start) + 1, n, dim if n else None, False)
        nodes.append(values)
        n += values.shape[0]
    for start, piece in _pieces(text, split, len(text)):
        values = _edge_piece(piece)
        if values is None:
            _reject(piece, text.count("\n", 0, start) + 1, n, dim if n else None, True)
        edges.append(values)
    if n == 0:
        raise ValidationError("graph dump contains no nodes")
    values = np.concatenate(nodes)
    edges_arr = np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    years = values[:, 1].astype(np.int64)
    check_citations(edges_arr, years)
    n_seed = int(np.count_nonzero(years <= seed_end)) if seed_end is not None else 0
    return GrowthGraph(
        years=years,
        sub_years=values[:, 2],
        fitness=values[:, 3],
        locations=values[:, 4:],
        out_degrees=np.bincount(edges_arr[:, 0], minlength=n),
        edges=edges_arr,
        n_seed=n_seed,
    )


def load_graph(path, seed_end: int | None = None) -> GrowthGraph:
    return loads_graph(Path(path).read_text(encoding="utf-8"), seed_end=seed_end)
