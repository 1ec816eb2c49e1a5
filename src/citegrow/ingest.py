"""Real-dataset ingestion: TSV parsing and seed/schedule construction.

Input formats are one record per line:
  papers     <paper id> TAB <publication year>
  citations  <citing id> TAB <cited id>

Papers inside the study window are sorted by (year, id) and given dense
integer ids. Papers up to the seed end year form the seed network; each
later in-window year becomes a schedule entry whose out-degrees count the
paper's retained references. A reference is retained only when both ends
are in the window and the cited paper is strictly older, which keeps
every edge realizable during replay; forward and same-year references are
dropped and counted, never silently discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .errors import IngestError, ValidationError
from .graph import SeedNetwork, YearSchedule

__all__ = [
    "PaperRecord",
    "IngestConfig",
    "ParsedPapers",
    "ParsedCitations",
    "IngestResult",
    "parse_papers",
    "parse_citations",
    "build_seed_and_schedule",
]

_YEAR_MIN, _YEAR_MAX = 1800, 2100
_MALFORMED_LIMIT = 0.01


@dataclass(frozen=True)
class PaperRecord:
    id: str
    year: int


@dataclass(frozen=True)
class IngestConfig:
    """Study window: seed years, classification cutoff, citation horizon."""

    seed_start: int = 1960
    seed_end: int = 1975
    cutoff: int = 2000
    horizon: int = 2010

    def __post_init__(self):
        if not self.seed_start <= self.seed_end < self.cutoff <= self.horizon:
            raise ValidationError(
                f"years must satisfy seed_start <= seed_end < cutoff <= horizon, got "
                f"{self.seed_start}, {self.seed_end}, {self.cutoff}, {self.horizon}")


@dataclass(frozen=True)
class ParsedPapers:
    records: tuple
    malformed: int
    total_lines: int


@dataclass(frozen=True)
class ParsedCitations:
    edges: tuple
    malformed: int
    dropped_unknown: int
    dropped_self: int
    duplicates: int


def _read(path, kind: str) -> str:
    p = Path(path)
    if not p.exists():
        raise IngestError(f"{kind} file not found: {p}")
    # text mode, so "\r\n" and a lone "\r" end a line like "\n"
    with open(p, encoding="utf-8") as fh:
        return fh.read()


class _Lines:
    """A TSV text cut at "\n" into lines, numbered from 0.

    A line is plain when it is one tab between two non-empty fields of
    printable ASCII: no other whitespace, control or non-ASCII byte.
    Plain lines are found with numpy over the UTF-8 bytes and split all at
    once; the per-line rules read only the other lines, one at a time.
    """

    def __init__(self, text: str):
        self.text = text
        self.bytes = b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        newlines = np.flatnonzero(b == 10)
        self.starts = np.concatenate(([0], newlines + 1))
        self.ends = np.append(newlines, b.size)
        # the bytes a plain line holds once, the tab, or never; b.size
        # closes the list so that each line's first one can be looked up
        rare = np.append(np.flatnonzero((b < 33) | (b > 126)), b.size)
        first = np.searchsorted(rare, self.starts)
        self.tabs = rare[first]
        plain = np.searchsorted(rare, self.ends) - first == 1
        plain[plain] = b[self.tabs[plain]] == 9
        self.plain = plain & (self.tabs > self.starts) & (self.tabs < self.ends - 1)
        self.continuations = (np.flatnonzero((b & 0xC0) == 0x80) if not text.isascii()
                              else np.zeros(0, dtype=np.intp))

    def fields(self) -> list[str]:
        """Both fields of every plain line in order: first, second, first, ...
        The text around the other lines is split at once: a plain line's
        fields hold no whitespace, so split() cuts it at its tab and end."""
        others = np.flatnonzero(~self.plain)
        around = self._chars(np.column_stack([self.starts[others], self.ends[others]]))
        cuts = [0, *around.ravel().tolist(), len(self.text)]
        return "".join([self.text[a:b] for a, b in zip(cuts[::2], cuts[1::2]) if a < b]).split()

    def others(self):
        """(number, text) of each line that is not plain, in order."""
        for i in np.flatnonzero(~self.plain).tolist():
            yield i, self.line(i)

    def line(self, i: int) -> str:
        return self.text[self._chars(self.starts[i]):self._chars(self.ends[i])]

    def _chars(self, offsets):
        # a character offset is a byte offset less the UTF-8 continuation
        # bytes before it
        return offsets - np.searchsorted(self.continuations, offsets)

    def malformed(self, kind: str, numbers, total: int) -> int:
        """Raise IngestError if the lines `numbers` are more than 1% of
        `total` counted lines; return how many there are."""
        malformed = len(numbers)
        if total and malformed / total > _MALFORMED_LIMIT:
            shown = "; ".join(f"line {i + 1}: {self.line(i)[:60]!r}" for i in sorted(numbers)[:5])
            raise IngestError(
                f"{malformed} of {total} {kind} lines are malformed (> 1%); "
                f"first offenders: {shown}")
        return malformed


def _in_line_order(numbers: np.ndarray, late: list, *columns):
    """Merge the rows `late` ((line number, value, ...) tuples) into the
    lists `columns` read from the lines `numbers`, in line order. Returns
    the merged line numbers (an array) and columns."""
    if not late:
        return (numbers, *columns)
    numbers = np.concatenate([numbers, [row[0] for row in late]])
    order = np.argsort(numbers, kind="stable").tolist()
    merged = [list(map((col + [row[k + 1] for row in late]).__getitem__, order))
              for k, col in enumerate(columns)]
    return (numbers[order], *merged)


def parse_papers(path) -> ParsedPapers:
    """Read a papers TSV. Malformed lines (wrong field count, non-integer
    or out-of-range year, duplicate id) are counted and skipped; more than
    1% malformed aborts."""
    lines = _Lines(_read(path, "papers"))
    # a plain paper line's year is four ASCII digits, read from the bytes
    lines.plain &= lines.ends - lines.tabs == 5
    plain = np.flatnonzero(lines.plain)
    digits = lines.bytes[lines.tabs[plain, None] + np.arange(1, 5)] - 48
    four = (digits <= 9).all(axis=1)
    lines.plain[plain[~four]] = False
    plain, years = plain[four], digits[four] @ np.array([1000, 100, 10, 1])
    ids = lines.fields()[::2]
    fits = (years >= _YEAR_MIN) & (years <= _YEAR_MAX)
    bad = plain[~fits].tolist()
    late = []
    total = plain.size
    for i, line in lines.others():
        if not line.strip():
            continue
        total += 1
        fields = line.split("\t")
        ok = len(fields) == 2 and fields[0].strip()
        year = None
        if ok:
            try:
                year = int(fields[1])
            except ValueError:
                ok = False
        if ok and not _YEAR_MIN <= year <= _YEAR_MAX:
            ok = False
        if not ok:
            bad.append(i)
            continue
        late.append((i, fields[0], year))
    numbers, ids, years = _in_line_order(
        plain[fits], late, list(compress(ids, fits.tolist())), years[fits].tolist())
    # only the first valid line of an id claims it
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    if len(first) < len(ids):
        claims = np.fromiter(map(first.__getitem__, ids), np.int64, len(ids))
        claims = claims == np.arange(len(ids))
        bad.extend(numbers[~claims].tolist())
        ids, years = (list(compress(column, claims.tolist())) for column in (ids, years))
    malformed = lines.malformed("paper", bad, total)
    if not ids:
        raise IngestError(f"papers file {Path(path)} contains no usable records")
    return ParsedPapers(records=tuple(map(PaperRecord, ids, years)),
                        malformed=malformed, total_lines=total)


def _citation_fields(path) -> tuple[list, list, int]:
    """(citing ids, cited ids, malformed count) of a citations TSV, in
    line order, after the malformed-line rule."""
    lines = _Lines(_read(path, "citations"))
    fields = lines.fields()
    bad, late = [], []
    total = int(np.count_nonzero(lines.plain))
    for i, line in lines.others():
        if not line.strip():
            continue
        total += 1
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            bad.append(i)
            continue
        late.append((i, *parts))
    _, citing, cited = _in_line_order(
        np.flatnonzero(lines.plain), late, fields[::2], fields[1::2])
    return citing, cited, lines.malformed("citation", bad, total)


def parse_citations(path, known_ids) -> ParsedCitations:
    """Read a citations TSV. Edges naming unknown papers, self-citations
    and duplicates are dropped with counters; malformed lines follow the
    same 1% rule as papers."""
    numbers = count()
    known = dict(zip(known_ids, numbers))  # equal ids share a number
    citing, cited, malformed = _citation_fields(path)
    # checks in order: self-citation, unknown paper, then duplicate
    m = len(citing)
    u = np.fromiter(map(known.get, citing, repeat(-1)), np.int64, m)
    v = np.fromiter(map(known.get, cited, repeat(-1)), np.int64, m)
    same = u == v
    both_unknown = np.flatnonzero(same & (u < 0))
    same[both_unknown] = [citing[i] == cited[i] for i in both_unknown.tolist()]
    unknown = ~same & ((u < 0) | (v < 0))
    rest = np.flatnonzero(~same & ~unknown)
    # the first occurrence of an edge is kept; next(numbers) exceeds every number
    edge_keys = u[rest] * next(numbers) + v[rest]
    kept = rest[np.sort(np.unique(edge_keys, return_index=True)[1])].tolist()
    return ParsedCitations(
        edges=tuple(zip(map(citing.__getitem__, kept), map(cited.__getitem__, kept))),
        malformed=malformed, dropped_unknown=int(np.count_nonzero(unknown)),
        dropped_self=int(np.count_nonzero(same)), duplicates=rest.size - len(kept))


@dataclass(frozen=True)
class IngestResult:
    seed: SeedNetwork
    schedule: YearSchedule
    id_map: dict
    dropped_out_of_window: int
    dropped_forward: int
    dropped_same_year: int

    @property
    def counters(self) -> dict:
        return {
            "seed_nodes": self.seed.n_nodes,
            "seed_edges": self.seed.n_edges,
            "scheduled_nodes": self.schedule.total_nodes,
            "scheduled_edges": self.schedule.total_edges,
            "dropped_out_of_window": self.dropped_out_of_window,
            "dropped_forward": self.dropped_forward,
            "dropped_same_year": self.dropped_same_year,
        }


def build_seed_and_schedule(papers, citations,
                            config: IngestConfig = IngestConfig()) -> IngestResult:
    """Split parsed records into a seed network and a year schedule.

    `papers` is a sequence of PaperRecord, `citations` of (citing, cited)
    id pairs that already passed :func:`parse_citations`. Papers outside
    [seed_start, horizon] are ignored; their citations count as out of
    window.
    """
    records = list(papers)
    ids = list(map(attrgetter("id"), records))
    years = np.fromiter(map(attrgetter("year"), records), np.int64, len(records))
    window = np.flatnonzero((years >= config.seed_start) & (years <= config.horizon))
    # (year, id) order: by id, then stably by year
    by_id = np.array(sorted(window.tolist(), key=ids.__getitem__), dtype=np.int64)
    order = by_id[np.argsort(years[by_id], kind="stable")]
    years = years[order]
    n_seed = int(np.searchsorted(years, config.seed_end, side="right"))
    if n_seed == 0:
        raise IngestError(
            f"no papers fall in the seed years {config.seed_start}..{config.seed_end}; "
            "cannot build a seed network")
    ids = list(map(ids.__getitem__, order.tolist()))
    id_map = dict(zip(ids, range(len(ids))))
    # a repeated id names its last position, on every record that carries it
    node = (np.arange(len(ids)) if len(id_map) == len(ids)
            else np.fromiter(map(id_map.__getitem__, ids), np.int64, len(ids)))

    pairs = list(citations)
    u = np.fromiter(map(id_map.get, map(itemgetter(0), pairs), repeat(-1)), np.int64, len(pairs))
    v = np.fromiter(map(id_map.get, map(itemgetter(1), pairs), repeat(-1)), np.int64, len(pairs))
    outside = (u < 0) | (v < 0)
    age = years[u] - years[v]  # of the cited paper when cited
    forward = ~outside & (age < 0)
    same = ~outside & (age == 0)
    kept = ~outside & (age > 0)
    seed = kept & (u < n_seed)
    out_counts = np.bincount(u[kept & ~seed], minlength=len(ids))

    degrees = out_counts[node[n_seed:]].tolist()
    year_list, firsts = np.unique(years[n_seed:], return_index=True)
    cuts = [*firsts.tolist(), len(degrees)]
    entries = {y: degrees[a:b] for y, a, b in zip(year_list.tolist(), cuts, cuts[1:])}

    return IngestResult(
        seed=SeedNetwork(nodes=tuple(zip(node[:n_seed].tolist(), years[:n_seed].tolist())),
                         edges=tuple(zip(u[seed].tolist(), v[seed].tolist()))),
        schedule=YearSchedule(entries),
        id_map=id_map,
        dropped_out_of_window=int(np.count_nonzero(outside)),
        dropped_forward=int(np.count_nonzero(forward)),
        dropped_same_year=int(np.count_nonzero(same)),
    )
