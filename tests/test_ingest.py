import random

import pytest

from citegrow import (
    IngestConfig,
    IngestError,
    build_seed_and_schedule,
    parse_citations,
    parse_papers,
)
from citegrow.graph import SeedNetwork, YearSchedule
from citegrow.ingest import (
    _MALFORMED_LIMIT,
    _YEAR_MAX,
    _YEAR_MIN,
    IngestResult,
    ParsedCitations,
    ParsedPapers,
    PaperRecord,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


FIVE_PAPERS = "p1\t1970\np2\t1971\np3\t1980\np4\t1985\np5\t1985\n"


class TestParsePapers:
    def test_clean_file(self, tmp_path):
        parsed = parse_papers(write(tmp_path, "p.tsv", FIVE_PAPERS))
        assert len(parsed.records) == 5
        assert parsed.malformed == 0
        assert parsed.records[0] == PaperRecord(id="p1", year=1970)

    def test_blank_lines_ignored(self, tmp_path):
        parsed = parse_papers(write(tmp_path, "p.tsv", "p1\t1970\n\n\np2\t1971\n"))
        assert len(parsed.records) == 2
        assert parsed.total_lines == 2

    def test_malformed_within_budget(self, tmp_path):
        lines = [f"p{i}\t1980" for i in range(200)] + ["broken line"]
        parsed = parse_papers(write(tmp_path, "p.tsv", "\n".join(lines) + "\n"))
        assert parsed.malformed == 1
        assert len(parsed.records) == 200

    def test_malformed_over_one_percent_aborts(self, tmp_path):
        lines = ["p1\t1970", "bad", "p2\tnot-a-year"]
        with pytest.raises(IngestError, match="malformed"):
            parse_papers(write(tmp_path, "p.tsv", "\n".join(lines) + "\n"))

    def test_duplicate_id_is_malformed(self, tmp_path):
        lines = [f"p{i}\t1980" for i in range(200)] + ["p0\t1990"]
        parsed = parse_papers(write(tmp_path, "p.tsv", "\n".join(lines) + "\n"))
        assert parsed.malformed == 1

    def test_year_out_of_range_is_malformed(self, tmp_path):
        lines = [f"p{i}\t1980" for i in range(200)] + ["px\t1492"]
        parsed = parse_papers(write(tmp_path, "p.tsv", "\n".join(lines) + "\n"))
        assert parsed.malformed == 1

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="no usable"):
            parse_papers(write(tmp_path, "p.tsv", "\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            parse_papers(tmp_path / "absent.tsv")


class TestParseCitations:
    def test_drop_counters(self, tmp_path):
        text = (
            "p2\tp1\n"      # kept
            "p2\tp1\n"      # duplicate
            "p3\tp3\n"      # self
            "p9\tp1\n"      # unknown citing
            "p2\tp9\n"      # unknown cited
        )
        parsed = parse_citations(write(tmp_path, "c.tsv", text),
                                 {"p1", "p2", "p3"})
        assert parsed.edges == (("p2", "p1"),)
        assert parsed.duplicates == 1
        assert parsed.dropped_self == 1
        assert parsed.dropped_unknown == 2

    def test_malformed_rule(self, tmp_path):
        lines = [f"a{i}\tb{i}" for i in range(300)] + ["one-field"]
        known = {f"a{i}" for i in range(300)} | {f"b{i}" for i in range(300)}
        parsed = parse_citations(write(tmp_path, "c.tsv", "\n".join(lines) + "\n"), known)
        assert parsed.malformed == 1
        assert len(parsed.edges) == 300


class TestBuildSeedAndSchedule:
    CONFIG = IngestConfig(seed_start=1960, seed_end=1975, cutoff=2000, horizon=2010)

    def build(self, extra_papers=(), citations=()):
        papers = [PaperRecord("p1", 1970), PaperRecord("p2", 1971),
                  PaperRecord("p3", 1980), PaperRecord("p4", 1985),
                  PaperRecord("p5", 1985), *extra_papers]
        return build_seed_and_schedule(papers, citations, self.CONFIG)

    def test_five_paper_fixture(self):
        result = self.build(citations=[
            ("p2", "p1"),   # inside the seed
            ("p3", "p1"),   # p3 gets out-degree 1
            ("p4", "p3"),
            ("p4", "p1"),   # p4 gets out-degree 2
            ("p4", "p5"),   # same year, dropped
            ("p1", "p4"),   # forward in time, dropped
        ])
        assert result.seed.nodes == ((0, 1970), (1, 1971))
        assert result.seed.edges == ((1, 0),)
        assert result.schedule.entries == {1980: [1], 1985: [2, 0]}
        assert result.dropped_same_year == 1
        assert result.dropped_forward == 1
        assert result.id_map == {"p1": 0, "p2": 1, "p3": 2, "p4": 3, "p5": 4}

    def test_out_of_window_papers_ignored(self):
        result = self.build(
            extra_papers=[PaperRecord("old", 1940), PaperRecord("late", 2050)],
            citations=[("p3", "old"), ("late", "p1")],
        )
        assert "old" not in result.id_map
        assert "late" not in result.id_map
        assert result.dropped_out_of_window == 2

    def test_papers_after_cutoff_still_scheduled(self):
        # papers between cutoff and horizon cite but are never classified;
        # they must still enter the schedule
        result = self.build(extra_papers=[PaperRecord("p6", 2005)],
                            citations=[("p6", "p1")])
        assert result.schedule.entries[2005] == [1]

    def test_ids_dense_and_sorted_by_year_then_id(self):
        result = self.build()
        assert list(result.id_map.values()) == sorted(result.id_map.values())
        years = {pid: y for pid, y in
                 [("p1", 1970), ("p2", 1971), ("p3", 1980), ("p4", 1985), ("p5", 1985)]}
        ordered = sorted(result.id_map, key=lambda pid: result.id_map[pid])
        assert ordered == sorted(ordered, key=lambda pid: (years[pid], pid))

    def test_no_seed_papers_rejected(self):
        with pytest.raises(IngestError, match="seed"):
            build_seed_and_schedule([PaperRecord("p1", 1990)], [], self.CONFIG)

    def test_config_ordering_validated(self):
        with pytest.raises(Exception):
            IngestConfig(seed_start=1980, seed_end=1975, cutoff=2000, horizon=2010)
        with pytest.raises(Exception):
            IngestConfig(seed_start=1960, seed_end=1975, cutoff=2011, horizon=2010)


def pad_papers(lo, hi):
    return "".join(f"pad{i:03d}\t{1800 + i % 150}\n" for i in range(lo, hi))


def pad_citations(lo, hi):
    return "".join(f"pad{i:03d}\tpad{(7 * i + 1) % 900:03d}\n" for i in range(lo, hi))


# One of each kind of line ingest must tell apart, in the middle of a file.
# Lone "\r" and "\r\n" end lines like "\n"; blank lines count for line
# numbers only.
ODD_PAPERS = (
    "a1\t1965\r\n"          # 451
    "a2\t1970\r"            # 452
    "   \n"                 # 453 whitespace only
    "\t\n"                  # 454 whitespace only
    "é1\t1972\n"            # 455 non-ASCII id
    "b1\t 1990\n"           # 456 int() takes the space
    "b2\t+1990\n"           # 457 ... a sign
    "b3\t1_990\n"           # 458 ... an underscore
    "b4\t١٩٩٠\n"            # 459 ... and non-ASCII digits
    "b5\t19900\n"           # 460 out of range
    "b6\t1492\n"            # 461 out of range
    "dup\t19x0\n"           # 462 not a year: does not claim "dup"
    "dup\t1980\n"           # 463 claims "dup"
    "dup\t1985\n"           # 464 duplicate
    "xt\t1980\textra\n"     # 465 extra tab
    "\t1980\n"              # 466 empty id
    "ey\t\n"                # 467 empty year
    "c1\t2005\n"            # 468
    "late\t2050\n"          # 469 beyond the horizon
    " sp\t1981\n"           # 470 the id keeps its space
    "pad005\t1999\n"        # 471 duplicate of a padding line
)

ODD_CITATIONS = (
    "a2\ta1\r\n"            # 451 seed edge
    "é1\ta1\r"              # 452 seed edge, non-ASCII
    "  \n"                  # 453 whitespace only
    "b1\ta2\n"              # 454
    "b1\ta2\n"              # 455 duplicate
    "b2\tb2\n"              # 456 self-citation
    "b2\tnobody\n"          # 457 unknown
    "ghost\tghost\n"        # 458 self-citation comes before unknown
    "b2\té1\n"              # 459
    "b2\té1\n"              # 460 duplicate of a non-ASCII edge
    "a1\tb1\n"              # 461 forward
    "b1\tb3\n"              # 462 same year
    "a1\tlate\n"            # 463 out of window
    "one-field\n"           # 464 malformed
    "x\ty\tz\n"             # 465 malformed: extra tab
    "\tb1\n"                # 466 malformed: empty field
    "b1\t \n"               # 467 malformed: blank field
    "c1\tdup\n"             # 468
    "c1\t sp\n"             # 469
    "c1\tb4\n"              # 470
    "dup\ta1\n"             # 471
    "b5\ta1\n"              # 472 b5 was malformed, so unknown
)


class TestOddLines:
    """Literal outputs of ingest on a file holding every kind of line it
    must tell apart, padded with plain lines so it stays under 1%."""

    def files(self, tmp_path, pad=450):
        ppath, cpath = tmp_path / "papers.tsv", tmp_path / "citations.tsv"
        ppath.write_bytes((pad_papers(0, pad) + ODD_PAPERS + pad_papers(pad, 2 * pad)
                           + "z9\t1999").encode("utf-8"))
        cpath.write_bytes((pad_citations(0, pad) + ODD_CITATIONS
                           + pad_citations(pad, 2 * pad) + "z9\tc1").encode("utf-8"))
        return ppath, cpath

    def test_papers(self, tmp_path):
        parsed = parse_papers(self.files(tmp_path)[0])
        pads = [PaperRecord(f"pad{i:03d}", 1800 + i % 150) for i in range(900)]
        odd = [PaperRecord("a1", 1965), PaperRecord("a2", 1970), PaperRecord("é1", 1972),
               PaperRecord("b1", 1990), PaperRecord("b2", 1990), PaperRecord("b3", 1990),
               PaperRecord("b4", 1990), PaperRecord("dup", 1980), PaperRecord("c1", 2005),
               PaperRecord("late", 2050), PaperRecord(" sp", 1981)]
        assert parsed.records == (*pads[:450], *odd, *pads[450:], PaperRecord("z9", 1999))
        assert (parsed.malformed, parsed.total_lines) == (8, 920)

    def test_citations_and_build(self, tmp_path):
        ppath, cpath = self.files(tmp_path)
        papers = parse_papers(ppath)
        parsed = parse_citations(cpath, [r.id for r in papers.records])
        pads = [(f"pad{i:03d}", f"pad{(7 * i + 1) % 900:03d}") for i in range(900)]
        odd = [("a2", "a1"), ("é1", "a1"), ("b1", "a2"), ("b2", "é1"), ("a1", "b1"),
               ("b1", "b3"), ("a1", "late"), ("c1", "dup"), ("c1", " sp"), ("c1", "b4"),
               ("dup", "a1")]
        assert parsed.edges == (*pads[:450], *odd, *pads[450:], ("z9", "c1"))
        assert (parsed.malformed, parsed.dropped_unknown, parsed.dropped_self,
                parsed.duplicates) == (4, 2, 2, 2)

        result = build_seed_and_schedule(papers.records, parsed.edges, IngestConfig())
        assert result.seed.nodes == ((0, 1965), (1, 1970), (2, 1972))
        assert result.seed.edges == ((1, 0), (2, 0))
        assert result.schedule.entries == {1980: [1], 1981: [0], 1990: [1, 1, 0, 0],
                                           1999: [0], 2005: [3]}
        assert result.id_map == {"a1": 0, "a2": 1, "é1": 2, "dup": 3, " sp": 4, "b1": 5,
                                 "b2": 6, "b3": 7, "b4": 8, "z9": 9, "c1": 10}
        assert result.counters == {
            "seed_nodes": 3, "seed_edges": 2, "scheduled_nodes": 8, "scheduled_edges": 6,
            "dropped_out_of_window": 901, "dropped_forward": 2, "dropped_same_year": 1}

    def test_over_one_percent_names_the_first_five(self, tmp_path):
        ppath, cpath = self.files(tmp_path, pad=10)
        with pytest.raises(IngestError) as err:
            parse_papers(ppath)
        assert str(err.value) == (
            "8 of 40 paper lines are malformed (> 1%); first offenders: "
            "line 20: 'b5\\t19900'; line 21: 'b6\\t1492'; line 22: 'dup\\t19x0'; "
            "line 24: 'dup\\t1985'; line 25: 'xt\\t1980\\textra'")
        (tmp_path / "full").mkdir()
        known = [r.id for r in parse_papers(self.files(tmp_path / "full")[0]).records]
        with pytest.raises(IngestError) as err:
            parse_citations(cpath, known)
        assert str(err.value) == (
            "4 of 42 citation lines are malformed (> 1%); first offenders: "
            "line 24: 'one-field'; line 25: 'x\\ty\\tz'; line 26: '\\tb1'; line 27: 'b1\\t '")


# The line-at-a-time ingest that the whole-buffer one replaced, kept as the
# reference it must agree with on every input.

def _loop_malformed(kind, malformed, total, examples):
    if total and malformed / total > _MALFORMED_LIMIT:
        raise IngestError(f"{malformed} of {total} {kind} lines are malformed (> 1%); "
                          f"first offenders: {'; '.join(examples[:5])}")


def loop_parse_papers(path):
    records, seen, examples = [], set(), []
    malformed = total = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
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
            if ok and fields[0] in seen:
                ok = False
            if not ok:
                malformed += 1
                if len(examples) < 5:
                    examples.append(f"line {lineno}: {line[:60]!r}")
                continue
            seen.add(fields[0])
            records.append(PaperRecord(id=fields[0], year=year))
    _loop_malformed("paper", malformed, total, examples)
    if not records:
        raise IngestError(f"papers file {path} contains no usable records")
    return ParsedPapers(records=tuple(records), malformed=malformed, total_lines=total)


def loop_parse_citations(path, known_ids):
    known = set(known_ids)
    edges, seen, examples = [], set(), []
    malformed = dropped_unknown = dropped_self = duplicates = total = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            total += 1
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
                malformed += 1
                if len(examples) < 5:
                    examples.append(f"line {lineno}: {line[:60]!r}")
                continue
            citing, cited = fields
            if citing == cited:
                dropped_self += 1
            elif citing not in known or cited not in known:
                dropped_unknown += 1
            elif (citing, cited) in seen:
                duplicates += 1
            else:
                seen.add((citing, cited))
                edges.append((citing, cited))
    _loop_malformed("citation", malformed, total, examples)
    return ParsedCitations(edges=tuple(edges), malformed=malformed,
                           dropped_unknown=dropped_unknown, dropped_self=dropped_self,
                           duplicates=duplicates)


def loop_build(papers, citations, config):
    in_window = [r for r in papers if config.seed_start <= r.year <= config.horizon]
    in_window.sort(key=lambda r: (r.year, r.id))
    if not any(r.year <= config.seed_end for r in in_window):
        raise IngestError(
            f"no papers fall in the seed years {config.seed_start}..{config.seed_end}; "
            "cannot build a seed network")
    id_map = {r.id: idx for idx, r in enumerate(in_window)}
    year_of = {r.id: r.year for r in in_window}
    seed_nodes = [(id_map[r.id], r.year) for r in in_window if r.year <= config.seed_end]
    seed_edges = []
    out_counts = {r.id: 0 for r in in_window if r.year > config.seed_end}
    dropped_window = dropped_forward = dropped_same = 0
    for citing, cited in citations:
        if citing not in id_map or cited not in id_map:
            dropped_window += 1
            continue
        yc, yd = year_of[citing], year_of[cited]
        if yd > yc:
            dropped_forward += 1
        elif yd == yc:
            dropped_same += 1
        elif yc <= config.seed_end:
            seed_edges.append((id_map[citing], id_map[cited]))
        else:
            out_counts[citing] += 1
    entries = {}
    for r in in_window:
        if r.year > config.seed_end:
            entries.setdefault(r.year, []).append(out_counts[r.id])
    return IngestResult(seed=SeedNetwork(nodes=tuple(seed_nodes), edges=tuple(seed_edges)),
                        schedule=YearSchedule(entries), id_map=id_map,
                        dropped_out_of_window=dropped_window, dropped_forward=dropped_forward,
                        dropped_same_year=dropped_same)


def outcome(call, *args):
    try:
        return call(*args)
    except IngestError as exc:
        return str(exc)


# fragments of odd lines: line ends, whitespace that str.strip() removes,
# non-ASCII text and year forms int() accepts
FRAGMENTS = ["a1", "b2", "é", "\t", "\n", "\r", "\r\n", " ", "\x0c", "\x1c", "\xa0",
             "\x85", "\x00", "\x7f", "19", "1990", "+", "_", "-", "١٩٩٠"]
IDS = ["a", "b", "c", "é", "p"]


def random_tsv(rng, lines, odd_share, second):
    out = []
    for _ in range(lines):
        if rng.random() < odd_share:
            out.append("".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 6))))
        else:
            out.append(f"{rng.choice(IDS)}{rng.randint(0, 40)}\t{second(rng)}\n")
    return "".join(out)


class TestAgainstLineLoop:
    """Random files with odd lines among plain ones give the same records,
    edges, counters, messages, seed and schedule as the line loop."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_files(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "input.tsv"
        config = IngestConfig(seed_start=1960, seed_end=1975, cutoff=2000, horizon=2010)
        years = [1492, 1960, 1965, 1970, 1975, 1976, 1990, 2010, 2011, 2050, 19900]
        for _ in range(60):
            lines, odd_share = rng.choice([1, 5, 40, 300]), rng.choice([0.0, 0.003, 0.2])
            path.write_bytes(random_tsv(rng, lines, odd_share,
                                        lambda r: r.choice(years)).encode("utf-8"))
            papers = outcome(parse_papers, path)
            assert papers == outcome(loop_parse_papers, path)
            known = [f"{c}{i}" for c in IDS for i in range(0, 40, 3)] + ["a0", "é1"]
            path.write_bytes(random_tsv(rng, lines, odd_share,
                                        lambda r: f"{r.choice(IDS)}{r.randint(0, 40)}"
                                        ).encode("utf-8"))
            citations = outcome(parse_citations, path, known)
            assert citations == outcome(loop_parse_citations, path, known)
            if isinstance(papers, str) or isinstance(citations, str):
                continue
            # repeated ids reach the build only through the library call
            records = [*papers.records, *rng.sample(papers.records, min(3, len(papers.records)))]
            built = outcome(build_seed_and_schedule, iter(records), iter(citations.edges), config)
            expected = outcome(loop_build, records, citations.edges, config)
            if isinstance(expected, str):
                assert built == expected
            else:
                assert (built.seed, built.schedule, built.id_map, built.counters) == (
                    expected.seed, expected.schedule, expected.id_map, expected.counters)
