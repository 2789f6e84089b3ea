"""Metamorphic relations: what the paper's definitions imply for a changed
corpus, checked against the program itself with no reference values."""
import csv
import random
import re
from collections import Counter
from dataclasses import replace
from itertools import count
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibliorank import cli
from bibliorank.aggregate import national_weighted_average, uda_scores
from bibliorank.indicators import INDICATORS, UnitLedger
from bibliorank.loader import write_corpus
from bibliorank.model import Authorship, Corpus, Publication, Taxonomy
from bibliorank.rankshift import sds_rank_list, uda_rank_list
from bibliorank.synthgen import GenConfig, make_corpus

TWIN = "+twin"  # suffix of every copied id; no generated id contains it


def twins(corpus: Corpus) -> Corpus:
    """The corpus with a copy of every university, researcher, publication
    and authorship under a fresh id; each copied byline names the twin."""
    return Corpus(
        corpus.taxonomy,
        corpus.researchers + tuple(
            r._replace(researcher_id=r.researcher_id + TWIN,
                       university_id=r.university_id + TWIN)
            for r in corpus.researchers),
        corpus.publications + tuple(p._replace(pub_id=p.pub_id + TWIN)
                                    for p in corpus.publications),
        corpus.authorships + tuple(
            a._replace(pub_id=a.pub_id + TWIN, researcher_id=a.researcher_id + TWIN,
                       byline_university_id=a.byline_university_id + TWIN)
            for a in corpus.authorships),
        corpus.periods)


def ranked(rank, ledger, scope, indicator, period, min_staff):
    """university_id -> (value, rank) of a rank list; {} when none is eligible."""
    return {e.university_id: (e.value, e.rank)
            for e in rank(ledger, scope, indicator, period, min_staff).entries}


CONFIGS = {"default": {},
           "life_science": dict(life_science_fraction=1.0, coauthorship_rate=0.8)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("staff_mode", ["prorata", "headcount"])
def test_twins_keep_every_value_and_double_every_rank(seed, config, staff_mode):
    """A stratum's median and mean are those of its multiset doubled, and
    every sum is an fsum, so every rollup and national average of the twinned
    corpus equals the original's; each twin pair ties, so a university at
    competition rank r puts both twins at rank 2r - 1."""
    corpus = make_corpus(GenConfig(seed=seed, **CONFIGS[config]))
    doubled = twins(corpus)
    ledger = UnitLedger(corpus, staff_mode=staff_mode)
    twin_ledger = UnitLedger(doubled, staff_mode=staff_mode)
    taxonomy = corpus.taxonomy
    for period in corpus.periods:
        for ind in INDICATORS:
            for scope in [None, *taxonomy.uda_list]:
                assert (national_weighted_average(twin_ledger, ind, period, scope)
                        == national_weighted_average(ledger, ind, period, scope))
        for uda in taxonomy.uda_list:
            rollups = uda_scores(twin_ledger, uda, period)
            for u, rollup in uda_scores(ledger, uda, period).items():
                for twin in (u, u + TWIN):
                    assert rollups[twin].staff == rollup.staff
                    assert ({ind: (s.value, s.covered_staff)
                             for ind, s in rollups[twin].scores.items()}
                            == {ind: (s.value, s.covered_staff)
                                for ind, s in rollup.scores.items()})
            assert len(rollups) == 2 * len(uda_scores(ledger, uda, period))
        ranked_entries = 0
        lists = [(uda_rank_list, uda) for uda in taxonomy.uda_list] + [
            (sds_rank_list, sds) for sds in taxonomy.sds_list]
        for min_staff in (1.0, 2.0, 6.0):
            for rank, scope in lists:
                for ind in INDICATORS:
                    want = {}
                    for u, (value, r) in ranked(rank, ledger, scope, ind, period,
                                                min_staff).items():
                        want[u] = want[u + TWIN] = (value, 2 * r - 1)
                    assert ranked(rank, twin_ledger, scope, ind, period,
                                  min_staff) == want
                    ranked_entries += len(want)
        assert ranked_entries  # so the rank relation is not vacuous


TABLES = {"indicators": cli.indicator_tables, "rank": cli.rank_tables,
          "compare": cli.compare_tables, "drilldown": cli.drilldown_tables}


def every_table(corpus: Corpus, staff_mode: str, min_staff: str) -> dict:
    """The tables each scoring command builds from one ledger, keyed by the
    command, and a drilldown's by its university and UDA too."""
    ledger = UnitLedger(corpus, staff_mode=staff_mode)
    argv = ["--input", "-", "--min-staff", min_staff, "--staff-mode", staff_mode]
    parser = cli.build_parser()
    out = {(command,): TABLES[command](ledger, parser.parse_args([command, *argv]))
           for command in ("indicators", "rank", "compare")}
    for u in corpus.universities:
        for uda in corpus.taxonomy.uda_list:
            args = parser.parse_args(["drilldown", *argv, "--university", u, "--uda", uda])
            out[("drilldown", u, uda)] = cli.drilldown_tables(ledger, args)
    return out


def with_irrelevant_publications(corpus: Corpus, picks) -> Corpus:
    """The corpus plus one zero-citation publication per (researcher index,
    category index, after) pick, authored by that researcher alone and dated
    in its own year outside both periods, before them or `after` them."""
    taken = {p.year for p in corpus.publications}
    taken.update(corpus.early.years, corpus.late.years)
    free = {False: (y for y in count(corpus.early.start_year, -1) if y not in taken),
            True: (y for y in count(corpus.late.end_year) if y not in taken)}
    categories = sorted({p.subject_category for p in corpus.publications})
    pubs, authorships = [], []
    for i, (r_index, c_index, after) in enumerate(picks):
        r = corpus.researchers[r_index % len(corpus.researchers)]
        pid = f"IRRELEVANT{i}"
        pubs.append(Publication(pid, next(free[after]),
                                categories[c_index % len(categories)], 0, 1))
        authorships.append(Authorship(pid, r.researcher_id, 1, r.university_id))
    return Corpus(corpus.taxonomy, corpus.researchers, corpus.publications + tuple(pubs),
                  corpus.authorships + tuple(authorships), corpus.periods)


SMALL_CONFIGS = st.builds(
    GenConfig, seed=st.integers(0, 2**16), n_universities=st.integers(2, 6),
    n_sds=st.integers(1, 5), sds_per_uda=st.integers(1, 3),
    staff_max=st.integers(1, 4), coauthorship_rate=st.sampled_from([0.0, 0.25, 0.8]),
    life_science_fraction=st.sampled_from([0.0, 0.3, 1.0]))
PICKS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans()),
                 min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(config=SMALL_CONFIGS, picks=PICKS,
       staff_mode=st.sampled_from(["prorata", "headcount"]),
       min_staff=st.sampled_from(["0", "1", "2"]))
def test_publications_outside_both_periods_change_no_table(config, picks, staff_mode,
                                                           min_staff):
    """A zero-citation publication in a year no other publication has is its
    own stratum, with baseline 0, so it moves no other stratum's divisor or
    its category's fallback; it falls in neither period, so no score sees it."""
    corpus = make_corpus(config)
    assume(corpus.researchers and corpus.publications)
    padded = with_irrelevant_publications(corpus, picks)
    assert len(padded.publications) == len(corpus.publications) + len(picks)
    assert (every_table(padded, staff_mode, min_staff)
            == every_table(corpus, staff_mode, min_staff))


@settings(max_examples=25, deadline=None)
@given(config=SMALL_CONFIGS, min_staff=st.sampled_from(["0", "1", "2"]))
def test_staff_modes_agree_when_everyone_is_present_throughout(config, min_staff):
    """With no turnover and no partial years, every researcher is active in
    every year of both periods, so a prorata presence is 1.0, a headcount's."""
    corpus = make_corpus(replace(config, turnover_rate=0.0, partial_year_rate=0.0))
    every_year = set(corpus.early.years) | set(corpus.late.years)
    assert all(r.active_years == every_year for r in corpus.researchers)
    assert (every_table(corpus, "headcount", min_staff)
            == every_table(corpus, "prorata", min_staff))


def report_files(out: Path) -> dict:
    """file name -> (provenance line, body) of every report in `out`."""
    return {p.name: tuple(p.read_text(encoding="utf-8").split("\n", 1))
            for p in sorted(out.iterdir())}


def run_commands(corpus_dir: Path, out: Path, *options) -> dict:
    """report_files of indicators, rank, compare and one drilldown."""
    common = ["--input", str(corpus_dir), "--out", str(out), "--min-staff", "1", *options]
    for argv in (["indicators"], ["rank"], ["compare"],
                 ["drilldown", "--university", "UNI001", "--uda", "UDA01"]):
        assert cli.main([*argv, *common]) == 0
    return report_files(out)


def test_cli_reports_ignore_publications_outside_both_periods(tmp_path):
    """Only the provenance line's corpus hash moves."""
    corpus = make_corpus(GenConfig(seed=4))
    write_corpus(corpus, tmp_path / "corpus")
    write_corpus(with_irrelevant_publications(corpus, [(0, 0, False), (7, 3, True),
                                                       (11, 1, True)]),
                 tmp_path / "padded")
    before = run_commands(tmp_path / "corpus", tmp_path / "out")
    after = run_commands(tmp_path / "padded", tmp_path / "padded_out")
    assert len(before) == 11 and before.keys() == after.keys()
    corpus_hash = re.compile(r"corpus=\w+ ")
    for name, (provenance, body) in before.items():
        assert after[name][1] == body, name
        assert after[name][0] != provenance
        assert corpus_hash.sub("", after[name][0]) == corpus_hash.sub("", provenance)


def test_cli_staff_modes_agree_when_everyone_is_present_throughout(tmp_path):
    """Only the provenance line's config hash moves."""
    write_corpus(make_corpus(GenConfig(seed=4, turnover_rate=0.0, partial_year_rate=0.0)),
                 tmp_path / "corpus")
    prorata = run_commands(tmp_path / "corpus", tmp_path / "prorata",
                           "--staff-mode", "prorata")
    headcount = run_commands(tmp_path / "corpus", tmp_path / "headcount",
                             "--staff-mode", "headcount")
    assert len(prorata) == 11 and prorata.keys() == headcount.keys()
    config_hash = re.compile(r"config=\w+ ")
    for name, (provenance, body) in prorata.items():
        assert headcount[name][1] == body, name
        assert headcount[name][0] != provenance
        assert config_hash.sub("", headcount[name][0]) == config_hash.sub("", provenance)


def relabel(corpus: Corpus, order) -> tuple:
    """(the corpus with every university, researcher, publication and SDS id
    renamed, the renaming: kind -> old id -> new id). `order` permutes a sorted
    list of ids, and the new ids sort in its order. UDA membership,
    life-science flags, categories, years and citations stay."""
    names = {kind: {old: f"{prefix}{k:05d}" for k, old in enumerate(order(sorted(ids)))}
             for kind, prefix, ids in (
                 ("university", "U", {r.university_id for r in corpus.researchers}
                  | {a.byline_university_id for a in corpus.authorships}),
                 ("researcher", "R", [r.researcher_id for r in corpus.researchers]),
                 ("publication", "P", [p.pub_id for p in corpus.publications]),
                 ("sds", "S", corpus.taxonomy.sds_list))}
    univ, person, pub, sds = (names[k] for k in ("university", "researcher",
                                                 "publication", "sds"))
    tax = corpus.taxonomy
    renamed = Corpus(
        Taxonomy({sds[s]: uda for s, uda in tax.sds_to_uda.items()},
                 frozenset(map(sds.get, tax.life_science_sds))),
        [r._replace(researcher_id=person[r.researcher_id], sds=sds[r.sds],
                    university_id=univ[r.university_id]) for r in corpus.researchers],
        [p._replace(pub_id=pub[p.pub_id]) for p in corpus.publications],
        [a._replace(pub_id=pub[a.pub_id], researcher_id=person[a.researcher_id],
                    byline_university_id=univ[a.byline_university_id])
         for a in corpus.authorships],
        corpus.periods)
    return renamed, names


# report column -> (the kind of id it holds, whether it joins several with ';')
ID_COLUMNS = {"university_id": ("university", False), "researcher_id": ("researcher", False),
              "sds": ("sds", False), "entries": ("university", True),
              "exits": ("university", True)}


def row_multisets(tables: dict, names=None) -> dict:
    """report -> (columns, Counter of its rows), each id cell renamed by
    `names` (as relabel's; an id it lacks, such as the `pct_changed` row
    label, stays) and each ';'-joined cell read as a set."""
    def cell(spec, value):
        if spec is None:
            return value
        kind, joined = spec
        rename = {} if names is None else names[kind]
        if joined:
            return frozenset(rename.get(v, v) for v in value.split(";") if v)
        return rename.get(value, value)

    out = {}
    for report, (columns, rows) in tables.items():
        specs = [ID_COLUMNS.get(c) for c in columns]
        out[report] = (list(columns), Counter(tuple(map(cell, specs, row)) for row in rows))
    return out


def command_tables(corpus: Corpus, university: str, uda: str, staff_mode: str,
                   min_staff: str) -> dict:
    """report -> (columns, rows) of indicators, rank, compare and the
    drilldown of one university and UDA, from one ledger."""
    ledger = UnitLedger(corpus, staff_mode=staff_mode)
    argv = ["--input", "-", "--min-staff", min_staff, "--staff-mode", staff_mode]
    parser = cli.build_parser()
    out = {}
    for command, extra in (("indicators", []), ("rank", []), ("compare", []),
                           ("drilldown", ["--university", university, "--uda", uda])):
        out.update(TABLES[command](ledger, parser.parse_args([command, *argv, *extra])))
    return out


@settings(max_examples=15, deadline=None)
@given(config=SMALL_CONFIGS, data=st.data(),
       staff_mode=st.sampled_from(["prorata", "headcount"]),
       min_staff=st.sampled_from(["0", "1", "2"]))
def test_renaming_ids_renames_every_report_row(config, data, staff_mode, min_staff):
    """Ids only name things: no value, rank or quintile depends on them, so
    each report of a relabeled corpus holds the original's rows, renamed."""
    corpus = make_corpus(config)
    assume(corpus.researchers and corpus.publications)
    renamed, names = relabel(corpus, lambda ids: data.draw(st.permutations(ids)))
    university = data.draw(st.sampled_from(corpus.universities))
    uda = data.draw(st.sampled_from(corpus.taxonomy.uda_list))
    before = command_tables(corpus, university, uda, staff_mode, min_staff)
    after = command_tables(renamed, names["university"][university], uda, staff_mode,
                           min_staff)
    assert row_multisets(after) == row_multisets(before, names)


def test_cli_reports_of_a_relabeled_corpus_hold_the_renamed_rows(tmp_path):
    """The same relation through the CLI: each report file's body, read as
    CSV, holds the original rows renamed."""
    corpus = make_corpus(GenConfig(seed=4))
    renamed, names = relabel(corpus, lambda ids: random.Random(7).sample(ids, len(ids)))
    bodies = []
    for name, c, university in (("corpus", corpus, "UNI001"),
                                ("renamed", renamed, names["university"]["UNI001"])):
        write_corpus(c, tmp_path / name)
        common = ["--input", str(tmp_path / name), "--out", str(tmp_path / f"{name}_out"),
                  "--min-staff", "1"]
        for argv in (["indicators"], ["rank"], ["compare"],
                     ["drilldown", "--university", university, "--uda", "UDA01"]):
            assert cli.main([*argv, *common]) == 0
        files = report_files(tmp_path / f"{name}_out")
        bodies.append({report: (rows[0], rows[1:]) for report, (_, body) in files.items()
                       for rows in [list(csv.reader(body.splitlines()))]})
    before, after = bodies
    assert len(before) == 11 and before.keys() == after.keys()
    assert row_multisets(after) == row_multisets(before, names)
