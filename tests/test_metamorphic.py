"""Metamorphic relations: what the paper's definitions imply for a changed
corpus, checked against the program itself with no reference values."""
import pytest

from bibliorank.aggregate import national_weighted_average, uda_scores
from bibliorank.errors import NoEligibleUniversities
from bibliorank.indicators import INDICATORS, UnitLedger
from bibliorank.model import Corpus
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
    try:
        entries = rank(ledger, scope, indicator, period, min_staff).entries
    except NoEligibleUniversities:
        return {}
    return {e.university_id: (e.value, e.rank) for e in entries}


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
