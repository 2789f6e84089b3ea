"""UDA rollups, rank lists and quintiles against the oracle over the option grid.

Every combination of basis, staff mode, share scheme and staff threshold on
small generated corpora (8 universities, 3 UDAs of 2 SDS). The corpora get
authors from other universities on their bylines (`cross_scope`), so that the
life-science position weights, and with them the share scheme, decide values.
The national benchmark shape runs at default options, where the staff
threshold decides which universities are ranked.
"""
import itertools
import math
from functools import lru_cache

import pytest

from bibliorank.aggregate import uda_score
from bibliorank.baseline import build_baselines
from bibliorank.errors import NoEligibleUniversities, NoStaffInUda
from bibliorank.indicators import INDICATORS, ShareScheme, UnitLedger
from bibliorank.oracle import Oracle
from bibliorank.rankshift import DEFAULT_MIN_STAFF, assign_quintiles, uda_rank_list
from bibliorank.synthgen import GenConfig, make_corpus

from test_cli_digests import SHAPES
from test_indicators import cross_scope

SEEDS = (0, 1, 2, 3)
BASES = ("median", "mean")
STAFF_MODES = ("prorata", "headcount")
SCHEMES = {"2-2-1": ShareScheme(), "3-1-0.5": ShareScheme(3.0, 1.0, 0.5)}
MIN_STAFFS = (1.0, 2.0, 6.0)


@lru_cache(maxsize=None)
def _corpus(seed):
    return cross_scope(make_corpus(GenConfig(seed=seed, n_universities=8, n_sds=6,
                                             sds_per_uda=2, life_science_fraction=0.5)))


@lru_cache(maxsize=None)
def _scored(seed, basis, staff_mode, scheme):
    """The ledger, and the oracle's unit and UDA scores, which do not depend
    on the staff threshold."""
    corpus = _corpus(seed)
    weights = SCHEMES[scheme]
    ledger = UnitLedger(corpus, weights, build_baselines(corpus), basis, staff_mode)
    oracle = Oracle(corpus, *weights, basis=basis, staff_mode=staff_mode)
    unit = oracle.unit_scores()
    return ledger, unit, oracle.uda_scores(unit)


CASES = list(itertools.product(SEEDS, BASES, STAFF_MODES, SCHEMES, MIN_STAFFS))


@pytest.mark.parametrize("seed, basis, staff_mode, scheme, min_staff", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_uda_rollups_and_rank_lists_match_the_oracle(seed, basis, staff_mode,
                                                     scheme, min_staff):
    ledger, unit, uda = _scored(seed, basis, staff_mode, scheme)
    oracle = Oracle(ledger.corpus, *SCHEMES[scheme], basis=basis, min_staff=min_staff,
                    staff_mode=staff_mode)
    _assert_matches(ledger, oracle, unit, uda, min_staff)


# the national benchmark shape at the default staff threshold, where a
# university's staff can sit on the threshold
NATIONAL_SEEDS = [15, pytest.param(16, marks=pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2, exact staff: UNI010's early UDA02 staff is 6.0 in the "
    "program's float sum and below 6 in the oracle's"))), 17]


@pytest.mark.parametrize("seed", NATIONAL_SEEDS)
def test_national_rank_lists_at_the_default_threshold_match_the_oracle(seed):
    corpus = make_corpus(GenConfig(seed=seed, **SHAPES["national"]))
    oracle = Oracle(corpus, min_staff=DEFAULT_MIN_STAFF)
    unit = oracle.unit_scores()
    _assert_matches(UnitLedger(corpus), oracle, unit, oracle.uda_scores(unit),
                    DEFAULT_MIN_STAFF)


def _assert_matches(ledger, oracle, unit, uda, min_staff):
    """Every UDA score, rank list and quintile assignment of the ledger
    equals the oracle's, built with the same options."""
    corpus = ledger.corpus
    tables = oracle.uda_rank_tables(unit, uda)
    taxonomy = corpus.taxonomy
    for uda_name, ind, period in itertools.product(taxonomy.uda_list, INDICATORS,
                                                   corpus.periods):
        key = (uda_name, ind, period.label)
        for u in corpus.universities:
            want = uda[(u, uda_name, ind, period.label)]
            try:
                got = uda_score(ledger, u, uda_name, ind, period)
            except NoStaffInUda:
                assert want is None, (key, u)
                continue
            assert got.value == pytest.approx(want, abs=1e-9), (key, u)
            assert got.covered_staff == pytest.approx(math.fsum(
                unit.get((u, sds, "staff", period.label), 0.0)
                for sds in taxonomy.sds_in_uda(uda_name)), abs=1e-9), (key, u)
        try:
            ranked = uda_rank_list(ledger, uda_name, ind, period, min_staff)
        except NoEligibleUniversities:
            assert key not in tables, key
            continue
        want_ranks, want_quintiles = tables[key]
        assert {e.university_id: e.rank for e in ranked.entries} == want_ranks, key
        for e in ranked.entries:
            assert e.value == pytest.approx(uda[(e.university_id, uda_name, ind,
                                                 period.label)], abs=1e-9), key
        assert assign_quintiles(ranked).entries == want_quintiles, key
