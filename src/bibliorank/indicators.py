"""Per-unit and per-researcher performance indicators.

Four measures per (university, SDS) unit and period:
  P    publications per researcher per year
  FP   author-share contributions per researcher per year
  AQ   mean standardized citation score over the unit's publications
  FSS  share-weighted standardized citation sum per researcher per year

All four are read from one UnitLedger: a single pass over the authorships
that records, per unit and per researcher, the terms each indicator sums. A
command builds one ledger and reads every score from it.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .baseline import BaselineTable, build_baselines, standardize_citations
from .errors import (NoPublications, PositionOutOfRange, UnknownSDS,
                     UnknownUniversity, ZeroStaff)
from .model import Authorship, Corpus, Period, Publication, presence

INDICATORS = ("P", "FP", "AQ", "FSS")


class ShareScheme(namedtuple("ShareScheme",
                             "first_weight last_weight middle_weight intramural_equal",
                             defaults=(2.0, 2.0, 1.0, True))):
    """Author-share weighting for life-science publication bylines.

    Position weights apply only to life-science fields; everywhere else a
    publication's credit splits equally across its authors. When every known
    byline carries the same university the split reverts to equal shares.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        weights = (self.first_weight, self.last_weight, self.middle_weight)
        if not all(0 < w < math.inf for w in weights):
            raise ValueError("share weights must be positive and finite")
        return self


# unit: (university_id, sds) or researcher_id
IndicatorScore = namedtuple("IndicatorScore", "unit indicator period value n_pubs staff")


def position_weight(position: int, n_authors: int, scheme: ShareScheme) -> float:
    if position == 1:
        return scheme.first_weight
    if position == n_authors:
        return scheme.last_weight
    return scheme.middle_weight


def fractional_share(authorship: Authorship, publication: Publication,
                     scheme: ShareScheme, is_life_science: bool,
                     known_bylines=None) -> float:
    """Credit share of one author on one publication, in (0, 1].

    `known_bylines` is the set of byline universities over the publication's
    corpus-resident authorships, used for the intramural fallback.
    """
    if authorship.pub_id != publication.pub_id:
        raise ValueError("authorship does not belong to publication")
    n = publication.n_authors_total
    if not (1 <= authorship.author_position <= n):
        raise PositionOutOfRange(
            f"position {authorship.author_position} outside [1, {n}] on {publication.pub_id}")
    if n == 1 or not is_life_science:
        return 1.0 / n
    if scheme.intramural_equal and known_bylines and len(set(known_bylines)) == 1:
        return 1.0 / n
    total = sum(position_weight(p, n, scheme) for p in range(1, n + 1))
    return position_weight(authorship.author_position, n, scheme) / total


class _Tally:
    """The terms one unit or researcher contributes to the indicators of one period."""
    __slots__ = ("presence", "pubs", "shares", "impacts")

    def __init__(self, presence=()):
        self.presence = list(presence)  # sums to staff
        self.pubs = set()               # distinct publication ids
        self.shares = []                # author share per authorship
        self.impacts = []               # share x standardized citations

    @property
    def staff(self) -> float:
        return math.fsum(self.presence)


def _describe(unit) -> str:
    return unit if isinstance(unit, str) else f"({unit[0]}, {unit[1]})"


class UnitLedger:
    """What every (university, SDS) unit and every researcher did in each
    period, built in one pass over the authorships.

    Read-only once built, so one ledger serves every indicator, period,
    rollup and rank list of a command. Indicators are ratios of math.fsum
    over the recorded terms: the result does not depend on the order of the
    terms, and equal units tie exactly.
    """

    def __init__(self, corpus: Corpus, scheme: ShareScheme = ShareScheme(),
                 baselines: BaselineTable | None = None, basis: str = "median",
                 staff_mode: str = "prorata", periods=None):
        self.corpus = corpus
        self.scheme = scheme
        self.baselines = build_baselines(corpus) if baselines is None else baselines
        self.basis = basis
        self.staff_mode = staff_mode
        self.periods = tuple(corpus.periods if periods is None else periods)
        self._std = {}             # pub_id -> standardized citation score
        self.fallback_events = []  # (pub_id, subject_category, year) per fallback
        self._universities = set(corpus.universities)
        self._sds_universities = {}
        for u, s in corpus.units():
            self._sds_universities.setdefault(s, []).append(u)
        self._units = {p: {} for p in self.periods}
        self._researchers = {p: {} for p in self.periods}

        # per researcher: its life-science flag and, per period index, the
        # (researcher tally, unit tally) pair its authorships add to
        tallies = {}
        for r in corpus.researchers:
            pairs = []
            for p in self.periods:
                own = presence(r, p, staff_mode)
                mine = self._researchers[p][r.researcher_id] = _Tally([own])
                unit = self._units[p].get((r.university_id, r.sds))
                if unit is None:
                    unit = self._units[p][(r.university_id, r.sds)] = _Tally()
                unit.presence.append(own)
                pairs.append((mine, unit))
            tallies[r.researcher_id] = (corpus.taxonomy.is_life_science(r.sds), pairs)

        # authorships_by_pub runs in corpus.authorships order, so the term
        # lists and fallback_events keep that order
        year_periods = {}  # year -> indexes of the periods containing it
        for pid, group in corpus.authorships_by_pub.items():
            known = [(a, tallies[a.researcher_id]) for a in group
                     if a.researcher_id in tallies]
            if not known:
                continue
            pub = corpus.publication_by_id[pid]
            periods = year_periods.get(pub.year)
            if periods is None:
                periods = year_periods[pub.year] = [
                    i for i, p in enumerate(self.periods) if p.contains(pub.year)]
            if not periods:
                continue
            bylines = [x.byline_university_id for x in group]
            std = None
            for a, (life, pairs) in known:
                # the share first: a bad position outranks a missing baseline
                share = fractional_share(a, pub, scheme, life, known_bylines=bylines)
                if std is None:
                    std = self._std[pid] = standardize_citations(
                        pub, self.baselines, self.basis, self.fallback_events)
                impact = share * std
                for i in periods:
                    for tally in pairs[i]:
                        tally.pubs.add(pid)
                        tally.shares.append(share)
                        tally.impacts.append(impact)

    def _unit(self, university_id: str, sds: str, period: Period) -> _Tally:
        if sds not in self.corpus.taxonomy.sds_to_uda:
            raise UnknownSDS(sds)
        if university_id not in self._universities:
            raise UnknownUniversity(university_id)
        return self._units[period].get((university_id, sds)) or _Tally()

    def _score(self, unit, tally: _Tally, indicator: str, period: Period) -> IndicatorScore:
        if indicator not in INDICATORS:
            raise ValueError(f"unknown indicator {indicator!r}")
        n_staff = tally.staff
        n_pubs = len(tally.pubs)
        if indicator == "AQ":
            if not n_pubs:
                raise NoPublications(
                    f"{_describe(unit)} has no publications in {period.label}")
            value = math.fsum(self._std[p] for p in tally.pubs) / n_pubs
        else:
            if n_staff <= 0:
                raise ZeroStaff(f"{_describe(unit)} has no staff in {period.label}")
            if indicator == "P":
                total = n_pubs
            elif indicator == "FP":
                total = math.fsum(tally.shares)
            else:
                total = math.fsum(tally.impacts)
            value = total / (n_staff * period.length_years)
        return IndicatorScore(unit, indicator, period.label, value, n_pubs, n_staff)

    def staff(self, university_id: str, sds: str, period: Period) -> float:
        """Headcount of a unit in a period, fractional under prorata."""
        return self._unit(university_id, sds, period).staff

    def uda_staff(self, university_id: str, uda: str, period: Period) -> float:
        units = self._units[period]
        return math.fsum(x for sds in self.corpus.taxonomy.sds_in_uda(uda)
                         if (university_id, sds) in units
                         for x in units[(university_id, sds)].presence)

    def staffed_universities(self, sds: str, period: Period) -> list:
        """Sorted universities whose unit in the SDS has positive staff."""
        units = self._units[period]
        return [u for u in self._sds_universities.get(sds, ())
                if units[(u, sds)].staff > 0]

    def unit_score(self, university_id: str, sds: str, indicator: str,
                   period: Period) -> IndicatorScore:
        return self._score((university_id, sds),
                           self._unit(university_id, sds, period), indicator, period)

    def researcher_score(self, researcher_id: str, indicator: str,
                         period: Period) -> IndicatorScore:
        """Same formulas with a single researcher as the unit (staff = own presence)."""
        return self._score(researcher_id, self._researchers[period][researcher_id],
                           indicator, period)


def ledger_for(ledger, corpus: Corpus, scheme: ShareScheme, baselines: BaselineTable,
               basis: str, staff_mode: str, periods=None) -> UnitLedger:
    """`ledger` when given, which must come from the same inputs; else a new one."""
    if ledger is None:
        return UnitLedger(corpus, scheme, baselines, basis, staff_mode, periods)
    if (ledger.corpus is not corpus or ledger.baselines is not baselines
            or (ledger.scheme, ledger.basis, ledger.staff_mode)
            != (scheme, basis, staff_mode)):
        raise ValueError("the ledger was built from other inputs")
    return ledger


def unit_indicator(corpus: Corpus, university_id: str, sds: str, indicator: str,
                   period: Period, scheme: ShareScheme, baselines: BaselineTable,
                   basis: str = "median", staff_mode: str = "prorata", *,
                   ledger: UnitLedger | None = None) -> IndicatorScore:
    ledger = ledger_for(ledger, corpus, scheme, baselines, basis, staff_mode, (period,))
    return ledger.unit_score(university_id, sds, indicator, period)


def researcher_indicator(corpus: Corpus, researcher_id: str, indicator: str,
                         period: Period, scheme: ShareScheme, baselines: BaselineTable,
                         basis: str = "median", staff_mode: str = "prorata", *,
                         ledger: UnitLedger | None = None) -> IndicatorScore:
    """Same formulas with a single researcher as the unit (staff = own presence)."""
    ledger = ledger_for(ledger, corpus, scheme, baselines, basis, staff_mode, (period,))
    return ledger.researcher_score(researcher_id, indicator, period)
