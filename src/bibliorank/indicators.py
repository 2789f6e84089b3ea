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

from .baseline import BaselineTable, build_baselines, check_basis, stratum_divisor
from .errors import NoPublications, UnknownResearcher, ZeroStaff
from .model import Authorship, Corpus, Period, Publication, check_staff_mode, presence

INDICATORS = ("P", "FP", "AQ", "FSS")


class ShareScheme(namedtuple("ShareScheme", "first_weight last_weight middle_weight",
                             defaults=(2.0, 2.0, 1.0))):
    """Author-share position weights for life-science publication bylines.

    Position weights apply only to life-science fields; everywhere else a
    publication's credit splits equally across its authors. fractional_share
    also splits equally when every known byline carries the same university.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        weights = (self.first_weight, self.last_weight, self.middle_weight)
        if not all(0 < w < math.inf for w in weights):
            raise ValueError("share weights must be positive and finite")
        return self


def check_indicator(indicator: str) -> None:
    if indicator not in INDICATORS:
        raise ValueError(f"unknown indicator {indicator!r}")


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
    corpus-resident authorships, used for the intramural fallback. The
    author position must lie in [1, n_authors_total], as validate checks.
    """
    n = publication.n_authors_total
    if n == 1 or not is_life_science:
        return 1.0 / n
    if known_bylines and len(set(known_bylines)) == 1:
        return 1.0 / n
    # one first, one last and n - 2 middle weights
    total = scheme.first_weight + scheme.last_weight + (n - 2) * scheme.middle_weight
    return position_weight(authorship.author_position, n, scheme) / total


class _Tally:
    """What one unit or researcher did in one period: the terms its indicators
    sum, then, once finished, the sums themselves.

    After finish, `staff`, `n_pubs` and `values` (indicator -> value, None
    where it is undefined: AQ without publications, the others without staff)
    are plain numbers, read as often as needed. math.fsum is exactly rounded,
    so the order of the terms changes no sum and equal units tie exactly.
    """
    __slots__ = ("presence", "pids", "shares", "impacts", "staff", "n_pubs", "values")

    def __init__(self, presence=()):
        self.presence = list(presence)  # sums to staff
        self.pids = []                  # publication id per authorship
        self.shares = []                # author share per authorship
        self.impacts = []               # share x standardized citations
        self.values = None              # set by finish

    def finish(self, std: dict, years: int) -> "_Tally":
        """Take each sum once, at the first call; `std` maps pub_id to its
        standardized citation score and `years` is the length of the period."""
        if self.values is not None:
            return self
        pubs = set(self.pids)
        staff = self.staff = math.fsum(self.presence)
        n_pubs = self.n_pubs = len(pubs)
        per_year = staff * years
        staffed = staff > 0
        self.values = {
            "P": n_pubs / per_year if staffed else None,
            "FP": math.fsum(self.shares) / per_year if staffed else None,
            "AQ": math.fsum(map(std.__getitem__, pubs)) / n_pubs if n_pubs else None,
            "FSS": math.fsum(self.impacts) / per_year if staffed else None,
        }
        return self


def _describe(unit) -> str:
    return unit if isinstance(unit, str) else f"({unit[0]}, {unit[1]})"


class UnitLedger:
    """What every (university, SDS) unit and every researcher did in each
    period, built in one pass over the authorships.

    Expects a corpus that passes model.validate: it does not check author
    positions or author counts itself. Each unit's tally is finished once,
    when the ledger is built, and each researcher's the first time it is
    read: of the CLI commands only `indicators` reads researchers. No value
    changes after that, so one ledger serves every indicator, period, rollup
    and rank list of a command. Each (UDA, period) rollup is kept in
    `uda_rollups` from its first read (aggregate.uda_scores).

    `sds_scope`, when given, limits the ledger to the researchers of those
    SDS codes, for a caller that reads nothing else (`drilldown` reads one
    UDA). Baselines still come from every publication and a share from the
    publication's whole byline, so every value in scope equals the
    whole-corpus ledger's; only publications with an author in scope are
    standardized, so `fallback_events` lists only theirs. A scoped ledger
    asked about an SDS or a researcher outside its scope raises ValueError.
    """

    def __init__(self, corpus: Corpus, scheme: ShareScheme = ShareScheme(),
                 baselines: BaselineTable | None = None, basis: str = "median",
                 staff_mode: str = "prorata", *, sds_scope=None):
        check_basis(basis)
        check_staff_mode(staff_mode)
        self.corpus = corpus
        self.scheme = scheme
        self.baselines = build_baselines(corpus) if baselines is None else baselines
        self.basis = basis
        self.staff_mode = staff_mode
        researchers, units = corpus.researchers, corpus.units()
        if sds_scope is not None:
            for sds in sds_scope:
                corpus.check_names(sds=sds)
            sds_scope = frozenset(sds_scope)
            researchers = [r for r in researchers if r.sds in sds_scope]
            units = [unit for unit in units if unit[1] in sds_scope]
        self.sds_scope = sds_scope  # None: every SDS
        self._std = {}             # pub_id -> standardized citation score
        self.fallback_events = []  # (pub_id, subject_category, year) per fallback
        self.uda_rollups = {}      # (uda, period) -> aggregate.uda_scores, on first read
        self._sds_universities, self._sds_researchers = {}, {}
        for u, s in units:
            self._sds_universities.setdefault(s, []).append(u)
        for r in researchers:
            self._sds_researchers.setdefault(r.sds, []).append(r.researcher_id)
        periods = corpus.periods

        # per researcher: its life-science flag and its tally in each period
        tallies = {r.researcher_id: (corpus.taxonomy.is_life_science(r.sds),
                                     [_Tally([presence(r, p, staff_mode)]) for p in periods])
                   for r in researchers}

        # stratum -> (divisor, fell_back), found once (stratum_divisor); its
        # errors come at the stratum's first publication in a period
        strata, fallbacks = {}, {}
        # authorships_by_pub runs in corpus.authorships order, so the term
        # lists and fallback_events keep that order
        groups = corpus.authorships_by_pub.items()
        if sds_scope is not None:
            # a publication without an author in scope adds no term
            pids = {a[0] for a in corpus.authorships if a[1] in tallies}
            groups = [(pid, group) for pid, group in groups if pid in pids]
        year_periods = {}  # year -> indexes of the periods containing it
        for pid, group in groups:
            pub = corpus.publication_by_id[pid]
            _, year, category, citations, n = pub
            in_periods = year_periods.get(year)
            if in_periods is None:
                in_periods = year_periods[year] = [
                    i for i, p in enumerate(periods) if p.contains(year)]
            if not in_periods:
                continue
            stratum = strata.get((category, year))
            if stratum is None:
                stratum = strata[category, year] = stratum_divisor(
                    self.baselines, category, year, basis, fallbacks)
            divisor, fell_back = stratum
            std = self._std[pid] = citations / divisor
            if fell_back and citations:
                self.fallback_events.append((pid, category, year))
            # only a life-science author on a byline of several universities
            # has a weighted share; every author of the group counts for that
            bylines = n > 1 and len(group) > 1 and {a[3] for a in group}
            weighted = bylines and len(bylines) > 1
            for a in group:
                entry = tallies.get(a[1])
                if entry is None:
                    continue  # an author outside the scope
                life, mine = entry
                share = (fractional_share(a, pub, scheme, life, known_bylines=bylines)
                         if weighted and life else 1.0 / n)
                impact = share * std
                for i in in_periods:
                    tally = mine[i]
                    tally.pids.append(pid)
                    tally.shares.append(share)
                    tally.impacts.append(impact)

        # each unit's terms are its members' terms, and each sum is taken
        # over all of them at once
        self._researchers, self._units = {}, {}  # period -> id or unit -> tally
        for i, p in enumerate(periods):
            mine = self._researchers[p] = {rid: t[i] for rid, (_, t) in tallies.items()}
            unit_tallies = self._units[p] = {unit: _Tally() for unit in units}
            for r in researchers:
                tally = mine[r.researcher_id]
                unit = unit_tallies[(r.university_id, r.sds)]
                unit.presence.extend(tally.presence)
                unit.pids.extend(tally.pids)
                unit.shares.extend(tally.shares)
                unit.impacts.extend(tally.impacts)
            for tally in unit_tallies.values():
                tally.finish(self._std, p.length_years)

    def _check_scope(self, sds: str) -> None:
        """A scoped ledger has no tally of an SDS outside its scope, not even
        an empty one: asking for one raises."""
        if self.sds_scope is not None and sds not in self.sds_scope:
            raise ValueError(f"SDS {sds} is outside the ledger's scope")

    def _tallies(self, by_period: dict, period: Period, sds: str | None = None) -> dict:
        """The period's tallies in `by_period` (self._units or self._researchers),
        once the SDS, when given, and the period pass their checks."""
        if sds is not None:
            self.corpus.check_names(sds=sds)
            self._check_scope(sds)
        self.corpus.check_period(period)
        return by_period[period]

    def _unit(self, university_id: str, sds: str, period: Period) -> _Tally:
        tally = self._tallies(self._units, period).get((university_id, sds))
        if tally is None:
            # a unit with researchers names a known university and SDS
            self.corpus.check_names(university_id, sds)
            self._check_scope(sds)
            tally = _Tally().finish(self._std, period.length_years)
        return tally

    def _score(self, unit, tally: _Tally, indicator: str, period: Period) -> IndicatorScore:
        check_indicator(indicator)
        value = tally.values[indicator]
        if value is None:
            if indicator == "AQ":
                raise NoPublications(
                    f"{_describe(unit)} has no publications in {period.label}")
            raise ZeroStaff(f"{_describe(unit)} has no staff in {period.label}")
        return IndicatorScore(unit, indicator, period.label, value, tally.n_pubs,
                              tally.staff)

    def staffed_universities(self, sds: str, period: Period) -> dict:
        """university_id -> the ledger's own finished unit tally (read only),
        sorted, of every unit in the SDS with positive staff."""
        units = self._tallies(self._units, period, sds)
        return {u: tally for u in self._sds_universities.get(sds, ())
                if (tally := units[(u, sds)]).staff > 0}

    def staffed_researchers(self, sds: str, period: Period) -> dict:
        """researcher_id -> the ledger's own researcher tally (read only),
        sorted, of every researcher of the SDS with positive staff; each is
        finished on its first read."""
        mine, years = self._tallies(self._researchers, period, sds), period.length_years
        return {rid: tally for rid in self._sds_researchers.get(sds, ())
                if (tally := mine[rid].finish(self._std, years)).staff > 0}

    def unit_score(self, university_id: str, sds: str, indicator: str,
                   period: Period) -> IndicatorScore:
        return self._score((university_id, sds),
                           self._unit(university_id, sds, period), indicator, period)

    def _researcher(self, researcher_id: str, period: Period) -> _Tally:
        tally = self._tallies(self._researchers, period).get(researcher_id)
        if tally is None:
            for r in self.corpus.researchers:  # a known researcher outside the scope?
                if r.researcher_id == researcher_id:
                    self._check_scope(r.sds)
            raise UnknownResearcher(f"researcher {researcher_id} is not in the corpus")
        return tally.finish(self._std, period.length_years)

    def researcher_score(self, researcher_id: str, indicator: str,
                         period: Period) -> IndicatorScore:
        """Same formulas with a single researcher as the unit (staff = own presence)."""
        return self._score(researcher_id, self._researcher(researcher_id, period),
                           indicator, period)

    def researcher_rows(self, researcher_id: str, period: Period) -> list:
        """(indicator, value, n_pubs, staff) of every indicator of a researcher
        on staff in the period, (indicator, None, 0, None) where the value is
        undefined (AQ without publications); no rows for one not on staff."""
        tally = self._researcher(researcher_id, period)
        if tally.staff <= 0:
            return []
        return [(ind, None, 0, None) if (value := tally.values[ind]) is None
                else (ind, value, tally.n_pubs, tally.staff) for ind in INDICATORS]


def ledger_for(ledger, corpus: Corpus, scheme: ShareScheme, baselines: BaselineTable,
               basis: str, staff_mode: str) -> UnitLedger:
    """`ledger` when given, which must come from the same inputs; else a new one."""
    if ledger is None:
        return UnitLedger(corpus, scheme, baselines, basis, staff_mode)
    if (ledger.corpus is not corpus or ledger.baselines is not baselines
            or (ledger.scheme, ledger.basis, ledger.staff_mode)
            != (scheme, basis, staff_mode)):
        raise ValueError("the ledger was built from other inputs")
    return ledger


def unit_indicator(corpus: Corpus, university_id: str, sds: str, indicator: str,
                   period: Period, scheme: ShareScheme, baselines: BaselineTable,
                   basis: str = "median", staff_mode: str = "prorata", *,
                   ledger: UnitLedger | None = None) -> IndicatorScore:
    ledger = ledger_for(ledger, corpus, scheme, baselines, basis, staff_mode)
    return ledger.unit_score(university_id, sds, indicator, period)


# kept for perfbench's `indicators.researcher_indicator` span (ROADMAP item 1)
def researcher_indicator(corpus: Corpus, researcher_id: str, indicator: str,
                         period: Period, scheme: ShareScheme, baselines: BaselineTable,
                         basis: str = "median", staff_mode: str = "prorata", *,
                         ledger: UnitLedger | None = None) -> IndicatorScore:
    """Same formulas with a single researcher as the unit (staff = own presence)."""
    ledger = ledger_for(ledger, corpus, scheme, baselines, basis, staff_mode)
    return ledger.researcher_score(researcher_id, indicator, period)
