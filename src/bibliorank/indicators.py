"""Per-unit and per-researcher performance indicators.

Four measures per (university, SDS) unit and period:
  P    publications per researcher per year
  FP   author-share contributions per researcher per year
  AQ   mean standardized citation score over the unit's publications
  FSS  share-weighted standardized citation sum per researcher per year

All four are read from one UnitLedger: a single pass over the authorships
that keeps, per unit and per researcher, one (pub_id, share, standardized
score) term per authorship; each sum, FSS's share x score products too, is
taken at finish. A command builds one ledger and reads every score from it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter, mul

from .baseline import BaselineTable, build_baselines, check_basis, stratum_divisor
from .errors import NoPublications, UnknownResearcher, ZeroStaff
from .model import Authorship, Corpus, Period, Publication, check_staff_mode, presence

INDICATORS = ("P", "FP", "AQ", "FSS")
_RESEARCHER = itemgetter(1)  # an authorship's researcher_id


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


def fractional_share(authorship: Authorship, publication: Publication,
                     scheme: ShareScheme, is_life_science: bool,
                     known_bylines=None) -> float:
    """Credit share of one author on one publication, in [0, 1].

    `known_bylines` is the set of byline universities over the publication's
    corpus-resident authorships, used for the intramural fallback. The
    author position must lie in [1, n_authors_total], as validate checks.
    Only the weights' ratios matter; a tiny weight's share can round to 0.0
    beside a huge one.
    """
    n = publication.n_authors_total
    if n == 1 or not is_life_science:
        return 1.0 / n
    if known_bylines and len(set(known_bylines)) == 1:
        return 1.0 / n
    # one first, one last and n - 2 middle weights, scaled by the power of two
    # that brings the largest below 1: no sum or quotient moves, none overflows
    weights = scheme if n > 2 else (*scheme[:2], 0.0)  # a byline of two has no middle
    e = math.frexp(max(weights))[1]
    first, last, middle = (math.ldexp(w, -e) for w in weights)
    position = authorship.author_position
    weight = first if position == 1 else last if position == n else middle
    return weight / (first + last + (n - 2) * middle)


class _Tally:
    """What one unit or researcher did in one period: a (pub_id, share, std)
    term per authorship, then, once finished, the sums themselves.

    After finish, `staff`, `n_pubs` and `values` (indicator -> value, None
    where it is undefined: AQ without publications, the others without staff)
    are plain numbers, read as often as needed. math.fsum is exactly rounded,
    so the order of the terms changes no sum and equal units tie exactly.
    """
    __slots__ = ("presence", "terms", "staff", "n_pubs", "values")

    def __init__(self, presence=()):
        self.presence = list(presence)  # sums to staff
        self.terms = []                 # (pub_id, share, std) per authorship
        self.values = None              # set by finish

    def finish(self, years: int) -> "_Tally":
        """Take each sum once, at the first call; `years` is the length of the period."""
        if self.values is not None:
            return self
        pub_ids, fractions, scores = zip(*self.terms) if self.terms else ((), (), ())
        std = dict(zip(pub_ids, scores))  # a publication's terms share its score
        staff = self.staff = math.fsum(self.presence)
        n_pubs = self.n_pubs = len(std)
        per_year = staff * years
        staffed = staff > 0
        self.values = {
            "P": n_pubs / per_year if staffed else None,
            "FP": math.fsum(fractions) / per_year if staffed else None,
            "AQ": math.fsum(std.values()) / n_pubs if n_pubs else None,
            "FSS": math.fsum(map(mul, fractions, scores)) / per_year if staffed else None,
        }
        return self


def _describe(unit) -> str:
    return unit if isinstance(unit, str) else f"({unit[0]}, {unit[1]})"


class UnitLedger:
    """What every (university, SDS) unit and every researcher did in each
    period, built in one pass over the authorships.

    Expects a corpus that passes model.validate: it does not check author
    positions or author counts itself. Building it only files terms; each
    unit's and researcher's tally is finished on its first read (of the CLI
    commands only `indicators` reads researchers), and no value changes
    after that, so one ledger serves every indicator, period, rollup and rank
    list of a command. Each (UDA, period) rollup is kept in `uda_rollups`
    from its first read (aggregate.uda_scores), and each stratum's divisor
    from its first publication (baseline.stratum_divisor).

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
        codes = corpus.taxonomy.sds_list  # the SDS codes in scope
        if sds_scope is not None:
            for sds in sds_scope:
                corpus.check_names(sds=sds)
            codes = sds_scope = frozenset(sds_scope)
            researchers = [r for r in researchers if r.sds in sds_scope]
            units = [unit for unit in units if unit[1] in sds_scope]
        self.sds_scope = sds_scope  # None: every SDS
        self.fallback_events = []  # (pub_id, subject_category, year) per fallback
        self.uda_rollups = {}      # (uda, period) -> aggregate.uda_scores, on first read
        periods = corpus.periods

        # per researcher: its life-science flag and its tally in each period
        tallies = {r.researcher_id: (corpus.taxonomy.is_life_science(r.sds),
                                     [_Tally([presence(r, p, staff_mode)]) for p in periods])
                   for r in researchers}

        # stratum -> (divisor, fell_back), the one standardization memo: each
        # is found once, its errors at its first publication in a period
        strata = {}
        (_, early_start, early_end), (_, late_start, late_end) = periods
        outside = None if sds_scope is None else tallies.keys().isdisjoint
        # the walk keeps corpus.authorships order in the terms and in fallback_events;
        # the periods share no year (model.two_periods), so a publication is in one or none
        for pid, group in corpus.authorships_by_pub.items():
            if outside is not None and outside(map(_RESEARCHER, group)):
                continue  # a publication without an author in scope adds no term
            pub = corpus.publication_by_id[pid]
            _, year, category, citations, n = pub
            i = (0 if early_start <= year <= early_end
                 else 1 if late_start <= year <= late_end else None)
            if i is None:
                continue
            stratum = strata.get((category, year))
            if stratum is None:
                stratum = strata[category, year] = stratum_divisor(
                    self.baselines, category, year, basis)
            divisor, fell_back = stratum
            std = citations / divisor
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
                mine[i].terms.append((pid, share, std))

        # period -> SDS in scope -> university or researcher id -> tally, sorted by
        # id; a unit's terms are its members', each sum taken over all at once
        self._units, self._researchers = {}, {}
        for i, p in enumerate(periods):
            by_sds = self._units[p] = {s: {} for s in codes}
            mine = self._researchers[p] = {s: {} for s in by_sds}
            for u, s in units:
                by_sds[s][u] = _Tally()
            for r in researchers:
                tally = mine[r.sds][r.researcher_id] = tallies[r.researcher_id][1][i]
                unit = by_sds[r.sds][r.university_id]
                unit.presence.extend(tally.presence)
                unit.terms.extend(tally.terms)

    def _lookup(self, by_period: dict, sds: str, period: Period,
                university_id: str | None = None) -> dict:
        """id -> tally of the SDS in the period in `by_period` (self._units or
        self._researchers), the one check of every read: on a miss, the SDS
        name (and the university's, when given), then the scope, then the period."""
        try:
            return by_period[period][sds]
        except KeyError:
            self.corpus.check_names(university_id, sds)
            if self.sds_scope is not None and sds not in self.sds_scope:
                raise ValueError(f"SDS {sds} is outside the ledger's scope") from None
            self.corpus.check_period(period)
            raise

    def _score(self, unit, tally: _Tally, indicator: str, period: Period) -> IndicatorScore:
        check_indicator(indicator)
        value = tally.finish(period.length_years).values[indicator]
        if value is None:
            if indicator == "AQ":
                raise NoPublications(
                    f"{_describe(unit)} has no publications in {period.label}")
            raise ZeroStaff(f"{_describe(unit)} has no staff in {period.label}")
        return IndicatorScore(unit, indicator, period.label, value, tally.n_pubs,
                              tally.staff)

    def _staffed(self, by_period: dict, sds: str, period: Period) -> dict:
        """id -> the ledger's own tally in `by_period` (read only), sorted, of
        each one in the SDS with positive staff, finished on its first read."""
        years = period.length_years
        return {k: tally for k, tally in self._lookup(by_period, sds, period).items()
                if tally.finish(years).staff > 0}

    def staffed_universities(self, sds: str, period: Period) -> dict:
        """university_id -> unit tally of every staffed unit in the SDS (_staffed)."""
        return self._staffed(self._units, sds, period)

    def staffed_researchers(self, sds: str, period: Period) -> dict:
        """researcher_id -> tally of every staffed researcher of the SDS (_staffed)."""
        return self._staffed(self._researchers, sds, period)

    def unit_score(self, university_id: str, sds: str, indicator: str,
                   period: Period) -> IndicatorScore:
        self.corpus.check_period(period)
        tally = self._lookup(self._units, sds, period, university_id).get(university_id)
        if tally is None:  # a unit with researchers names a known university
            self.corpus.check_names(university_id)
            tally = _Tally()
        return self._score((university_id, sds), tally, indicator, period)

    def researcher_score(self, researcher_id: str, indicator: str,
                         period: Period) -> IndicatorScore:
        """Same formulas with a single researcher as the unit (staff = own presence)."""
        self.corpus.check_period(period)
        researcher = self.corpus.researcher_by_id.get(researcher_id)
        if researcher is None:
            raise UnknownResearcher(f"researcher {researcher_id} is not in the corpus")
        tally = self._lookup(self._researchers, researcher.sds, period)[researcher_id]
        return self._score(researcher_id, tally, indicator, period)


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
