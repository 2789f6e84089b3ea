"""Domain model: periods, taxonomy, researchers, publications, authorships.

Records are named tuples, which are immutable and cheap to build. A Corpus is
an immutable snapshot; every index is precomputed at construction time and all
later computation only reads from it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter

from .errors import UnknownSDS, UnknownUniversity


class Period(namedtuple("Period", "label start_year end_year")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.start_year > self.end_year:
            raise ValueError(f"period {self.label}: start_year > end_year")
        return self

    @property
    def length_years(self) -> int:
        return self.end_year - self.start_year + 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year


class Taxonomy(namedtuple("Taxonomy", "sds_to_uda life_science_sds")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        unknown = self.life_science_sds - set(self.sds_to_uda)
        if unknown:
            raise ValueError(f"life-science SDS codes outside taxonomy: {sorted(unknown)}")
        return self

    @property
    def sds_list(self):
        return sorted(self.sds_to_uda)

    @property
    def uda_list(self):
        return sorted(set(self.sds_to_uda.values()))

    def sds_in_uda(self, uda: str):
        return sorted(s for s, u in self.sds_to_uda.items() if u == uda)

    def is_life_science(self, sds: str) -> bool:
        return sds in self.life_science_sds


Researcher = namedtuple("Researcher", "researcher_id sds university_id active_years")
Publication = namedtuple(
    "Publication", "pub_id year subject_category citations n_authors_total")
Authorship = namedtuple(
    "Authorship", "pub_id researcher_id author_position byline_university_id")
Violation = namedtuple("Violation", "kind entity message")


class ValidationReport:
    def __init__(self, violations=None):
        self.violations = list(violations or [])

    def __bool__(self):
        return not self.violations

    def __len__(self):
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)


class Corpus:
    """Immutable container over the loaded records, with lookup indexes.

    Record tuples are sorted by primary key so that all derived numbers are
    independent of input row order.
    """

    def __init__(self, taxonomy, researchers, publications, authorships, periods):
        if len(periods) != 2:
            raise ValueError("corpus requires exactly two periods (early, late)")
        self.taxonomy = taxonomy
        self.researchers = tuple(sorted(researchers, key=attrgetter("researcher_id")))
        self.publications = tuple(sorted(publications, key=attrgetter("pub_id")))
        self.authorships = tuple(
            sorted(authorships, key=attrgetter("pub_id", "researcher_id"))
        )
        self.periods = tuple(sorted(periods, key=attrgetter("start_year", "end_year")))

        self.researcher_by_id = {r.researcher_id: r for r in self.researchers}
        self.publication_by_id = {p.pub_id: p for p in self.publications}
        self.authorships_by_pub = {}
        self.authorships_by_researcher = {}
        for a in self.authorships:
            self.authorships_by_pub.setdefault(a.pub_id, []).append(a)
            self.authorships_by_researcher.setdefault(a.researcher_id, []).append(a)
        self.universities = sorted({r.university_id for r in self.researchers})
        self._unit_researchers = {}
        for r in self.researchers:
            self._unit_researchers.setdefault((r.university_id, r.sds), []).append(r)

    @property
    def early(self) -> Period:
        return self.periods[0]

    @property
    def late(self) -> Period:
        return self.periods[1]

    def period(self, label: str) -> Period:
        for p in self.periods:
            if p.label == label:
                return p
        raise KeyError(label)

    def unit_researchers(self, university_id, sds):
        return self._unit_researchers.get((university_id, sds), [])

    def units(self):
        return sorted(self._unit_researchers)

    def universities_in_uda(self, uda):
        sds_set = set(self.taxonomy.sds_in_uda(uda))
        return sorted({u for (u, s) in self._unit_researchers if s in sds_set})


def presence(researcher: Researcher, period: Period, staff_mode: str = "prorata") -> float:
    """Fraction of the period the researcher counts for (pro-rata by active years)."""
    overlap = len(set(researcher.active_years) & set(period.years))
    if overlap == 0:
        return 0.0
    if staff_mode == "headcount":
        return 1.0
    return overlap / period.length_years


def staff(corpus: Corpus, university_id: str, sds: str, period: Period,
          staff_mode: str = "prorata") -> float:
    """Headcount of a (university, SDS) unit in a period, fractional under prorata."""
    if sds not in corpus.taxonomy.sds_to_uda:
        raise UnknownSDS(sds)
    if university_id not in corpus.universities:
        raise UnknownUniversity(university_id)
    return math.fsum(
        presence(r, period, staff_mode)
        for r in corpus.unit_researchers(university_id, sds)
    )


def validate(corpus: Corpus) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions."""
    out = []
    sds_set = set(corpus.taxonomy.sds_to_uda)

    for r in corpus.researchers:
        if r.sds not in sds_set:
            out.append(Violation("unknown_sds", r.researcher_id,
                                 f"researcher {r.researcher_id} has SDS {r.sds} not in taxonomy"))
        if not r.active_years:
            out.append(Violation("no_active_years", r.researcher_id,
                                 f"researcher {r.researcher_id} has no active years"))

    for p in corpus.publications:
        if p.citations < 0:
            out.append(Violation("negative_citations", p.pub_id,
                                 f"publication {p.pub_id} has negative citations"))
        if p.n_authors_total < 1:
            out.append(Violation("bad_author_count", p.pub_id,
                                 f"publication {p.pub_id} has n_authors_total < 1"))
        n_resident = len(corpus.authorships_by_pub.get(p.pub_id, []))
        if p.n_authors_total < n_resident:
            out.append(Violation("author_count_too_small", p.pub_id,
                                 f"publication {p.pub_id} lists {p.n_authors_total} authors "
                                 f"but has {n_resident} authorship records"))

    seen_positions = {}
    for a in corpus.authorships:
        pub = corpus.publication_by_id.get(a.pub_id)
        if pub is None:
            out.append(Violation("dangling_pub", f"{a.pub_id}/{a.researcher_id}",
                                 f"authorship references unknown publication {a.pub_id}"))
        elif not (1 <= a.author_position <= pub.n_authors_total):
            out.append(Violation("position_out_of_range", f"{a.pub_id}/{a.researcher_id}",
                                 f"author position {a.author_position} outside "
                                 f"[1, {pub.n_authors_total}] on {a.pub_id}"))
        if a.researcher_id not in corpus.researcher_by_id:
            out.append(Violation("dangling_researcher", f"{a.pub_id}/{a.researcher_id}",
                                 f"authorship references unknown researcher {a.researcher_id}"))
        key = (a.pub_id, a.author_position)
        if key in seen_positions:
            out.append(Violation("duplicate_position", a.pub_id,
                                 f"position {a.author_position} repeated on {a.pub_id}"))
        seen_positions[key] = True

    return ValidationReport(out)
