"""Domain model: periods, taxonomy, researchers, publications, authorships.

Records are named tuples, which are immutable and cheap to build. A Corpus is
an immutable snapshot; every index is precomputed at construction time and all
later computation only reads from it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter, itemgetter

from .errors import DanglingReference, UnknownSDS, UnknownUDA, UnknownUniversity


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
        """The UDA's sorted SDS codes; the one check that a UDA exists."""
        codes = sorted(s for s, u in self.sds_to_uda.items() if u == uda)
        if not codes:
            raise UnknownUDA(f"UDA {uda} is not in the taxonomy")
        return codes

    def is_life_science(self, sds: str) -> bool:
        return sds in self.life_science_sds


Researcher = namedtuple("Researcher", "researcher_id sds university_id active_years")
Publication = namedtuple(
    "Publication", "pub_id year subject_category citations n_authors_total")
Authorship = namedtuple(
    "Authorship", "pub_id researcher_id author_position byline_university_id")
Violation = namedtuple("Violation", "kind entity message")


class Corpus:
    """Immutable container over the loaded records, with lookup indexes.

    Record tuples are sorted, by primary key first, so that all derived numbers
    are independent of input row order.
    """

    def __init__(self, taxonomy, researchers, publications, authorships, periods):
        if len(periods) != 2:
            raise ValueError("corpus requires exactly two periods (early, late)")
        if periods[0].label == periods[1].label:
            raise ValueError(f"both periods are labelled {periods[0].label}")
        self.taxonomy = taxonomy
        # a record tuple starts with its key, so sorting the tuples sorts by key
        self.researchers = tuple(sorted(researchers))
        self.publications = tuple(sorted(publications))
        self.authorships = tuple(sorted(authorships))
        self.periods = tuple(sorted(periods, key=attrgetter("start_year", "end_year")))

        self.publication_by_id = {p.pub_id: p for p in self.publications}
        self.authorships_by_pub = by_pub = {}
        for a in self.authorships:
            by_pub.setdefault(a.pub_id, []).append(a)
        # load_corpus rejects these at their earliest row; a Corpus built
        # directly is checked here and names its smallest unknown key
        unknown = self.authorships_by_pub.keys() - self.publication_by_id.keys()
        if unknown:
            raise DanglingReference(
                f"authorship references unknown pub_id {min(unknown)}")
        unknown = (set(map(itemgetter(1), self.authorships))
                   - set(map(itemgetter(0), self.researchers)))
        if unknown:
            raise DanglingReference(
                f"authorship references unknown researcher_id {min(unknown)}")
        self._university_set = {r.university_id for r in self.researchers}
        self.universities = sorted(self._university_set)
        self._units = tuple(sorted({(r.university_id, r.sds) for r in self.researchers}))

    @property
    def early(self) -> Period:
        return self.periods[0]

    @property
    def late(self) -> Period:
        return self.periods[1]

    def check_names(self, university_id=None, sds=None):
        """The one check that a university and an SDS exist; None skips one."""
        if sds is not None and sds not in self.taxonomy.sds_to_uda:
            raise UnknownSDS(f"SDS {sds} is not in the taxonomy")
        if university_id is not None and university_id not in self._university_set:
            raise UnknownUniversity(f"university {university_id} is not in the corpus")

    def check_period(self, period) -> None:
        """The one check that a period is one of the corpus's two."""
        if period not in self.periods:
            raise ValueError(f"unknown period {period.label!r}")

    def units(self):
        """Every (university_id, sds) with researchers, sorted."""
        return self._units


def presence(researcher: Researcher, period: Period, staff_mode: str = "prorata") -> float:
    """Fraction of the period the researcher counts for (pro-rata by active years)."""
    overlap = len(set(period.years).intersection(researcher.active_years))
    if overlap == 0:
        return 0.0
    if staff_mode == "headcount":
        return 1.0
    return overlap / period.length_years


# kept for perfbench's `model.staff.calls`, and test_perfbench imports it (ROADMAP item 1)
def staff(corpus: Corpus, university_id: str, sds: str, period: Period,
          staff_mode: str = "prorata") -> float:
    """Headcount of a (university, SDS) unit in a period, fractional under prorata."""
    corpus.check_names(university_id, sds)
    corpus.check_period(period)
    return math.fsum(presence(r, period, staff_mode) for r in corpus.researchers
                     if r.university_id == university_id and r.sds == sds)


def validate(corpus: Corpus) -> tuple:
    """The byline violations of a loaded corpus, as data, not exceptions.

    load_corpus checks every row and key on its own; these rules span the
    authorships of one publication. Every author_count_too_small comes first,
    in pub_id order, then the per-authorship kinds in authorship order.
    """
    counts, bylines = [], []
    for pid, group in corpus.authorships_by_pub.items():
        n = corpus.publication_by_id[pid].n_authors_total
        if n < len(group):
            counts.append(Violation("author_count_too_small", pid,
                                    f"publication {pid} lists {n} authors "
                                    f"but has {len(group)} authorship records"))
        seen = set()
        for a in group:
            pos = a.author_position
            if not 1 <= pos <= n:
                bylines.append(Violation("position_out_of_range",
                                         f"{pid}/{a.researcher_id}",
                                         f"author position {pos} outside "
                                         f"[1, {n}] on {pid}"))
            if pos in seen:
                bylines.append(Violation("duplicate_position", pid,
                                         f"position {pos} repeated on {pid}"))
            seen.add(pos)
    return tuple(counts + bylines)
