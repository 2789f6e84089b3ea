"""Seeded synthetic corpus generator.

Citation counts come from a negative binomial, which is skewed enough that
low-mean strata regularly land a zero median and exercise the standardization
fallback path.

A fileset is a function of the config and of the numpy release: the kind,
arguments and order of every draw from the generator are part of the output,
so reordering, batching or replacing a draw changes the bytes written. A
replacement is safe only where numpy gives the same value from the same
stream state and leaves the same state behind.

Every uniform draw, bounded integer and coin is made by one of three draws
that `_draws` builds from the bit generator's own `next_uint32` and
`next_double` (numpy's ctypes interface), skipping the Python-level
overhead of `Generator.integers` and `Generator.random`:

- `below(n)` is `int(integers(0, n))`. For n = 1 it is 0 and draws nothing.
  For 2 <= n <= 2**32 it is numpy's rule for a 32-bit range, Lemire's method
  (Lemire, "Fast random integer generation in an interval", ACM TOMACS
  2019): `m = next_uint32() * n`, and if `m % 2**32 < n`, draw again while
  `m % 2**32 < (2**32 - n) % n`; the value is `m >> 32`, and at n = 2**32
  the one draw itself. Above 2**32 numpy switches to 64-bit draws, so
  `below` calls `integers(0, n)` there.
- `bit()` is the top bit of one 32-bit draw: `integers(0, 2)` by the rule
  above, and also `random(None, float32) >= 0.5`, since a float32 from
  `random` is the top 24 bits of one 32-bit draw over 2**24.
- `random()` is `next_double()`, the function numpy's `random()` calls for
  each float64: the top 53 bits of one 64-bit draw over 2**53.

`next_uint32` hands out the two halves of a buffered 64-bit draw exactly as
numpy's own 32-bit paths do, and `next_double` leaves a buffered half
buffered, as `random()` does, so the stream and the state after are the
same. `poisson` and `negative_binomial` stay numpy calls; the two count
draws rebuilt in Python would be slower or inexact.

numpy's `choice` without replacement takes Floyd's algorithm (Bentley &
Floyd, CACM 1987) unless the population exceeds 10,000 and the sample a
fiftieth of it, which a sample of one or two never does, and each Floyd
step is one bounded draw. So

- a lone author's position, `choice(n, size=1, replace=False)`, is
  `below(n)`, Floyd's single step;
- a coauthored byline's two positions, `choice(n, size=2, replace=False)`,
  are numpy's own Floyd steps, `below(n - 1)` and then `below(n)` (which
  becomes `n - 1` if it repeats the first), followed by its shuffle's one
  swap, made when the bounded draw `[0, 2)`, `bit()`, is 0
  (`_two_positions`).

The subject category is `bit()`; a partial year's drop, a unit's staff
count and a coauthor are `below` draws; and the life-science, unit-presence,
turnover, partial-year and coauthorship rates are each met by a `random()`
draw below the rate. `tests/test_synthgen.py` checks each draw against the
numpy call it stands for, value and state after.

Records are built with `tuple.__new__`, as the loader builds them, and the
config's values and numpy's two count draws are bound once per corpus.

A generated count is refused when the loader would refuse it: a config
whose draws give a citation count or a byline longer than 2**53 raises
`InvalidConfig` after the draws and before anything is written.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from numbers import Integral, Real
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .loader import _EXACT, _not_int, _not_text, write_corpus
from .model import (Authorship, Corpus, Period, Publication, Researcher, Taxonomy,
                    two_periods)


# The corpus is built in memory, so check refuses a config that allows more
# researchers, or expects more publications, than this. The fixture shape
# (60 universities x 90 SDS, staff up to 6) allows 64,800 and 622,080.
MAX_RECORDS = 5_000_000


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_universities: int = 8
    n_sds: int = 6
    sds_per_uda: int = 3
    staff_min: int = 1
    staff_max: int = 4
    unit_presence: float = 0.7
    pubs_per_researcher_year: float = 1.2
    citation_mean: float = 2.0
    citation_dispersion: float = 0.6
    coauthor_mean: float = 2.5
    coauthorship_rate: float = 0.25
    life_science_fraction: float = 0.3
    turnover_rate: float = 0.2
    partial_year_rate: float = 0.2
    early: tuple = ("P1", 2001, 2003)
    late: tuple = ("P2", 2004, 2008)

    def check(self):
        for field in fields(self):
            kind = {"int": Integral, "float": Real}.get(field.type)  # None: a period
            value = getattr(self, field.name)
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise InvalidConfig(f"{field.name} must be {field.type}, got {value!r}")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")
        if self.n_universities < 1 or self.n_sds < 1 or self.sds_per_uda < 1:
            raise InvalidConfig("counts must be positive")
        if not (0 < self.staff_min <= self.staff_max):
            raise InvalidConfig("staff range must satisfy 0 < min <= max")
        for name in ("unit_presence", "coauthorship_rate", "life_science_fraction",
                     "turnover_rate", "partial_year_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidConfig(f"{name} must lie in [0, 1]")
        for name, zero_ok in (("pubs_per_researcher_year", False),
                              ("citation_mean", True),
                              ("citation_dispersion", False),
                              ("coauthor_mean", True)):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
                raise InvalidConfig(
                    f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")
        early, late = self._period("early"), self._period("late")
        try:
            first, _ = two_periods((early, late))
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
        if first is not early:
            raise InvalidConfig(f"early period {early.label} starts after {late.label}")
        # every seat's holder may leave and be replaced once
        researchers = self.n_universities * self.n_sds * self.staff_max * 2
        years = early.length_years + late.length_years
        publications = researchers * years * self.pubs_per_researcher_year
        if max(researchers, publications) > MAX_RECORDS:
            raise InvalidConfig(
                f"n_universities x n_sds x staff_max x 2 = {researchers} researchers, "
                f"x {years} years x pubs_per_researcher_year = {publications:.0f} "
                f"expected publications: the generator's limit is {MAX_RECORDS} of each")
        # numpy refuses a rate too large for its draw (a publication rate that
        # large is over MAX_RECORDS already). With size=0 it checks the
        # arguments and draws nothing, so a throwaway generator answers
        # before the seeded one makes its first draw.
        probe = np.random.default_rng(0)
        try:
            probe.poisson(self.coauthor_mean, size=0)
        except ValueError as exc:
            raise InvalidConfig(f"coauthor_mean {self.coauthor_mean} is too large "
                                f"for numpy's Poisson draw: {exc}") from None
        try:
            probe.negative_binomial(self.citation_dispersion, _citation_p(self), size=0)
        except ValueError as exc:
            raise InvalidConfig(
                f"citation_mean {self.citation_mean} at citation_dispersion "
                f"{self.citation_dispersion} is out of range for numpy's "
                f"negative binomial draw: {exc}") from None

    def _period(self, name: str) -> Period:
        """The `early` or `late` field as a Period the loader reads back: a text
        cell for a label (loader._not_text) and two int years that are integer
        cells (loader._not_int, so no bool), the first no later than the second."""
        value = getattr(self, name)
        try:
            label, start, end = value
        except (TypeError, ValueError):
            raise InvalidConfig(
                f"{name} must be (label, start_year, end_year), got {value!r}") from None
        if _not_text(label) or not all(isinstance(y, int) and not _not_int(y)
                                       for y in (start, end)):
            raise InvalidConfig(f"{name} must be a text label and two integer years "
                                f"in the loader's [-2**53, 2**53], got {value!r}")
        if start > end:
            raise InvalidConfig(
                f"{name} period {label}: start_year {start} > end_year {end}")
        return Period(label, start, end)


def _citation_p(config: GenConfig) -> float:
    """The negative binomial's p, for mean citation_mean at citation_dispersion."""
    return config.citation_dispersion / (config.citation_dispersion + config.citation_mean)


def _draws(rng: np.random.Generator):
    """`below(n)`, as `int(rng.integers(0, n))`, `bit()`, as
    `int(rng.integers(0, 2))`, and `random()`, as `rng.random()`: same values,
    and `rng` left in the same state (see the module docstring).

    The three read and advance `rng`'s state by its address, skipping the bit
    generator's lock: use them only while `rng` is alive and no other thread
    draws from it. `make_corpus` keeps its generator local."""
    # numpy types the functions (uint32 or double from void *)
    interface = rng.bit_generator.ctypes
    next_uint32, state = interface.next_uint32, interface.state_address
    integers = rng.integers

    def below(n: int) -> int:
        if 1 < n <= 2**32:
            m = next_uint32(state) * n
            if m & 0xFFFF_FFFF < n:
                threshold = (2**32 - n) % n
                while m & 0xFFFF_FFFF < threshold:
                    m = next_uint32(state) * n
            return m >> 32
        # n = 1 draws nothing; numpy takes 64-bit draws above 2**32 and
        # refuses n < 1
        return 0 if n == 1 else int(integers(0, n))

    def bit() -> int:
        return next_uint32(state) >> 31

    return below, bit, partial(interface.next_double, state)


def _two_positions(below, bit, n: int) -> tuple[int, int]:
    """`choice(n, size=2, replace=False)` as numpy makes it for n >= 2, from
    the `_draws` of its generator: same values, and the generator left in
    the same state."""
    first = below(n - 1)
    second = below(n)
    if second == first:
        second = n - 1
    if not bit():
        return second, first
    return first, second


def make_corpus(config: GenConfig) -> Corpus:
    """Build a corpus in memory; deterministic for a fixed config."""
    config.check()
    rng = np.random.default_rng(config.seed)
    below, bit, random = _draws(rng)
    # records are built as loader._records builds them: a named tuple's own
    # __new__ is a Python call per record
    new = tuple.__new__

    n_uda = math.ceil(config.n_sds / config.sds_per_uda)
    udas = [f"UDA{i + 1:02d}" for i in range(n_uda)]
    sds_to_uda = {}
    life = set()
    for i in range(config.n_sds):
        sds = f"SDS{i + 1:03d}"
        sds_to_uda[sds] = udas[i // config.sds_per_uda]
        if random() < config.life_science_fraction:
            life.add(sds)
    taxonomy = Taxonomy(sds_to_uda=sds_to_uda, life_science_sds=frozenset(life))

    early = Period(*config.early)
    late = Period(*config.late)
    universities = [f"UNI{i + 1:03d}" for i in range(config.n_universities)]
    categories = {uda: [f"CAT_{uda}_{k}" for k in (1, 2)] for uda in udas}

    researchers = []
    rid = 0
    unit_presence, turnover_rate = config.unit_presence, config.turnover_rate
    partial_year_rate = config.partial_year_rate
    staff_min, staff_range = config.staff_min, config.staff_max - config.staff_min + 1
    # a stayer's years, a leaver's and their replacement's
    both_years, early_years, late_years = (
        [*early.years, *late.years], [*early.years], [*late.years])

    def _active_years(years: list) -> frozenset:
        if len(years) > 1 and random() < partial_year_rate:
            drop = below(len(years))
            years = years[:drop] + years[drop + 1:]
        return frozenset(years)

    for univ in universities:
        for sds in sorted(sds_to_uda):
            if random() >= unit_presence:
                continue
            for _ in range(staff_min + below(staff_range)):
                rid += 1
                stays = random() >= turnover_rate
                researchers.append(new(Researcher, (
                    f"R{rid:05d}", sds, univ,
                    _active_years(both_years if stays else early_years))))
                if not stays:
                    rid += 1
                    researchers.append(new(Researcher, (
                        f"R{rid:05d}", sds, univ, _active_years(late_years))))

    by_unit_year = {}
    for r in researchers:
        for y in r.active_years:
            by_unit_year.setdefault((r.university_id, r.sds, y), []).append(r)

    poisson, negative_binomial = rng.poisson, rng.negative_binomial
    pub_rate, coauthor_mean = config.pubs_per_researcher_year, config.coauthor_mean
    coauthorship_rate, cited = config.coauthorship_rate, bool(config.citation_mean)
    dispersion, p_success = config.citation_dispersion, _citation_p(config)
    publications = []
    authorships = []
    pid = 0
    for r in researchers:
        author_id, sds, univ, active_years = r
        unit_categories = categories[sds_to_uda[sds]]
        for year in sorted(active_years):
            n_pubs = int(poisson(pub_rate))
            if not n_pubs:
                continue
            mates = [m.researcher_id for m in by_unit_year[(univ, sds, year)]
                     if m.researcher_id != author_id]
            for _ in range(n_pubs):
                pid += 1
                pub_id = f"PUB{pid:06d}"
                n_total = 1 + int(poisson(coauthor_mean))
                mate = None
                if mates and random() < coauthorship_rate:
                    mate = mates[below(len(mates))]
                    n_total = max(n_total, 2)
                category = unit_categories[bit()]
                citations = int(negative_binomial(dispersion, p_success)) if cited else 0
                publications.append(new(Publication, (
                    pub_id, year, category, citations, n_total)))
                # a coauthor is drawn from the same unit, so shares its university
                if mate is None:
                    # as choice(n_total, size=1, replace=False): same value, same state after
                    authorships.append(new(Authorship, (
                        pub_id, author_id, below(n_total) + 1, univ)))
                else:
                    first, second = _two_positions(below, bit, n_total)
                    authorships.append(new(Authorship, (pub_id, author_id, first + 1, univ)))
                    authorships.append(new(Authorship, (pub_id, mate, second + 1, univ)))

    # Poisson and negative binomial draws are unbounded, so no bound on the
    # means keeps every count readable; a position is within its byline
    for column, setting in (("citations", "citation_mean"),
                            ("n_authors_total", "coauthor_mean")):
        drawn = max(map(attrgetter(column), publications), default=0)
        if drawn > _EXACT:
            raise InvalidConfig(
                f"{setting} {getattr(config, setting)} drew {column} = {drawn}, "
                f"outside the loader's [-2**53, 2**53]")

    return Corpus(taxonomy, researchers, publications, authorships, (early, late))


def manifest_for(corpus: Corpus, config: GenConfig) -> dict:
    cfg = asdict(config)
    # keep the dict JSON-round-trippable: tuples come back as lists
    cfg["early"] = list(cfg["early"])
    cfg["late"] = list(cfg["late"])
    return {
        "config": cfg,
        "n_researchers": len(corpus.researchers),
        "n_publications": len(corpus.publications),
        "n_authorships": len(corpus.authorships),
        "n_universities": len(corpus.universities),
        "n_sds": len(corpus.taxonomy.sds_list),
    }


def generate(config: GenConfig, out_dir) -> dict:
    """Write the standard CSV fileset plus manifest.json; returns the manifest."""
    corpus = make_corpus(config)
    out_dir = Path(out_dir)
    write_corpus(corpus, out_dir)
    manifest = manifest_for(corpus, config)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
