"""Seeded synthetic corpus generator.

Citation counts come from a negative binomial, which is skewed enough that
low-mean strata regularly land a zero median and exercise the standardization
fallback path.

A fileset is a function of the config and of the numpy release: the kind,
arguments and order of every draw from the generator are part of the output,
so reordering, batching or replacing a draw changes the bytes written. A
replacement is safe only where numpy gives the same value from the same
stream state and leaves the same state behind. numpy's `choice` without
replacement takes Floyd's algorithm (Bentley & Floyd, CACM 1987) unless the
population exceeds 10,000 and the sample a fiftieth of it, which a sample of
one or two never does, and each Floyd step is one bounded draw by Lemire's
method (Lemire, ACM TOMACS 2019). So three draws are made by cheaper calls
that numpy answers with the same values and state:

- a lone author's position, `choice(n, size=1, replace=False)`, is
  `integers(0, n)`, Floyd's single step;
- a coauthored byline's two positions, `choice(n, size=2, replace=False)`,
  are numpy's own Floyd steps, `integers(0, n - 1)` and then `integers(0, n)`
  (which becomes `n - 1` if it repeats the first), followed by its shuffle's
  one swap, made when the bounded draw `[0, 2)` is 0 (`_two_positions`);
- a subject category, `integers(0, 2)`, is `random(None, float32) >= 0.5`.

A bounded draw over `[0, 2)` by Lemire's method is the top bit of one 32-bit
draw, and a `float32` from `random` is the top 24 bits of one 32-bit draw
over 2**24, so it is at least 0.5 exactly when that top bit is set. Both
consume one 32-bit draw, from the same half-word buffer. Over two positions,
Floyd's first step has one value to choose from and draws nothing, and
neither does `integers(0, 1)`.
`tests/test_synthgen.py` checks each replacement against the call it stands
for, value and state after.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .loader import write_corpus
from .model import Authorship, Corpus, Period, Publication, Researcher, Taxonomy


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
        # every seat's holder may leave and be replaced once
        researchers = self.n_universities * self.n_sds * self.staff_max * 2
        years = Period(*self.early).length_years + Period(*self.late).length_years
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


def _citation_p(config: GenConfig) -> float:
    """The negative binomial's p, for mean citation_mean at citation_dispersion."""
    return config.citation_dispersion / (config.citation_dispersion + config.citation_mean)


def _two_positions(integers, random, n: int) -> tuple[int, int]:
    """`choice(n, size=2, replace=False)` as numpy makes it for n >= 2, from
    the bound `integers` and `random` of one generator: same values, and the
    generator left in the same state."""
    first = int(integers(0, n - 1))
    second = int(integers(0, n))
    if second == first:
        second = n - 1
    if random(None, np.float32) < 0.5:
        return second, first
    return first, second


def make_corpus(config: GenConfig) -> Corpus:
    """Build a corpus in memory; deterministic for a fixed config."""
    config.check()
    rng = np.random.default_rng(config.seed)

    n_uda = math.ceil(config.n_sds / config.sds_per_uda)
    udas = [f"UDA{i + 1:02d}" for i in range(n_uda)]
    sds_to_uda = {}
    life = set()
    for i in range(config.n_sds):
        sds = f"SDS{i + 1:03d}"
        sds_to_uda[sds] = udas[i // config.sds_per_uda]
        if rng.random() < config.life_science_fraction:
            life.add(sds)
    taxonomy = Taxonomy(sds_to_uda=sds_to_uda, life_science_sds=frozenset(life))

    early = Period(*config.early)
    late = Period(*config.late)
    universities = [f"UNI{i + 1:03d}" for i in range(config.n_universities)]
    categories = {uda: [f"CAT_{uda}_{k}" for k in (1, 2)] for uda in udas}

    researchers = []
    rid = 0

    def _active_years(in_early: bool, in_late: bool) -> frozenset:
        years = []
        if in_early:
            years.extend(early.years)
        if in_late:
            years.extend(late.years)
        if len(years) > 1 and rng.random() < config.partial_year_rate:
            drop = int(rng.integers(0, len(years)))
            years = years[:drop] + years[drop + 1:]
        return frozenset(years)

    for univ in universities:
        for sds in sorted(sds_to_uda):
            if rng.random() >= config.unit_presence:
                continue
            n = int(rng.integers(config.staff_min, config.staff_max + 1))
            for _ in range(n):
                rid += 1
                stays = rng.random() >= config.turnover_rate
                researchers.append(Researcher(
                    researcher_id=f"R{rid:05d}", sds=sds, university_id=univ,
                    active_years=_active_years(True, stays)))
                if not stays:
                    rid += 1
                    researchers.append(Researcher(
                        researcher_id=f"R{rid:05d}", sds=sds, university_id=univ,
                        active_years=_active_years(False, True)))

    by_unit_year = {}
    for r in researchers:
        for y in r.active_years:
            by_unit_year.setdefault((r.university_id, r.sds, y), []).append(r)

    poisson, random, integers = rng.poisson, rng.random, rng.integers
    dispersion, p_success = config.citation_dispersion, _citation_p(config)
    publications = []
    authorships = []
    pid = 0
    for r in researchers:
        author_id, univ, sds = r.researcher_id, r.university_id, r.sds
        unit_categories = categories[sds_to_uda[sds]]
        for year in sorted(r.active_years):
            n_pubs = int(poisson(config.pubs_per_researcher_year))
            if not n_pubs:
                continue
            mates = [m.researcher_id for m in by_unit_year[(univ, sds, year)]
                     if m.researcher_id != author_id]
            for _ in range(n_pubs):
                pid += 1
                pub_id = f"PUB{pid:06d}"
                n_total = 1 + int(poisson(config.coauthor_mean))
                mate = None
                if mates and random() < config.coauthorship_rate:
                    mate = mates[int(integers(0, len(mates)))]
                    n_total = max(n_total, 2)
                # as integers(0, 2): the top bit of one 32-bit draw
                category = unit_categories[random(None, np.float32) >= 0.5]
                citations = (int(rng.negative_binomial(dispersion, p_success))
                             if config.citation_mean else 0)
                publications.append(Publication(pub_id, year, category, citations, n_total))
                # a coauthor is drawn from the same unit, so shares its university
                if mate is None:
                    # as choice(n_total, size=1, replace=False): same value, same state after
                    authorships.append(
                        Authorship(pub_id, author_id, int(integers(0, n_total)) + 1, univ))
                else:
                    first, second = _two_positions(integers, random, n_total)
                    authorships.append(Authorship(pub_id, author_id, first + 1, univ))
                    authorships.append(Authorship(pub_id, mate, second + 1, univ))

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
