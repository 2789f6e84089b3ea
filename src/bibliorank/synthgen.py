"""Seeded synthetic corpus generator.

Citation counts come from a negative binomial, which is skewed enough that
low-mean strata regularly land a zero median and exercise the standardization
fallback path.
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
        if self.pubs_per_researcher_year <= 0 or self.citation_mean < 0:
            raise InvalidConfig("rates must be positive")
        if self.citation_dispersion <= 0:
            raise InvalidConfig("citation_dispersion must be positive")


def _citations(rng, cfg: GenConfig) -> int:
    d = cfg.citation_dispersion
    if cfg.citation_mean == 0:
        return 0
    p = d / (d + cfg.citation_mean)
    return int(rng.negative_binomial(d, p))


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

    publications = []
    authorships = []
    pid = 0
    for r in researchers:
        uda = sds_to_uda[r.sds]
        for year in sorted(r.active_years):
            for _ in range(int(rng.poisson(config.pubs_per_researcher_year))):
                pid += 1
                pub_id = f"PUB{pid:06d}"
                n_total = 1 + int(rng.poisson(config.coauthor_mean))
                pub_authors = [r]
                mates = [m for m in by_unit_year[(r.university_id, r.sds, year)]
                         if m.researcher_id != r.researcher_id]
                if mates and rng.random() < config.coauthorship_rate:
                    pub_authors.append(mates[int(rng.integers(0, len(mates)))])
                    n_total = max(n_total, 2)
                category = categories[uda][int(rng.integers(0, 2))]
                publications.append(Publication(
                    pub_id=pub_id, year=year, subject_category=category,
                    citations=_citations(rng, config), n_authors_total=n_total))
                positions = rng.choice(n_total, size=len(pub_authors), replace=False)
                for author, pos in zip(pub_authors, positions):
                    authorships.append(Authorship(
                        pub_id=pub_id, researcher_id=author.researcher_id,
                        author_position=int(pos) + 1,
                        byline_university_id=author.university_id))

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
