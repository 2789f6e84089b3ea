"""Citation-normalization baselines per (subject category, year) stratum.

Strata are standardized against the median by default; the mean basis exists
for analyses benchmarked against an external average table.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import not_
from pathlib import Path

from .errors import DuplicateKey, MissingBaseline, MissingFile, NegativeValue
from .loader import _File
from .model import Corpus, Publication


BASES = ("median", "mean")  # the standardization bases; the first is the default
# source: "corpus_derived" or "external"
BaselineEntry = namedtuple("BaselineEntry", "median mean n_pubs source")


def median(values):
    """The middle value, or the mean of the middle two (as statistics.median)."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class BaselineTable:
    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    def get(self, subject_category, year):
        return self.entries.get((subject_category, year))

    def merge(self, other: "BaselineTable") -> "BaselineTable":
        """Overlay `other` on self; external entries take precedence."""
        merged = dict(self.entries)
        for key, entry in other.entries.items():
            if (key not in merged or entry.source == "external"
                    or merged[key].source != "external"):
                merged[key] = entry
        return BaselineTable(merged)

    def smallest_positive(self, subject_category, basis):
        """Smallest positive baseline of the category across years; 1.0 if none."""
        values = [
            getattr(e, basis)
            for (cat, _), e in self.entries.items()
            if cat == subject_category and getattr(e, basis) > 0
        ]
        return min(values) if values else 1.0


def build_baselines(corpus: Corpus) -> BaselineTable:
    """Median and mean citation counts per (subject_category, year) stratum."""
    strata = {}
    for pub in corpus.publications:
        strata.setdefault((pub.subject_category, pub.year), []).append(pub.citations)
    entries = {}
    for key, cites in strata.items():
        entries[key] = BaselineEntry(
            median=float(median(cites)),  # mid-interpolated for even n
            mean=math.fsum(cites) / len(cites),
            n_pubs=len(cites),
            source="corpus_derived",
        )
    return BaselineTable(entries)


def load_external_baselines(path) -> BaselineTable:
    """Load a benchmark table; its entries override corpus-derived ones on merge.

    It is read as a corpus file is (CSV, or a JSON array for a .json path).
    A cell that is not a number, a baseline that is not finite, an n_pubs
    below 1, a positive median below 0.5 and a positive mean below 1/n_pubs
    are each a SchemaError, a negative baseline a NegativeValue, and a
    stratum listed twice a DuplicateKey at its second row.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"baseline file {path} not found")
    f = _File(path, ("subject_category", "year", "median", "mean", "n_pubs"))
    categories, years, medians, means, n_pubs = f.columns
    years = f.ints(years, "year")
    medians = f.floats(medians, "median")
    means = f.floats(means, "mean")
    n_pubs = f.ints(n_pubs, "n_pubs")
    keys = list(zip(f.text(categories), years))
    f.unique(keys, lambda i: DuplicateKey(
        f"{path}: duplicate stratum ({keys[i][0]}, {keys[i][1]}) at row {f.first + i}"))
    finite = [math.isfinite(m) and math.isfinite(a) for m, a in zip(medians, means)]
    f.note(not all(finite), finite, not_, lambda i: "median and mean must be finite")
    negative = [m < 0 or a < 0 for m, a in zip(medians, means)]
    f.note(any(negative), negative, bool,
           lambda i: NegativeValue(f"{path}: negative baseline at row {f.first + i}"))
    f.note(any(n < 1 for n in n_pubs), n_pubs, lambda n: n < 1,
           lambda i: "n_pubs must be positive")
    # n_pubs integer counts give no positive median below 0.5 and no positive
    # mean below 1/n_pubs; a smaller divisor would overflow a score to inf
    f.note(any(0 < m < 0.5 for m in medians), medians, lambda m: 0 < m < 0.5,
           lambda i: f"median={medians[i]!r} is positive but below 0.5")
    low = [n >= 1 and 0 < a < 1 / n for a, n in zip(means, n_pubs)]
    f.note(any(low), low, bool,
           lambda i: f"mean={means[i]!r} is positive but below 1/n_pubs={n_pubs[i]}")
    f.raise_first()
    return BaselineTable({key: BaselineEntry(m, a, n, "external")
                          for key, m, a, n in zip(keys, medians, means, n_pubs)})


def check_basis(basis: str) -> None:
    if basis not in BASES:
        raise ValueError(f"basis must be {' or '.join(map(repr, BASES))}, got {basis!r}")


def stratum_divisor(baselines: BaselineTable, subject_category: str, year: int,
                    basis: str) -> tuple:
    """(divisor, fell_back) of a (subject category, year) stratum, the one
    standardization rule: its positive `basis` baseline, else its category's
    smallest positive baseline (1.0 if none). It looks the fallback up anew
    on each call; UnitLedger asks once per stratum and keeps the answer."""
    check_basis(basis)
    entry = baselines.get(subject_category, year)
    if entry is None:
        raise MissingBaseline(f"no baseline for ({subject_category}, {year})")
    divisor = getattr(entry, basis)
    if divisor > 0:
        return divisor, False
    return baselines.smallest_positive(subject_category, basis), True


def standardize_citations(pub: Publication, baselines: BaselineTable,
                          basis: str = "median", fallback_events=None) -> float:
    """Citation count divided by its stratum's divisor (stratum_divisor). A
    publication with citations that falls back is appended to
    `fallback_events` when a list is passed, so reports can flag it."""
    divisor, fell_back = stratum_divisor(baselines, pub.subject_category, pub.year, basis)
    if fell_back and pub.citations and fallback_events is not None:
        fallback_events.append((pub.pub_id, pub.subject_category, pub.year))
    return pub.citations / divisor
