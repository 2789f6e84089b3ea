"""Citation-normalization baselines per (subject category, year) stratum.

Strata are standardized against the median by default; the mean basis exists
for analyses benchmarked against an external average table.
"""
from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path

from .errors import MissingBaseline, MissingFile, NegativeValue, SchemaError
from .model import Corpus, Publication


@dataclass(frozen=True)
class BaselineEntry:
    median: float
    mean: float
    n_pubs: int
    source: str  # "corpus_derived" or "external"


class BaselineTable:
    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    def __contains__(self, stratum):
        return stratum in self.entries

    def __len__(self):
        return len(self.entries)

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
            median=float(statistics.median(cites)),  # mid-interpolated for even n
            mean=float(statistics.fmean(cites)),
            n_pubs=len(cites),
            source="corpus_derived",
        )
    return BaselineTable(entries)


def load_external_baselines(path) -> BaselineTable:
    """Load a benchmark table; its entries override corpus-derived ones on merge."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"baseline file {path} not found")
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = ("subject_category", "year", "median", "mean", "n_pubs")
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise SchemaError(f"expected columns {required}", path=path)
        for i, row in enumerate(reader, start=2):
            try:
                year = int(row["year"])
                median = float(row["median"])
                mean = float(row["mean"])
                n_pubs = int(row["n_pubs"])
            except ValueError as exc:
                raise SchemaError(str(exc), path=path, row=i)
            if median < 0 or mean < 0:
                raise NegativeValue(f"{path}: negative baseline at row {i}")
            if n_pubs < 1:
                raise SchemaError("n_pubs must be positive", path=path, row=i)
            entries[(str(row["subject_category"]), year)] = BaselineEntry(
                median=median, mean=mean, n_pubs=n_pubs, source="external")
    return BaselineTable(entries)


def standardize_citations(pub: Publication, baselines: BaselineTable,
                          basis: str = "median", fallback_events=None) -> float:
    """Citation count divided by the stratum baseline.

    A zero baseline with zero citations yields 0; a zero baseline with
    citations falls back to the category's smallest positive baseline (1.0 if
    none exists). Fallback firings are appended to `fallback_events` when a
    list is passed, so reports can flag them.
    """
    if basis not in ("median", "mean"):
        raise ValueError(f"basis must be 'median' or 'mean', got {basis!r}")
    entry = baselines.get(pub.subject_category, pub.year)
    if entry is None:
        raise MissingBaseline(f"no baseline for ({pub.subject_category}, {pub.year})")
    divisor = getattr(entry, basis)
    if divisor > 0:
        return pub.citations / divisor
    if pub.citations == 0:
        return 0.0
    fallback = baselines.smallest_positive(pub.subject_category, basis)
    if fallback_events is not None:
        fallback_events.append((pub.pub_id, pub.subject_category, pub.year))
    return pub.citations / fallback
