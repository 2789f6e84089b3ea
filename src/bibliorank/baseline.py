"""Citation-normalization baselines per (subject category, year) stratum.

Strata are standardized against the median by default; the mean basis exists
for analyses benchmarked against an external average table.
"""
from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from .errors import (DuplicateKey, MissingBaseline, MissingFile, NegativeValue,
                     SchemaError)
from .loader import read_csv
from .model import Corpus, Publication


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

    A file that is not UTF-8 or not readable as CSV, a row that lacks a cell or
    holds a value that is not a number, and a baseline that is not finite are
    each a SchemaError; a stratum listed twice is a DuplicateKey at its second
    row.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"baseline file {path} not found")
    required = ("subject_category", "year", "median", "mean", "n_pubs")
    header, rows = read_csv(path)
    if header is None or any(c not in header for c in required):
        raise SchemaError(f"expected columns {required}", path=path)
    column = {name: i for i, name in enumerate(header)}  # a repeated name: the last
    cols = [column[c] for c in required]
    entries = {}
    for i, row in enumerate(rows, start=2):
        missing = [c for c, j in zip(required, cols) if j >= len(row)]
        if missing:
            raise SchemaError(f"missing columns {missing}", path=path, row=i)
        category, year, median, mean, n_pubs = (row[j] for j in cols)
        try:
            year = int(year)
            median = float(median)
            mean = float(mean)
            n_pubs = int(n_pubs)
        except ValueError as exc:
            raise SchemaError(str(exc), path=path, row=i)
        if (category, year) in entries:
            raise DuplicateKey(f"{path}: duplicate stratum ({category}, {year}) at row {i}")
        if not (math.isfinite(median) and math.isfinite(mean)):
            raise SchemaError("median and mean must be finite", path=path, row=i)
        if median < 0 or mean < 0:
            raise NegativeValue(f"{path}: negative baseline at row {i}")
        if n_pubs < 1:
            raise SchemaError("n_pubs must be positive", path=path, row=i)
        entries[(category, year)] = BaselineEntry(
            median=median, mean=mean, n_pubs=n_pubs, source="external")
    return BaselineTable(entries)


def standardize_citations(pub: Publication, baselines: BaselineTable,
                          basis: str = "median", fallback_events=None,
                          fallbacks=None) -> float:
    """Citation count divided by the stratum baseline.

    A zero baseline with zero citations yields 0; a zero baseline with
    citations falls back to the category's smallest positive baseline (1.0 if
    none exists). Fallback firings are appended to `fallback_events` when a
    list is passed, so reports can flag them. A dict passed as `fallbacks`
    keeps each category's fallback divisor for later calls with the same
    table and basis, so each is found once.
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
    if fallbacks is None:
        fallbacks = {}
    fallback = fallbacks.get(pub.subject_category)
    if fallback is None:
        fallback = fallbacks[pub.subject_category] = baselines.smallest_positive(
            pub.subject_category, basis)
    if fallback_events is not None:
        fallback_events.append((pub.pub_id, pub.subject_category, pub.year))
    return pub.citations / fallback
