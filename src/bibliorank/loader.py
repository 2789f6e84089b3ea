"""Reading and writing the corpus fileset (CSV, with JSON equivalents)."""
from __future__ import annotations

import csv
import json
from itertools import chain, compress, repeat
from operator import gt, itemgetter
from pathlib import Path

from .errors import DanglingReference, DuplicateKey, MissingFile, SchemaError
from .model import Authorship, Corpus, Period, Publication, Researcher, Taxonomy

# stem -> columns of each corpus file; cli._corpus_hash reads the files in
# this order
FILESET = {
    "researchers": ("researcher_id", "sds", "university_id", "active_years"),
    "publications": ("pub_id", "year", "subject_category", "citations", "n_authors_total"),
    "authorships": ("pub_id", "researcher_id", "author_position", "byline_university_id"),
    "taxonomy": ("sds", "uda", "is_life_science"),
    "periods": ("label", "start_year", "end_year"),
}
FILE_STEMS = tuple(FILESET)


def find_file(input_dir: Path, stem: str) -> Path:
    """The stem's file in the fileset: its .csv file, else its .json file."""
    for ext in (".csv", ".json"):
        p = input_dir / f"{stem}{ext}"
        if p.exists():
            return p
    raise MissingFile(f"{stem}.csv (or .json) not found in {input_dir}")


def read_csv(path: Path) -> tuple:
    """(header, rows) of a UTF-8 CSV file, header None if the file is empty.

    Blank lines are skipped. A file that is not UTF-8 or not readable as CSV
    is a SchemaError; a CSV error names its row as csv.DictReader counts rows
    (the header is row 1, blank lines are not counted).
    """
    header, rows = None, []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            # extend keeps the rows read before an error, which numbers its row
            rows.extend(filter(None, reader))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 ({exc.reason})", path=path) from None
    except csv.Error as exc:
        raise SchemaError(f"not valid CSV ({exc})", path=path,
                          row=1 if header is None else len(rows) + 2) from None
    return header, rows


def _read_rows(path: Path, required: tuple) -> list:
    """The `required` fields of every row, as one tuple per field, in that order.

    Both formats must carry exactly the documented field names. A CSV file is
    read by read_csv, transposed once and read by position with the semantics
    of csv.DictReader: a repeated header name takes its last column, extra
    cells are ignored, and a row that lacks a required cell (short, or the
    column absent from the header) is a SchemaError at that row. A JSON file
    that is not UTF-8 or not JSON is a SchemaError too. Each check runs over
    whole columns; rows are walked one by one only to number a failing row.
    """
    if path.suffix == ".json":
        return _json_columns(path, required)
    header, rows = read_csv(path)
    if header is None:
        raise SchemaError("missing header row", path=path)
    if not rows:
        return [()] * len(required)
    column = {name: i for i, name in enumerate(header)}
    cols = [column.get(c) for c in required]
    columns = list(zip(*rows))  # as many columns as the shortest row has cells
    if None in cols or max(cols) >= len(columns):
        for i, row in enumerate(rows, start=2):
            missing = [c for c, j in zip(required, cols) if j is None or j >= len(row)]
            if missing:
                raise SchemaError(f"missing columns {missing}", path=path, row=i)
    return [columns[j] for j in cols]


def _json_columns(path: Path, required: tuple) -> list:
    """_read_rows of a JSON array of objects."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 ({exc.reason})", path=path) from None
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON ({exc})", path=path) from None
    if not isinstance(rows, list):
        raise SchemaError("expected a JSON array of objects", path=path)
    if {dict}.issuperset(map(type, rows)):
        columns = [tuple(map(dict.get, rows, repeat(c))) for c in required]
        if not any(None in column for column in columns):
            return columns
    for i, row in enumerate(rows, start=1):  # name the failing row
        if not isinstance(row, dict):
            raise SchemaError(f"expected a JSON object, got {type(row).__name__}",
                              path=path, row=i)
        missing = [c for c in required if c not in row or row[c] is None]
        if missing:
            raise SchemaError(f"missing columns {missing}", path=path, row=i)
    raise AssertionError("unreachable: a row failed a check above")


class _File:
    """One file's columns, and the first failing row of each column check.
    Checks are noted in the order a row-by-row pass makes them, so the first
    noted failure of the earliest row (raise_first) is that pass's error."""

    def __init__(self, input_dir: Path, stem: str):
        self.path = find_file(input_dir, stem)
        self.json = self.path.suffix == ".json"
        self.first = 1 if self.json else 2  # as _read_rows counts
        self.columns = _read_rows(self.path, FILESET[stem])
        self.failures = []

    def text(self, values) -> tuple:
        """A text column: CSV cells are text already, JSON values read as str()."""
        return tuple(map(str, values)) if self.json else values

    def note(self, fails: bool, values, failing, error):
        """If `fails`, note error(i) for the first value i that is failing
        and return i; a str error is a SchemaError's message."""
        if fails:
            i = next(i for i, v in enumerate(values) if failing(v))
            exc = error(i)
            if isinstance(exc, str):
                exc = SchemaError(exc, path=self.path, row=self.first + i)
            self.failures.append((i, exc))
            return i

    def unique(self, keys, error) -> None:
        seen = set()  # set.add returns None: a key fails where it was seen before
        self.note(len(set(keys)) < len(keys), keys, lambda k: k in seen or seen.add(k), error)

    def known(self, keys, known: set, error) -> None:
        self.note(not known.issuperset(keys), keys, lambda k: k not in known, error)

    def ints(self, values, name: str, minimum=None) -> list:
        """The column as ints, up to its first value that is not an integer."""
        ints = _ints(values)
        if ints is None:
            i = self.note(True, values, lambda v: _ints((v,)) is None,
                          lambda i: f"{name}={values[i]!r} is not an integer")
            ints = _ints(values[:i])
        if minimum is not None:
            self.note(ints and min(ints) < minimum, ints, lambda v: v < minimum,
                      lambda i: f"{name}={ints[i]} below minimum {minimum}")
        return ints

    def years(self, values) -> list:
        """active_years as frozensets: a JSON list, or text separated by ';'."""
        lists = [v if v.__class__ is list else [y for y in str(v).split(";") if y != ""]
                 for v in values]
        table = None if [] in lists else _int_table(list(chain.from_iterable(lists)))
        if table is not None:
            return [frozenset(map(table.__getitem__, y)) for y in lists]
        self.note(True, lists, lambda y: not _ints(y), lambda i: (
            f"active_years={next(y for y in lists[i] if _ints((y,)) is None)!r} "
            "is not an integer" if lists[i] else "active_years is empty"))
        return []

    def raise_first(self) -> None:
        if self.failures:
            raise min(self.failures, key=itemgetter(0))[1]


def _int_table(values):
    """value -> int() of each distinct value, or None if one is not text or a
    JSON integer that int() reads: int() would truncate a JSON float and read
    a JSON bool as 0 or 1."""
    if not {str, int}.issuperset(map(type, values)):
        return None
    distinct = set(values)
    try:
        return dict(zip(distinct, map(int, distinct)))
    except ValueError:
        return None


def _ints(values):
    """values as ints, or None as _int_table. Each distinct value is read once,
    and equal values share one int: an integer column repeats a few values
    (a year, a count of authors, a byline position) over many rows."""
    table = _int_table(values)
    return None if table is None else list(map(table.__getitem__, values))


def _records(cls, *columns) -> list:
    """The rows of `columns` as `cls` named tuples, built by tuple.__new__:
    the named tuple's own __new__ is a Python call per record."""
    return list(map(tuple.__new__, repeat(cls), zip(*columns)))


def load_corpus(input_dir) -> Corpus:
    """Load and cross-validate the five-file corpus fileset from a directory:
    the files in the order below, each at its earliest failing row."""
    input_dir = Path(input_dir)
    if not input_dir.is_dir():
        raise MissingFile(f"input directory {input_dir} does not exist")

    f = _File(input_dir, "taxonomy")
    sds, udas, life = f.columns
    sds = f.text(sds)
    f.unique(sds, lambda i: DuplicateKey(f"taxonomy: SDS {sds[i]} listed twice"))
    life = f.ints(life, "is_life_science")
    f.note(not {0, 1}.issuperset(life), life, lambda v: v not in (0, 1),
           lambda i: "is_life_science must be 0 or 1")
    f.raise_first()
    sds_to_uda = dict(zip(sds, f.text(udas)))
    taxonomy = Taxonomy(sds_to_uda, frozenset(compress(sds, life)))

    f = _File(input_dir, "periods")
    labels, starts, ends = f.columns
    labels = f.text(labels)
    f.unique(labels, lambda i: DuplicateKey(f"periods: duplicate label {labels[i]}"))
    starts = f.ints(starts, "start_year")
    ends = f.ints(ends, "end_year")
    f.note(any(map(gt, starts, ends)), zip(starts, ends), lambda se: se[0] > se[1],
           lambda i: f"start_year={starts[i]} is after end_year={ends[i]}")
    f.raise_first()
    periods = list(map(Period, labels, starts, ends))
    if len(periods) != 2:
        raise SchemaError(f"expected exactly two periods, got {len(periods)}", path=f.path)

    f = _File(input_dir, "researchers")
    rids, res_sds, universities, active = f.columns
    rids, res_sds = f.text(rids), f.text(res_sds)
    f.unique(rids, lambda i: DuplicateKey(f"researchers: duplicate researcher_id {rids[i]}"))
    f.known(res_sds, set(sds_to_uda), lambda i: DanglingReference(
        f"researcher {rids[i]} references unknown SDS {res_sds[i]}"))
    active = f.years(active)
    f.raise_first()
    researchers = _records(Researcher, rids, res_sds, f.text(universities), active)

    f = _File(input_dir, "publications")
    pids, years, categories, citations, n_authors = f.columns
    pids = f.text(pids)
    f.unique(pids, lambda i: DuplicateKey(f"publications: duplicate pub_id {pids[i]}"))
    years = f.ints(years, "year")
    citations = f.ints(citations, "citations", minimum=0)
    n_authors = f.ints(n_authors, "n_authors_total", minimum=1)
    f.raise_first()
    publications = _records(Publication, pids, years, f.text(categories),
                            citations, n_authors)

    f = _File(input_dir, "authorships")
    a_pids, a_rids, positions, bylines = f.columns
    a_pids, a_rids = f.text(a_pids), f.text(a_rids)
    f.known(a_pids, set(pids), lambda i: DanglingReference(
        f"authorship references unknown pub_id {a_pids[i]}"))
    f.known(a_rids, set(rids), lambda i: DanglingReference(
        f"authorship references unknown researcher_id {a_rids[i]}"))
    f.unique(list(zip(a_pids, a_rids)), lambda i: DuplicateKey(
        f"authorships: duplicate (pub_id, researcher_id) {(a_pids[i], a_rids[i])}"))
    positions = f.ints(positions, "author_position", minimum=1)
    f.raise_first()
    authorships = _records(Authorship, a_pids, a_rids, positions, f.text(bylines))

    return Corpus(taxonomy, researchers, publications, authorships, periods)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write the standard CSV fileset; load_corpus(write_corpus(c)) == c."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    taxonomy = corpus.taxonomy
    # Publication, Authorship and Period fields are their files' columns, in order
    rows = {
        "researchers": ((r.researcher_id, r.sds, r.university_id,
                         ";".join(map(str, sorted(r.active_years))))
                        for r in corpus.researchers),
        "publications": corpus.publications,
        "authorships": corpus.authorships,
        "taxonomy": ((sds, taxonomy.sds_to_uda[sds],
                      int(sds in taxonomy.life_science_sds))
                     for sds in taxonomy.sds_list),
        "periods": corpus.periods,
    }
    for stem, columns in FILESET.items():
        with open(out_dir / f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(columns)
            w.writerows(rows[stem])
