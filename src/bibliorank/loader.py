"""Reading and writing the corpus fileset (CSV, with JSON equivalents)."""
from __future__ import annotations

import csv
import json
import re
from itertools import chain, compress, islice, repeat
from operator import gt, itemgetter
from pathlib import Path

from .errors import DanglingReference, DuplicateKey, MissingFile, SchemaError
from .model import (Authorship, Corpus, Period, Publication, Researcher, Taxonomy,
                    two_periods)

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
_INTEGER = re.compile("[+-]?[0-9]+")  # an integer cell's text
_EXACT = 2 ** 53  # an integer cell's bound (_not_int)
_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON escapes it, UTF-8 cannot encode it


def find_file(input_dir: Path, stem: str) -> Path:
    """The stem's file in the fileset: its .csv file, else its .json file."""
    for ext in (".csv", ".json"):
        p = input_dir / f"{stem}{ext}"
        if p.exists():
            return p
    raise MissingFile(f"{stem}.csv (or .json) not found in {input_dir}")


def _read_rows(path: Path, required: tuple) -> list:
    """The `required` fields of every row, as one tuple per field, in that order.

    Both formats must carry exactly the documented field names and are read
    as UTF-8, a leading byte-order mark dropped. A CSV file's blank lines are
    skipped, and it is transposed once and read by position with the
    semantics of csv.DictReader: a repeated header name takes its last
    column, extra cells are ignored, and a row that lacks a required cell
    (short, or the column absent from the header) is a SchemaError at that
    row, numbered as csv.DictReader counts rows (the header is row 1). With no
    row, a header that lacks a column fails at row 1. A file that is not
    UTF-8, CSV or JSON is a SchemaError too. Each check runs over whole
    columns; rows are walked one by one only to number a failing row.
    """
    if path.suffix == ".json":
        return _json_columns(path, required)
    header, rows = None, []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            # extend keeps the rows read before an error, which numbers its row
            rows.extend(filter(None, reader))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 ({exc.reason})", path=path) from None
    except csv.Error as exc:
        raise SchemaError(f"not valid CSV ({exc})", path=path,
                          row=1 if header is None else len(rows) + 2) from None
    if header is None:
        raise SchemaError("missing header row", path=path)
    column = {name: i for i, name in enumerate(header)}
    cols = [column.get(c) for c in required]
    # as many columns as the shortest row has cells; with no row, the header
    # stands in for one, so a column it lacks fails at its own row, row 1
    columns = list(zip(*rows)) or [()] * len(header)
    if None in cols or max(cols) >= len(columns):
        for i, row in enumerate(rows or [header], start=2 if rows else 1):
            missing = [c for c, j in zip(required, cols) if j is None or j >= len(row)]
            if missing:
                raise SchemaError(f"missing columns {missing}", path=path, row=i)
    return [columns[j] for j in cols]


def _json_columns(path: Path, required: tuple) -> list:
    """_read_rows of a JSON array of objects."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
    """One input table's columns, and the first failing row of each column
    check. Checks are noted in the order a row-by-row pass makes them, so the
    first noted failure of the earliest row (raise_first) is that pass's error."""

    def __init__(self, path: Path, required: tuple):
        self.path = path
        self.json = path.suffix == ".json"
        self.first = 1 if self.json else 2  # as _read_rows counts
        self.columns = _read_rows(path, required)
        self.failures = []

    def text(self, values) -> tuple:
        """A text column: CSV cells are UTF-8 text already; a JSON value must
        be a string or an integer, read as str(), where a lone surrogate fails
        (no report could write it)."""
        if self.json:
            odd = [v.__class__ not in (str, int) for v in values]
            self.note(any(odd), odd, bool, lambda i: f"{values[i]!r} is not text")
            values = tuple(map(str, values))
            self.note(_SURROGATE.search("".join(values)), values, _SURROGATE.search,
                      lambda i: f"{values[i]!r} is not UTF-8 text")
        return values

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
        """The column as ints, up to its first value that is not an integer cell
        (_not_int)."""
        ints = _ints(values)
        if ints is None:
            i = self.note(True, values, _not_int,
                          lambda i: f"{name}={values[i]!r} {_not_int(values[i])}")
            ints = _ints(values[:i])
        if minimum is not None:
            self.note(ints and min(ints) < minimum, ints, lambda v: v < minimum,
                      lambda i: f"{name}={ints[i]} below minimum {minimum}")
        return ints

    def floats(self, values, name: str) -> list:
        """The column as floats, up to its first value that is not a number: a
        JSON bool, as in _not_int, text that is not ASCII or has a '_' or
        surrounding blanks, or one float() refuses (with its message)."""
        def error(v):
            if v.__class__ not in (str, int, float) or v.__class__ is str and (
                    not v.isascii() or "_" in v or v != v.strip()):
                return f"{name}={v!r} is not a number"
            try:
                float(v)
            except (ValueError, OverflowError) as exc:
                return str(exc)
        errors = list(map(error, values))
        i = self.note(any(errors), errors, bool, errors.__getitem__)
        return list(map(float, values[:i]))

    def years(self, values) -> list:
        """active_years as frozensets: a JSON list, or text separated by ';'."""
        lists = [v if v.__class__ is list else [y for y in str(v).split(";") if y != ""]
                 for v in values]
        table = None if [] in lists else _int_table(list(chain.from_iterable(lists)))
        if table is not None:
            return [frozenset(map(table.__getitem__, y)) for y in lists]
        self.note(True, lists, lambda y: not _ints(y), lambda i: next(
            f"active_years={y!r} {e}" for y in lists[i] if (e := _not_int(y)))
            if lists[i] else "active_years is empty")
        return []

    def raise_first(self) -> None:
        if self.failures:
            raise min(self.failures, key=itemgetter(0))[1]


def _int_table(values):
    """value -> int() of each distinct value, or None if one is not an integer
    cell (_not_int)."""
    if not {str, int}.issuperset(map(type, values)):
        return None
    distinct = set(values)
    return None if any(map(_not_int, distinct)) else dict(zip(distinct, map(int, distinct)))


def _not_int(v) -> str:
    """Why v is not an integer cell, or '' if it is one. A cell is a JSON
    integer or ASCII [+-]?[0-9]+ text (int() would truncate a JSON float, read
    a JSON bool as 0 or 1, and read text with '_', blanks or other digits),
    within +-2**53, where a float holds every integer exactly: the scoring
    arithmetic turns counts and years into floats."""
    if v.__class__ is int:
        n = v
    elif v.__class__ is str and _INTEGER.fullmatch(v):
        # 2**53 has 16 digits, and int() refuses text of over 4300
        n = int(v) if len(v.lstrip("+-0")) <= 16 else None
    else:
        return "is not an integer"
    return "" if n is not None and -_EXACT <= n <= _EXACT else "is outside [-2**53, 2**53]"


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

    f = _File(find_file(input_dir, "taxonomy"), FILESET["taxonomy"])
    sds, udas, life = f.columns
    sds, udas = f.text(sds), f.text(udas)
    f.unique(sds, lambda i: DuplicateKey(f"taxonomy: SDS {sds[i]} listed twice"))
    life = f.ints(life, "is_life_science")
    f.note(not {0, 1}.issuperset(life), life, lambda v: v not in (0, 1),
           lambda i: "is_life_science must be 0 or 1")
    f.raise_first()
    sds_to_uda = dict(zip(sds, udas))
    taxonomy = Taxonomy(sds_to_uda, frozenset(compress(sds, life)))

    f = _File(find_file(input_dir, "periods"), FILESET["periods"])
    labels, starts, ends = f.columns
    labels = f.text(labels)
    f.unique(labels, lambda i: DuplicateKey(f"periods: duplicate label {labels[i]}"))
    starts = f.ints(starts, "start_year")
    ends = f.ints(ends, "end_year")
    f.note(any(map(gt, starts, ends)), zip(starts, ends), lambda se: se[0] > se[1],
           lambda i: f"start_year={starts[i]} is after end_year={ends[i]}")
    f.raise_first()
    try:
        periods = two_periods(list(map(Period, labels, starts, ends)))
    except ValueError as exc:
        raise SchemaError(str(exc), path=f.path) from None

    f = _File(find_file(input_dir, "researchers"), FILESET["researchers"])
    rids, res_sds, universities, active = f.columns
    rids, res_sds, universities = map(f.text, (rids, res_sds, universities))
    f.unique(rids, lambda i: DuplicateKey(f"researchers: duplicate researcher_id {rids[i]}"))
    f.known(res_sds, set(sds_to_uda), lambda i: DanglingReference(
        f"researcher {rids[i]} references unknown SDS {res_sds[i]}"))
    active = f.years(active)
    f.raise_first()
    researchers = _records(Researcher, rids, res_sds, universities, active)

    f = _File(find_file(input_dir, "publications"), FILESET["publications"])
    pids, years, categories, citations, n_authors = f.columns
    pids, categories = f.text(pids), f.text(categories)
    f.unique(pids, lambda i: DuplicateKey(f"publications: duplicate pub_id {pids[i]}"))
    years = f.ints(years, "year")
    citations = f.ints(citations, "citations", minimum=0)
    n_authors = f.ints(n_authors, "n_authors_total", minimum=1)
    f.raise_first()
    publications = _records(Publication, pids, years, categories, citations, n_authors)

    f = _File(find_file(input_dir, "authorships"), FILESET["authorships"])
    a_pids, a_rids, positions, bylines = f.columns
    a_pids, a_rids, bylines = map(f.text, (a_pids, a_rids, bylines))
    f.known(a_pids, set(pids), lambda i: DanglingReference(
        f"authorship references unknown pub_id {a_pids[i]}"))
    f.known(a_rids, set(rids), lambda i: DanglingReference(
        f"authorship references unknown researcher_id {a_rids[i]}"))
    f.unique(list(zip(a_pids, a_rids)), lambda i: DuplicateKey(
        f"authorships: duplicate (pub_id, researcher_id) {(a_pids[i], a_rids[i])}"))
    positions = f.ints(positions, "author_position", minimum=1)
    f.raise_first()
    authorships = _records(Authorship, a_pids, a_rids, positions, bylines)

    return Corpus(taxonomy, researchers, publications, authorships, periods)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write the standard CSV fileset; load_corpus(write_corpus(c)) == c.

    Each file's bytes are exactly those csv.writer writes, written a block of
    rows at a time by a plain format wherever csv.writer would neither quote
    nor blank a cell, and by csv.writer from the first block where it would
    (see _write_rows)."""
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
            _write_rows(fh, columns, rows[stem])


# the rows _write_rows formats, checks and writes at once: a whole file's
# text would add to the peak memory of the process that generates a corpus
BLOCK_ROWS = 4096


def _write_rows(fh, columns: tuple, rows) -> None:
    """Write the header `columns`, two or more (csv.writer quotes a lone
    empty cell), and then `rows`, tuples of as many cells of str, int,
    float, bool or None, as csv.writer(fh).writerows does.

    Each block of BLOCK_ROWS rows is formatted with one "%s,...,%s\r\n" per
    row, which is csv.writer's line wherever the writer would neither quote a
    cell nor write None as an empty cell: no cell holds `,`, `"`, `\r` or
    `\n`, and none is None. So the block's text is written only if it has no
    `"`, no "None", exactly (columns - 1) commas and one CR and one LF per
    row, and no NUL (whose handling csv.writer changed in Python 3.11). From
    the first block that fails the check, csv.writer writes every row."""
    commas = len(columns) - 1
    line = "%s," * commas + "%s\r\n"
    rows = chain([columns], rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        text = "".join(map(line.__mod__, block))
        n = len(block)
        if ('"' in text or "None" in text or "\0" in text
                or text.count(",") != n * commas
                or text.count("\r") != n or text.count("\n") != n):
            writer = csv.writer(fh)
            writer.writerows(block)
            writer.writerows(rows)
            return
        fh.write(text)
