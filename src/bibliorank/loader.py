"""Reading and writing the corpus fileset (CSV, with JSON equivalents)."""
from __future__ import annotations

import csv
import json
from operator import itemgetter
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
    """Rows as tuples of the `required` fields, in that order.

    Both formats must carry exactly the documented field names. A CSV file is
    read by read_csv, then by position with the semantics of csv.DictReader:
    a repeated header name takes its last column, extra cells are ignored,
    and a row that lacks a required cell (short, or the column absent from
    the header) is a SchemaError at that row. A JSON file that is not UTF-8
    or not JSON is a SchemaError too.
    """
    if path.suffix == ".json":
        try:
            with open(path, encoding="utf-8") as fh:
                rows = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not valid UTF-8 ({exc.reason})", path=path) from None
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"not valid JSON ({exc})", path=path) from None
        if not isinstance(rows, list):
            raise SchemaError("expected a JSON array of objects", path=path)
        for i, row in enumerate(rows, start=1):
            if not isinstance(row, dict):
                raise SchemaError(f"expected a JSON object, got {type(row).__name__}",
                                  path=path, row=i)
            missing = [c for c in required if c not in row or row[c] is None]
            if missing:
                raise SchemaError(f"missing columns {missing}", path=path, row=i)
        return list(map(itemgetter(*required), rows))

    header, rows = read_csv(path)
    if header is None:
        raise SchemaError("missing header row", path=path)
    column = {name: i for i, name in enumerate(header)}
    cols = [column.get(c) for c in required]
    width = None if None in cols else max(cols) + 1
    if rows and (width is None or min(map(len, rows)) < width):
        for i, row in enumerate(rows, start=2):
            missing = [c for c, j in zip(required, cols) if j is None or j >= len(row)]
            if missing:
                raise SchemaError(f"missing columns {missing}", path=path, row=i)
    return list(map(itemgetter(*cols), rows))


def _numbered_rows(input_dir: Path, stem: str) -> tuple:
    """The stem's file, and (row number, row) pairs of _read_rows over its
    columns, numbered as its errors are: a JSON file's first object is row 1,
    a CSV file's first row under the header row 2."""
    path = find_file(input_dir, stem)
    rows = _read_rows(path, FILESET[stem])
    return path, enumerate(rows, start=1 if path.suffix == ".json" else 2)


def _to_int(value, name, path, row, minimum=None):
    try:
        # text or a JSON integer only: int() would truncate a JSON float and
        # read a JSON bool as 0 or 1 (class tests: isinstance costs the CSV path)
        if value.__class__ is not str and value.__class__ is not int:
            raise TypeError
        v = int(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{name}={value!r} is not an integer", path=path, row=row)
    if minimum is not None and v < minimum:
        raise SchemaError(f"{name}={v} below minimum {minimum}", path=path, row=row)
    return v


def _parse_years(value, path, row):
    if isinstance(value, list):
        years = [_to_int(y, "active_years", path, row) for y in value]
    else:
        parts = [p for p in str(value).split(";") if p != ""]
        years = [_to_int(p, "active_years", path, row) for p in parts]
    if not years:
        raise SchemaError("active_years is empty", path=path, row=row)
    return frozenset(years)


def load_corpus(input_dir) -> Corpus:
    """Load and cross-validate the five-file corpus fileset from a directory."""
    input_dir = Path(input_dir)
    if not input_dir.is_dir():
        raise MissingFile(f"input directory {input_dir} does not exist")

    tax_path, rows = _numbered_rows(input_dir, "taxonomy")
    sds_to_uda, life = {}, set()
    for i, (sds, uda, is_life) in rows:
        sds = str(sds)
        if sds in sds_to_uda:
            raise DuplicateKey(f"taxonomy: SDS {sds} listed twice")
        sds_to_uda[sds] = str(uda)
        if _to_int(is_life, "is_life_science", tax_path, i) not in (0, 1):
            raise SchemaError("is_life_science must be 0 or 1", path=tax_path, row=i)
        if int(is_life):
            life.add(sds)
    taxonomy = Taxonomy(sds_to_uda=sds_to_uda, life_science_sds=frozenset(life))

    per_path, rows = _numbered_rows(input_dir, "periods")
    periods = []
    for i, (label, start, end) in rows:
        start = _to_int(start, "start_year", per_path, i)
        end = _to_int(end, "end_year", per_path, i)
        if start > end:
            raise SchemaError(f"start_year={start} is after end_year={end}",
                              path=per_path, row=i)
        periods.append(Period(label=str(label), start_year=start, end_year=end))
    if len(periods) != 2:
        raise SchemaError(f"expected exactly two periods, got {len(periods)}", path=per_path)

    res_path, rows = _numbered_rows(input_dir, "researchers")
    researchers = []
    rids = set()
    for i, (rid, sds, university, years) in rows:
        rid = str(rid)
        if rid in rids:
            raise DuplicateKey(f"researchers: duplicate researcher_id {rid}")
        rids.add(rid)
        sds = str(sds)
        if sds not in sds_to_uda:
            raise DanglingReference(f"researcher {rid} references unknown SDS {sds}")
        # positional arguments: keywords cost a third more per record
        researchers.append(Researcher(
            rid, sds, str(university), _parse_years(years, res_path, i)))

    pub_path, rows = _numbered_rows(input_dir, "publications")
    publications = []
    pub_ids = set()
    for i, (pid, year, category, citations, n_authors) in rows:
        pid = str(pid)
        if pid in pub_ids:
            raise DuplicateKey(f"publications: duplicate pub_id {pid}")
        pub_ids.add(pid)
        publications.append(Publication(
            pid,
            _to_int(year, "year", pub_path, i),
            str(category),
            _to_int(citations, "citations", pub_path, i, minimum=0),
            _to_int(n_authors, "n_authors_total", pub_path, i, minimum=1),
        ))

    auth_path, rows = _numbered_rows(input_dir, "authorships")
    authorships = []
    auth_keys = set()
    for i, (pid, rid, position, byline) in rows:
        pid, rid = str(pid), str(rid)
        if pid not in pub_ids:
            raise DanglingReference(f"authorship references unknown pub_id {pid}")
        if rid not in rids:
            raise DanglingReference(f"authorship references unknown researcher_id {rid}")
        key = (pid, rid)
        if key in auth_keys:
            raise DuplicateKey(f"authorships: duplicate (pub_id, researcher_id) {key}")
        auth_keys.add(key)
        authorships.append(Authorship(
            pid, rid, _to_int(position, "author_position", auth_path, i, minimum=1),
            str(byline)))

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
