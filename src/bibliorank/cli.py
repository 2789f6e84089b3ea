"""Command-line front end.

Subcommands: ingest, indicators, rank, compare, drilldown, synth. Each
scoring command builds all of its tables before `report` writes any. Every
emitted table carries a provenance header (corpus hash, config hash, tool
version) and outputs are pure functions of inputs + flags, so re-runs
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .aggregate import sds_unit_scores, uda_scores
from .baseline import build_baselines, load_external_baselines
from .errors import (BiblioRankError, EmptyIntersection, InvalidConfig,
                     InvalidCorpus)
from .indicators import INDICATORS, ShareScheme, UnitLedger
from .loader import FILE_STEMS, find_file, load_corpus
from .model import validate
from .rankshift import (COMPARED, DEFAULT_MIN_STAFF, compare_drilldowns,
                        period_rankings, sds_drilldown, shift_stats,
                        transition_matrix, uda_rank_list, university_shift_table)


def _corpus_hash(input_dir: Path) -> str:
    h = hashlib.sha256()
    for stem in FILE_STEMS:
        p = find_file(input_dir, stem)
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]

def _config_hash(args: argparse.Namespace) -> str:
    skip = {"func", "out", "input"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if payload.get("baselines"):
        # the file's content, not its path, is part of the configuration
        payload["baselines"] = hashlib.sha256(
            Path(payload["baselines"]).read_bytes()).hexdigest()
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Emitter:
    def __init__(self, out_dir: Path, fmt: str, corpus_hash: str, config_hash: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.provenance = {"corpus": corpus_hash, "config": config_hash,
                           "version": __version__}
        out_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _markdown_cell(v) -> str:
        if v is None:
            return "n.a."
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v).replace("|", "\\|")  # a bare | would end the cell

    def write(self, name: str, columns: list, rows: list) -> Path:
        path = self.out_dir / f"{name}.{ 'md' if self.fmt == 'markdown' else self.fmt}"
        header = (f"# corpus={self.provenance['corpus']} "
                  f"config={self.provenance['config']} "
                  f"version={self.provenance['version']}")
        if self.fmt == "json":
            doc = {"provenance": self.provenance, "columns": columns,
                   "rows": [list(r) for r in rows]}
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        elif self.fmt == "markdown":
            lines = [header, "", "| " + " | ".join(map(self._markdown_cell, columns))
                     + " |", "| " + " | ".join("---" for _ in columns) + " |"]
            for r in rows:
                lines.append("| " + " | ".join(map(self._markdown_cell, r)) + " |")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(header + "\n")
                w = csv.writer(fh)
                w.writerow(columns)
                w.writerows(rows)  # csv writes None as an empty cell
        return path


def _parse_scheme(text: str) -> ShareScheme:
    try:
        first, last, middle = (float(x) for x in text.split(","))
        return ShareScheme(first_weight=first, last_weight=last, middle_weight=middle)
    except ValueError as exc:
        raise InvalidConfig(f"--scheme {text!r}: expected three positive weights "
                            f"first,last,middle ({exc})") from None


def _load_inputs(args, scope=None) -> UnitLedger:
    """The one ledger a command reads, over the validated corpus; `scope`,
    when given, names the SDS codes the command reads as `scope(corpus, args)`."""
    scheme = _parse_scheme(args.scheme)
    if not math.isfinite(args.min_staff):
        raise InvalidConfig(f"--min-staff {args.min_staff}: expected a finite "
                            "staff threshold")
    corpus = load_corpus(Path(args.input))
    violations = validate(corpus)
    if violations:
        first = violations[0]
        raise InvalidCorpus(f"violations={len(violations)}, the first: "
                            f"[{first.kind}] {first.message}")
    baselines = build_baselines(corpus)
    if args.baselines:
        baselines = baselines.merge(load_external_baselines(Path(args.baselines)))
    return UnitLedger(corpus, scheme, baselines, args.basis, args.staff_mode,
                      sds_scope=None if scope is None else scope(corpus, args))


def cmd_ingest(args) -> int:
    corpus = load_corpus(Path(args.input))
    violations = validate(corpus)
    print(f"researchers={len(corpus.researchers)} "
          f"publications={len(corpus.publications)} "
          f"authorships={len(corpus.authorships)} violations={len(violations)}")
    for v in violations:
        print(f"  [{v.kind}] {v.message}")
    return 1 if violations else 0


def report(tables, args, scope=None) -> int:
    """A scoring command: build every table of `tables(ledger, args)`, then
    write them, so that a failing table leaves no output. `scope` limits the
    ledger to the SDS codes the tables read (see _load_inputs)."""
    built = tables(_load_inputs(args, scope), args)
    emit = Emitter(Path(args.out), args.format,
                   _corpus_hash(Path(args.input)), _config_hash(args))
    for name, (columns, rows) in built.items():
        emit.write(name, columns, rows)
    return 0


def indicator_tables(ledger, args) -> dict:
    corpus = ledger.corpus
    unit_rows = []
    for s in corpus.taxonomy.sds_list:
        for period in corpus.periods:
            for ind in INDICATORS:
                for (u, _), sc in sorted(sds_unit_scores(ledger, s, ind, period).items()):
                    unit_rows.append([u, s, ind, period.label,
                                      None if sc is None else sc.value,
                                      None if sc is None else sc.n_pubs,
                                      None if sc is None else sc.staff])

    researcher_rows = []
    for r in corpus.researchers:
        for period in corpus.periods:
            for ind, value, n_pubs, staff in ledger.researcher_rows(r.researcher_id, period):
                researcher_rows.append([r.researcher_id, ind, period.label, value,
                                        n_pubs, staff])

    uda_rows = []
    for uda in corpus.taxonomy.uda_list:
        rolled = {period: uda_scores(ledger, uda, period) for period in corpus.periods}
        for u in sorted(set().union(*rolled.values())):
            for period in corpus.periods:
                if u in rolled[period]:  # a UdaScore is its report row
                    uda_rows.extend(rolled[period][u].scores.values())
    return {
        "unit_scores": (["university_id", "sds", "indicator", "period", "value",
                         "n_pubs", "staff"], unit_rows),
        "researcher_scores": (["researcher_id", "indicator", "period", "value",
                               "n_pubs", "staff"], researcher_rows),
        "uda_scores": (["university_id", "uda", "indicator", "period", "value",
                        "covered_staff"], uda_rows),
    }


def _uda_rankings(ledger, min_staff: float) -> dict:
    """(uda, indicator) -> period_rankings of the UDA's rank lists."""
    return {(uda, ind): period_rankings(uda_rank_list, ledger, uda, ind, min_staff)
            for uda in ledger.corpus.taxonomy.uda_list for ind in INDICATORS}


def rank_tables(ledger, args) -> dict:
    rank_rows, quintile_rows = [], []
    for (uda, ind), rankings in _uda_rankings(ledger, args.min_staff).items():
        for ranking in rankings:
            if ranking is None:
                continue
            ranked, assigned = ranking
            for e in ranked.entries:
                rank_rows.append([uda, ind, ranked.period, e.university_id,
                                  e.value, e.rank])
                quintile_rows.append([uda, ind, ranked.period, e.university_id,
                                      assigned.entries[e.university_id]])
    return {
        "rank_lists": (["uda", "indicator", "period", "university_id", "value",
                        "rank"], rank_rows),
        "quintiles": (["uda", "indicator", "period", "university_id", "quintile"],
                      quintile_rows),
    }


def compare_tables(ledger, args) -> dict:
    rankings = _uda_rankings(ledger, args.min_staff)
    stats_rows, transition_rows = [], []
    for (uda, ind), (early, late) in rankings.items():
        if early is None or late is None:
            continue
        try:
            stats = shift_stats(early.ranks, late.ranks)
            matrix = transition_matrix(early.quintiles, late.quintiles)
        except EmptyIntersection:
            continue  # no university is ranked in both periods
        stats_rows.append([uda, ind, stats.n_total, stats.n_changed,
                           round(100.0 * stats.pct_changed, 1),
                           stats.max_abs_shift, stats.mean_abs_shift,
                           stats.median_abs_shift,
                           ";".join(stats.entries), ";".join(stats.exits)])
        for i in range(5):
            for j in range(5):
                transition_rows.append([uda, ind, i + 1, j + 1,
                                        matrix.counts[i][j]])

    table = university_shift_table(
        ledger.corpus.universities,
        {uda: rankings[(uda, args.indicator)]
         for uda in ledger.corpus.taxonomy.uda_list})
    table_rows = [[u] + [table.cells[u][c] for c in table.columns]
                  + [table.row_total(u)] for u in table.universities]
    table_rows.append(["pct_changed"]
                      + [round(table.column_pct_changed(c), 1) for c in table.columns]
                      + [round(table.overall_pct_changed(), 1)])
    shares = table.balance_shares()
    return {
        "shift_stats": (["uda", "indicator", "n_total", "n_changed", "pct_changed",
                         "max_abs_shift", "mean_abs_shift", "median_abs_shift",
                         "entries", "exits"], stats_rows),
        "transition_matrices": (["uda", "indicator", "early_quintile",
                                 "late_quintile", "count"], transition_rows),
        "university_shift_table": (["university_id"] + list(table.columns)
                                   + ["total"], table_rows),
        "shift_balance": (["negative_pct", "positive_pct", "nil_pct"],
                          [[round(shares["negative"], 1),
                            round(shares["positive"], 1),
                            round(shares["nil"], 1)]]),
    }


def drilldown_scope(corpus, args) -> list:
    """The SDS codes a drilldown reads: those of its UDA. The university is
    checked first, as sds_drilldown checks it."""
    corpus.check_names(args.university)
    return corpus.taxonomy.sds_in_uda(args.uda)


def drilldown_tables(ledger, args) -> dict:
    # one drilldown per indicator, shared by both reports
    drilldowns = {ind: sds_drilldown(ledger, args.university, args.uda, ind,
                                     args.min_staff)
                  for ind in dict.fromkeys((args.indicator, *COMPARED))}
    shifts = drilldowns[args.indicator]
    comparison = compare_drilldowns(drilldowns)
    return {
        "sds_drilldown": (["sds", "quintile_shift"],
                          [[sds, shifts[sds]] for sds in sorted(shifts)]),
        "indicator_comparison": (
            ["sds", "P", "FP", "AQ", "flags"],
            [[sds, row["P"], row["FP"], row["AQ"], ";".join(row["flags"])]
             for sds, row in sorted(comparison.items())]),
    }


def cmd_synth(args) -> int:
    try:
        from .synthgen import GenConfig, generate  # numpy loads only for this command
    except ModuleNotFoundError as exc:
        raise InvalidConfig(f"synth needs numpy, from the 'synth' extra ({exc})") from None
    # the subparser sets only the options given; GenConfig holds the defaults
    config = GenConfig(**{k: v for k, v in vars(args).items()
                          if k not in ("command", "func", "out")})
    manifest = generate(config, Path(args.out))
    print(json.dumps({k: v for k, v in manifest.items() if k != "config"},
                     sort_keys=True))
    return 0


def _add_common(p):
    p.add_argument("--input", required=True, help="directory with the corpus fileset")
    p.add_argument("--baselines", default=None,
                   help="external baseline CSV overriding corpus-derived strata")
    p.add_argument("--basis", choices=("median", "mean"), default="median")
    p.add_argument("--min-staff", dest="min_staff", type=float,
                   default=DEFAULT_MIN_STAFF)
    p.add_argument("--staff-mode", dest="staff_mode",
                   choices=("prorata", "headcount"), default="prorata")
    p.add_argument("--scheme", default="2,2,1",
                   help="life-science share weights: first,last,middle")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.add_argument("--out", default="out")


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InvalidConfig, so main prints them as JSON;
    subparsers inherit the class."""

    def error(self, message):
        raise InvalidConfig(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibliorank",
        description="Field-standardized research performance indicators and "
                    "cross-period rank mobility")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a corpus fileset")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("indicators", help="per-unit, per-researcher and UDA scores")
    _add_common(p)
    p.set_defaults(func=partial(report, indicator_tables))

    p = sub.add_parser("rank", help="rank lists and quintile assignments")
    _add_common(p)
    p.set_defaults(func=partial(report, rank_tables))

    p = sub.add_parser("compare", help="cross-period shift statistics and matrices")
    _add_common(p)
    p.add_argument("--indicator", choices=INDICATORS, default="FSS")
    p.set_defaults(func=partial(report, compare_tables))

    p = sub.add_parser("drilldown", help="per-SDS shifts for one university and UDA")
    _add_common(p)
    p.add_argument("--university", required=True)
    p.add_argument("--uda", required=True)
    p.add_argument("--indicator", choices=INDICATORS, default="FSS")
    p.set_defaults(func=partial(report, drilldown_tables, scope=drilldown_scope))

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus fileset",
                       argument_default=argparse.SUPPRESS)
    for option, kind in (("seed", int), ("n-universities", int), ("n-sds", int),
                         ("sds-per-uda", int), ("staff-min", int), ("staff-max", int),
                         ("pubs-per-researcher-year", float), ("citation-mean", float),
                         ("unit-presence", float), ("coauthorship-rate", float),
                         ("turnover-rate", float), ("life-science-fraction", float)):
        p.add_argument(f"--{option}", type=kind)
    p.add_argument("--out", default="synth_out")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # the records are acyclic and a command is short
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (BiblioRankError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    """The program's entry point (`python -m bibliorank.cli`, the `bibliorank`
    script): main, then exit with its status. Every object still alive then
    lives until the process ends, so the collector is frozen first: the
    interpreter's collections at exit skip those objects instead of scanning
    them all once more. An in-process caller of main keeps its collector."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
