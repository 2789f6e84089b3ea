"""Command-line front end.

Subcommands: ingest, indicators, rank, compare, drilldown, synth. Every
emitted table carries a provenance header (corpus hash, config hash, tool
version) and outputs are pure functions of inputs + flags, so re-runs
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .aggregate import sds_unit_scores, uda_scores
from .baseline import build_baselines, load_external_baselines
from .errors import (BiblioRankError, InvalidConfig, InvalidCorpus,
                     NoPublications, ZeroStaff)
from .indicators import INDICATORS, ShareScheme, UnitLedger
from .loader import FILE_STEMS, load_corpus
from .model import presence, validate
from .rankshift import (COMPARED, compare_drilldowns, period_rankings,
                        sds_drilldown, shift_stats, transition_matrix,
                        uda_rank_list, university_shift_table)


def _corpus_hash(input_dir: Path) -> str:
    h = hashlib.sha256()
    for stem in FILE_STEMS:
        for ext in (".csv", ".json"):
            p = input_dir / f"{stem}{ext}"
            if p.exists():
                h.update(p.name.encode())
                h.update(p.read_bytes())
                break
    return h.hexdigest()[:16]

def _config_hash(args: argparse.Namespace) -> str:
    skip = {"func", "out", "input"}
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in skip and not callable(v)}
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
        return str(v)

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
            lines = [header, "", "| " + " | ".join(columns) + " |",
                     "| " + " | ".join("---" for _ in columns) + " |"]
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


def _load_inputs(args) -> UnitLedger:
    """The one ledger a command reads, over the validated corpus."""
    scheme = _parse_scheme(args.scheme)
    if not math.isfinite(args.min_staff):
        raise InvalidConfig(f"--min-staff {args.min_staff}: expected a finite "
                            "staff threshold")
    corpus = load_corpus(Path(args.input))
    report = validate(corpus)
    if not report:
        first = report.violations[0]
        raise InvalidCorpus(f"violations={len(report)}, the first: "
                            f"[{first.kind}] {first.message}")
    baselines = build_baselines(corpus)
    if args.baselines:
        baselines = baselines.merge(load_external_baselines(Path(args.baselines)))
    return UnitLedger(corpus, scheme, baselines, args.basis, args.staff_mode)


def cmd_ingest(args) -> int:
    corpus = load_corpus(Path(args.input))
    report = validate(corpus)
    print(f"researchers={len(corpus.researchers)} "
          f"publications={len(corpus.publications)} "
          f"authorships={len(corpus.authorships)} violations={len(report)}")
    for v in report:
        print(f"  [{v.kind}] {v.message}")
    return 0 if report else 1


def cmd_indicators(args) -> int:
    ledger = _load_inputs(args)
    corpus = ledger.corpus
    emit = Emitter(Path(args.out), args.format,
                   _corpus_hash(Path(args.input)), _config_hash(args))

    # (sds, indicator, period) -> sds_unit_scores, for the table and the rollup
    unit_scores = {}
    rows = []
    for s in corpus.taxonomy.sds_list:
        for period in corpus.periods:
            for ind in INDICATORS:
                scores = unit_scores[(s, ind, period)] = sds_unit_scores(
                    ledger, s, ind, period)
                for (u, _), sc in sorted(scores.items()):
                    rows.append([u, s, ind, period.label,
                                 None if sc is None else sc.value,
                                 None if sc is None else sc.n_pubs,
                                 None if sc is None else sc.staff])
    emit.write("unit_scores", ["university_id", "sds", "indicator", "period",
                               "value", "n_pubs", "staff"], rows)

    rows = []
    for r in corpus.researchers:
        for period in corpus.periods:
            if presence(r, period, args.staff_mode) <= 0:
                continue
            for ind in INDICATORS:
                try:
                    sc = ledger.researcher_score(r.researcher_id, ind, period)
                    rows.append([r.researcher_id, ind, period.label,
                                 sc.value, sc.n_pubs, sc.staff])
                except (ZeroStaff, NoPublications):
                    rows.append([r.researcher_id, ind, period.label,
                                 None, 0, None])
    emit.write("researcher_scores",
               ["researcher_id", "indicator", "period", "value", "n_pubs", "staff"],
               rows)

    rows = []
    for uda in corpus.taxonomy.uda_list:
        sds_codes = corpus.taxonomy.sds_in_uda(uda)
        rolled = {(period, ind): uda_scores(
                      ledger, uda, ind, period,
                      {s: unit_scores[(s, ind, period)] for s in sds_codes})
                  for period in corpus.periods for ind in INDICATORS}
        for u in corpus.universities_in_uda(uda):
            for period in corpus.periods:
                for ind in INDICATORS:
                    sc = rolled[(period, ind)].get(u)
                    if sc is not None:
                        rows.append([u, uda, ind, period.label, sc.value,
                                     sc.covered_staff])
    emit.write("uda_scores", ["university_id", "uda", "indicator", "period",
                              "value", "covered_staff"], rows)
    return 0


def cmd_rank(args) -> int:
    ledger = _load_inputs(args)
    emit = Emitter(Path(args.out), args.format,
                   _corpus_hash(Path(args.input)), _config_hash(args))

    rank_rows, quintile_rows = [], []
    for uda in ledger.corpus.taxonomy.uda_list:
        for ind in INDICATORS:
            for ranking in period_rankings(uda_rank_list, ledger, uda, ind,
                                           args.min_staff):
                if ranking is None:
                    continue
                ranked, assigned = ranking
                for e in ranked.entries:
                    rank_rows.append([uda, ind, ranked.period, e.university_id,
                                      e.value, e.rank])
                    quintile_rows.append([uda, ind, ranked.period, e.university_id,
                                          assigned.entries[e.university_id]])
    emit.write("rank_lists", ["uda", "indicator", "period", "university_id",
                              "value", "rank"], rank_rows)
    emit.write("quintiles", ["uda", "indicator", "period", "university_id",
                             "quintile"], quintile_rows)
    return 0


def cmd_compare(args) -> int:
    ledger = _load_inputs(args)
    emit = Emitter(Path(args.out), args.format,
                   _corpus_hash(Path(args.input)), _config_hash(args))

    udas = ledger.corpus.taxonomy.uda_list
    rankings = {(uda, ind): period_rankings(uda_rank_list, ledger, uda, ind,
                                            args.min_staff)
                for uda in udas for ind in INDICATORS}
    stats_rows, transition_rows = [], []
    for (uda, ind), (early, late) in rankings.items():
        if early is None or late is None:
            continue
        stats = shift_stats(early.ranks, late.ranks)
        stats_rows.append([uda, ind, stats.n_total, stats.n_changed,
                           round(100.0 * stats.pct_changed, 1),
                           stats.max_abs_shift, stats.mean_abs_shift,
                           stats.median_abs_shift,
                           ";".join(stats.entries), ";".join(stats.exits)])
        matrix = transition_matrix(early.quintiles, late.quintiles)
        for i in range(5):
            for j in range(5):
                transition_rows.append([uda, ind, i + 1, j + 1,
                                        matrix.counts[i][j]])
    emit.write("shift_stats", ["uda", "indicator", "n_total", "n_changed",
                               "pct_changed", "max_abs_shift", "mean_abs_shift",
                               "median_abs_shift", "entries", "exits"],
               stats_rows)
    emit.write("transition_matrices",
               ["uda", "indicator", "early_quintile", "late_quintile", "count"],
               transition_rows)

    table = university_shift_table(
        ledger.corpus.universities,
        {uda: rankings[(uda, args.indicator)] for uda in udas}, args.indicator)
    rows = []
    for u in table.universities:
        rows.append([u] + [table.cells[u][c] for c in table.columns]
                    + [table.row_total(u)])
    rows.append(["pct_changed"]
                + [round(table.column_pct_changed(c), 1) for c in table.columns]
                + [round(table.overall_pct_changed(), 1)])
    emit.write("university_shift_table",
               ["university_id"] + list(table.columns) + ["total"], rows)
    shares = table.balance_shares()
    emit.write("shift_balance", ["negative_pct", "positive_pct", "nil_pct"],
               [[round(shares["negative"], 1), round(shares["positive"], 1),
                 round(shares["nil"], 1)]])
    return 0


def cmd_drilldown(args) -> int:
    ledger = _load_inputs(args)
    # one drilldown per indicator, shared by both reports; sds_drilldown
    # raises UnknownUniversity / UnknownUDA, so compute before any output
    drilldowns = {ind: sds_drilldown(ledger, args.university, args.uda, ind,
                                     args.min_staff)
                  for ind in dict.fromkeys((args.indicator, *COMPARED))}
    shifts = drilldowns[args.indicator]
    comparison = compare_drilldowns(drilldowns)
    emit = Emitter(Path(args.out), args.format,
                   _corpus_hash(Path(args.input)), _config_hash(args))
    emit.write("sds_drilldown", ["sds", "quintile_shift"],
               [[sds, shifts[sds]] for sds in sorted(shifts)])
    rows = [[sds, row["P"], row["FP"], row["AQ"], ";".join(row["flags"])]
            for sds, row in sorted(comparison.items())]
    emit.write("indicator_comparison", ["sds", "P", "FP", "AQ", "flags"], rows)
    return 0


def cmd_synth(args) -> int:
    from .synthgen import GenConfig, generate  # numpy loads only for this command
    config = GenConfig(
        seed=args.seed, n_universities=args.n_universities, n_sds=args.n_sds,
        sds_per_uda=args.sds_per_uda, staff_min=args.staff_min,
        staff_max=args.staff_max,
        pubs_per_researcher_year=args.pubs_per_researcher_year,
        citation_mean=args.citation_mean, turnover_rate=args.turnover_rate,
        life_science_fraction=args.life_science_fraction)
    manifest = generate(config, Path(args.out))
    print(json.dumps({k: v for k, v in manifest.items() if k != "config"},
                     sort_keys=True))
    return 0


def _add_common(p):
    p.add_argument("--input", required=True, help="directory with the corpus fileset")
    p.add_argument("--baselines", default=None,
                   help="external baseline CSV overriding corpus-derived strata")
    p.add_argument("--basis", choices=("median", "mean"), default="median")
    p.add_argument("--min-staff", dest="min_staff", type=float, default=6.0)
    p.add_argument("--staff-mode", dest="staff_mode",
                   choices=("prorata", "headcount"), default="prorata")
    p.add_argument("--scheme", default="2,2,1",
                   help="life-science share weights: first,last,middle")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.add_argument("--out", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibliorank",
        description="Field-standardized research performance indicators and "
                    "cross-period rank mobility")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a corpus fileset")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("indicators", help="per-unit, per-researcher and UDA scores")
    _add_common(p)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("rank", help="rank lists and quintile assignments")
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("compare", help="cross-period shift statistics and matrices")
    _add_common(p)
    p.add_argument("--indicator", choices=INDICATORS, default="FSS")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("drilldown", help="per-SDS shifts for one university and UDA")
    _add_common(p)
    p.add_argument("--university", required=True)
    p.add_argument("--uda", required=True)
    p.add_argument("--indicator", choices=INDICATORS, default="FSS")
    p.set_defaults(func=cmd_drilldown)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus fileset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-universities", dest="n_universities", type=int, default=8)
    p.add_argument("--n-sds", dest="n_sds", type=int, default=6)
    p.add_argument("--sds-per-uda", dest="sds_per_uda", type=int, default=3)
    p.add_argument("--staff-min", dest="staff_min", type=int, default=1)
    p.add_argument("--staff-max", dest="staff_max", type=int, default=4)
    p.add_argument("--pubs-per-researcher-year", dest="pubs_per_researcher_year",
                   type=float, default=1.2)
    p.add_argument("--citation-mean", dest="citation_mean", type=float, default=2.0)
    p.add_argument("--turnover-rate", dest="turnover_rate", type=float, default=0.2)
    p.add_argument("--life-science-fraction", dest="life_science_fraction",
                   type=float, default=0.3)
    p.add_argument("--out", default="synth_out")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BiblioRankError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
