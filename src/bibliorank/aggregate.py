"""Cross-field rescaling, university-UDA rollups, and national averages.

SDS-level unit scores are divided by the national staff-weighted mean of the
SDS, so 1.0 always reads as "national average". UDA scores are staff-weighted
convex combinations of those rescaled values.

Scores are read from the command's UnitLedger. uda_scores is one pass over
the sds_unit_scores maps it is given: they list the staffed units, so they
alone decide which units a rollup counts, and a command scores each SDS once.
uda_score looks one university up in that rollup.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import (AllAbsent, EmptyScope, NoPublications, NoStaffInUda,
                     ZeroBase, ZeroStaff)
from .indicators import UnitLedger, unit_indicator
from .model import Period, presence


UdaScore = namedtuple("UdaScore",
                      "university_id uda indicator period value covered_staff")


def sds_unit_scores(ledger: UnitLedger, sds: str, indicator: str,
                    period: Period) -> dict:
    """Score every staffed unit of one SDS; None marks an absent (undefined) score."""
    out = {}
    for u in ledger.staffed_universities(sds, period):
        try:
            out[(u, sds)] = unit_indicator(
                ledger.corpus, u, sds, indicator, period, ledger.scheme,
                ledger.baselines, ledger.basis, ledger.staff_mode, ledger=ledger)
        except NoPublications:
            out[(u, sds)] = None
    return out


def rescale_sds(scores: dict) -> dict:
    """Divide each unit value by the SDS's national staff-weighted mean.

    Input maps unit -> IndicatorScore (None = absent). Absent units are
    dropped; the weighted mean runs over every unit with a defined score,
    including any below a reporting threshold.
    """
    defined = {u: s for u, s in scores.items() if s is not None}
    if not defined:
        raise AllAbsent("no unit has a defined score in this stratum")
    weight_total = math.fsum(s.staff for s in defined.values())
    if weight_total > 0:
        mean = math.fsum(s.staff * s.value for s in defined.values()) / weight_total
    else:
        mean = math.fsum(s.value for s in defined.values()) / len(defined)
    if mean == 0:
        return {u: 0.0 for u in defined}
    return {u: s.value / mean for u, s in defined.items()}


def uda_unit_scores(ledger: UnitLedger, uda: str, indicator: str,
                    period: Period) -> dict:
    """sds -> sds_unit_scores for every SDS of the UDA."""
    return {sds: sds_unit_scores(ledger, sds, indicator, period)
            for sds in ledger.corpus.taxonomy.sds_in_uda(uda)}


def uda_scores(ledger: UnitLedger, uda: str, indicator: str, period: Period,
               unit_scores: dict) -> dict:
    """university_id -> UdaScore for every university of the UDA that has one.

    `unit_scores` is the UDA's uda_unit_scores, which the caller may already
    hold for its unit table. Its maps list the staffed units, so they decide
    which units count: each SDS is rescaled once and each unit it lists adds
    (staff, rescaled value or None) to its university.
    """
    contributions = {}
    for sds, scores in unit_scores.items():
        try:
            rescaled = rescale_sds(scores)
        except AllAbsent:
            rescaled = {}
        for u, _ in scores:
            contributions.setdefault(u, []).append(
                (ledger.staff(u, sds, period), rescaled.get((u, sds))))
    out = {}
    for u, pairs in sorted(contributions.items()):
        # absent SDS scores are dropped and the weights renormalized
        scored = [(w, v) for w, v in pairs if v is not None]
        if scored:
            value = (math.fsum(w * v for w, v in scored)
                     / math.fsum(w for w, _ in scored))
            out[u] = UdaScore(u, uda, indicator, period.label, value,
                              math.fsum(w for w, _ in pairs))
    return out


def uda_score(ledger: UnitLedger, university_id: str, uda: str, indicator: str,
              period: Period) -> UdaScore:
    """One university's entry of uda_scores."""
    ledger.corpus.check_names(university_id)
    unit_scores = uda_unit_scores(ledger, uda, indicator, period)
    score = uda_scores(ledger, uda, indicator, period, unit_scores).get(university_id)
    if score is not None:
        return score
    if any((university_id, sds) in scores for sds, scores in unit_scores.items()):
        raise NoStaffInUda(
            f"{university_id} has no scored SDS in UDA {uda} for {indicator}")
    raise NoStaffInUda(f"{university_id} has no staff in UDA {uda}")


def national_weighted_average(ledger: UnitLedger, indicator: str, period: Period,
                              scope: str | None = None) -> float:
    """Staff-share weighted average of per-SDS mean researcher-level scores.

    `scope` restricts to one UDA; None covers every SDS in the taxonomy.
    """
    corpus = ledger.corpus
    if scope is None:
        sds_codes = corpus.taxonomy.sds_list
    else:
        sds_codes = corpus.taxonomy.sds_in_uda(scope)
    corpus.check_period(period)
    # sds -> (researcher_id, presence) of its researchers active in the period
    active = {}
    for r in corpus.researchers:
        weight = presence(r, period, ledger.staff_mode)
        if weight > 0:
            active.setdefault(r.sds, []).append((r.researcher_id, weight))
    per_sds = []
    for sds in sds_codes:
        members = active.get(sds, ())
        values = []
        for researcher_id, _ in members:
            try:
                values.append(ledger.researcher_score(researcher_id, indicator,
                                                      period).value)
            except (ZeroStaff, NoPublications):
                continue
        if not values:
            continue
        sds_staff = math.fsum(w for _, w in members)
        per_sds.append((sds_staff, math.fsum(values) / len(values)))
    if not per_sds:
        raise EmptyScope(f"no staffed SDS in scope {scope!r} for {period.label}")
    total_staff = math.fsum(w for w, _ in per_sds)
    return math.fsum(w * m for w, m in per_sds) / total_staff


def percent_variation(v_early: float, v_late: float) -> float:
    """Relative change from early to late, in percent (unrounded)."""
    if v_early <= 0:
        raise ZeroBase(f"early value {v_early} is not positive")
    return 100.0 * (v_late - v_early) / v_early
