"""Cross-field rescaling, university-UDA rollups, and national averages.

SDS-level unit scores are divided by the national staff-weighted mean of the
SDS, so 1.0 always reads as "national average". UDA scores are staff-weighted
convex combinations of those rescaled values.

Scores are read from the command's UnitLedger. uda_scores rolls a UDA up for
one period and all four indicators from each staffed unit's tally, and the
ledger keeps the rollup, so a command's rank lists and reports share it.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import EmptyScope, NoPublications, NoStaffInUda, ZeroBase
from .indicators import INDICATORS, UnitLedger, check_indicator, unit_indicator
from .model import Period


UdaScore = namedtuple("UdaScore",
                      "university_id uda indicator period value covered_staff")

# staff: the eligibility staff, one fsum over every presence of the university
# in the UDA; scores: indicator -> UdaScore, whose covered_staff adds unit staffs
UdaRollup = namedtuple("UdaRollup", "staff scores")


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

    Input maps unit -> (value, staff), value None where the score is absent.
    Absent units are dropped, so a stratum with no defined score rescales to
    {}; the weighted mean runs over every unit with a defined score, including
    any below a reporting threshold.
    """
    defined = {u: vs for u, vs in scores.items() if vs[0] is not None}
    if not defined:
        return {}
    weight_total = math.fsum(s for _, s in defined.values())
    if weight_total > 0:
        mean = math.fsum(s * v for v, s in defined.values()) / weight_total
    else:
        mean = math.fsum(v for v, _ in defined.values()) / len(defined)
    if mean == 0:
        return {u: 0.0 for u in defined}
    return {u: v / mean for u, (v, _) in defined.items()}


def uda_scores(ledger: UnitLedger, uda: str, period: Period) -> dict:
    """university_id -> UdaRollup, sorted, of every university with a staffed
    unit in the UDA; rolled up on the ledger's first read of (uda, period)."""
    rollups = ledger.uda_rollups
    if (uda, period) not in rollups:
        rollups[(uda, period)] = _roll_up(ledger, uda, period)
    return rollups[(uda, period)]


def _roll_up(ledger: UnitLedger, uda: str, period: Period) -> dict:
    # university -> (tally, indicator -> rescaled value or None) per staffed unit
    units = {}
    for sds in ledger.corpus.taxonomy.sds_in_uda(uda):
        tallies = ledger.staffed_universities(sds, period)
        rescaled = {ind: rescale_sds({u: (t.values[ind], t.staff)
                                      for u, t in tallies.items()})
                    for ind in INDICATORS}
        for u, tally in tallies.items():
            units.setdefault(u, []).append(
                (tally, {ind: rescaled[ind].get(u) for ind in INDICATORS}))
    out = {}
    for u, mine in sorted(units.items()):
        covered = math.fsum(t.staff for t, _ in mine)
        scores = {}
        for ind in INDICATORS:
            # absent SDS scores are dropped and the weights renormalized
            scored = [(t.staff, r[ind]) for t, r in mine if r[ind] is not None]
            if scored:
                value = (math.fsum(w * v for w, v in scored)
                         / math.fsum(w for w, _ in scored))
                scores[ind] = UdaScore(u, uda, ind, period.label, value, covered)
        out[u] = UdaRollup(math.fsum(x for t, _ in mine for x in t.presence), scores)
    return out


def uda_score(ledger: UnitLedger, university_id: str, uda: str, indicator: str,
              period: Period) -> UdaScore:
    """One university's UdaScore for one indicator, from uda_scores."""
    ledger.corpus.check_names(university_id)
    rollup = uda_scores(ledger, uda, period).get(university_id)
    check_indicator(indicator)
    if rollup is None:
        raise NoStaffInUda(f"{university_id} has no staff in UDA {uda}")
    if indicator not in rollup.scores:
        raise NoStaffInUda(
            f"{university_id} has no scored SDS in UDA {uda} for {indicator}")
    return rollup.scores[indicator]


def national_weighted_average(ledger: UnitLedger, indicator: str, period: Period,
                              scope: str | None = None) -> float:
    """Staff-share weighted average of per-SDS mean researcher-level scores.

    `scope` restricts to one UDA; None covers every SDS in the taxonomy. An
    SDS's mean runs over its staffed researchers with a defined score, and
    its weight is the staff of all of them.
    """
    taxonomy = ledger.corpus.taxonomy
    sds_codes = taxonomy.sds_list if scope is None else taxonomy.sds_in_uda(scope)
    check_indicator(indicator)
    per_sds = []
    for sds in sds_codes:
        tallies = ledger.staffed_researchers(sds, period).values()
        values = [v for t in tallies if (v := t.values[indicator]) is not None]
        if values:
            per_sds.append((math.fsum(t.staff for t in tallies),
                            math.fsum(values) / len(values)))
    if not per_sds:
        raise EmptyScope(f"no staffed SDS in scope {scope!r} for {period.label}")
    total_staff = math.fsum(w for w, _ in per_sds)
    return math.fsum(w * m for w, m in per_sds) / total_staff


def percent_variation(v_early: float, v_late: float) -> float:
    """Relative change from early to late, in percent (unrounded)."""
    if v_early <= 0:
        raise ZeroBase(f"early value {v_early} is not positive")
    return 100.0 * (v_late - v_early) / v_early
