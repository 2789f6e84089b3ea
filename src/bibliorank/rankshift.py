"""Ranking lists, quintile assignment, and every cross-period comparison.

Cross-period statistics run over the intersection of universities eligible in
both periods; entrants and exits are listed separately, never mixed into the
rank-shift numbers.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate

# sds_unit_scores is unused here, but perfbench's tracer test needs it in this
# module until ROADMAP item 1: test_tracer_patches_every_importing_namespace…
from .aggregate import sds_unit_scores, uda_scores  # noqa: F401
from .baseline import median
from .errors import EmptyIntersection, NoEligibleUniversities
from .indicators import UnitLedger, check_indicator
from .model import Period

DEFAULT_MIN_STAFF = 6.0
N_QUINTILES = 5


RankEntry = namedtuple("RankEntry", "university_id value rank")


RankList = namedtuple("RankList", "uda indicator period entries min_staff_threshold")


# entries: university_id -> quintile, 1 = top; sizes: realized group sizes, top first
QuintileAssignment = namedtuple("QuintileAssignment", "uda indicator period entries sizes")

# entries: eligible late only; exits: eligible early only
ShiftStats = namedtuple(
    "ShiftStats", "n_total n_changed pct_changed max_abs_shift mean_abs_shift "
    "median_abs_shift entries exits", defaults=((), ()))


# counts: 5x5 nested tuples, row = early quintile, col = late
class TransitionMatrix(namedtuple("TransitionMatrix",
                                  "counts row_totals col_totals grand_total")):
    __slots__ = ()

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(N_QUINTILES))

    @property
    def pct_changed(self) -> float:
        return 1.0 - self.trace / self.grand_total


def rank_list(scores: dict, uda: str = "", indicator: str = "", period: str = "",
              min_staff: float = DEFAULT_MIN_STAFF) -> RankList:
    """Competition-ranked list over eligible universities.

    `scores` maps university_id -> (value, staff); staff below the threshold
    or a None value excludes the university. Equal values share the smaller
    rank and are ordered by university_id for display.
    """
    eligible = [(u, v) for u, (v, s) in scores.items()
                if s >= min_staff and v is not None]
    if not eligible:
        raise NoEligibleUniversities(
            f"no university meets the staff threshold {min_staff} in {uda or 'list'}")
    eligible.sort(key=lambda t: (-t[1], t[0]))
    entries = []
    for i, (u, v) in enumerate(eligible):
        if i > 0 and v == eligible[i - 1][1]:
            rank = entries[-1].rank
        else:
            rank = i + 1
        entries.append(RankEntry(u, v, rank))
    return RankList(uda, indicator, period, tuple(entries), min_staff)


def assign_quintiles(ranked: RankList) -> QuintileAssignment:
    """Split the ranked order into five contiguous groups, 1 = top.

    For n = 5q + r the first r groups take q + 1 members; an entry joins the
    first group whose cumulative size reaches its rank. The ranks must come
    from rank_list: a tie block shares the competition rank of its first
    member, so it never straddles a boundary. The whole block stays in the
    better quintile and the groups below shrink.
    """
    q, r = divmod(len(ranked.entries), N_QUINTILES)
    boundaries = list(accumulate(q + 1 if i < r else q for i in range(N_QUINTILES)))
    entries = {}
    sizes = [0] * N_QUINTILES
    for e in ranked.entries:
        quintile = bisect_left(boundaries, e.rank)
        entries[e.university_id] = quintile + 1
        sizes[quintile] += 1
    return QuintileAssignment(ranked.uda, ranked.indicator, ranked.period,
                              entries, tuple(sizes))


def shift_stats(list_early: RankList, list_late: RankList) -> ShiftStats:
    """Absolute rank-shift statistics over the intersection of both lists."""
    early = {e.university_id: e.rank for e in list_early.entries}
    late = {e.university_id: e.rank for e in list_late.entries}
    both = sorted(set(early) & set(late))
    if not both:
        raise EmptyIntersection("no university is eligible in both periods")
    deltas = [abs(early[u] - late[u]) for u in both]
    n_changed = sum(1 for d in deltas if d > 0)
    return ShiftStats(
        n_total=len(both),
        n_changed=n_changed,
        pct_changed=n_changed / len(both),
        max_abs_shift=max(deltas),
        mean_abs_shift=sum(deltas) / len(deltas),
        median_abs_shift=float(median(deltas)),
        entries=tuple(sorted(set(late) - set(early))),
        exits=tuple(sorted(set(early) - set(late))),
    )


def quintile_shift(q_early: int, q_late: int) -> int:
    """Early quintile minus late quintile; positive means improvement."""
    return q_early - q_late


def transition_matrix(assign_early: QuintileAssignment,
                      assign_late: QuintileAssignment) -> TransitionMatrix:
    both = sorted(set(assign_early.entries) & set(assign_late.entries))
    if not both:
        raise EmptyIntersection("no university is assigned in both periods")
    counts = [[0] * N_QUINTILES for _ in range(N_QUINTILES)]
    for u in both:
        counts[assign_early.entries[u] - 1][assign_late.entries[u] - 1] += 1
    return TransitionMatrix(
        counts=tuple(tuple(row) for row in counts),
        row_totals=tuple(sum(row) for row in counts),
        col_totals=tuple(sum(counts[i][j] for i in range(N_QUINTILES))
                         for j in range(N_QUINTILES)),
        grand_total=len(both),
    )


# ---------------------------------------------------------------------------
# ledger-driven orchestration


def uda_rank_list(ledger: UnitLedger, uda: str, indicator: str, period: Period,
                  min_staff: float = DEFAULT_MIN_STAFF) -> RankList:
    """Rank universities within a UDA by their rolled-up indicator score."""
    rollup = uda_scores(ledger, uda, period)
    check_indicator(indicator)
    scores = {u: (r.scores[indicator].value, r.staff)
              for u, r in rollup.items() if indicator in r.scores}
    return rank_list(scores, uda, indicator, period.label, min_staff)


def sds_rank_list(ledger: UnitLedger, sds: str, indicator: str, period: Period,
                  min_staff: float = DEFAULT_MIN_STAFF) -> RankList:
    """Rank universities within a single SDS by the raw unit score."""
    tallies = ledger.staffed_universities(sds, period)
    check_indicator(indicator)
    return rank_list({u: (t.values[indicator], t.staff) for u, t in tallies.items()},
                     sds, indicator, period.label, min_staff)


# ranks: RankList; quintiles: its QuintileAssignment
Ranking = namedtuple("Ranking", "ranks quintiles")


def period_rankings(rank, ledger: UnitLedger, scope: str, indicator: str,
                    min_staff: float = DEFAULT_MIN_STAFF) -> tuple:
    """(early, late) Ranking of `rank` (uda_rank_list or sds_rank_list) over
    the scope, with None for a period in which no university is eligible."""
    out = []
    for period in ledger.corpus.periods:
        try:
            ranked = rank(ledger, scope, indicator, period, min_staff)
        except NoEligibleUniversities:
            out.append(None)
            continue
        out.append(Ranking(ranked, assign_quintiles(ranked)))
    return tuple(out)


def quintile_shifts(rankings: tuple) -> dict:
    """university_id -> quintile shift of every university ranked in both
    periods of a period_rankings pair."""
    early, late = rankings
    if early is None or late is None:
        return {}
    q_late = late.quintiles.entries
    return {u: quintile_shift(q, q_late[u])
            for u, q in early.quintiles.entries.items() if u in q_late}


class ShiftTable:
    """University x column matrix of quintile shifts with totals and shares.

    `cells[university][column]` is an integer shift or None (ineligible in at
    least one period, printed as "n.a.").
    """

    def __init__(self, columns: list, cells: dict):
        self.columns = columns
        self.cells = cells

    def row_total(self, university_id) -> int:
        return sum(v for v in self.cells[university_id].values() if v is not None)

    @property
    def universities(self):
        return sorted(self.cells)

    def column_pct_changed(self, column) -> float:
        """Share of universities with a nonzero shift, over numeric cells."""
        numeric = [row[column] for row in self.cells.values()
                   if row.get(column) is not None]
        if not numeric:
            return 0.0
        return 100.0 * sum(1 for v in numeric if v != 0) / len(numeric)

    def overall_pct_changed(self) -> float:
        """Share of universities whose row total is nonzero; 0.0 for no rows."""
        totals = [self.row_total(u) for u in self.cells]
        return 100.0 * sum(1 for t in totals if t != 0) / (len(totals) or 1)

    def balance_shares(self) -> dict:
        """Shares of universities with negative / positive / nil row totals;
        all 0.0 for a table with no universities."""
        totals = [self.row_total(u) for u in self.cells]
        n = len(totals) or 1
        return {
            "negative": 100.0 * sum(1 for t in totals if t < 0) / n,
            "positive": 100.0 * sum(1 for t in totals if t > 0) / n,
            "nil": 100.0 * sum(1 for t in totals if t == 0) / n,
        }


def university_shift_table(universities, rankings: dict) -> ShiftTable:
    """Quintile shift of every university in every UDA between the two periods.

    `rankings` maps each UDA, in column order, to its period_rankings pair.
    """
    shifts = {uda: quintile_shifts(pair) for uda, pair in rankings.items()}
    cells = {u: {uda: by_uni.get(u) for uda, by_uni in shifts.items()}
             for u in universities}
    return ShiftTable(columns=list(rankings), cells=cells)


def sds_drilldown(ledger: UnitLedger, university_id: str, uda: str, indicator: str,
                  min_staff: float = DEFAULT_MIN_STAFF) -> dict:
    """Per-SDS quintile shifts of one university within a UDA.

    Only SDSs where the university is eligible in both periods appear.
    """
    ledger.corpus.check_names(university_id)
    out = {}
    for sds in ledger.corpus.taxonomy.sds_in_uda(uda):
        shifts = quintile_shifts(period_rankings(sds_rank_list, ledger, sds,
                                                 indicator, min_staff))
        if university_id in shifts:
            out[sds] = shifts[university_id]
    return out


def classify_shifts(p_shift: int, fp_shift: int, aq_shift: int) -> tuple:
    """Pattern flags for one SDS's (P, FP, AQ) quintile-shift triple."""
    flags = []
    if p_shift > 0 and fp_shift > 0 and aq_shift > 0:
        flags.append("all-up")
    if p_shift < 0 and fp_shift < 0 and aq_shift < 0:
        flags.append("all-down")
    if aq_shift > 0 and fp_shift < 0:
        flags.append("quality-up-quantity-down")
    return tuple(flags)


COMPARED = ("P", "FP", "AQ")


def compare_drilldowns(drilldowns: dict) -> dict:
    """SDS x {P, FP, AQ} quintile shifts with pattern flags.

    `drilldowns` maps each of P, FP and AQ to its sds_drilldown. Returns
    sds -> {"P": int, "FP": int, "AQ": int, "flags": tuple}; SDSs missing any
    of the three shift values are omitted.
    """
    p, fp, aq = (drilldowns[ind] for ind in COMPARED)
    return {sds: {"P": p[sds], "FP": fp[sds], "AQ": aq[sds],
                  "flags": classify_shifts(p[sds], fp[sds], aq[sds])}
            for sds in p if sds in fp and sds in aq}
