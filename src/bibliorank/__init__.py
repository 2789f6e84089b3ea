"""Field-standardized research performance indicators and rank mobility."""

__version__ = "0.1.0"

from .aggregate import (UdaRollup, UdaScore, national_weighted_average,
                        percent_variation, rescale_sds, uda_score, uda_scores)
from .baseline import (BaselineEntry, BaselineTable, build_baselines,
                       load_external_baselines, standardize_citations)
from .indicators import (IndicatorScore, ShareScheme, UnitLedger,
                         fractional_share, researcher_indicator, unit_indicator)
from .loader import load_corpus, write_corpus
from .model import (Authorship, Corpus, Period, Publication, Researcher,
                    Taxonomy, staff, validate)
from .rankshift import (QuintileAssignment, RankList, ShiftStats, ShiftTable,
                        TransitionMatrix, assign_quintiles, classify_shifts,
                        compare_drilldowns, period_rankings, quintile_shift,
                        rank_list, sds_drilldown, shift_stats,
                        transition_matrix, uda_rank_list,
                        university_shift_table)

# The generator needs numpy, which takes longer to import than the rest of the
# package; load it on first use so that scoring commands start without it.
_SYNTHGEN = ("GenConfig", "generate", "make_corpus")


def __getattr__(name):
    if name in _SYNTHGEN:
        from . import synthgen
        return getattr(synthgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
