"""Records and results are immutable named tuples that keep their checks."""
import math

import pytest

from bibliorank.indicators import IndicatorScore, ShareScheme
from bibliorank.model import Period, Publication, Taxonomy
from bibliorank.rankshift import RankEntry, RankList


@pytest.mark.parametrize("record, field", [
    (Publication("p1", 2001, "CAT_X", 5, 2), "citations"),
    (Period("early", 2001, 2003), "end_year"),
    (IndicatorScore(("U1", "S1"), "P", "early", 1.0, 3, 2.0), "value"),
    (RankList("A", "P", "early", (RankEntry("U1", 1.0, 1),), 6.0), "entries"),
], ids=["Publication", "Period", "IndicatorScore", "RankList"])
def test_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("make", [
    lambda: Period("early", 2003, 2001),
    lambda: Period(label="early", start_year=2003, end_year=2001),
    lambda: Taxonomy({"S1": "A"}, frozenset({"S1", "S9"})),
    lambda: ShareScheme(0, 2, 1),
    lambda: ShareScheme(first_weight=math.nan),
], ids=["period_reversed", "period_reversed_keywords", "life_science_outside_taxonomy",
        "zero_weight", "nan_weight"])
def test_invalid_records_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_share_scheme_defaults_and_keywords():
    assert ShareScheme() == ShareScheme(2.0, 2.0, 1.0)
    assert ShareScheme(middle_weight=0.5) == ShareScheme(2.0, 2.0, 0.5)


def test_period_repr_and_tuple_behaviour():
    period = Period("early", 2001, 2003)
    assert repr(period) == "Period(label='early', start_year=2001, end_year=2003)"
    label, start, end = period
    assert (label, start, end) == period == ("early", 2001, 2003)
    assert period[1] == period.start_year == 2001
    assert list(period.years) == [2001, 2002, 2003]
