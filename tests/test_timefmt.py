"""Timestamp cell parsing and rendering."""

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracebw import timefmt
from tracebw.model import _FIRST_MS, _LAST_MS, _MS_PER_DAY, Timestamp
from tracebw.timefmt import format_day, format_timestamp, parse_timestamp

from .conftest import MS_1990, MS_2100
from .reference_timefmt import (EPOCH, MONTHS, reference_format_day, reference_format_timestamp,
                               reference_parse_ms)

_MS = timedelta(milliseconds=1)
# The span datetime can represent, which is the span of a timestamp.
_MIN_MS = (datetime.min.replace(tzinfo=timezone.utc) - EPOCH) // _MS
_MAX_MS = (datetime.max.replace(tzinfo=timezone.utc) - EPOCH) // _MS


def _ms_of(*fields) -> int:
    return (datetime(*fields, tzinfo=timezone.utc) - EPOCH) // _MS


@pytest.mark.parametrize("token,epoch_ms", [
    ("768453010", 768453010000),
    ("0", 0),
    ("-5", -5000),
    ("007", 7000),
    ("  42 ", 42000),
    ("Feb 29 96", 825552000000),
    ("May 10 94 01:02:03.", 768528000000 + 3723000),
    ("May 10 94", 768528000000),
    ("may 10 94", 768528000000),
    ("May 10 1994", 768528000000),
    ("May 10 94 01:02:03", 768528000000 + 3723000),
    ("May 10 94 01:02:03.456", 768528000000 + 3723456),
    ("May 10 94 01:02:03.4", 768528000000 + 3723400),
    ("Jan 01 05", 1104537600000),
    ("Dec 31 69", 3155673600000),
])
def test_parse_forms(token, epoch_ms):
    assert parse_timestamp(token).epoch_ms == epoch_ms


def test_century_pivot():
    assert parse_timestamp("Jan 01 70").epoch_ms == 0
    assert parse_timestamp("Jan 01 69").epoch_ms > parse_timestamp("Jan 01 99").epoch_ms


@pytest.mark.parametrize("token", [
    "", "Foo 10 94", "May 10", "May 10 94 1:2", "May 32 94",
    "May 10 94 24:00:00", "May 10 94 25:00:00",
    "May 10 94 01:02:03.4567", "10 May 94", "May 10 94 01:02:03 x",
    "Feb 29 95", "May 10 94 00:60:00", "May 10 94 00:00:60", "May 10 94 -1:00:00",
    "\u00b2", "1.5", "1__0", "yesterday", "May 10 10000",
    # int() reads these, but a timestamp's integers are ASCII digits after an
    # optional minus only.
    "+7", "1_0", "\u0663", "\uff11\uff12", "-+5", "May \u0661\u0660 94", "May 10 +94",
    "May 10 9_4", "May 10 94 0\u0663:02:03.456", "May 10 94 +1:02:03", "May 10 94 01:02:03.\u0663",
    "-62135596801", "253402300800",  # epoch seconds just outside 0001-01-01 .. 9999-12-31
])
def test_parse_rejects_garbage(token):
    with pytest.raises(ValueError):
        parse_timestamp(token)


@pytest.mark.parametrize("token", [
    "Jan 01 99999999999999999999",
    "Jan 99999999999999999999 94",
    "Jan 01 99999999999999999999 00:00:00",
    "Jan 01 99999999999999999999 00:00:00.000",
    "Jan 01 9999999999",
])
def test_year_or_day_too_large_for_a_date_is_a_value_error(token):
    # datetime.date raises OverflowError for these; the cell is still just bad.
    cached = timefmt._day_ms.cache_info().currsize
    with pytest.raises(ValueError):
        parse_timestamp(token)
    assert timefmt._day_ms.cache_info().currsize == cached  # rejections are not cached


def test_canonical_rendering():
    assert format_timestamp(Timestamp(768453010000)) == "768453010"
    assert format_timestamp(Timestamp(768528003456)) == "May 10 94 00:00:03.456"
    # The one epoch-seconds value that would collide with the missing sentinel.
    assert format_timestamp(Timestamp(-1000)) == "Dec 31 1969 23:59:59.000"


def test_rendering_outside_pivot_uses_four_digit_year():
    ts = parse_timestamp("Jan 01 2070")
    assert format_timestamp(Timestamp(ts.epoch_ms + 1)) == "Jan 01 2070 00:00:00.001"
    # Zero-padded: "5" or "99" would read back as 2005 or 1999.
    year_5 = Timestamp(_ms_of(5, 3, 1, 0, 0, 0, 1000))
    assert format_timestamp(year_5) == "Mar 01 0005 00:00:00.001"
    year_99 = Timestamp(_ms_of(99, 12, 31, 0, 0, 0, 1000))
    assert format_timestamp(year_99) == "Dec 31 0099 00:00:00.001"


def test_format_day_matches_worksheet_style():
    assert format_day(Timestamp(768528000000)) == "May 10 94"
    assert format_day(parse_timestamp("Jan 03 05")) == "Jan 03 05"


@settings(max_examples=500)
@given(st.one_of(st.integers(min_value=MS_1990, max_value=MS_2100),
                 st.integers(min_value=_MIN_MS, max_value=_MAX_MS),
                 st.integers(min_value=_MIN_MS, max_value=_ms_of(1000, 1, 1))))
@example(_ms_of(5, 3, 1, 0, 0, 0, 1000))
@example(_ms_of(99, 12, 31, 23, 59, 59, 999000))
@example(_MIN_MS)
@example(_MIN_MS + 1)
@example(_MAX_MS)
def test_render_parse_round_trip(epoch_ms):
    ts = Timestamp(epoch_ms)
    assert parse_timestamp(format_timestamp(ts)) == ts


@given(st.integers())
@example(_MIN_MS - 1)
@example(_MAX_MS + 1)
@example(10**20)
def test_every_timestamp_writes(epoch_ms):
    # The writers are total because Timestamp holds nothing they cannot write.
    try:
        ts = Timestamp(epoch_ms)
    except ValueError:
        assert not _MIN_MS <= epoch_ms <= _MAX_MS
        return
    assert parse_timestamp(format_timestamp(ts)) == ts
    assert format_day(ts) == reference_format_day(epoch_ms)


# --- differential test against the datetime-based reference ----------------

# Superscript two passes isdigit() but not int(); Arabic-Indic three passes both.
_CLOCK_FRACTION_CHARS = "0123456789\u00b2\u0663x"


@st.composite
def int_tokens(draw, values):
    """Integer renderings int() may or may not accept: padded, signed, with ``_``."""
    value = draw(values)
    digits = str(abs(value))
    form = draw(st.sampled_from(["plain", "pad2", "pad4", "plus", "underscore"]))
    if form == "pad2":
        digits = digits.zfill(2)
    elif form == "pad4":
        digits = digits.zfill(4)
    elif form == "underscore" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    sign = "-" if value < 0 else ("+" if form == "plus" else "")
    return sign + digits


def _around(low: int, high: int) -> st.SearchStrategy[int]:
    """Integers near [low, high], with its edges and the values just outside drawn often."""
    return st.integers(low - 1, high + 2) | st.sampled_from([low - 1, low, high, high + 1])


def _mixed_case(word: str) -> st.SearchStrategy[str]:
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(word, upper)))


_separators = st.sampled_from([" ", " ", " ", "  ", "\t", " \u3000"])  # mostly one space
_months = st.sampled_from(MONTHS + ("Foo", "Ma", "Sept")).flatmap(_mixed_case)
_years = int_tokens(st.one_of(st.integers(-1, 100), st.integers(1965, 2075),
                              st.sampled_from([0, 1, 9999, 10000])))
_fractions = st.one_of(
    st.just(""),
    st.text(alphabet=_CLOCK_FRACTION_CHARS, max_size=4).map(lambda f: "." + f))


@st.composite
def civil_tokens(draw):
    sep = draw(_separators)
    day = _around(1, 31) | st.sampled_from([28, 29, 30])
    parts = [draw(_months), draw(int_tokens(day)), draw(_years)]
    if draw(st.booleans()):
        clock = ":".join([draw(int_tokens(_around(0, 23))),
                          draw(int_tokens(_around(0, 59))),
                          draw(int_tokens(_around(0, 59)))])
        parts.append(clock + draw(_fractions))
    if draw(st.integers(0, 9)) == 0:
        parts.append("x")
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + sep.join(parts) + pad


epoch_tokens = st.one_of(
    int_tokens(st.integers(-10**12, 10**12)).map(lambda t: t.center(len(t) + 2)),
    st.sampled_from(["", "-", "+", "_1", "1_", "1__0", "\u00b2", "\u0663", "1.5", "1e3", "0x10"]),
)


def _fixed_width(low: int, high: int, width: int) -> st.SearchStrategy[str]:
    """A zero-padded field of ``width`` characters, its range edges drawn often; now
    and then one holds the non-ASCII digit U+0663, which int() reads and the
    canonical pattern does not."""
    edges = [v for v in (low - 1, low, high, high + 1) if 0 <= v < 10 ** width]
    values = st.integers(0, 10 ** width - 1) | st.sampled_from(edges)
    odd = st.text(alphabet="0123456789\u0663", min_size=width, max_size=width)
    return values.map(lambda v: str(v).zfill(width)) | odd


@st.composite
def canonical_tokens(draw):
    """Tokens shaped like format_timestamp's civil form, ``Mon DD YY[YY] HH:MM:SS.mmm``,
    with every field pushed past its range now and then."""
    month = draw(_months)
    day = draw(_fixed_width(1, 31, 2))
    year = draw(_fixed_width(0, 99, 2) | _fixed_width(1, 9999, 4)
                | st.sampled_from(["1969", "1970", "2069", "2070", "0000", "0001", "9999"]))
    if draw(st.integers(0, 4)) == 0:  # the one day that exists only in leap years
        month, day = draw(_mixed_case("Feb")), "29"
    clock = ":".join([draw(_fixed_width(0, 23, 2)), draw(_fixed_width(0, 59, 2)),
                      draw(_fixed_width(0, 59, 2))])
    return f"{month} {day} {year} {clock}.{draw(_fixed_width(0, 999, 3))}"


# What format_timestamp writes, drawn across the whole range datetime covers.
written_tokens = st.integers(min_value=_MIN_MS, max_value=_MAX_MS).map(reference_format_timestamp)


def _outcome(parse, token):
    try:
        return parse(token)
    except ValueError:
        return ValueError


@settings(max_examples=2000)
@given(st.one_of(civil_tokens(), epoch_tokens, canonical_tokens(), written_tokens,
                 st.text(alphabet="JFMADjfmad ay0123456789:._+-", max_size=24)))
@example("May 32 94")
@example("Feb 29 95")
@example("Feb 29 2000")
@example("May 10 94 24:00:00")
@example("May 10 94 25:00:00")
@example("May 10 94 00:60:00")
@example("May 10 94 00:00:00.1234")
@example("Dec 31 69 23:59:59.999")
@example("Jan 01 70")
@example("May 10 94 23:59:59.999")
@example("May 10 94 24:00:00.000")
@example("May 10 94 23:60:00.000")
@example("May 10 94 23:59:60.000")
@example("Feb 29 95 12:00:00.000")
@example("Feb 29 1900 12:00:00.000")
@example("Feb 29 2000 12:00:00.000")
@example("may 10 94 01:02:03.456")
@example("mAY 10 94 01:02:03.456")
@example("Foo 10 94 01:02:03.456")
@example("May 10 94 0\u0663:02:03.456")
@example("May 10 1969 01:02:03.456")
@example("May 10 2070 01:02:03.456")
@example("Jan 01 0000 00:00:00.000")
@example("Jan 01 0001 00:00:00.000")
@example("Dec 31 9999 23:59:59.999")
@example(" May 10 94 01:02:03.456")
@example("May 10 94 01:02:03.456 ")
@example("\tMay 10 94 01:02:03.456\t")
@example(" \t May 10 1994 23:59:59.999 \t ")
@example("May 10 94 00:00:00.000")
@example("Jan 01 70 00:00:00.000")
@example("May 10 1994 00:00:00.000")
@example("May 10 1994 23:59:59.999")
@example("Feb 29 2000 12:34:56.789")
@example("Feb 29 1900 00:00:00.000")
@example("Jan 01 0099 23:59:59.999")
@example("May 10 1994 24:00:00.000")
@example("-62135596800")
@example("-62135596801")
@example("253402300799")
@example("253402300800")
def test_parse_timestamp_matches_reference(token):
    assert (_outcome(lambda t: parse_timestamp(t).epoch_ms, token)
            == _outcome(reference_parse_ms, token))


@given(st.integers(min_value=_MIN_MS, max_value=_MAX_MS))
@example(-1)
@example(0)
@example(86_399_999)
@example(86_400_000)
@example(_MIN_MS)
@example(_MAX_MS)
def test_format_day_matches_reference(epoch_ms):
    assert format_day(Timestamp(epoch_ms)) == reference_format_day(epoch_ms)


_PIVOT_EDGES_MS = [(datetime(year, 1, 1, tzinfo=timezone.utc) - EPOCH) // _MS
                   for year in (1970, 2070)]


@settings(max_examples=1000)
@given(st.one_of(
    st.integers(min_value=_MIN_MS, max_value=_MAX_MS),
    st.integers(min_value=_MIN_MS // 1000, max_value=_MAX_MS // 1000).map(lambda s: s * 1000),
    st.sampled_from(_PIVOT_EDGES_MS).flatmap(
        lambda edge: st.integers(min_value=edge - 86_400_000, max_value=edge + 86_400_000)),
))
@example(-1000)
@example(-1)
@example(0)
@example(_MIN_MS)
@example(_MIN_MS + 1)
@example(_MAX_MS)
@example(_ms_of(5, 3, 1, 0, 0, 0, 1000))
def test_format_timestamp_matches_reference(epoch_ms):
    assert format_timestamp(Timestamp(epoch_ms)) == reference_format_timestamp(epoch_ms)


# --- the table-driven civil clock against the formula it replaced -----------

def f_string_format_timestamp(epoch_ms: int) -> str:
    """format_timestamp as written before the clock tables: divmod and format specs."""
    if epoch_ms % 1000 == 0 and epoch_ms != -1000:
        return str(epoch_ms // 1000)
    epoch_day, ms_of_day = divmod(epoch_ms, _MS_PER_DAY)
    seconds, ms = divmod(ms_of_day, 1000)
    minutes, second = divmod(seconds, 60)
    hour, minute = divmod(minutes, 60)
    return f"{timefmt._civil_day(epoch_day)}{hour:02d}:{minute:02d}:{second:02d}.{ms:03d}"


_EARLY_YEARS_MS = [_ms_of(year, 1, 1) for year in (1, 2, 50, 98, 99)]
_PIVOT_YEARS_MS = [_ms_of(year, 1, 1) for year in (1969, 1970, 1971, 2069, 2070, 2071)]


@settings(max_examples=1000)
@given(st.one_of(
    st.integers(min_value=_FIRST_MS, max_value=_LAST_MS),
    # Years 1-99, written with four digits so that they do not read back pivoted.
    st.integers(min_value=_FIRST_MS, max_value=_ms_of(100, 1, 1)),
    st.sampled_from(_EARLY_YEARS_MS + _PIVOT_YEARS_MS).flatmap(
        lambda edge: st.integers(min_value=max(edge - _MS_PER_DAY, _FIRST_MS),
                                max_value=edge + _MS_PER_DAY)),
))
@example(_FIRST_MS)
@example(_FIRST_MS + 1)
@example(_LAST_MS)
@example(_LAST_MS - 999)
@example(-1000)
@example(-1)
@example(0)
@example(1)
@example(_ms_of(99, 12, 31, 23, 59, 59, 999000))
@example(_ms_of(1969, 12, 31, 23, 59, 59, 999000))
@example(_ms_of(2069, 12, 31, 23, 59, 59, 999000))
@example(_ms_of(2070, 1, 1, 0, 0, 0, 1000))
def test_format_timestamp_matches_the_f_string_formula(epoch_ms):
    ts = Timestamp(epoch_ms)
    assert format_timestamp(ts) == f_string_format_timestamp(epoch_ms)
    assert parse_timestamp(format_timestamp(ts)) == ts


def test_every_clock_cell_matches_the_f_string_formula():
    # Each entry of the three clock tables, on one day: every minute of the
    # day, every second of a minute and every millisecond of a second.
    day = _ms_of(1994, 5, 10)
    points = ([day + minute * 60_000 + 1 for minute in range(1440)]
              + [day + second * 1000 + 1 for second in range(60)]
              + [day + 59_000 + ms for ms in range(1, 1000)])
    for epoch_ms in points:
        assert format_timestamp(Timestamp(epoch_ms)) == f_string_format_timestamp(epoch_ms)


def test_every_clock_read_matches_the_written_cell():
    # Each entry of the canonical route's two read tables, on one day: every
    # minute of the day and every second of a minute, read from the cell the
    # f-string formula writes, with the millisecond field beside them.
    day = _ms_of(1994, 5, 10)
    points = ([day + minute * 60_000 + 999 for minute in range(1440)]
              + [day + 23 * 3_600_000 + 59 * 60_000 + second * 1000 for second in range(60)])
    for epoch_ms in points:
        assert parse_timestamp(f_string_format_timestamp(epoch_ms)).epoch_ms == epoch_ms
    assert len(timefmt._HOUR_MINUTE_MS) == 1440 and len(timefmt._SECOND_MS) == 60
