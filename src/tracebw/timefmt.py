"""Text forms for timestamps: log cells and worksheet dates.

A timestamp cell, after surrounding whitespace is stripped, is one of two
forms, told apart by its first character:

epoch seconds
    Anything that does not start with an ASCII letter: a decimal integer,
    ASCII digits with an optional leading ``-`` (so ``-5`` and ``007`` are
    accepted; ``+7``, ``1_0``, ``٣``, ``²`` and ``1.5`` are not).

civil
    Starts with a letter: ``Mon DD YY[YY][ HH:MM:SS[.f]]``, the parts
    separated by whitespace runs. ``Mon`` is an English three-letter
    month abbreviation in any letter case, never locale-dependent. ``DD``
    and the year are decimal integers as above; a year token of at most
    two characters is pivoted onto 1970-2069 (``94`` is 1994, ``05`` is
    2005), a longer one is taken as written. The clock is three
    ``:``-separated decimal integers in 0-23, 0-59 and 0-59, and ``.f`` is
    1 to 3 ASCII digits of milliseconds (an empty fraction after the dot
    reads as 0).

Every timestamp lies in the span :class:`~tracebw.model.Timestamp` holds
as its invariant, the span a civil cell can name, so
:func:`format_timestamp` and :func:`format_day` write every timestamp.

Rejected with ValueError: any other part count, an unknown month, a day
that does not exist in its month and year (``May 32 94``, ``Feb 29 95``),
a year outside 1-9999, an hour, minute or second out of range
(``25:00:00``, ``00:60:00``), a fraction of 4 or more digits, epoch
seconds outside the span (``253402300800`` is in the year 10000), and
any token that is not a decimal integer where one is expected.

A civil token in the canonical fixed-width form that
:func:`format_timestamp` and ``tracebw gen`` write,
``Mon DD YY[YY] HH:MM:SS.mmm`` (single spaces, ASCII digits, a two- or
four-digit year, exactly three fraction digits, the hour, minute and
second in range), is matched by one compiled pattern and read by table,
converting no clock field but the milliseconds: the day part's
milliseconds come from a bounded cache, and those of ``HH:MM:`` and
``SS.`` from two dicts that invert the writer's clock tables below, plus
``int()`` of ``mmm``. The dicts hold about 180 KB, so they are built on
the first canonical read, not at import; epoch-only input never builds
them. Everything else, a canonical-shaped token with an out-of-range
clock included, is matched against the general grammar above by a second
compiled pattern, so both routes accept the same tokens with the same
values. Both patterns are compiled on the first civil cell read, not at
import; epoch-only input never compiles them. The day cache is shared by
both routes and converts each distinct day part text once (rejections
are never cached). The day part of a written civil cell, and the
worksheet date cut from it, are likewise cached per epoch day. Each day
cache imports ``datetime`` on a miss, so a run that neither reads nor
writes a civil date never loads it.

Timestamps are written back as epoch seconds when second-aligned and in
the civil form otherwise; years outside the 1970-2069 pivot window are
written zero-padded to four digits (``0005``, not ``5``, which would read
back as 2005), so every timestamp in the span parses back to itself. A
civil cell is joined from four pieces of text and formats no number: its
cached day part, then ``HH:MM:``, ``SS.`` and ``mmm`` looked up in tables
by minute of the day, second and millisecond. The tables hold about 150 KB
of strings, so they are built on the first civil write, not at import;
commands that only read never build them.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable

from .model import _EPOCH_ORDINAL, _MS_PER_DAY, MS_PER_S, Timestamp

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_INDEX = {name.lower(): i + 1 for i, name in enumerate(MONTHS)}
_CIVIL_INITIALS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

_PIVOT_LOW, _PIVOT_HIGH = 1970, 2069

# Distinct days in a trace span its calendar; a few thousand covers a decade.
_DAY_CACHE_SIZE = 4096


@lru_cache(maxsize=_DAY_CACHE_SIZE)
def _day_ms(day_part: str) -> int:
    """Epoch milliseconds of midnight UTC on the day ``Mon DD YY[YY]``, as
    one of the civil patterns below matched it: its day and year are ASCII
    digits after an optional ``-``, which ``int()`` reads as written."""
    month_token, day_token, year_token = day_part.split()
    month = _MONTH_INDEX.get(month_token.lower())
    if month is None:
        raise ValueError(f"bad month in timestamp {day_part!r}")
    year = int(year_token)
    if year < 0:
        raise ValueError(f"negative year in timestamp {day_part!r}")
    if len(year_token) <= 2:
        year += 1900 if year >= 70 else 2000
    # Imported here, on a cache miss only, so epoch-only input never loads datetime.
    from datetime import date

    try:
        day = date(year, month, int(day_token))
    except OverflowError:
        # A year or day too large for a C int, such as a 20-digit year.
        raise ValueError(f"day out of range in timestamp {day_part!r}") from None
    return (day.toordinal() - _EPOCH_ORDINAL) * _MS_PER_DAY


# Any civil token: the day part, then an optional clock, whose fields are
# held to their ranges after the match. Integers are ASCII digits after an
# optional minus; \s is Unicode whitespace, the set str.split() splits on.
_GENERAL_CIVIL = (r"([A-Za-z]{3}\s+-?[0-9]+\s+-?[0-9]+)"
                  r"(?:\s+(-?[0-9]+):(-?[0-9]+):(-?[0-9]+)(?:\.([0-9]{0,3}))?)?")

# The canonical civil form, as format_timestamp writes it: the day part with
# its trailing space (its _day_ms key), then the clock as the writer's three
# pieces, ``HH:MM:``, ``SS.`` and ``mmm``. The hour, minute and second are
# held to their ranges here, so an out-of-range clock does not match and is
# refused by the general path. Matched with re.ASCII, so
# \d is 0-9 and nothing int() would read differently.
_CANONICAL_CIVIL = (r"([A-Za-z]{3} \d\d \d\d(?:\d\d)? )"
                    r"((?:[01]\d|2[0-3]):[0-5]\d:)([0-5]\d\.)(\d\d\d)")

# The general pattern's fullmatch, bound with the canonical one's below.
_general_civil: Callable[[str], re.Match | None]


def _canonical_civil(token: str) -> re.Match | None:
    # Compiling both civil patterns waits for the first civil cell, which
    # parse_timestamp always tries here before the general pattern. Both names
    # are then rebound to the compiled fullmatch, so later cells make no
    # Python call to match.
    global _canonical_civil, _general_civil
    _canonical_civil = re.compile(_CANONICAL_CIVIL, re.ASCII).fullmatch
    _general_civil = re.compile(_GENERAL_CIVIL).fullmatch
    return _canonical_civil(token)


# The canonical clock's milliseconds by its ``HH:MM:`` and ``SS.`` text, the
# inverse of the writer's tables below; filled on the first canonical read.
_HOUR_MINUTE_MS: dict[str, int] = {}
_SECOND_MS: dict[str, int] = {}


def _build_clock_reads() -> None:
    hour_minutes, seconds, _ = _clock_texts()
    _HOUR_MINUTE_MS.update(zip(hour_minutes, range(0, _MS_PER_DAY, _MS_PER_MINUTE)))
    _SECOND_MS.update(zip(seconds, range(0, _MS_PER_MINUTE, MS_PER_S)))


def parse_timestamp(token: str) -> Timestamp:
    """Parse one timestamp cell, either epoch seconds or the civil form.

    Raises ValueError when the token is neither.
    """
    token = token.strip()
    if token[:1] not in _CIVIL_INITIALS:
        # ASCII digits after an optional minus: int() alone would also read
        # +7, 1_0 and non-ASCII digits.
        try:
            if not token.isascii() or "_" in token or "+" in token:
                raise ValueError
            epoch_ms = int(token) * MS_PER_S
        except ValueError:
            raise ValueError(f"bad timestamp {token!r}") from None
        return Timestamp(epoch_ms)
    canonical = _canonical_civil(token)
    if canonical is not None:
        if not _SECOND_MS:
            _build_clock_reads()
        day_part, hour_minute, second, ms = canonical.groups()
        return Timestamp(_day_ms(day_part) + _HOUR_MINUTE_MS[hour_minute]
                         + _SECOND_MS[second] + int(ms))
    general = _general_civil(token)
    if general is None:
        raise ValueError(f"bad timestamp {token!r}")
    day_part, hour, minute, second, fraction = general.groups()
    if hour is None:
        return Timestamp(_day_ms(day_part))
    hour, minute, second = int(hour), int(minute), int(second)
    if not (0 <= hour <= 23 and 0 <= minute <= 59 and 0 <= second <= 59):
        raise ValueError(f"clock out of range in timestamp {token!r}")
    # An absent or empty fraction is 0 ms; "5" is 500 ms.
    ms = int((fraction or "").ljust(3, "0"))
    return Timestamp(_day_ms(day_part) + ((hour * 60 + minute) * 60 + second) * MS_PER_S + ms)


# The civil clock's text by minute of the day, second and millisecond, empty
# until _build_clock_tables runs on the first civil write.
_MS_PER_MINUTE = 60 * MS_PER_S
_HOUR_MINUTES: tuple[str, ...] = ()
_SECONDS: tuple[str, ...] = ()
_MILLIS: tuple[str, ...] = ()


def _clock_texts() -> tuple[list[str], list[str], list[str]]:
    """``HH:MM:`` by minute of the day, ``SS.`` by second, ``mmm`` by millisecond."""
    two_digits = [str(n).zfill(2) for n in range(60)]
    return ([hh + ":" + mm + ":" for hh in two_digits[:24] for mm in two_digits],
            [ss + "." for ss in two_digits],
            [str(n).zfill(3) for n in range(MS_PER_S)])


def _build_clock_tables() -> None:
    global _HOUR_MINUTES, _SECONDS, _MILLIS
    _HOUR_MINUTES, _SECONDS, _MILLIS = map(tuple, _clock_texts())


def format_timestamp(ts: Timestamp) -> str:
    """Canonical log cell: epoch seconds when second-aligned, civil form otherwise.

    The epoch-seconds value -1 would collide with the missing-value
    sentinel, so that one timestamp is written in the civil form instead.
    """
    epoch_ms = ts.epoch_ms
    if epoch_ms % MS_PER_S == 0 and epoch_ms != -MS_PER_S:
        return str(epoch_ms // MS_PER_S)
    if not _MILLIS:
        _build_clock_tables()
    epoch_day, ms_of_day = divmod(epoch_ms, _MS_PER_DAY)
    minute_of_day, ms_of_minute = divmod(ms_of_day, _MS_PER_MINUTE)
    return "".join((_civil_day(epoch_day), _HOUR_MINUTES[minute_of_day],
                    _SECONDS[ms_of_minute // MS_PER_S], _MILLIS[ms_of_minute % MS_PER_S]))


@lru_cache(maxsize=_DAY_CACHE_SIZE)
def _civil_day(epoch_day: int) -> str:
    """``Mon DD YY[YY] `` of a day, trailing space included, as format_timestamp writes it."""
    from datetime import date

    day = date.fromordinal(_EPOCH_ORDINAL + epoch_day)
    return f"{MONTHS[day.month - 1]} {day.day:02d} {_format_year(day.year)} "


def format_day(ts: Timestamp) -> str:
    """Day-granularity worksheet date, e.g. "May 10 94"."""
    return _day_label(ts.epoch_ms // _MS_PER_DAY)


@lru_cache(maxsize=_DAY_CACHE_SIZE)
def _day_label(epoch_day: int) -> str:
    # The civil day part less its trailing space, with the year's last two digits.
    civil = _civil_day(epoch_day)
    return civil[:7] + civil[-3:-1]


def _format_year(year: int) -> str:
    if _PIVOT_LOW <= year <= _PIVOT_HIGH:
        return f"{year % 100:02d}"
    return f"{year:04d}"
