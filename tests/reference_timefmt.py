"""A datetime-based reference for timestamp cells, for differential tests.

Deliberately simple and slow: every cell builds a ``datetime``, which
validates the date and the clock of a civil cell and the span of an
epoch one, and a cell is epoch seconds exactly when it is a decimal
integer: ASCII digits after an optional ``-``, which a regular expression
checks.
``tracebw.timefmt`` must accept the same cells and return the same
milliseconds, and write the same cells.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_INDEX = {name.lower(): i + 1 for i, name in enumerate(MONTHS)}


def _int(token: str) -> int:
    if re.fullmatch(r"-?[0-9]+", token) is None:
        raise ValueError(f"not a decimal integer {token!r}")
    return int(token)


def _year(token: str) -> int:
    year = _int(token)
    if year < 0:
        raise ValueError(f"negative year {token!r}")
    if len(token) <= 2:
        return 1900 + year if year >= 70 else 2000 + year
    return year


def reference_parse_ms(token: str) -> int:
    """Epoch milliseconds of a timestamp cell; ValueError when it is not one."""
    token = token.strip()
    if re.fullmatch(r"-?[0-9]+", token):
        seconds = int(token)
        try:  # the span datetime can hold is the span of a timestamp
            dt = EPOCH + timedelta(seconds=seconds)
        except OverflowError:
            raise ValueError(f"timestamp out of range {token!r}") from None
        return (dt - EPOCH) // timedelta(milliseconds=1)
    parts = token.split()
    if len(parts) not in (3, 4):
        raise ValueError(f"bad timestamp {token!r}")
    month = _MONTH_INDEX.get(parts[0].lower())
    if month is None:
        raise ValueError(f"bad month {token!r}")
    day, year = _int(parts[1]), _year(parts[2])
    hour = minute = second = ms = 0
    if len(parts) == 4:
        clock, _, fraction = parts[3].partition(".")
        hh, mm, ss = clock.split(":")
        hour, minute, second = _int(hh), _int(mm), _int(ss)
        if fraction:
            if re.fullmatch(r"[0-9]{1,3}", fraction) is None:
                raise ValueError(f"bad fraction {fraction!r}")
            ms = int(fraction) * 10 ** (3 - len(fraction))
    dt = datetime(year, month, day, hour, minute, second, ms * 1000, tzinfo=timezone.utc)
    return (dt - EPOCH) // timedelta(milliseconds=1)


def reference_format_day(epoch_ms: int) -> str:
    dt = EPOCH + timedelta(milliseconds=epoch_ms)
    return f"{MONTHS[dt.month - 1]} {dt.day:02d} {dt.year % 100:02d}"


def reference_format_timestamp(epoch_ms: int) -> str:
    """The log cell for a timestamp: epoch seconds when second-aligned, except
    -1 s (the missing-value sentinel), and the civil form otherwise."""
    if epoch_ms % 1000 == 0 and epoch_ms != -1000:
        return str(epoch_ms // 1000)
    dt = EPOCH + timedelta(milliseconds=epoch_ms)
    year = f"{dt.year % 100:02d}" if 1970 <= dt.year <= 2069 else f"{dt.year:04d}"
    return (f"{MONTHS[dt.month - 1]} {dt.day:02d} {year} "
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}.{dt.microsecond // 1000:03d}")
