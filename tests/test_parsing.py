"""Both line formats, the streaming session, and the LANL16 writer."""

import io
import itertools
import re
from math import isfinite

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebw import (
    IoFailure,
    JobRecord,
    MalformedLine,
    MemorySource,
    Timestamp,
    TraceFormat,
    compute_rates,
    format_lanl_line,
    parse_archive_line,
    parse_lanl_line,
    parse_trace,
    parsing,
    timefmt,
    write_lanl_trace,
)
from tracebw.model import _FIRST_MS, _LAST_MS

from .conftest import job_records, optional, tokens
from .swf import SWF_FIELDS, format_swf_line, swf_cell

LANL_LINE = ("j1\t768453000\t768453010\t768453020\t32\t32\t100\t90"
             "\t32768\t30000\tq1\t0\tu1\tp1\ta.out\t0")

_ARCHIVE_DEFAULTS = ["1", "100", "10", "20", "4", "18", "100", "4", "30",
                     "200", "1", "3", "2", "5", "1", "1", "-1", "-1"]


def archive_line(**overrides) -> str:
    fields = dict(enumerate(_ARCHIVE_DEFAULTS))
    names = {"job": 0, "submit": 1, "wait": 2, "runtime": 3, "procs": 4,
             "cpu": 5, "used_mem": 6, "req_procs": 7, "req_time": 8,
             "req_mem": 9, "status": 10}
    for name, value in overrides.items():
        fields[names[name]] = str(value)
    return " ".join(fields[i] for i in range(18))


class TestParseLanlLine:
    def test_positional_mapping(self):
        rec = parse_lanl_line(LANL_LINE, 1)
        assert rec == JobRecord(
            job_id="j1",
            submit_time=Timestamp(768453000000),
            start_time=Timestamp(768453010000),
            end_time=Timestamp(768453020000),
            req_procs=32, used_procs=32,
            req_cpu_s=100.0, used_cpu_s=90.0,
            req_mem_kb=32768, used_mem_kb=30000,
            queue="q1", dedicated=False,
            user="u1", project="p1", executable="a.out", exit_code=0,
        )

    def test_sentinel_makes_fields_absent(self):
        line = LANL_LINE.replace("768453000", "-1").replace("768453010", "-1")
        rec = parse_lanl_line(line, 1)
        assert rec.submit_time is None
        assert rec.start_time is None
        assert rec.end_time == Timestamp(768453020000)

    def test_empty_column_means_absent_too(self):
        cells = LANL_LINE.split("\t")
        cells[8] = ""
        rec = parse_lanl_line("\t".join(cells), 1)
        assert rec.req_mem_kb is None

    def test_wrong_column_count_is_malformed(self):
        line = "\t".join(LANL_LINE.split("\t")[:15])
        with pytest.raises(MalformedLine) as info:
            parse_lanl_line(line, 7)
        assert info.value.line_no == 7
        assert info.value.reason == "column-count"

    def test_civil_timestamps_inside_tab_cells(self):
        cells = LANL_LINE.split("\t")
        cells[2] = "May 10 94 00:00:03.456"
        rec = parse_lanl_line("\t".join(cells), 1)
        assert rec.start_time == Timestamp(768528003456)

    def test_whitespace_run_splitting_without_tabs(self):
        rec = parse_lanl_line(LANL_LINE.replace("\t", "   "), 1)
        assert rec.job_id == "j1"
        assert rec.used_mem_kb == 30000

    def test_cells_are_space_trimmed(self):
        rec = parse_lanl_line(LANL_LINE.replace("\t", " \t "), 1)
        assert rec.job_id == "j1"
        assert rec.executable == "a.out"

    @pytest.mark.parametrize("column,token,reason", [
        (1, "yesterday", "bad-timestamp"),
        (1, "Jan 01 -5", "bad-timestamp"),  # a signed year token is not pivoted
        (4, "many", "bad-int"),
        (4, "-2", "negative-value"),
        (6, "fast", "bad-real"),
        (6, "inf", "bad-real"),
        (6, "-0.5", "negative-value"),
        (8, "3.5", "bad-int"),
        (11, "maybe", "bad-flag"),
        (15, "ok", "bad-int"),
    ])
    def test_bad_cells_are_malformed(self, column, token, reason):
        cells = LANL_LINE.split("\t")
        cells[column] = token
        with pytest.raises(MalformedLine) as info:
            parse_lanl_line("\t".join(cells), 3)
        assert info.value.reason == reason

    @pytest.mark.parametrize("column,token,reason", [
        (2, "253402300800", "bad-timestamp"),  # 10000-01-01
        (3, "-62135596801", "bad-timestamp"),  # one second before 0001-01-01
        (4, str(2**63), "bad-int"),
        (9, str(10**400), "bad-int"),
    ])
    def test_values_outside_their_span_are_malformed(self, column, token, reason):
        cells = LANL_LINE.split("\t")
        cells[column] = token
        with pytest.raises(MalformedLine) as info:
            parse_lanl_line("\t".join(cells), 3)
        assert info.value.reason == reason

    @pytest.mark.parametrize("token", [
        "Jan 01 99999999999999999999",
        "Jan 99999999999999999999 94",
        "Jan 01 99999999999999999999 00:00:00",
        "Jan 01 99999999999999999999 00:00:00.000",
    ])
    @pytest.mark.parametrize("separator", ["\t", " \t"], ids=["plain", "padded"])
    def test_year_or_day_too_large_for_a_date_is_bad_timestamp(self, token, separator):
        # A plain line tries the conversion block first; a padded one is
        # checked cell by cell first. Both name the timestamp column.
        cells = LANL_LINE.split("\t")
        cells[2] = token
        with pytest.raises(MalformedLine) as info:
            parse_lanl_line(separator.join(cells), 3)
        assert str(info.value) == f"line 3: bad-timestamp: start_time={token!r}"

    def test_span_edges_are_accepted(self):
        cells = LANL_LINE.split("\t")
        cells[1:5] = ["-62135596800", "253402300799", "Dec 31 9999 23:59:59.999", str(2**63 - 1)]
        rec = parse_lanl_line("\t".join(cells), 1)
        assert rec.submit_time == Timestamp(-62135596800000)
        assert rec.start_time == Timestamp(253402300799000)
        assert rec.end_time == Timestamp(253402300799999)
        assert rec.req_procs == 2**63 - 1

    def test_job_id_is_verbatim_even_when_sentinel_shaped(self):
        cells = LANL_LINE.split("\t")
        cells[0] = "-1"
        assert parse_lanl_line("\t".join(cells), 1).job_id == "-1"

    def test_dedicated_flag_values(self):
        cells = LANL_LINE.split("\t")
        for token, expected in (("0", False), ("1", True), ("2", True), ("-1", None)):
            cells[11] = token
            assert parse_lanl_line("\t".join(cells), 1).dedicated is expected


class TestParseArchiveLine:
    def test_derived_start_and_end(self):
        rec = parse_archive_line(archive_line(submit=100, wait=10, runtime=20), 1)
        assert rec.submit_time == Timestamp(100000)
        assert rec.start_time == Timestamp(110000)
        assert rec.end_time == Timestamp(130000)

    def test_missing_wait_erases_start_and_end(self):
        rec = parse_archive_line(archive_line(wait=-1), 1)
        assert rec.start_time is None
        assert rec.end_time is None

    def test_missing_runtime_erases_end_only(self):
        rec = parse_archive_line(archive_line(runtime=-1, wait=5), 1)
        assert rec.start_time == Timestamp(105000)
        assert rec.end_time is None

    def test_per_proc_memory_scaled_by_allocated_procs(self):
        rec = parse_archive_line(archive_line(procs=4, used_mem=100, req_mem=200), 1)
        assert rec.used_mem_kb == 400
        assert rec.req_mem_kb == 800

    def test_raw_per_proc_memory(self):
        rec = parse_archive_line(archive_line(procs=4, used_mem=100, req_mem=200), 1,
                                 scale_per_proc_memory=False)
        assert rec.used_mem_kb == 100
        assert rec.req_mem_kb == 200

    def test_scaling_needs_proc_count(self):
        line = archive_line(procs=-1, used_mem=100)
        assert parse_archive_line(line, 1).used_mem_kb is None
        assert parse_archive_line(line, 1, scale_per_proc_memory=False).used_mem_kb == 100

    def test_field_mapping(self):
        rec = parse_archive_line(archive_line(), 1)
        assert rec.job_id == "1"
        assert rec.used_procs == 4 and rec.req_procs == 4
        assert rec.used_cpu_s == 18.0 and rec.req_cpu_s == 30.0
        assert rec.exit_code == 1
        assert (rec.user, rec.project, rec.executable, rec.queue) == ("3", "2", "5", "1")
        assert rec.dedicated is None

    def test_wrong_field_count_is_malformed(self):
        with pytest.raises(MalformedLine) as info:
            parse_archive_line("1 2 3", 9)
        assert info.value.reason == "column-count"

    def test_non_numeric_field_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_archive_line(archive_line(status="done"), 1)

    def test_negative_resource_is_malformed(self):
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(archive_line(wait=-7), 1)
        assert info.value.reason == "negative-value"

    @pytest.mark.parametrize("overrides,detail", [
        ({"submit": "1e306"}, "submit='1e306'"),  # overflows to infinity in milliseconds
        ({"submit": "1e12"}, "submit='1e12'"),
        ({"submit": "253402300799.9996"}, "submit='253402300799.9996'"),  # rounds past it
        ({"submit": 253402300000, "wait": 1000}, "wait='1000'"),
        ({"submit": 253402300000, "wait": 10, "runtime": 1000}, "runtime='1000'"),
        ({"submit": 10, "wait": "1e308", "runtime": "1e308"}, "wait='1e308'"),
    ])
    def test_time_outside_the_span_names_the_cell_that_moved_it(self, overrides, detail):
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(archive_line(**overrides), 4)
        assert str(info.value) == f"line 4: bad-real: {detail}"

    def test_span_edge_is_accepted(self):
        rec = parse_archive_line(archive_line(submit=253402300000, wait=700,
                                              runtime="99.999"), 1)
        assert rec.end_time == Timestamp(253402300799999)

    @pytest.mark.parametrize("overrides,detail", [
        ({"procs": str(2**63)}, f"allocated_procs='{2**63}'"),
        ({"req_mem": "1e19"}, "requested_mem_kb_per_proc='1e19'"),
        ({"used_mem": str(10**400)}, f"used_mem_kb_per_proc='{10**400}'"),
    ])
    def test_count_too_large_for_a_rate_is_bad_int(self, overrides, detail):
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(archive_line(**overrides), 4)
        assert str(info.value) == f"line 4: bad-int: {detail}"

    def test_largest_counts_keep_rates_finite(self):
        top = str(2**63 - 1)
        rec = parse_archive_line(archive_line(procs=top, used_mem=top, req_mem=top), 1)
        assert rec.req_mem_kb == (2**63 - 1) ** 2
        (sample,) = compute_rates([rec], MemorySource.REQUESTED)
        assert isfinite(sample.rate_bytes_per_s)


# --- The cell grammar, token by token ----------------------------------------

# Tokens that int() or float() read but that break the ASCII cell grammar.
_NOT_NUMBERS = ["1_0", "+5", "\u0663", "\uff11\uff12"]
_LANL_SEPARATORS = {"plain": "\t", "padded": " \t "}
_ARCHIVE_SEPARATORS = {"plain": " ", "aligned": "   "}


def _lanl_line_with(name: str, token: str, separator: str) -> str:
    cells = LANL_LINE.split("\t")
    cells[1 + [column for column, _, _ in parsing._LANL_COLUMNS].index(name)] = token
    return separator.join(cells)


def _archive_line_with(name: str, token: str, separator: str) -> str:
    cells = list(_ARCHIVE_DEFAULTS)
    cells[SWF_FIELDS.index(name)] = token
    return separator.join(cells)


def _refusal(parse, line: str) -> str:
    with pytest.raises(MalformedLine) as info:
        parse(line, 3)
    return str(info.value)


@pytest.mark.parametrize("separator", _LANL_SEPARATORS.values(), ids=_LANL_SEPARATORS)
@pytest.mark.parametrize("name,token,expected", [
    *((name, token, f"{reason}: {name}={token!r}")
      for token in _NOT_NUMBERS + ["\xa05"]
      for name, reason in (("req_procs", "bad-int"), ("req_cpu_s", "bad-real"),
                           ("dedicated", "bad-flag"), ("exit_code", "bad-int"))),
    ("used_mem_kb", "1e3", "bad-int: used_mem_kb='1e3'"),
    ("exit_code", "1E3", "bad-int: exit_code='1E3'"),
    ("dedicated", ".0", "bad-flag: dedicated='.0'"),
    ("req_procs", "-1e0", "bad-int: req_procs='-1e0'"),
    ("used_cpu_s", "-1e0", "negative-value: used_cpu_s=-1.0"),
    ("exit_code", "9" * 5000, f"bad-int: exit_code='{'9' * 5000}'"),  # too long for int()
])
def test_lanl_refused_token(name, token, expected, separator):
    assert _refusal(parse_lanl_line, _lanl_line_with(name, token, separator)) \
        == f"line 3: {expected}"


@pytest.mark.parametrize("separator", _ARCHIVE_SEPARATORS.values(), ids=_ARCHIVE_SEPARATORS)
@pytest.mark.parametrize("name,token,expected", [
    *((name, token, f"{reason}: {name}={token!r}")
      for token in _NOT_NUMBERS
      for name, reason in (("wait", "bad-real"), ("allocated_procs", "bad-int"),
                           ("status", "bad-int"), ("user", "bad-int"),
                           ("think_time", "bad-int"))),
    *((name, token, f"bad-int: {name}={token!r}")
      for token in ("1e3", "1E3", ".0", "-1e0")
      for name in ("allocated_procs", "status", "user", "think_time")),
    ("wait", "-1e0", "negative-value: wait=-1.0"),
    ("avg_cpu", "-1e0", "negative-value: avg_cpu=-1.0"),
    ("status", "9" * 5000, f"bad-int: status='{'9' * 5000}'"),  # too long for int()
])
def test_archive_refused_token(name, token, expected, separator):
    assert _refusal(parse_archive_line, _archive_line_with(name, token, separator)) \
        == f"line 3: {expected}"


def test_archive_no_break_space_separates_fields():
    # ARCHIVE18 splits on every whitespace character, so "\xa05" is a
    # separator and a 5, never one cell.
    line = _archive_line_with("allocated_procs", "\xa05", " ")
    assert parse_archive_line(line).used_procs == 5


@pytest.mark.parametrize("separator", _LANL_SEPARATORS.values(), ids=_LANL_SEPARATORS)
@pytest.mark.parametrize("name,token,expected", [
    ("req_procs", "00", 0),
    ("req_procs", "-0", 0),
    ("used_mem_kb", str(2**63 - 1), 2**63 - 1),
    ("dedicated", "00", False),
    ("exit_code", "-0", 0),
    ("req_cpu_s", "-0", -0.0),
    ("req_cpu_s", "-0.0", -0.0),
    ("req_cpu_s", "1e-05", 1e-05),
    ("used_cpu_s", "1.5e+20", 1.5e+20),
])
def test_lanl_accepted_token(name, token, expected, separator):
    value = getattr(parse_lanl_line(_lanl_line_with(name, token, separator), 3), name)
    assert repr(value) == repr(expected)  # repr tells -0.0 from 0.0 and 0 from False


@pytest.mark.parametrize("separator", _ARCHIVE_SEPARATORS.values(), ids=_ARCHIVE_SEPARATORS)
@pytest.mark.parametrize("name,token,field,expected", [
    ("allocated_procs", "00", "used_procs", 0),
    ("allocated_procs", "-0", "used_procs", 0),
    ("allocated_procs", "-0.0", "used_procs", 0),
    ("requested_procs", str(2**63 - 1), "req_procs", 2**63 - 1),
    ("avg_cpu", "-0.0", "used_cpu_s", -0.0),
    ("avg_cpu", "1e-05", "used_cpu_s", 1e-05),
    ("requested_time", "1.5e+20", "req_cpu_s", 1.5e+20),
    ("allocated_procs", "4.0", "used_procs", 4),
    ("requested_procs", "4.", "req_procs", 4),
    ("status", "4.0", "exit_code", 4),
    ("allocated_procs", "-1.0", "used_procs", None),
    ("allocated_procs", "-01", "used_procs", None),
    ("wait", "-1.0", "start_time", None),
    ("user", "-1.0", "user", None),
    ("user", "3.0", "user", "3.0"),
])
def test_archive_accepted_token(name, token, field, expected, separator):
    line = _archive_line_with(name, token, separator)
    value = getattr(parse_archive_line(line, 3, scale_per_proc_memory=False), field)
    assert repr(value) == repr(expected)


# --- ARCHIVE18 properties --------------------------------------------------

_REAL_FIELDS = ("submit", "wait", "runtime", "avg_cpu", "requested_time")
_AMOUNT_FIELDS = ("allocated_procs", "used_mem_kb_per_proc", "requested_procs",
                  "requested_mem_kb_per_proc")
_LABEL_FIELDS = ("user", "group", "executable", "queue")
_INT_FIELDS = _AMOUNT_FIELDS + ("status",) + _LABEL_FIELDS + (
    "partition", "preceding_job", "think_time")


def _integral(low: int, high: int) -> st.SearchStrategy:
    """Integers, sometimes written as integral floats ("4.0"), never -1."""
    values = st.integers(low, high).filter(lambda v: v != -1)
    return values | values.map(float)


_whole_seconds = st.integers(0, 2**31)
_reals = st.floats(min_value=0, max_value=1e9, allow_nan=False) | st.integers(0, 10**7)

swf_jobs = st.fixed_dictionaries({
    "job": st.integers(1, 10**6),
    "submit": optional(_whole_seconds),
    "wait": optional(_whole_seconds),
    "runtime": optional(_whole_seconds),
    "avg_cpu": optional(_reals),
    "requested_time": optional(_reals),
    **{name: optional(_integral(0, 2**20)) for name in _AMOUNT_FIELDS},
    **{name: optional(_integral(-300, 300))
       for name in ("status",) + _LABEL_FIELDS + ("partition", "preceding_job", "think_time")},
})


def expected_archive_record(job: dict, scale: bool) -> JobRecord:
    """The record an ARCHIVE18 line should give, from the job's own fields."""

    def whole(name):
        return None if job[name] is None else int(job[name])

    def real(name):
        return None if job[name] is None else float(job[name])

    def label(name):
        return None if job[name] is None else swf_cell(job[name])

    def stamp(seconds):
        return None if seconds is None else Timestamp(seconds * 1000)

    submit, wait, runtime = job["submit"], job["wait"], job["runtime"]
    start = None if submit is None or wait is None else submit + wait
    end = None if start is None or runtime is None else start + runtime
    procs = whole("allocated_procs")

    def memory(name):
        per_proc = whole(name)
        if per_proc is None or not scale:
            return per_proc
        return None if procs is None else per_proc * procs

    return JobRecord(
        job_id=str(job["job"]),
        submit_time=stamp(submit), start_time=stamp(start), end_time=stamp(end),
        req_procs=whole("requested_procs"), used_procs=procs,
        req_cpu_s=real("requested_time"), used_cpu_s=real("avg_cpu"),
        req_mem_kb=memory("requested_mem_kb_per_proc"),
        used_mem_kb=memory("used_mem_kb_per_proc"),
        queue=label("queue"), dedicated=None, user=label("user"),
        project=label("group"), executable=label("executable"),
        exit_code=whole("status"),
    )


def _corrupted(job: dict, name: str, token: str) -> str:
    cells = format_swf_line(job).split(" ")
    cells[SWF_FIELDS.index(name)] = token
    return " ".join(cells)


_bad_ints = st.one_of(
    st.sampled_from(["x", "1.5", "nan", "inf", "-inf", "1e400", "0x10", "--1", "1,0"]),
    st.floats(allow_nan=True).filter(lambda v: not v.is_integer()).map(repr),
    st.text(alphabet="abc.,", min_size=1),
)
_bad_reals = st.one_of(
    st.sampled_from(["x", "nan", "inf", "-inf", "1e400", "-1e400", "1.2.3", "0x10"]),
    st.text(alphabet="abc.,", min_size=1),
)


class TestArchiveProperties:
    @given(swf_jobs, st.booleans(), st.sampled_from([" ", "\t", "   "]))
    def test_round_trip(self, job, scale, sep):
        line = format_swf_line(job, sep)
        assert (parse_archive_line(line, 1, scale_per_proc_memory=scale)
                == expected_archive_record(job, scale))

    @given(swf_jobs, st.integers(0, 30).filter(lambda n: n != len(SWF_FIELDS)))
    def test_column_count(self, job, count):
        cells = (format_swf_line(job).split(" ") + ["1"] * 30)[:count]
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(" ".join(cells), 9)
        assert info.value.reason == "column-count"
        assert str(info.value) == f"line 9: column-count: expected 18 fields, got {count}"

    @given(swf_jobs, st.sampled_from(_INT_FIELDS), _bad_ints)
    def test_bad_int(self, job, name, token):
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(_corrupted(job, name, token), 9)
        assert info.value.reason == "bad-int"
        assert str(info.value) == f"line 9: bad-int: {name}={token!r}"

    @given(swf_jobs, st.sampled_from(_REAL_FIELDS), _bad_reals)
    def test_bad_real(self, job, name, token):
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(_corrupted(job, name, token), 9)
        assert info.value.reason == "bad-real"
        assert str(info.value) == f"line 9: bad-real: {name}={token!r}"

    @given(swf_jobs, st.data())
    def test_negative_value(self, job, data):
        name = data.draw(st.sampled_from(_AMOUNT_FIELDS + _REAL_FIELDS))
        if name in _AMOUNT_FIELDS:
            value = data.draw(st.integers(-2**20, -2))
            token = data.draw(st.sampled_from([str(value), repr(float(value))]))
        else:
            value = data.draw(st.floats(max_value=-1e-9, allow_infinity=False)
                              .filter(lambda v: v != -1))
            token = repr(value)
        with pytest.raises(MalformedLine) as info:
            parse_archive_line(_corrupted(job, name, token), 9)
        assert info.value.reason == "negative-value"
        assert str(info.value) == f"line 9: negative-value: {name}={value}"


# --- ARCHIVE18 plain-token check against the checked route ---------------------

# Tokens that int() or float() accept in some column but that are not in the
# plain form, or only just are (15 digits), or are plain only as seconds; the
# checked route refuses some of them.
_ODD_TOKENS = ["1_0", "4.0", "5.", ".5", "-1.0", "-0", "-01", "-5", "+5", "1e3",
               "nan", "inf", "\u0663", "\u0661\u0662", "\uff11\uff12",
               str(2**53 + 1), str(2**63 - 1), str(2**63), "9" * 15, "9" * 16]
_ODD_JOB_IDS = st.builds("{}{}{}".format, st.sampled_from(["", "a", "7"]),
                         st.sampled_from(["\x1c", "\xa0", "\u3000"]),
                         st.sampled_from(["", "b", "8"]))
_PLAIN_SEPARATORS = [" ", "\t", "   ", " \t "]


def _plain_token(name: str) -> st.SearchStrategy[str]:
    whole = st.just("-1") | st.integers(0, 10**15 - 1).map(str)
    if name in _REAL_FIELDS:
        return whole | st.builds("{}.{}".format, st.integers(0, 10**9),
                                 st.text(alphabet="0123456789", max_size=4))
    return whole


@st.composite
def _mixed_archive_lines(draw) -> str:
    """A plain line with one odd token, job id, separator or edge swapped in."""
    cells = [draw(st.text(alphabet="abc0123456789_.", min_size=1, max_size=6))]
    cells += [draw(_plain_token(name)) for name in SWF_FIELDS[1:]]
    separators = [draw(st.sampled_from(_PLAIN_SEPARATORS))] * 17
    edges = [draw(st.sampled_from(["", " ", "\t", "  \t"])) for _ in range(2)]
    odd = draw(st.sampled_from(["token", "token", "job id", "separator", "edge"]))
    if odd == "token":
        cells[draw(st.sampled_from(range(1, 18)))] = draw(
            st.sampled_from(_ODD_TOKENS) | st.integers(10**14, 10**19).map(str))
    elif odd == "job id":
        cells[0] = draw(_ODD_JOB_IDS)
        if draw(st.booleans()):
            # Keep the split count at 18 when the id splits in two.
            cells.pop()
            separators.pop()
    elif odd == "separator":
        separators[draw(st.sampled_from(range(17)))] = draw(
            st.sampled_from(["\v", " \v ", "\t\v", "\x1c", "\xa0", "\u3000"]))
    else:
        edges[draw(st.sampled_from([0, 1]))] = draw(
            st.sampled_from(["\v", " \v", "\v\t", "\n", "\r\n", " \n", "\x1c", "\xa0\n"]))
    return (edges[0] + cells[0] + "".join(map("".join, zip(separators, cells[1:])))
            + edges[1])


def _parsed(line: str, scale: bool) -> str:
    """What parse_archive_line gives: the record's repr, which tells -0.0 from
    0.0 and 4 from 4.0, or the MalformedLine text."""
    try:
        return repr(parse_archive_line(line, 7, scale_per_proc_memory=scale))
    except MalformedLine as exc:
        return f"MalformedLine: {exc}"


def _parsed_by_the_table(line: str, scale: bool) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parsing, "_plain_archive_line", lambda line: None)
        return _parsed(line, scale)


@given(st.one_of(_mixed_archive_lines(),
                 st.builds(format_swf_line, swf_jobs, st.sampled_from(_PLAIN_SEPARATORS))),
       st.booleans())
def test_plain_token_check_agrees_with_the_column_table(line, scale):
    assert _parsed(line, scale) == _parsed_by_the_table(line, scale)


@pytest.mark.parametrize("token", _ODD_TOKENS)
def test_odd_token_in_any_field_agrees_with_the_column_table(token):
    # Every field of an aligned plain line in turn, as a draw might miss one.
    cells = "17 820454400 120 3600 32 3599.50 2048 32 3600 2048 1 5 3 7 1 1 -1 -1".split()
    for field in range(1, 18):
        line = "   ".join(cells[:field] + [token] + cells[field + 1:])
        assert _parsed(line, True) == _parsed_by_the_table(line, True), SWF_FIELDS[field]


# --- LANL16 plain-line check against the checked route -------------------------

# Tokens that the checked route reads or refuses in some column but that are
# not in the plain form, or only just are, or are plain only as text or a
# timestamp.
_ODD_LANL_TOKENS = [
    "", " 5", "5 ", "\xa05",  # empty; a space beside a tab; a space the split keeps
    "00", "-5", "+7", "1_0", "-0", "-2", "\u0663",
    "4.0", ".5", ".", "1e3", "1.5e+20", "1e400", "nan", "inf", "9" * 16, str(2**63),
    "1234567890123", "999999999999",  # a 13-digit epoch; 12 digits, past the span
    "Feb 30 94 12:00:00.000", "May 10 94 25:00:00.000",
    "Jan 01 99999999999999999999 00:00:00.000",  # a year too large for a date
    "-1",
]
_PLAIN_LANL_LINE = ("j1\tMay 10 94 00:00:36.130\t768453010\tMay 10 94 00:56:36.950"
                    "\t32\t32\t100.5\t90\t32768\t30000\tq1\t1\tu1\tp1\ta.out\t0")


@st.composite
def _mixed_lanl_lines(draw) -> str:
    """A written line, some epoch cells in it, with one odd token, separator
    or edge swapped in, or no tab at all."""
    cells = format_lanl_line(draw(job_records)).split("\t")
    for column in draw(st.sets(st.sampled_from([1, 2, 3]))):
        cells[column] = draw(st.integers(-10**13, 10**13).map(str))
    separators = ["\t"] * 15
    edges = ["", ""]
    odd = draw(st.sampled_from(["none", "token", "token", "separator", "no tab", "edge"]))
    if odd == "token":
        cells[draw(st.sampled_from(range(16)))] = draw(
            st.sampled_from(_ODD_LANL_TOKENS) | st.text(max_size=4))
    elif odd == "separator":
        separators[draw(st.sampled_from(range(15)))] = draw(
            st.sampled_from([" \t", "\t ", "\t\t", " ", "\v"]))
    elif odd == "no tab":
        separators = [draw(st.sampled_from([" ", "   "]))] * 15
    elif odd == "edge":
        edges[draw(st.sampled_from([0, 1]))] = draw(
            st.sampled_from([" ", "\t", "\n", "\r\n", "\xa0"]))
    return (edges[0] + cells[0] + "".join(map("".join, zip(separators, cells[1:])))
            + edges[1])


def _parsed_lanl(line: str) -> str:
    """What parse_lanl_line gives: the record's repr or the MalformedLine text."""
    try:
        return repr(parse_lanl_line(line, 7))
    except MalformedLine as exc:
        return f"MalformedLine: {exc}"


def _parsed_lanl_by_the_table(line: str) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parsing, "_plain_lanl_line", lambda line: None)
        return _parsed_lanl(line)


@given(_mixed_lanl_lines())
def test_plain_lanl_line_check_agrees_with_the_column_table(line):
    assert _parsed_lanl(line) == _parsed_lanl_by_the_table(line)


def test_epoch_only_trace_builds_no_civil_read_table(monkeypatch):
    # The canonical civil route's read tables wait for the first civil cell:
    # an empty input and an epoch-only trace, on both routes, leave them empty.
    monkeypatch.setattr(timefmt, "_HOUR_MINUTE_MS", {})
    monkeypatch.setattr(timefmt, "_SECOND_MS", {})
    padded = LANL_LINE.replace("\tq1", "\t q1")  # takes the checked route
    missing = LANL_LINE.replace("\t768453010\t", "\t-1\t")
    assert list(parse_trace([], TraceFormat.LANL16)) == []
    records = list(parse_trace([LANL_LINE, padded, missing, "\n"], TraceFormat.LANL16))
    assert len(records) == 3
    assert timefmt._HOUR_MINUTE_MS == {} and timefmt._SECOND_MS == {}
    parse_lanl_line(_PLAIN_LANL_LINE)
    assert len(timefmt._HOUR_MINUTE_MS) == 1440 and len(timefmt._SECOND_MS) == 60


@pytest.mark.parametrize("token", _ODD_LANL_TOKENS)
def test_odd_token_in_any_lanl_column_agrees_with_the_column_table(token):
    assert parsing._plain_lanl_line(_PLAIN_LANL_LINE)
    cells = _PLAIN_LANL_LINE.split("\t")
    for column in range(16):
        line = "\t".join(cells[:column] + [token] + cells[column + 1:])
        assert _parsed_lanl(line) == _parsed_lanl_by_the_table(line), column


def test_lanl_line_with_no_tab_agrees_with_the_column_table():
    line = LANL_LINE.replace("\t", " ")
    assert not parsing._plain_lanl_line(line)
    assert _parsed_lanl(line) == _parsed_lanl_by_the_table(line)


# The text token as it was written before the lookbehind: the same language,
# matched by backing off one character from the tab.
_BACKTRACKING_TEXT_TOKEN = r"(?:[^\t ](?:[^\t]*[^\t ])?)"


@pytest.mark.parametrize("text,matches", [
    ("a", True), (" a", False), ("a ", False), ("a a", True), ("  ", False),
])
def test_text_token_boundary_cases(text, matches):
    assert bool(re.fullmatch(parsing._TEXT_TOKEN, text, re.ASCII)) is matches
    assert bool(re.fullmatch(_BACKTRACKING_TEXT_TOKEN, text, re.ASCII)) is matches


def test_text_token_matches_the_backtracking_token():
    # Every string over a letter, a space and a tab up to length 6: 1,093 strings.
    new = re.compile(parsing._TEXT_TOKEN, re.ASCII).fullmatch
    old = re.compile(_BACKTRACKING_TEXT_TOKEN, re.ASCII).fullmatch
    texts = ["".join(chars) for size in range(7)
             for chars in itertools.product("a \t", repeat=size)]
    assert len(texts) == 1093
    assert [bool(new(text)) for text in texts] == [bool(old(text)) for text in texts]


class TestParseTrace:
    def test_counts_valid_and_malformed(self):
        lines = [LANL_LINE, LANL_LINE, "short\tline", LANL_LINE]
        stream = parse_trace(lines, TraceFormat.LANL16)
        records = list(stream)
        assert len(records) == 3
        report = stream.report
        assert (report.total_lines, report.parsed, report.malformed) == (4, 3, 1)
        assert report.reasons == {"column-count": 1}

    def test_empty_stream(self):
        stream = parse_trace([], TraceFormat.LANL16)
        assert list(stream) == []
        assert stream.report == type(stream.report)()

    def test_comments_and_blanks_counted_separately(self):
        lines = ["# header", "", "   ", LANL_LINE + "\n"]
        stream = parse_trace(lines, TraceFormat.LANL16)
        assert len(list(stream)) == 1
        report = stream.report
        assert report.total_lines == 4
        assert report.comment_blank_lines == 3

    def test_archive_comments_use_semicolon(self):
        lines = ["; UnixStartTime: 0", archive_line()]
        stream = parse_trace(lines, TraceFormat.ARCHIVE18)
        assert len(list(stream)) == 1
        assert stream.report.comment_blank_lines == 1

    def test_order_preserved(self):
        lines = []
        for i in range(20):
            cells = LANL_LINE.split("\t")
            cells[0] = f"job{i}"
            lines.append("\t".join(cells))
        ids = [rec.job_id for rec in parse_trace(lines, TraceFormat.LANL16)]
        assert ids == [f"job{i}" for i in range(20)]

    def test_generated_fixture_parses_completely(self, thousand_jobs):
        # Oracle: the generator's own record list.
        records, _ = thousand_jobs
        lines = [format_lanl_line(rec) for rec in records]
        stream = parse_trace(lines, TraceFormat.LANL16)
        assert list(stream) == records
        report = stream.report
        assert (report.parsed, report.malformed) == (1000, 0)

    def test_io_failure_carries_partial_report(self):
        def lines():
            yield LANL_LINE
            yield LANL_LINE
            raise OSError("disk gone")

        stream = parse_trace(lines(), TraceFormat.LANL16)
        next(stream)
        next(stream)
        with pytest.raises(IoFailure) as info:
            next(stream)
        # The source failed at line k = 3: the report holds the k - 1 lines before it.
        assert info.value.partial_report.parsed == 2
        assert info.value.partial_report.total_lines == 2

    def test_streaming_pulls_one_line_per_record(self):
        pulled = 0

        def lines():
            nonlocal pulled
            for _ in range(1000):
                pulled += 1
                yield LANL_LINE

        stream = parse_trace(lines(), TraceFormat.LANL16)
        for _ in range(5):
            next(stream)
        assert pulled == 5

    @pytest.mark.parametrize("format", [TraceFormat.LANL16, "lanl"])
    def test_format_is_a_member_or_its_value(self, format):
        stream = parse_trace([LANL_LINE], format)
        assert stream.format is TraceFormat.LANL16
        assert [r.job_id for r in stream] == ["j1"]

    @pytest.mark.parametrize("format", ["LANL16", "csv", None])
    def test_unknown_format_is_refused(self, format):
        with pytest.raises(ValueError):
            parse_trace([LANL_LINE], format)

    def test_report_snapshot_mid_stream(self):
        stream = parse_trace([LANL_LINE] * 4, TraceFormat.LANL16)
        next(stream)
        assert stream.report.parsed == 1

    @pytest.mark.parametrize("format", TraceFormat, ids=lambda f: f.name)
    @given(data=st.data())
    def test_report_conservation_on_arbitrary_text(self, format, data):
        if format is TraceFormat.LANL16:
            valid, comment = job_records.map(format_lanl_line), "# note"
        else:
            valid, comment = swf_jobs.map(format_swf_line), "; note"
        lines = data.draw(st.lists(st.one_of(
            st.text(alphabet="\t" + "".join(chr(c) for c in range(32, 127)), max_size=40),
            valid, st.just(comment), st.just("")), max_size=40))
        stream = parse_trace(lines, format)
        parsed_records = sum(1 for _ in stream)
        report = stream.report
        assert report.total_lines == len(lines)
        assert report.parsed == parsed_records
        assert report.parsed + report.malformed \
            + report.comment_blank_lines == report.total_lines
        assert sum(report.reasons.values()) == report.malformed


def opt_cell_format_lanl_line(record: JobRecord) -> str:
    """format_lanl_line as written before its cells were inline: one helper call per cell."""

    def opt_ts(ts):
        return "-1" if ts is None else parsing.format_timestamp(ts)

    def opt_int(value):
        return "-1" if value is None else str(value)

    def opt_real(value):
        return "-1" if value is None else repr(float(value))

    def opt_text(value):
        return "-1" if value is None else value

    def opt_flag(value):
        return "-1" if value is None else ("1" if value else "0")

    return "\t".join((
        record.job_id,
        opt_ts(record.submit_time), opt_ts(record.start_time), opt_ts(record.end_time),
        opt_int(record.req_procs), opt_int(record.used_procs),
        opt_real(record.req_cpu_s), opt_real(record.used_cpu_s),
        opt_int(record.req_mem_kb), opt_int(record.used_mem_kb),
        opt_text(record.queue), opt_flag(record.dedicated), opt_text(record.user),
        opt_text(record.project), opt_text(record.executable), opt_int(record.exit_code),
    ))


# Every optional field absent or present; timestamps over the whole span,
# second-aligned ones (written as epoch seconds) drawn often; seconds as
# integral or fractional floats or as ints.
_any_timestamps = st.builds(Timestamp, st.integers(_FIRST_MS, _LAST_MS)
                            | st.integers(_FIRST_MS // 1000, _LAST_MS // 1000).map(lambda s: s * 1000))
_any_seconds = (st.floats(min_value=0, allow_nan=False, allow_infinity=False)
                | st.integers(0, 10**7).map(float) | st.integers(0, 10**7))
_any_counts = st.integers(0, 2**63 - 1)
_writer_records = st.builds(
    JobRecord, tokens(), optional(_any_timestamps), optional(_any_timestamps),
    optional(_any_timestamps), optional(_any_counts), optional(_any_counts),
    optional(_any_seconds), optional(_any_seconds), optional(_any_counts), optional(_any_counts),
    optional(tokens()), optional(st.booleans()), optional(tokens()), optional(tokens()),
    optional(tokens()), optional(st.integers(-2**31, 2**31)))


class TestFormatLanlLine:
    def test_round_trips_the_reference_record(self):
        rec = parse_lanl_line(LANL_LINE, 1)
        assert parse_lanl_line(format_lanl_line(rec), 1) == rec

    def test_bare_record_renders_all_sentinels(self):
        line = format_lanl_line(JobRecord(job_id="solo"))
        assert line == "solo" + "\t-1" * 15

    def test_second_aligned_timestamps_render_as_epoch_seconds(self):
        rec = JobRecord(job_id="j", start_time=Timestamp(768453010000))
        assert "\t768453010\t" in format_lanl_line(rec)

    def test_subsecond_timestamps_render_in_civil_form(self):
        rec = JobRecord(job_id="j", start_time=Timestamp(768528003456))
        assert "\tMay 10 94 00:00:03.456\t" in format_lanl_line(rec)

    @given(job_records)
    def test_round_trip_reconstructs_exactly(self, rec):
        assert parse_lanl_line(format_lanl_line(rec), 1) == rec

    @settings(max_examples=500)
    @given(_writer_records)
    def test_matches_the_per_cell_helper_rendering(self, rec):
        assert format_lanl_line(rec) == opt_cell_format_lanl_line(rec)

    def test_flag_values_match_the_per_cell_helper_rendering(self):
        for dedicated in (True, False, None):
            rec = JobRecord("j", dedicated=dedicated, req_cpu_s=2.0, used_cpu_s=2.5)
            assert format_lanl_line(rec) == opt_cell_format_lanl_line(rec)

    def test_span_ends_survive_write_lanl_trace(self):
        # Epoch seconds at the first millisecond, civil cells in years 0001 and 9999.
        rec = JobRecord("j", Timestamp(_FIRST_MS), Timestamp(_FIRST_MS + 1),
                        Timestamp(_LAST_MS), req_mem_kb=4, used_mem_kb=4)
        sink = io.StringIO()
        assert write_lanl_trace([rec], sink) == 1
        stream = parse_trace(io.StringIO(sink.getvalue()), TraceFormat.LANL16)
        assert list(stream) == [rec]
        assert stream.report.malformed == 0

    def test_write_lanl_trace_counts_lines(self, thousand_jobs):
        records, _ = thousand_jobs
        sink = io.StringIO()
        assert write_lanl_trace(records, sink) == 1000
        assert sink.getvalue().count("\n") == 1000

    def test_write_lanl_trace_wraps_sink_failure(self):
        class FailingSink(io.StringIO):
            def write(self, text):
                if self.getvalue().count("\n") == 2:
                    raise OSError("disk full")
                return super().write(text)

        with pytest.raises(IoFailure) as info:
            write_lanl_trace([JobRecord(job_id="abc")] * 5, FailingSink())
        assert info.value.rows_written == 2
        assert isinstance(info.value.__cause__, OSError)
