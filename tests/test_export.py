"""Summaries, the worksheet, and the full CSV."""

import csv
import io
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracebw import (
    CSV_HEADER,
    IoFailure,
    WORKSHEET_HEADER,
    MbBase,
    MemorySource,
    RateFlag,
    RateSample,
    Timestamp,
    compute_rates,
    format_sig,
    rate,
    summarize,
    to_output_unit,
    write_csv,
    write_worksheet,
)
from tracebw.model import _FIRST_MS, _LAST_MS

from .conftest import rational_rate
from .reference_timefmt import reference_format_day

MAY_10_94_MS = 768_528_000_000


def sample_of(n_bytes, duration_ms, job_id="j", start_ms=MAY_10_94_MS):
    flags = {RateFlag.NEGATIVE_DURATION} if duration_ms < 0 else set()
    return RateSample(
        job_id=job_id,
        start=Timestamp(start_ms),
        end=Timestamp(start_ms + duration_ms),
        n_bytes=n_bytes,
        duration_ms=duration_ms,
        rate_bytes_per_s=rate(n_bytes, duration_ms),
        flags=frozenset(flags),
    )


def mb_samples(*mbytes):
    """Samples whose binary-MB rates are exactly the given values."""
    return [sample_of(int(value * 1048576), 1000, job_id=f"j{i}")
            for i, value in enumerate(mbytes)]


class TestSummarize:
    def test_three_values(self):
        summary = summarize(mb_samples(1.0, 2.0, 3.0), MbBase.BINARY)
        assert (summary.min, summary.median, summary.max, summary.mean) == (1.0, 2.0, 3.0, 2.0)
        assert summary.n_rates == 3
        assert summary.n_negative == 0 and summary.n_undefined == 0

    def test_empty(self):
        summary = summarize([], MbBase.BINARY)
        assert summary.n_rates == 0
        assert summary.min is None and summary.p95 is None

    def test_all_undefined(self):
        summary = summarize([sample_of(1024, 0)], MbBase.BINARY)
        assert summary.n_rates == 0
        assert summary.n_undefined == 1
        assert summary.mean is None

    def test_median_is_lower_of_two_middles(self):
        summary = summarize(mb_samples(1.0, 2.0, 3.0, 4.0), MbBase.BINARY)
        assert summary.median == 2.0

    def test_p95_is_nearest_rank(self):
        summary = summarize(mb_samples(*range(1, 21)), MbBase.BINARY)
        assert summary.p95 == 19.0
        summary = summarize(mb_samples(*range(1, 101)), MbBase.BINARY)
        assert summary.p95 == 95.0

    def test_counts_negative_rates(self):
        samples = mb_samples(2.0) + [sample_of(1048576, -1000)]
        summary = summarize(samples, MbBase.BINARY)
        assert summary.n_negative == 1
        assert summary.min == -1.0

    def test_unit_follows_base(self):
        (sample,) = mb_samples(1.0)
        assert summarize([sample], MbBase.BINARY).mean == 1.0
        assert summarize([sample], MbBase.DECIMAL).mean == 1.048576

    @given(st.lists(st.tuples(st.integers(0, 2**40),
                              st.integers(-10**9, 10**9)), max_size=25),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rnd):
        samples = [sample_of(n, d, job_id=f"j{i}") for i, (n, d) in enumerate(pairs)]
        shuffled = samples[:]
        rnd.shuffle(shuffled)
        assert summarize(shuffled, MbBase.BINARY) == summarize(samples, MbBase.BINARY)

    def test_mean_matches_rational_oracle(self, thousand_jobs):
        records, truth = thousand_jobs
        samples = compute_rates(records, MemorySource.REQUESTED)
        summary = summarize(samples, MbBase.BINARY)
        exact_mean = (sum(value for _, value in truth.rates)
                      / len(truth.rates) / MbBase.BINARY.divisor)
        error = abs(Fraction(summary.mean) - exact_mean)
        assert error <= Fraction(1, 10**9) * exact_mean


class TestFormatSig:
    def test_worksheet_style_numbers(self):
        # Mixed precision, 7 significant digits, sign preserved.
        cases = {
            1024.0: "1024",
            204.7445: "204.7445",
            9.746579: "9.746579",
            68478.43: "68478.43",
            1424.696: "1424.696",
            682.6667: "682.6667",
            -2.78e-04: "-0.000278",
        }
        for value, text in cases.items():
            assert format_sig(value) == text

    def test_rounds_to_seven_digits(self):
        assert format_sig(1234567.89) == "1234568"


class TestWorksheet:
    def run(self, samples, base=MbBase.BINARY):
        sink = io.StringIO()
        rows = write_worksheet(samples, base, sink)
        return rows, sink.getvalue()

    def test_header_is_byte_exact(self):
        _, text = self.run([])
        assert text == "Start date,End date,Mbytes,Bytes\n"
        assert text.split("\n")[0] == WORKSHEET_HEADER

    def test_full_row_rendering(self):
        # 2^30 bytes over exactly one second: 1024 binary Mbytes/sec.
        rows, text = self.run([sample_of(2**30, 1000)])
        assert rows == 1
        assert text.splitlines()[1] == "May 10 94,May 10 94,1024,1048576"

    def test_bytes_column_keeps_trace_kbyte_value(self):
        _, text = self.run([sample_of(33554432, 10000)])
        assert text.splitlines()[1].endswith(",32768")

    def test_negative_rate_preserved(self):
        # end precedes start, so the end date lands on the previous day
        _, text = self.run([sample_of(33554432, -32000)])
        assert text.splitlines()[1] == "May 10 94,May 09 94,-1,32768"

    def test_undefined_rate_leaves_cell_empty(self):
        _, text = self.run([sample_of(33554432, 0)])
        assert text.splitlines()[1] == "May 10 94,May 10 94,,32768"

    def test_span_ends_are_written(self):
        span = _LAST_MS - _FIRST_MS
        rows, text = self.run([sample_of(2**30, span, start_ms=_FIRST_MS),
                               sample_of(2**30, -span, start_ms=_LAST_MS)])
        assert rows == 2
        assert text.splitlines()[1].startswith("Jan 01 01,Dec 31 99,")
        assert text.splitlines()[2].startswith("Dec 31 99,Jan 01 01,-")

    def test_row_count_matches_samples(self, thousand_jobs):
        records, truth = thousand_jobs
        samples = compute_rates(records, MemorySource.REQUESTED)
        rows, text = self.run(samples)
        assert rows == len(samples) == truth.expected_valid
        assert len(text.splitlines()) == rows + 1

    def test_deterministic(self, thousand_jobs):
        records, _ = thousand_jobs
        samples = compute_rates(records, MemorySource.REQUESTED)
        assert self.run(samples) == self.run(samples)

    def test_mbytes_cell_reconstructs_rate_to_seven_digits(self, thousand_jobs):
        records, _ = thousand_jobs
        samples = compute_rates(records, MemorySource.REQUESTED)
        _, text = self.run(samples)
        for sample, line in zip(samples, text.splitlines()[1:]):
            cell = line.split(",")[2]
            reconstructed = float(cell) * MbBase.BINARY.divisor
            assert abs(reconstructed - sample.rate_bytes_per_s) \
                <= 1e-6 * abs(sample.rate_bytes_per_s)


def csv_writer_worksheet(samples, base) -> str:
    """The worksheet as csv.writer writes it, cell by cell, quoting whatever
    needs quoting: the reference that one f-string per row must equal."""
    divisor = MbBase(base).divisor
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(WORKSHEET_HEADER.split(","))
    for sample in samples:
        rate_bps = sample.rate_bytes_per_s
        whole, remainder = divmod(sample.n_bytes, 1024)
        writer.writerow([
            reference_format_day(sample.start.epoch_ms),
            reference_format_day(sample.end.epoch_ms),
            "" if rate_bps is None else f"{rate_bps / divisor:.7g}",
            str(whole) if remainder == 0 else f"{sample.n_bytes / 1024:.7g}",
        ])
    return sink.getvalue()


_span_ms = st.integers(_FIRST_MS, _LAST_MS) | st.sampled_from([_FIRST_MS, _LAST_MS])


@st.composite
def worksheet_samples(draw):
    """A sample anywhere in the span: short, zero, negative or span-long
    durations, and byte counts from one byte to 2^63, whole Kbytes or not."""
    start = draw(_span_ms)
    end = draw(_span_ms | st.integers(max(_FIRST_MS, start - 2000), min(_LAST_MS, start + 2000)))
    n_bytes = draw(st.integers(0, 2**63) | st.integers(0, 2**53).map(lambda k: k * 1024)
                   | st.sampled_from([0, 1, 1023, 1025, 1536, 2**62, 2**63 - 1]))
    return sample_of(n_bytes, end - start, start_ms=start)


@given(st.lists(worksheet_samples(), max_size=8), st.sampled_from(list(MbBase)))
@example([sample_of(1, 10_000)], MbBase.DECIMAL)                         # 1e-07
@example([sample_of(1_234_567_800_000_000_000, 1000)], MbBase.DECIMAL)  # 1.234568e+12
@example([sample_of(2**63 - 1, -1), sample_of(1536, 0), sample_of(1, 1)], MbBase.BINARY)
@example([sample_of(2**30, _LAST_MS - _FIRST_MS, start_ms=_FIRST_MS),
          sample_of(2**30, _FIRST_MS - _LAST_MS, start_ms=_LAST_MS)], MbBase.BINARY)
def test_worksheet_matches_csv_writer(samples, base):
    sink = io.StringIO()
    assert write_worksheet(samples, base, sink) == len(samples)
    assert sink.getvalue() == csv_writer_worksheet(samples, base)


class TestFullCsv:
    def run(self, samples, base=MbBase.BINARY):
        sink = io.StringIO()
        rows = write_csv(samples, base, sink)
        return rows, sink.getvalue()

    def test_header_is_byte_exact(self):
        _, text = self.run([])
        assert text.splitlines()[0] == CSV_HEADER

    def test_one_sample_one_row_eight_columns(self):
        rows, text = self.run([sample_of(1024, 2000)])
        assert rows == 1
        (record,) = list(csv.reader(io.StringIO(text)))[1:]
        assert len(record) == 8

    @pytest.mark.parametrize("job_id,cell", [
        ("a,b", '"a,b"'), ('q"q', '"q""q"'), ("lf\nlf", '"lf\nlf"'), ("cr\rcr", '"cr\rcr"'),
        ("\r", '"\r"'), ("x\r\ny", '"x\r\ny"'),
    ], ids=["comma", "quote", "lf", "cr", "bare-cr", "crlf"])
    def test_job_id_that_needs_quoting_is_quoted(self, job_id, cell):
        _, text = self.run([sample_of(1024, 2000, job_id=job_id)])
        assert text.split("\n", 1)[1].startswith(cell + ",")
        (record,) = list(csv.reader(io.StringIO(text)))[1:]
        assert record[0] == job_id

    def test_flags_cell(self):
        _, text = self.run([sample_of(1024, -2000)])
        assert text.splitlines()[1].endswith(",NEGATIVE_DURATION")
        _, text = self.run([sample_of(1024, 2000)])
        assert text.splitlines()[1].endswith(",")

    def test_numeric_round_trip_is_bit_exact(self, thousand_jobs):
        records, _ = thousand_jobs
        samples = compute_rates(records, MemorySource.REQUESTED)
        _, text = self.run(samples)
        reader = csv.reader(io.StringIO(text))
        next(reader)
        for sample, row in zip(samples, reader):
            assert row[0] == sample.job_id
            assert int(row[1]) == sample.start.epoch_ms
            assert int(row[2]) == sample.end.epoch_ms
            assert int(row[3]) == sample.duration_ms
            assert int(row[4]) == sample.n_bytes
            assert float(row[5]) == sample.rate_bytes_per_s
            assert float(row[6]) == sample.rate_bytes_per_s / MbBase.BINARY.divisor

    def test_span_ends_are_written(self):
        span = _LAST_MS - _FIRST_MS
        rows, text = self.run([sample_of(1024, span, start_ms=_FIRST_MS),
                               sample_of(1024, 0, start_ms=_LAST_MS)])
        assert rows == 2
        first, last = list(csv.reader(io.StringIO(text)))[1:]
        assert first[1:4] == [str(_FIRST_MS), str(_LAST_MS), str(span)]
        assert last[1:4] == [str(_LAST_MS), str(_LAST_MS), "0"]

    def test_undefined_rate_cells_empty(self):
        _, text = self.run([sample_of(1024, 0)])
        row = text.splitlines()[1].split(",")
        assert row[5] == "" and row[6] == ""


def csv_writer_csv(samples, base) -> str:
    """The full CSV as csv.writer writes it, every row cell by cell: the
    reference that one f-string per plain row must equal. The writer ends
    each row with ``\r\n``, so that it quotes a field holding a ``\r`` as
    well as one holding a ``\n``; the row is then ended with ``\n``."""
    divisor = MbBase(base).divisor
    sink = io.StringIO()
    row = io.StringIO()
    writer = csv.writer(row, lineterminator="\r\n")

    def writerow(cells):
        row.seek(0)
        row.truncate()
        writer.writerow(cells)
        sink.write(row.getvalue().removesuffix("\r\n") + "\n")

    writerow(CSV_HEADER.split(","))
    for sample in samples:
        rate_bps = sample.rate_bytes_per_s
        writerow([
            sample.job_id,
            sample.start.epoch_ms,
            sample.end.epoch_ms,
            sample.duration_ms,
            sample.n_bytes,
            "" if rate_bps is None else repr(rate_bps),
            "" if rate_bps is None else repr(rate_bps / divisor),
            "|".join(flag.name for flag in (RateFlag.NEGATIVE_DURATION,
                                            RateFlag.CARRIED_FORWARD_START)
                     if flag in sample.flags),
        ])
    return sink.getvalue()


# Job ids over full text, the characters that need quoting (\r among them,
# which csv.writer with a "\n" terminator would leave bare) made likely, and
# ids that are not a str: an int or a float, which csv.writer writes as
# str(x), and None, which it writes as an empty cell.
_job_ids = (st.text() | st.text(alphabet=st.sampled_from(',"\r\n a\u00e9\u4e2d'))
            | st.sampled_from(["", " j1 ", "a,b", 'say "hi"', "x\r\ny", "\r", "\u00e9t\u00e9"])
            | st.integers() | st.floats() | st.none())


@st.composite
def csv_samples(draw):
    """A sample with any job id, any duration sign, zero included, and
    either carried flag: so every flag set and undefined rates occur."""
    start = draw(st.integers(MAY_10_94_MS - 10**9, MAY_10_94_MS + 10**9))
    duration = draw(st.integers(-2000, 2000) | st.sampled_from([0, -1, 1]))
    n_bytes = draw(st.integers(0, 2**63) | st.sampled_from([0, 1024, 1536]))
    flags = set()
    if duration < 0:
        flags.add(RateFlag.NEGATIVE_DURATION)
    if draw(st.booleans()):
        flags.add(RateFlag.CARRIED_FORWARD_START)
    return RateSample(draw(_job_ids), Timestamp(start), Timestamp(start + duration),
                      n_bytes, duration, rate(n_bytes, duration), frozenset(flags))


@given(st.lists(csv_samples(), max_size=8), st.sampled_from(list(MbBase)))
@example([sample_of(1024, 2000, job_id=job_id) for job_id in
          ["plain", "a,b", "", 'q"q', "cr\rcr", "lf\nlf", " pad ", "\u00e9", 7, None, 2.5,
           -0.0, float("nan"), 1e300]],
         MbBase.BINARY)
@example([sample_of(0, -5, job_id=1), sample_of(3, 0, job_id="j")], MbBase.DECIMAL)
def test_csv_matches_csv_writer(samples, base):
    sink = io.StringIO()
    assert write_csv(samples, base, sink) == len(samples)
    assert sink.getvalue() == csv_writer_csv(samples, base)


class TestMbBaseArgument:
    @pytest.mark.parametrize("base", [MbBase.BINARY, 1048576])
    def test_member_or_divisor_is_accepted(self, base):
        assert to_output_unit(2097152.0, base) == 2.0
        samples = mb_samples(1.0, 2.0)
        assert summarize(samples, base).mean == 1.5
        sink = io.StringIO()
        assert write_worksheet(samples, base, sink) == 2
        assert sink.getvalue().splitlines()[1].split(",")[2] == "1"
        sink = io.StringIO()
        assert write_csv(samples, base, sink) == 2
        assert sink.getvalue().splitlines()[1].split(",")[6] == "1.0"

    @pytest.mark.parametrize("base", ["binary", "BINARY", 1000, None])
    def test_anything_else_is_refused_before_writing(self, base):
        with pytest.raises(ValueError):
            to_output_unit(1.0, base)
        with pytest.raises(ValueError):
            summarize([], base)
        for write in (write_worksheet, write_csv):
            sink = io.StringIO()
            with pytest.raises(ValueError):
                write(mb_samples(1.0), base, sink)
            assert sink.getvalue() == ""


class ExplodingSink:
    """Accepts a fixed number of writes, then fails like a full disk."""

    def __init__(self, allowed_writes):
        self.allowed = allowed_writes
        self.writes = 0

    def write(self, text):
        if self.writes >= self.allowed:
            raise OSError("no space left")
        self.writes += 1
        return len(text)


class TestSinkFailure:
    def test_worksheet_reports_rows_written(self):
        samples = mb_samples(1.0, 2.0, 3.0)
        sink = ExplodingSink(allowed_writes=3)   # header + two rows
        with pytest.raises(IoFailure) as info:
            write_worksheet(samples, MbBase.BINARY, sink)
        assert info.value.rows_written == 2

    def test_csv_reports_rows_written(self):
        samples = mb_samples(1.0, 2.0)
        sink = ExplodingSink(allowed_writes=1)   # header only
        with pytest.raises(IoFailure) as info:
            write_csv(samples, MbBase.BINARY, sink)
        assert info.value.rows_written == 0

    @pytest.mark.parametrize("failing", [2, 3], ids=["quoted-row", "plain-row-after-quoted"])
    def test_csv_reports_rows_written_around_a_quoted_row(self, failing):
        # The third row's job id needs quoting; that row is still one write.
        samples = mb_samples(1.0, 2.0, 3.0, 4.0)
        samples[2] = sample_of(1024, 2000, job_id="a,b")
        sink = ExplodingSink(allowed_writes=1 + failing)   # header + that many rows
        with pytest.raises(IoFailure) as info:
            write_csv(samples, MbBase.BINARY, sink)
        assert info.value.rows_written == failing


def test_rate_cells_agree_with_rational_oracle(thousand_jobs):
    records, truth = thousand_jobs
    samples = compute_rates(records, MemorySource.REQUESTED)
    for sample, (job_id, expected) in zip(samples, truth.rates):
        assert sample.job_id == job_id
        assert rational_rate(sample.n_bytes, sample.duration_ms) == expected
