"""Command-line behavior: outputs, exit codes, stream separation."""

import csv
import dataclasses
import errno
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
import tokenize
import tracemalloc

import pytest

import tracebw._read
import tracebw.cli
from tracebw import (
    GenSpec,
    MbBase,
    MemorySource,
    RateFlag,
    TraceFormat,
    generate,
    iter_rates,
    load_genspec,
    parse_trace,
    read_sidecar,
    summarize,
    write_csv,
    write_lanl_trace,
    write_sidecar,
    write_worksheet,
)
from tracebw.cli import EXIT_BROKEN_PIPE, main

from .swf import format_swf_line
from .test_parsing import LANL_LINE, archive_line

NEGATIVE_LINE = LANL_LINE.replace("j1", "jneg").replace(
    "768453010\t768453020", "768453020\t768453010")


@pytest.fixture
def small_trace(tmp_path):
    path = tmp_path / "small.trace"
    lines = [
        "# tiny fixture",
        LANL_LINE,
        NEGATIVE_LINE,
        LANL_LINE.replace("768453010", "-1"),   # start missing -> omitted
        "only\tthree\tcolumns",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def out_err(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestInspect:
    def test_key_value_report(self, small_trace, capsys):
        assert main(["inspect", str(small_trace)]) == 0
        out, err = out_err(capsys)
        assert out == "total=4\nparsed=3\nvalid=2\nomitted=1\nmalformed=1\n"
        assert err == ""

    def test_carry_forward_changes_valid_count(self, small_trace, capsys):
        assert main(["inspect", "--carry-forward", str(small_trace)]) == 0
        out, _ = out_err(capsys)
        assert "valid=3" in out
        assert "omitted=0" in out

    def test_out_flag_redirects_data(self, small_trace, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["inspect", str(small_trace), "--out", str(target)]) == 0
        out, _ = out_err(capsys)
        assert out == ""
        assert "total=4" in target.read_text()

    def test_archive_format(self, tmp_path, capsys):
        path = tmp_path / "a.swf"
        path.write_text("; header\n" + archive_line() + "\n"
                        + archive_line(req_mem=-1) + "\n")
        assert main(["inspect", "--format", "archive", str(path)]) == 0
        out, _ = out_err(capsys)
        assert "total=2" in out and "valid=1" in out

    def test_per_proc_memory_raw(self, tmp_path, capsys):
        # Memory present but proc count missing: only raw mode keeps the job.
        path = tmp_path / "a.swf"
        path.write_text(archive_line(procs=-1) + "\n")
        main(["inspect", "--format", "archive", str(path)])
        scaled_out, _ = out_err(capsys)
        main(["inspect", "--format", "archive", "--per-proc-memory", "raw", str(path)])
        raw_out, _ = out_err(capsys)
        assert "valid=0" in scaled_out
        assert "valid=1" in raw_out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(LANL_LINE + "\n"))
        assert main(["inspect", "-"]) == 0
        out, _ = out_err(capsys)
        assert "parsed=1" in out


# A job id holding a byte that is not UTF-8.
BAD_BYTE_TRACE = LANL_LINE.encode().replace(b"j1", b"j\xff1", 1) + b"\n"


class FailingStdinBytes(io.RawIOBase):
    """Standard input's bytes, one line per read, failing when line ``k`` is read."""

    def __init__(self, lines: list[bytes], k: int):
        self.lines, self.k, self.served = lines, k, 0

    def readable(self):
        return True

    def readinto(self, buffer):
        if self.served == self.k - 1:
            raise OSError(errno.EIO, "Input/output error")
        line = self.lines[self.served]
        self.served += 1
        buffer[:len(line)] = line
        return len(line)


class TestStdin:
    def test_bytes_decode_as_from_a_file(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "bad.trace"
        trace.write_bytes(BAD_BYTE_TRACE)
        assert main(["rates", str(trace), "--full", "--out", str(tmp_path / "file.csv")]) == 0
        file_err = capsys.readouterr().err
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BAD_BYTE_TRACE)))
        assert main(["rates", "-", "--full", "--out", str(tmp_path / "stdin.csv")]) == 0
        assert capsys.readouterr().err == file_err
        written = (tmp_path / "stdin.csv").read_bytes()
        assert written == (tmp_path / "file.csv").read_bytes()
        assert b"j\xef\xbf\xbd1," in written  # U+FFFD in place of the bad byte

    def test_bytes_decode_as_from_a_file_in_subprocess(self, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_bytes(BAD_BYTE_TRACE)
        runs = {}
        for name, source, stdin in (("file", str(trace), None), ("stdin", "-", BAD_BYTE_TRACE)):
            out = tmp_path / f"{name}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "tracebw", "rates", source, "--full", "--out", str(out)],
                input=stdin, capture_output=True, timeout=120)
            runs[name] = (result.returncode, result.stdout, result.stderr, out.read_bytes())
        assert runs["stdin"] == runs["file"]
        assert runs["file"][0] == 0

    def test_read_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        lines = [(LANL_LINE.replace("j1", f"j{i}") + "\n").encode() for i in range(1, 7)]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BufferedReader(FailingStdinBytes(lines, k=4)), encoding="utf-8"))
        target = tmp_path / "T"
        target.write_bytes(b"previous contents\n")
        assert main(["rates", "-", "--out", str(target)]) == 1
        out, err = out_err(capsys)
        assert out == ""
        assert err == "tracebw: error: I/O failure: [Errno 5] Input/output error\n"
        assert target.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["T"]


class TestRates:
    def test_empty_file_gives_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("")
        assert main(["rates", str(path)]) == 0
        out, err = out_err(capsys)
        assert out == "Start date,End date,Mbytes,Bytes\n"
        assert "total=0" in err

    def test_worksheet_with_report_on_stderr(self, small_trace, capsys):
        assert main(["rates", str(small_trace)]) == 0
        out, err = out_err(capsys)
        lines = out.splitlines()
        assert lines[0] == "Start date,End date,Mbytes,Bytes"
        assert len(lines) == 3
        assert "valid=2" in err and "malformed=1" in err

    def test_drop_negative(self, small_trace, capsys):
        assert main(["rates", "--drop-negative", str(small_trace)]) == 0
        out, err = out_err(capsys)
        assert len(out.splitlines()) == 2
        assert "-" not in out.splitlines()[1].split(",")[2]
        # the report still accounts for the sample before the filter
        assert "valid=2" in err

    def test_full_csv(self, small_trace, capsys):
        assert main(["rates", "--full", str(small_trace)]) == 0
        out, _ = out_err(capsys)
        lines = out.splitlines()
        assert lines[0].startswith("job_id,start_ms,")
        assert lines[1].split(",")[0] == "j1"
        assert lines[2].endswith("NEGATIVE_DURATION")

    def test_mb_convention_flag(self, small_trace, capsys):
        main(["rates", str(small_trace)])
        binary_out, _ = out_err(capsys)
        main(["rates", "--mb", "decimal", str(small_trace)])
        decimal_out, _ = out_err(capsys)
        assert binary_out != decimal_out

    def test_memory_source_flag(self, small_trace, capsys):
        main(["rates", "--full", str(small_trace)])
        requested, _ = out_err(capsys)
        main(["rates", "--full", "--memory", "used", str(small_trace)])
        used, _ = out_err(capsys)
        assert "33554432" in requested   # 32768 KB
        assert "30720000" in used        # 30000 KB

    def test_archive_pipeline_end_to_end(self, tmp_path, capsys):
        # submit 100 s + wait 10 s, runtime 20 s, 200 KB/proc on 4 procs:
        # 819200 bytes over 20000 ms -> 40960 B/s.
        path = tmp_path / "a.swf"
        path.write_text("; header\n" + archive_line() + "\n")
        assert main(["rates", "--format", "archive", "--full", str(path)]) == 0
        out, _ = out_err(capsys)
        row = out.splitlines()[1].split(",")
        assert row[1] == "110000" and row[2] == "130000"
        assert row[4] == "819200"
        assert row[5] == "40960.0"

    def test_byte_identical_across_runs(self, small_trace, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert main(["rates", str(small_trace), "--out", str(first)]) == 0
        assert main(["rates", str(small_trace), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestSummary:
    def test_key_value_output(self, small_trace, capsys):
        assert main(["summary", str(small_trace)]) == 0
        out, err = out_err(capsys)
        keys = [line.split("=")[0] for line in out.splitlines()]
        assert keys == ["n_rates", "n_negative", "n_undefined",
                        "min", "max", "mean", "median", "p95"]
        assert "n_rates=2" in out and "n_negative=1" in out
        assert "valid=2" in err

    def test_empty_statistics_render_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("")
        assert main(["summary", str(path)]) == 0
        out, _ = out_err(capsys)
        assert "n_rates=0" in out
        assert "min=\n" in out


# gen's bytes for this spec, fixed across commits: a change to a draw, the draw
# order or a written cell shows here. The trace's digest, then the sidecar's.
GEN_PINS_SPEC = ("seed=11\ncount=1000\nmissing_start_frac=0.05\nmissing_end_frac=0.02\n"
                 "missing_mem_frac=0.02\n")
GEN_PINS = [
    "d6e37720bcd0da062ffa05f80f44443703b63e1d9086844ae48e504c22564623",
    "1cbfbdb9bd07f3bbb29201eb73b8d000dc69c819d56f52c32928121d2dca6ba4",
]


class TestGen:
    def write_spec(self, tmp_path, text="seed=42\ncount=1000\nmissing_start_frac=0.3\n"):
        path = tmp_path / "fixture.genspec"
        path.write_text(text)
        return path

    def test_writes_trace_and_sidecar(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "fix.trace"
        assert main(["gen", str(spec), "--out", str(out_path)]) == 0
        _, err = out_err(capsys)
        truth = read_sidecar((tmp_path / "fix.trace.truth").read_text().splitlines())
        assert out_path.read_text().count("\n") == 1000
        assert truth.expected_valid + truth.expected_omitted == 1000
        assert f"expected_valid={truth.expected_valid}" in err

    def test_truth_flag_overrides_sidecar_path(self, tmp_path):
        spec = self.write_spec(tmp_path, "count=5\n")
        main(["gen", str(spec), "--out", str(tmp_path / "t.trace"),
              "--truth", str(tmp_path / "gt.txt")])
        assert (tmp_path / "gt.txt").exists()
        assert not (tmp_path / "t.trace.truth").exists()

    def test_gen_is_deterministic(self, tmp_path):
        spec = self.write_spec(tmp_path)
        main(["gen", str(spec), "--out", str(tmp_path / "a.trace")])
        main(["gen", str(spec), "--out", str(tmp_path / "b.trace")])
        assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()
        assert (tmp_path / "a.trace.truth").read_bytes() \
            == (tmp_path / "b.trace.truth").read_bytes()

    def test_gen_bytes_are_pinned(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, GEN_PINS_SPEC)
        out_path = tmp_path / "fix.trace"
        assert main(["gen", str(spec), "--out", str(out_path)]) == 0
        assert out_err(capsys) == ("", "count=1000\nexpected_valid=907\nexpected_omitted=93\n")
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out_path, tmp_path / "fix.trace.truth")]
        assert digests == GEN_PINS

    def test_gen_then_summary_matches_sidecar(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "fix.trace"
        main(["gen", str(spec), "--out", str(out_path)])
        capsys.readouterr()
        truth = read_sidecar((tmp_path / "fix.trace.truth").read_text().splitlines())

        assert main(["summary", str(out_path)]) == 0
        out, err = out_err(capsys)
        assert f"n_rates={truth.expected_valid}" in out
        assert "n_undefined=0" in out
        assert f"valid={truth.expected_valid}" in err
        assert f"omitted={truth.expected_omitted}" in err


_GEN_SPECS = {
    "count-0": "count=0\n",
    "count-1": "seed=3\ncount=1\n",
    "all-missing": "seed=4\ncount=200\nmissing_start_frac=1\nmissing_end_frac=1\n"
                   "missing_mem_frac=1\n",
    "none-missing": "seed=5\ncount=200\n",
    "5000-jobs": "seed=6\ncount=5000\nmissing_start_frac=0.2\nmissing_end_frac=0.1\n"
                 "missing_mem_frac=0.05\n",
}


@pytest.mark.parametrize("spec_text", _GEN_SPECS.values(), ids=_GEN_SPECS.keys())
def test_gen_matches_library(tmp_path, spec_text, capsys):
    """The streaming gen writes what write_lanl_trace and write_sidecar write for generate."""
    spec_path = tmp_path / "s.genspec"
    spec_path.write_text(spec_text)
    trace = tmp_path / "t.trace"
    assert main(["gen", str(spec_path), "--out", str(trace)]) == 0

    spec = load_genspec(spec_text.splitlines())
    records, truth = generate(spec)
    expected_trace, expected_truth = io.StringIO(), io.StringIO()
    write_lanl_trace(records, expected_trace)
    write_sidecar(truth, expected_truth)
    assert trace.read_bytes() == expected_trace.getvalue().encode("utf-8")
    assert (tmp_path / "t.trace.truth").read_bytes() == expected_truth.getvalue().encode("utf-8")
    assert out_err(capsys) == ("", f"count={spec.count}\nexpected_valid={truth.expected_valid}\n"
                                   f"expected_omitted={truth.expected_omitted}\n")


def _gen_peak_bytes(tmp_path, count):
    spec = tmp_path / f"{count}.genspec"
    spec.write_text(f"seed=1\ncount={count}\n")  # every job valid: a rate line each
    tracemalloc.start()
    try:
        assert main(["gen", str(spec), "--out", str(tmp_path / f"{count}.trace")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_memory_does_not_grow_with_count(tmp_path, capsys):
    """gen keeps no record and no sidecar line in memory, so 9,000 more jobs
    cost only fixed-size buffers: about 170 KB more, because the sidecar copy
    reads the spool in 64 KB chunks and the smaller spool fits in one. Holding
    the records would take megabytes, and a list of the 9,000 extra rate lines
    alone about 0.8 MB."""
    _gen_peak_bytes(tmp_path, 1_000)  # warm up caches and lazy imports
    small = _gen_peak_bytes(tmp_path, 1_000)
    large = _gen_peak_bytes(tmp_path, 10_000)
    assert large - small < 512 * 1024, (small, large)


class TestOutReplacesOnSuccess:
    def test_rates_can_overwrite_its_own_input(self, tmp_path, capsys):
        spec = tmp_path / "s.genspec"
        spec.write_text("seed=3\ncount=2000\nmissing_start_frac=0.1\n")
        trace = tmp_path / "t.trace"
        assert main(["gen", str(spec), "--out", str(trace)]) == 0
        assert main(["rates", str(trace), "--out", str(tmp_path / "expected.csv")]) == 0
        capsys.readouterr()
        assert main(["rates", str(trace), "--out", str(trace)]) == 0
        _, err = out_err(capsys)
        assert "total=2000" in err
        assert trace.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_failing_sink_leaves_existing_target_untouched(self, small_trace, tmp_path,
                                                          capsys, monkeypatch):
        class FullDisk:
            """A sink that takes two writes, then reports a full disk."""

            def __init__(self, sink):
                self.sink, self.writes = sink, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.sink.write(text)

        real = tracebw._read.write_worksheet
        monkeypatch.setattr(tracebw._read, "write_worksheet",
                            lambda samples, base, sink: real(samples, base, FullDisk(sink)))
        target = tmp_path / "sheet.csv"
        target.write_bytes(b"previous contents\n")
        assert main(["rates", str(small_trace), "--out", str(target)]) == 1
        _, err = out_err(capsys)
        assert "No space left on device" in err
        assert target.read_bytes() == b"previous contents\n"
        assert sorted(os.listdir(tmp_path)) == ["sheet.csv", "small.trace"]

    def test_failed_gen_leaves_both_files_untouched(self, tmp_path, monkeypatch):
        def broken_copy(spool, sink):
            # Fails after the trace and the sidecar's header are written.
            sink.write("j0")
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(shutil, "copyfileobj", broken_copy)  # gen imports it on use
        spec = tmp_path / "s.genspec"
        spec.write_text("count=5\n")
        trace = tmp_path / "t.trace"
        trace.write_text("old trace\n")
        (tmp_path / "t.trace.truth").write_text("old truth\n")
        assert main(["gen", str(spec), "--out", str(trace)]) == 1
        assert trace.read_text() == "old trace\n"
        assert (tmp_path / "t.trace.truth").read_text() == "old truth\n"
        assert sorted(os.listdir(tmp_path)) == ["s.genspec", "t.trace", "t.trace.truth"]

    def test_new_file_gets_the_usual_mode(self, small_trace, tmp_path):
        reference = tmp_path / "reference"
        reference.write_text("")
        target = tmp_path / "sheet.csv"
        assert main(["rates", str(small_trace), "--out", str(target)]) == 0
        assert target.stat().st_mode == reference.stat().st_mode

    def test_writes_through_a_symlink(self, small_trace, tmp_path, capsys):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert main(["rates", str(small_trace), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("Start date,")

    def test_non_regular_target_is_written_directly(self, small_trace, capsys):
        assert main(["rates", str(small_trace), "--out", os.devnull]) == 0
        assert out_err(capsys)[0] == ""


# --- the CLI against the library --------------------------------------------

def _lanl_trace(path):
    """Generated jobs with missing fields, plus reversed, zero-length and
    used-memory variants, a comment and a malformed line."""
    records, _ = generate(GenSpec(seed=11, count=300, missing_start_frac=0.2,
                                  missing_end_frac=0.1, missing_mem_frac=0.1))
    rng = random.Random(5)
    varied = []
    for rec in records:
        roll = rng.random()
        if roll < 0.1 and rec.start_time and rec.end_time:
            rec = dataclasses.replace(rec, start_time=rec.end_time, end_time=rec.start_time)
        elif roll < 0.15 and rec.start_time:
            rec = dataclasses.replace(rec, end_time=rec.start_time)
        elif roll < 0.3:
            rec = dataclasses.replace(rec, used_mem_kb=rng.choice([None, 1000, 77777]))
        varied.append(rec)
    with open(path, "w", encoding="utf-8") as out:
        out.write("# generated\n")
        write_lanl_trace(varied, out)
        out.write("not\ta\tjob\n")


def _archive_trace(path):
    """SWF jobs with missing times, processor counts and memory, zero
    runtimes, a header comment and a malformed line."""
    rng = random.Random(6)

    def maybe(value, p_absent=0.15):
        return None if rng.random() < p_absent else value

    lines = ["; generated"]
    submit = 1000
    for job in range(1, 301):
        submit += rng.randrange(0, 120)
        lines.append(format_swf_line({
            "job": job, "submit": maybe(submit, 0.05), "wait": maybe(rng.randrange(0, 60)),
            "runtime": maybe(rng.choice([0, 1, 7, 3600, rng.randrange(1, 10**5)])),
            "allocated_procs": maybe(rng.choice([1, 4, 64])),
            "used_mem_kb_per_proc": maybe(rng.randrange(1, 10**6), 0.3),
            "requested_mem_kb_per_proc": maybe(rng.randrange(1, 10**6)),
            "status": 1, "user": rng.randrange(1, 9),
        }))
    lines.insert(150, "1 2 3")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _library_output(path, format, command, memory=MemorySource.REQUESTED, mb=MbBase.BINARY,
                    carry_forward=False, drop_negative=False, scale_per_proc_memory=True):
    """What the library writes for one CLI command: (data, report)."""
    with open(path, encoding="utf-8") as handle:
        stream = parse_trace(handle, format, scale_per_proc_memory=scale_per_proc_memory)
        samples = list(iter_rates(stream, memory, carry_forward))
    report = stream.report
    valid = len(samples)
    report_text = (f"total={report.parsed + report.malformed}\nparsed={report.parsed}\n"
                   f"valid={valid}\nomitted={report.parsed - valid}\n"
                   f"malformed={report.malformed}\n")
    if command == "inspect":
        return report_text, ""
    if drop_negative:
        samples = [s for s in samples if RateFlag.NEGATIVE_DURATION not in s.flags]
    data = io.StringIO()
    if command == "rates":
        write_worksheet(samples, mb, data)
    elif command == "rates --full":
        write_csv(samples, mb, data)
    else:
        summary = summarize(samples, mb)
        data.write(f"n_rates={summary.n_rates}\nn_negative={summary.n_negative}\n"
                   f"n_undefined={summary.n_undefined}\n")
        for name in ("min", "max", "mean", "median", "p95"):
            value = getattr(summary, name)
            data.write(f"{name}={'' if value is None else repr(value)}\n")
    return data.getvalue(), report_text


_FLAG_SETS = {
    "default": ([], {}),
    "memory-used": (["--memory", "used"], {"memory": MemorySource.USED}),
    "mb-decimal": (["--mb", "decimal"], {"mb": MbBase.DECIMAL}),
    "carry-forward": (["--carry-forward"], {"carry_forward": True}),
    "drop-negative": (["--drop-negative"], {"drop_negative": True}),
    "all": (["--memory", "used", "--mb", "decimal", "--carry-forward", "--drop-negative"],
            {"memory": MemorySource.USED, "mb": MbBase.DECIMAL, "carry_forward": True,
             "drop_negative": True}),
    "per-proc-raw": (["--per-proc-memory", "raw"], {"scale_per_proc_memory": False}),
}
_RATED_ONLY = {"mb-decimal", "drop-negative", "all"}


def _differential_cases():
    for format in TraceFormat:
        for command in ("inspect", "rates", "rates --full", "summary"):
            for name in _FLAG_SETS:
                if command == "inspect" and name in _RATED_ONLY:
                    continue
                if name == "per-proc-raw" and format is TraceFormat.LANL16:
                    continue
                yield pytest.param(format, command, name,
                                   id=f"{format.name}-{command.replace(' --', '-')}-{name}")


@pytest.fixture(scope="module")
def differential_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("differential")
    _lanl_trace(root / "lanl.trace")
    _archive_trace(root / "archive.swf")
    return {TraceFormat.LANL16: root / "lanl.trace", TraceFormat.ARCHIVE18: root / "archive.swf"}


@pytest.mark.parametrize("format, command, flag_set", _differential_cases())
def test_cli_matches_library(differential_traces, format, command, flag_set, capsys):
    path = differential_traces[format]
    flags, options = _FLAG_SETS[flag_set]
    argv = [*command.split(), str(path), "--format", format.value, *flags]
    assert main(argv) == 0
    assert out_err(capsys) == _library_output(path, format, command, **options)


@pytest.mark.parametrize("command", ["rates --full", "inspect"])
def test_carry_forward_is_a_no_op_on_archive(differential_traces, command, capsys):
    """--carry-forward is LANL16-only: an ARCHIVE18 end is submit + wait + runtime,
    so a record with no start has no end either and a carried start never
    makes it ready."""
    argv = [*command.split(), str(differential_traces[TraceFormat.ARCHIVE18]),
            "--format", "archive"]
    assert main(argv) == 0
    without = out_err(capsys)
    assert main([*argv, "--carry-forward"]) == 0
    assert out_err(capsys) == without


def test_differential_traces_exercise_every_flag(differential_traces):
    """Each flag set changes at least one library output, so the CLI test can tell."""
    for format, path in differential_traces.items():
        for name, (_, options) in _FLAG_SETS.items():
            if not options or (name == "per-proc-raw" and format is TraceFormat.LANL16):
                continue
            if format is TraceFormat.ARCHIVE18 and name in ("drop-negative", "carry-forward"):
                # Runtimes are never negative, and a missing start takes the end with it.
                continue
            command = "rates --full" if name != "mb-decimal" else "rates"
            assert (_library_output(path, format, command, **options)
                    != _library_output(path, format, command)), (format, name)


def _with_cell(line: str, column: int, token: str) -> str:
    cells = line.split("\t")
    cells[column] = token
    return "\t".join(cells)


# Lines whose times fall outside 0001-01-01 .. 9999-12-31 or whose counts are
# too large for a float rate, each with the reason it is counted under.
_UNREPRESENTABLE_LINES = {
    "lanl-year-10000": ("lanl", _with_cell(_with_cell(LANL_LINE, 2, "253402300800"),
                                           3, "253402300900"), "bad-timestamp"),
    "lanl-huge-memory": ("lanl", _with_cell(LANL_LINE, 8, str(10**400)), "bad-int"),
    "lanl-civil-year-20-digits": ("lanl", _with_cell(LANL_LINE, 3, "Jan 01 99999999999999999999"),
                                  "bad-timestamp"),
    "lanl-civil-day-20-digits": ("lanl", _with_cell(LANL_LINE, 1, "Jan 99999999999999999999 94"),
                                 "bad-timestamp"),
    "archive-infinite-submit": ("archive", "1 1e306 0 10 1 1 1 1 1 1 1 1 1 1 1 1 -1 -1",
                                "bad-real"),
    "archive-submit-1e12": ("archive", archive_line(submit="1e12"), "bad-real"),
    "archive-huge-memory": ("archive", archive_line(req_mem=str(2**63)), "bad-int"),
}


@pytest.mark.parametrize("command", ["inspect", "rates", "rates --full", "summary"])
@pytest.mark.parametrize("format, bad, reason", _UNREPRESENTABLE_LINES.values(),
                         ids=_UNREPRESENTABLE_LINES.keys())
def test_unrepresentable_line_is_malformed(tmp_path, capsys, format, bad, reason, command):
    if format == "lanl":
        good = [LANL_LINE, NEGATIVE_LINE]
    else:
        good = [archive_line(), archive_line(job=2, wait=5, req_mem=300)]
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    clean.write_text("\n".join(good) + "\n")
    dirty.write_text("\n".join([good[0], bad, good[1]]) + "\n")
    stream = parse_trace([good[0], bad, good[1]], TraceFormat(format))
    assert len(list(stream)) == 2
    assert stream.report.reasons == {reason: 1}

    outputs = []
    for path in (clean, dirty):
        assert main([*command.split(), str(path), "--format", format]) == 0
        outputs.append(out_err(capsys))
    (clean_out, clean_err), (dirty_out, dirty_err) = outputs
    # The report counts the bad line; every other byte is the clean trace's.
    clean_report = "total=2\nparsed=2\nvalid=2\nomitted=0\nmalformed=0\n"
    dirty_report = "total=3\nparsed=2\nvalid=2\nomitted=0\nmalformed=1\n"
    if command == "inspect":
        assert (clean_out, dirty_out) == (clean_report, dirty_report)
    else:
        assert dirty_out == clean_out
        assert (clean_err, dirty_err) == (clean_report, dirty_report)


class TestExitCodes:
    def test_missing_input_is_io_failure(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.trace")]) == 1
        _, err = out_err(capsys)
        assert "error" in err

    def test_unwritable_output_is_io_failure(self, small_trace, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["rates", str(small_trace), "--out", str(target)]) == 1
        _, err = out_err(capsys)
        assert err == f"tracebw: error: [Errno 2] No such file or directory: '{target}'\n"

    def test_invalid_genspec_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.genspec"
        bad.write_text("count=many\n")
        assert main(["gen", str(bad), "--out", str(tmp_path / "t.trace")]) == 2

    @pytest.mark.parametrize("spec_text,error", [
        ("count=5\ninter_arrival_mean_ms=inf\n",
         "inter_arrival_mean_ms must be positive and finite"),
        ("count=5\nruntime_min_ms=315537897599999\nruntime_max_ms=315537897599999\n",
         "job 1 leaves the timestamp span: epoch_ms 316306425757113 is outside "
         "0001-01-01 .. 9999-12-31 UTC"),
        ("count=5\nruntime_max_ms=300000000000000000\n",
         "need 0 < runtime_min_ms <= runtime_max_ms <= 315537897599999 "
         "(the timestamp span), got 1000..300000000000000000"),
        ("count=1\nmissing_end_frac=1\nruntime_min_ms=1" + "0" * 400
         + "\nruntime_max_ms=1" + "0" * 400 + "\n",
         f"need 0 < runtime_min_ms <= runtime_max_ms <= 315537897599999 "
         f"(the timestamp span), got 1{'0' * 400}..1{'0' * 400}"),
        ("count=5\nmem_kb_choices=1024,9223372036854775808\n",
         "mem_kb_choices must be a non-empty list of integers from 1 to 2**63 - 1"),
    ])
    def test_gen_spec_outside_the_span_is_usage_error(self, tmp_path, capsys, spec_text,
                                                      error):
        (tmp_path / "s.genspec").write_text(spec_text)
        assert main(["gen", str(tmp_path / "s.genspec"),
                     "--out", str(tmp_path / "t.trace")]) == 2
        assert out_err(capsys) == ("", f"tracebw: error: {error}\n")
        assert os.listdir(tmp_path) == ["s.genspec"]

    def test_unknown_flag_exits_two(self, small_trace):
        with pytest.raises(SystemExit) as info:
            main(["inspect", "--frmt", "lanl", str(small_trace)])
        assert info.value.code == 2

    def test_gen_to_stdout_rejected(self, tmp_path):
        spec = tmp_path / "s.genspec"
        spec.write_text("count=1\n")
        with pytest.raises(SystemExit) as info:
            main(["gen", str(spec), "--out", "-"])
        assert info.value.code == 2

    @pytest.mark.parametrize("truth", ["t.trace", "./t.trace", "link"])
    def test_gen_out_and_truth_naming_one_file_rejected(self, tmp_path, truth, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.genspec").write_text("count=50\n")
        (tmp_path / "link").symlink_to(tmp_path / "t.trace")
        with pytest.raises(SystemExit) as info:
            main(["gen", "s.genspec", "--out", "t.trace", "--truth", truth])
        assert info.value.code == 2
        assert "--out and --truth name the same file" in out_err(capsys)[1]
        assert sorted(os.listdir(tmp_path)) == ["link", "s.genspec"]

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [["rates"], ["rates", "--full"], ["summary"], ["inspect"]])
    def test_closed_pipe_is_silent(self, small_trace, argv, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main([*argv, str(small_trace)]) == EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""


def test_streams_separate_in_subprocess(small_trace):
    result = subprocess.run(
        [sys.executable, "-m", "tracebw", "rates", str(small_trace)],
        capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[0] == "Start date,End date,Mbytes,Bytes"
    assert "parsed=3" in result.stderr
    assert "Start date" not in result.stderr


def test_only_gen_loads_the_generator_in_subprocess(tmp_path):
    # The read commands start without synth and the fractions and decimal it
    # imports, and without csv, which no command loads; the package still
    # serves the generator's names on first use. No command loads a process
    # pool or pickle, and a file too small to split never loads the module
    # that forks workers. Only gen's sidecar spool loads tempfile. The child
    # runs without the site module, because a .pth file in site-packages may
    # import tempfile at start-up, and finds the package on PYTHONPATH.
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    code = ("import sys, tracebw.cli\n"
            "unused = {'tracebw.synth', 'fractions', 'decimal', 'csv', '_csv', 'tracebw._ranges',\n"
            "          'tracebw._fork', 'tracebw._gen', 'multiprocessing', 'concurrent',\n"
            "          'pickle', 'subprocess', 'tempfile'}\n"
            "print(sorted(unused & set(sys.modules)))\n"
            "assert tracebw.cli.main(['rates', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(sorted(unused & set(sys.modules)))\n"
            "from tracebw import GenSpec, generate\n"
            "print(generate(GenSpec(count=1))[1].expected_valid, 'tracebw.synth' in sys.modules)\n")
    package_root = os.path.dirname(os.path.dirname(tracebw.cli.__file__))
    result = subprocess.run([sys.executable, "-S", "-c", code, str(empty), os.devnull],
                            env={**os.environ, "PYTHONPATH": package_root},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n[]\n1 True\n"


def test_each_command_loads_only_what_it_uses_in_subprocess(tmp_path):
    # Only a civil date, read or written, imports datetime, and only a civil
    # cell read compiles the civil patterns: until then _canonical_civil is
    # the Python function that compiles them. gen never loads the read
    # runner, and a read of a file too small to split loads neither the
    # forked worker nor gen's writer. Each child runs without the site
    # module, as above, so that no .pth file imports anything first.
    epoch = tmp_path / "epoch.trace"
    epoch.write_text(LANL_LINE + "\n")
    archive = tmp_path / "archive.swf"
    archive.write_text(archive_line() + "\n")
    civil = tmp_path / "civil.trace"
    civil.write_text(_with_cell(LANL_LINE, 2, "May 10 94 00:00:03.456") + "\n")
    spec = tmp_path / "empty.genspec"
    spec.write_text("count=0\n")
    reads = ("import sys, types, tracebw.cli\n"
             "from tracebw import timefmt\n"
             "epoch, archive, civil, out = sys.argv[1:]\n"
             "def loaded():\n"
             "    names = {'datetime', 'tracebw._fork', 'tracebw._gen'} & set(sys.modules)\n"
             "    return sorted(names), type(timefmt._canonical_civil) is types.FunctionType\n"
             "main = tracebw.cli.main\n"
             "assert main(['rates', '--full', '--carry-forward', '--memory', 'used', epoch,\n"
             "             '--out', out]) == 0\n"
             "assert main(['summary', '--format', 'archive', archive, '--out', out]) == 0\n"
             "print(*loaded())\n"
             "assert main(['rates', civil, '--out', out]) == 0\n"
             "print(*loaded())\n")
    # gen writes each exact rate from integers, so neither an empty run nor
    # one in two job ranges loads fractions, or decimal, which it imports;
    # the library's generate still gives Fraction rates.
    some = tmp_path / "some.genspec"
    some.write_text("count=5\n")
    gen = ("import sys, functools, tracebw.cli\n"
           "from tracebw import _gen\n"
           "gen = lambda spec: tracebw.cli.main(['gen', spec, '--out', sys.argv[3]])\n"
           "assert gen(sys.argv[1]) == 0\n"
           "print(sorted({'datetime', 'tracebw._read', 'fractions', 'decimal'}\n"
           "             & set(sys.modules)))\n"
           "_gen.plan_jobs = functools.partial(_gen.plan_jobs, n=2)\n"
           "assert gen(sys.argv[2]) == 0\n"
           "print(sorted({'tracebw._fork', 'fractions', 'decimal'} & set(sys.modules)))\n"
           "from tracebw import GenSpec, generate\n"
           "print(type(generate(GenSpec(count=1))[1].rates[0][1]).__name__)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tracebw.cli.__file__))}
    results = [subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True).stdout
               for code, argv in ((reads, (epoch, archive, civil, os.devnull)),
                                  (gen, (spec, some, tmp_path / "gen.trace")))]
    assert results == ["[] True\n['datetime'] False\n",
                       "[]\n['tracebw._fork']\nFraction\n"]


def test_cli_module_stays_within_the_parser_memory_step():
    # Every benchmark run compiles cli.py from source. On CPython 3.11,
    # tracemalloc's peak while compiling it was 738 KiB at 2,048 tokens and
    # 850 KiB at 2,049 or more: a step larger than the benchmark's 0.1 MB
    # bound on peak RSS. Tokens are counted without comments and blank lines.
    with open(tracebw.cli.__file__, encoding="utf-8") as handle:
        tokens = sum(token.type not in (tokenize.COMMENT, tokenize.NL)
                     for token in tokenize.generate_tokens(handle.readline))
    assert tokens <= 2048


def test_full_csv_never_loads_csv_in_subprocess(tmp_path):
    # write_csv quotes a job id itself, so neither rates --full nor a \r id,
    # which no trace line can carry, loads the csv or _csv module; each row
    # still reads back through csv.reader as one row.
    ids = ["j1", "a,b", 'say "hi"']
    trace = tmp_path / "ids.trace"
    trace.write_text("".join(LANL_LINE.replace("j1", job_id, 1) + "\n" for job_id in ids))
    out, cr_out = tmp_path / "out.csv", tmp_path / "cr.csv"
    code = ("import sys, tracebw.cli\n"
            "from tracebw import MbBase, RateSample, Timestamp, write_csv\n"
            "assert tracebw.cli.main(['rates', '--full', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "sample = RateSample('cr\\rcr', Timestamp(0), Timestamp(1000), 5, 1000, 5.0)\n"
            "with open(sys.argv[3], 'w', newline='') as sink:\n"
            "    assert write_csv([sample], MbBase.BINARY, sink) == 1\n"
            "print(sorted({'csv', '_csv'} & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", code, str(trace), str(out), str(cr_out)],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
    cells = ["j1", '"a,b"', '"say ""hi"""']
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line, cell in zip(lines[1:], cells):
        assert line.startswith(cell + ",")
    for path, expected in ((out, ids), (cr_out, ["cr\rcr"])):
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:]] == expected
        assert all(len(row) == 8 for row in rows)


def test_read_command_builds_no_clock_table_in_subprocess(small_trace):
    # The civil clock's tables wait for the first civil cell written; reading
    # civil cells, as rates on a gen trace does, never builds them. The read
    # side's two tables wait for the first canonical civil cell read.
    trace = small_trace.parent / "civil.trace"
    trace.write_text(_with_cell(LANL_LINE, 2, "May 10 94 00:00:03.456") + "\n")
    code = ("import sys, tracebw.cli\n"
            "from tracebw import timefmt\n"
            "print(len(timefmt._HOUR_MINUTE_MS), len(timefmt._SECOND_MS))\n"
            "for command in ('inspect', 'rates', 'summary'):\n"
            "    assert tracebw.cli.main([command, sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(len(timefmt._HOUR_MINUTE_MS), len(timefmt._SECOND_MS))\n"
            "print(timefmt._MILLIS, timefmt._SECONDS, timefmt._HOUR_MINUTES)\n"
            "timefmt.format_timestamp(timefmt.parse_timestamp('May 10 94 00:00:03.456'))\n"
            "print(len(timefmt._MILLIS), len(timefmt._SECONDS), len(timefmt._HOUR_MINUTES))\n")
    result = subprocess.run([sys.executable, "-c", code, str(trace), os.devnull],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "0 0\n1440 60\n() () ()\n1000 60 1440\n"


def test_reader_closing_early_in_subprocess(tmp_path):
    # Far more output than a pipe buffers, so the writer sees the reader go.
    trace = tmp_path / "long.trace"
    trace.write_text((LANL_LINE + "\n") * 5000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tracebw", "rates", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert head[0] == b"Start date,End date,Mbytes,Bytes\n"
    assert err == b""
