"""A trace file read in byte ranges, every range but the first in a forked
worker: the output is byte for byte that of one range, and no worker
outlives the command."""

import contextlib
import dataclasses
import functools
import io
import os
import signal
import subprocess
import sys
import tempfile
import time

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from tracebw import _fork, _ranges, _read
from tracebw.cli import EXIT_BROKEN_PIPE, main
from tracebw.parsing import format_lanl_line

from .conftest import job_records, optional
from .swf import format_swf_line
from .test_parsing import LANL_LINE

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="ranges need os.fork")

_PLAN = _read._plan_ranges


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(argv, workdir, n=None, starts=None, stdout_mode="w", **stdout_options):
    """Run the CLI in process, its standard output a real file; return the exit
    status, standard output, standard error and, with ``--out``, that file.

    ``n`` goes to the range planner as the number of ranges to ask for;
    ``starts`` replaces the planner's answer outright.
    """
    stdout_path = os.path.join(workdir, "stdout")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(stdout_path)  # so that an appending standard output starts empty
    err = io.StringIO()
    with open(stdout_path, stdout_mode, **stdout_options) as stdout, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        patch.setattr(sys, "stderr", err)
        if n is not None:
            patch.setattr(_read, "_plan_ranges", functools.partial(_PLAN, n=n))
        if starts is not None:
            patch.setattr(_read, "_plan_ranges", lambda fd: starts)
        code = main(argv)
    _no_children_left()
    with open(stdout_path, "rb") as handle:
        out = handle.read()
    written = None
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as handle:
            written = handle.read()
    return code, out, err.getvalue(), written


# --- traces with every odd line the parsers meet ---------------------------

_ENDINGS = [b"\n", b"\n", b"\r\n", b"\r"]
_BAD_UTF8 = [b"\xff", b"\xe2\x82", b"\x80", b"\xc3"]


@st.composite
def _lanl_lines(draw):
    record = draw(job_records)
    if draw(st.booleans()):  # start-less: carry-forward's case
        record = dataclasses.replace(record, start_time=None)
    return format_lanl_line(record).encode()


_ODD_LANL_LINES = st.sampled_from([
    b"# comment", b"#", b"", b"   ", b"only\tthree\tcolumns", b"j\t+7\t1_0" + b"\t-1" * 13,
])


@st.composite
def _archive_lines(draw):
    values = st.integers(0, 10**6)
    return format_swf_line({
        "job": draw(st.integers(1, 10**6)), "submit": draw(optional(values)),
        "wait": draw(optional(st.integers(0, 1000))),
        "runtime": draw(optional(st.sampled_from([0, 1, 7, 3600]))),
        "allocated_procs": draw(optional(st.integers(1, 64))),
        "used_mem_kb_per_proc": draw(optional(values)),
        "requested_mem_kb_per_proc": draw(optional(values)), "status": 1,
    }).encode()


_ODD_ARCHIVE_LINES = st.sampled_from([
    b"; comment", b";", b"", b"  ", b"1 2 3", b"1e3" + b" 1" * 17,
])


@st.composite
def traces(draw, records, odd):
    """Trace bytes: records and odd lines, mixed line endings, bytes that are
    not UTF-8 beside a line end, and a last line with no newline now and then."""
    lines = draw(st.lists(records | odd, max_size=30))
    text = b""
    for line in lines:
        if draw(st.integers(0, 7)) == 0:
            bad = draw(st.sampled_from(_BAD_UTF8))
            line = bad + line if draw(st.booleans()) else line + bad
        text += line + draw(st.sampled_from(_ENDINGS))
    if lines and draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    return text


_COMMANDS = [
    ["inspect"],
    ["rates"],
    ["rates", "--full", "--carry-forward", "--memory", "used"],
    ["rates", "--drop-negative", "--carry-forward"],
    ["summary"],
    ["summary", "--drop-negative", "--mb", "decimal"],
]
_FORMATS = {
    "lanl": (traces(_lanl_lines(), _ODD_LANL_LINES), []),
    "archive": (traces(_archive_lines(), _ODD_ARCHIVE_LINES), ["--format", "archive"]),
}


def _argv(command, path, flags, to_file, workdir):
    argv = [command[0], path, *command[1:], *flags]
    return [*argv, "--out", os.path.join(workdir, "out")] if to_file else argv


@pytest.mark.parametrize("format", _FORMATS)
@settings(max_examples=80)
@given(data=st.data())
def test_ranged_run_matches_one_range(format, data):
    strategy, flags = _FORMATS[format]
    text = data.draw(strategy, label="trace")
    command = data.draw(st.sampled_from(_COMMANDS), label="command")
    n = data.draw(st.integers(2, 5), label="n")
    to_file = data.draw(st.booleans(), label="to_file")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "trace")
        with open(path, "wb") as handle:
            handle.write(text)
        with open(path, "rb") as handle:
            event(f"ranges: {len(_PLAN(handle.fileno(), n=n))}")
        argv = _argv(command, path, flags, to_file, workdir)
        assert _run(argv, workdir, n=n) == _run(argv, workdir, n=1)


# One trace per format with a line of each kind; every line start in turn is
# the start of a second range.
_TRICKY_LANL = b"".join([
    b"# header\n",
    LANL_LINE.encode() + b"\n",
    LANL_LINE.replace("768453010", "-1").replace("j1", "j-startless").encode() + b"\r\n",
    b"\n",
    b"only\tthree\tcolumns\n",
    LANL_LINE.replace("j1", "j\xe9").encode("latin-1") + b"\r",
    b"   \n",
    LANL_LINE.replace("768453010", "-1").replace("j1", "j2").encode() + b"\n",
    b"#\r\n",
    LANL_LINE.replace("768453020", "768453000").replace("j1", "jneg").encode() + b"\n",
    b"\xe2\x82\n",
    LANL_LINE.replace("768453010", "-1").replace("j1", "j3").encode(),
])
_TRICKY_ARCHIVE = b"".join([
    b"; header\n",
    b"1 100 10 20 4 18 100 4 30 200 1 3 2 5 1 1 -1 -1\n",
    b"2 100 -1 20 4 18 100 4 30 200 1 3 2 5 1 1 -1 -1\r\n",
    b"\n",
    b"1 2 3\n",
    b"3 100 10 0 4 18 100 4 30 200 1 3 2 5 1 1 -1 -1\r",
    b"\xff 4 100 10 20 4 18 100 4 30 200 1 3 2 5 1 1 -1 -1\n",
    b";\n",
    b"5 100 10 20.0 4 18 -1 4 30 200 1 3 2 5 1 1 -1 -1",
])


@pytest.mark.parametrize("format, text", [("lanl", _TRICKY_LANL), ("archive", _TRICKY_ARCHIVE)])
@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
def test_every_line_start_as_a_boundary(format, text, command, tmp_path):
    path = str(tmp_path / "trace")
    with open(path, "wb") as handle:
        handle.write(text)
    argv = _argv(command, path, _FORMATS[format][1], False, str(tmp_path))
    serial = _run(argv, str(tmp_path), n=1)
    line_starts = [i + 1 for i, byte in enumerate(text) if byte == ord("\n") and i + 1 < len(text)]
    assert len(line_starts) >= 6
    for start in line_starts:
        assert _run(argv, str(tmp_path), starts=[0, start]) == serial, start
    assert _run(argv, str(tmp_path), starts=[0, *line_starts]) == serial


def test_rows_follow_the_output_codec_and_an_appending_stdout(tmp_path):
    # A worker's rows pass through the output's own encoder, so they are
    # encoded as the parent's rows are, whatever its codec or open mode.
    path = str(tmp_path / "trace")
    with open(path, "wb") as handle:
        handle.write(_TRICKY_LANL + b"\n" + _TRICKY_LANL)
    argv = ["rates", "--full", path]
    for options in ({"encoding": "ascii", "errors": "backslashreplace"},
                    {"encoding": "utf-8", "stdout_mode": "a"}):
        runs = [_run(argv, str(tmp_path), n=n, **options) for n in (1, 4)]
        assert runs[0] == runs[1]
        assert runs[0][1].count(b"\n") == 7  # the header and three rows a copy
        assert runs[0][1].count(b"\xef\xbf\xbd" if "a" in options.get("stdout_mode", "")
                                else b"\\ufffd") == 2


# --- the planner ----------------------------------------------------------

def test_line_starts_split_only_after_a_newline(tmp_path):
    path = tmp_path / "trace"
    text = b"a\r\nbb\n\nccc\rdd\n\xe2\x82\ne"
    path.write_bytes(text)
    fd = os.open(path, os.O_RDONLY)
    try:
        for n in range(1, 9):
            starts = _ranges.line_starts(fd, n, 1)
            assert starts[0] == 0 and starts == sorted(set(starts))
            assert all(text[start - 1] == ord("\n") for start in starts[1:])
            assert len(starts) <= n
        assert _ranges.line_starts(fd, 9, 1) == [0, 3, 6, 7, 14, 17]
    finally:
        os.close(fd)


def test_no_newline_no_split(tmp_path):
    path = tmp_path / "trace"
    path.write_bytes(b"a\rb\rc\r" * 100)
    fd = os.open(path, os.O_RDONLY)
    try:
        assert _ranges.line_starts(fd, 4, 1) == [0]
    finally:
        os.close(fd)


def test_a_fifo_is_one_range(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert _read._plan_ranges(fd) == [0]
        assert _read._plan_ranges(fd, n=4) == [0]
    finally:
        os.close(fd)


def test_a_small_file_is_one_range_by_default(tmp_path):
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 1000)
    fd = os.open(path, os.O_RDONLY)
    try:
        assert os.path.getsize(path) < 2 * _read._RANGE_FLOOR
        assert _read._plan_ranges(fd) == [0]
        assert len(_read._plan_ranges(fd, n=3)) == 3
    finally:
        os.close(fd)


def test_standard_input_is_never_split(tmp_path, monkeypatch, capsys):
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 10)

    def refuse(*args, **kwargs):
        raise AssertionError("standard input was planned")

    monkeypatch.setattr(_read, "_plan_ranges", refuse)
    with open(path, "rb") as handle:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(handle))
        assert main(["inspect", "-"]) == 0
    assert capsys.readouterr().out.startswith("total=10\n")


# --- a large file, as the benchmark reads -----------------------------------

@pytest.fixture(scope="module")
def large_trace(tmp_path_factory):
    """A trace over twice the split floor, so the default plan splits it."""
    path = tmp_path_factory.mktemp("large") / "large.trace"
    lines = [LANL_LINE.replace("j1", f"job{i}").replace("768453010", "-1" if i % 7 else "768453010")
             for i in range(2 * _read._RANGE_FLOOR // len(LANL_LINE) + 100)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_large_file_default_plan(large_trace, tmp_path):
    fd = os.open(large_trace, os.O_RDONLY)
    try:
        starts = _read._plan_ranges(fd)
    finally:
        os.close(fd)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert len(starts) == min(cpus, os.path.getsize(large_trace) // _read._RANGE_FLOOR)
    argv = ["rates", "--carry-forward", large_trace, "--out", str(tmp_path / "out")]
    assert _run(argv, str(tmp_path)) == _run(argv, str(tmp_path), n=1)


def test_closed_pipe_exits_141_in_subprocess(large_trace, tmp_path):
    # As `tracebw rates large.trace | head -2`: the reader goes, the run
    # exits 141 with nothing on stderr, and it has reaped every worker.
    check = tmp_path / "children"
    code = ("import os, sys\n"
            "from tracebw.cli import main\n"
            "code = main(['rates', sys.argv[1]])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    left = 'a child is left'\n"
            "except ChildProcessError:\n"
            "    left = 'none'\n"
            "with open(sys.argv[2], 'w') as report:\n"
            "    report.write(left)\n"
            "sys.exit(code)\n")
    proc = subprocess.Popen([sys.executable, "-c", code, large_trace, str(check)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert head[0] == b"Start date,End date,Mbytes,Bytes\n"
    assert err == b""
    assert check.read_text() == "none"


def test_closed_pipe_reaps_workers(large_trace, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["rates", large_trace]) == EXIT_BROKEN_PIPE
        assert err.getvalue() == ""
    _no_children_left()


# --- failures ---------------------------------------------------------------

def _fail_in_workers(monkeypatch, action):
    """Make the pipeline run ``action`` in every worker; the parent runs as before."""
    parent = os.getpid()
    pipeline = _read._run_pipeline

    def run_pipeline(*args):
        if os.getpid() != parent:
            action()
        return pipeline(*args)

    monkeypatch.setattr(_read, "_run_pipeline", run_pipeline)


def _raise():
    raise RuntimeError("injected")


@pytest.mark.parametrize("command", [["inspect"], ["rates"], ["summary"]])
@pytest.mark.parametrize("action, cause", [
    (_raise, "RuntimeError: injected"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    (lambda: os._exit(3), "exit status 3"),
])
def test_worker_failure_exits_one_and_keeps_out(action, cause, command, tmp_path,
                                                monkeypatch, capsys):
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 100)
    target = tmp_path / "out"
    target.write_text("keep me\n")
    _fail_in_workers(monkeypatch, action)
    monkeypatch.setattr(_read, "_plan_ranges", functools.partial(_PLAN, n=3))
    assert main([*command, str(path), "--out", str(target)]) == 1
    # Three ranges of 100 lines start at lines 0, 34 and 67; the first
    # worker's failure is the one reported.
    line = len(LANL_LINE) + 1
    assert capsys.readouterr() == ("", f"tracebw: error: I/O failure: the worker reading "
                                       f"from byte {34 * line} to byte {67 * line} failed: "
                                       f"{cause}\n")
    assert target.read_text() == "keep me\n"
    assert sorted(os.listdir(tmp_path)) == ["out", "trace"]
    _no_children_left()


def test_full_device_exits_one_and_reaps(tmp_path, monkeypatch, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 100)
    monkeypatch.setattr(_read, "_plan_ranges", functools.partial(_PLAN, n=3))
    assert main(["rates", str(path), "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err.startswith("tracebw: error: [Errno 28] No space left")
    _no_children_left()


def test_interrupt_kills_and_reaps(tmp_path, monkeypatch):
    # Workers that would run for a minute are killed, not waited for.
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 100)
    started = []

    def interrupted(self):
        started.append(self.pid)
        raise KeyboardInterrupt

    _fail_in_workers(monkeypatch, lambda: time.sleep(60))
    monkeypatch.setattr(_read, "_plan_ranges", functools.partial(_PLAN, n=3))
    monkeypatch.setattr(_fork._Worker, "result", interrupted)
    begun = time.monotonic()
    with pytest.raises(KeyboardInterrupt), contextlib.redirect_stdout(io.StringIO()):
        main(["rates", str(path)])
    assert time.monotonic() - begun < 30
    assert len(started) == 1 and started[0] > 0
    _no_children_left()
