"""A trace file read in byte ranges, every range but the first in a forked
worker: the output is byte for byte that of one range, and no worker
outlives the command."""

import contextlib
import dataclasses
import errno
import gc
import io
import marshal
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from tracebw import _fork, _gen, _read
from tracebw.cli import EXIT_BROKEN_PIPE, main
from tracebw.errors import InvalidSpec, IoFailure
from tracebw.parsing import format_lanl_line

from .conftest import job_records, optional
from .swf import format_swf_line
from .test_parsing import LANL_LINE

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="ranges need os.fork")

def _split(patch, cpus):
    """Plan reads and gen as on ``cpus`` usable CPUs, down to ranges of one
    byte or one job."""
    patch.setattr(_fork, "usable_cpus", lambda: cpus)
    patch.setattr(_read, "_RANGE_FLOOR", 1)
    patch.setattr(_gen, "_JOB_FLOOR", 1)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(argv, workdir, cpus=None, starts=None, stdout_mode="w", **stdout_options):
    """Run the CLI in process, its standard output a real file; return the exit
    status, standard output, standard error and, with ``--out``, that file.

    With ``cpus``, the input is split as on that many usable CPUs, whatever
    its size; ``starts`` replaces the planner's answer outright.
    """
    stdout_path = os.path.join(workdir, "stdout")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(stdout_path)  # so that an appending standard output starts empty
    err = io.StringIO()
    with open(stdout_path, stdout_mode, **stdout_options) as stdout, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        patch.setattr(sys, "stderr", err)
        if cpus is not None:
            _split(patch, cpus)
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
    cpus = data.draw(st.integers(2, 5), label="cpus")
    to_file = data.draw(st.booleans(), label="to_file")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "trace")
        with open(path, "wb") as handle:
            handle.write(text)
        with open(path, "rb") as handle, pytest.MonkeyPatch.context() as patch:
            _split(patch, cpus)
            event(f"ranges: {len(_read._plan_ranges(handle.fileno()))}")
        argv = _argv(command, path, flags, to_file, workdir)
        assert _run(argv, workdir, cpus=cpus) == _run(argv, workdir, cpus=1)


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
    serial = _run(argv, str(tmp_path), cpus=1)
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
        runs = [_run(argv, str(tmp_path), cpus=cpus, **options) for cpus in (1, 4)]
        assert runs[0] == runs[1]
        assert runs[0][1].count(b"\n") == 7  # the header and three rows a copy
        assert runs[0][1].count(b"\xef\xbf\xbd" if "a" in options.get("stdout_mode", "")
                                else b"\\ufffd") == 2


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("where", [0, -1], ids=["first-line", "last-line"])
def test_an_unencodable_job_id_exits_one(where, cpus, tmp_path):
    # An output codec that cannot encode a job id fails the run as an I/O
    # failure does, in the parent's range or in a worker's; _run checks
    # that no worker is left.
    ids = ["j1", "j2", "j3", "j4"]
    ids[where] = "j\xe9"
    path = tmp_path / "trace"
    path.write_text("".join(LANL_LINE.replace("j1", i) + "\n" for i in ids), encoding="utf-8")
    code, _, err, _ = _run(["rates", "--full", str(path)], str(tmp_path), cpus=cpus,
                           encoding="ascii")
    assert code == 1
    assert err.startswith("tracebw: error: 'ascii' codec can't encode character '\\xe9'")
    assert err.count("\n") == 1


# --- the planner ----------------------------------------------------------

def test_line_starts_split_only_after_a_newline(tmp_path, monkeypatch):
    path = tmp_path / "trace"
    text = b"a\r\nbb\n\nccc\rdd\n\xe2\x82\ne"
    path.write_bytes(text)
    fd = os.open(path, os.O_RDONLY)
    try:
        for cpus in range(1, 9):
            _split(monkeypatch, cpus)
            starts = _read.line_starts(fd, _fork.plan(len(text), 1))
            assert starts[0] == 0 and starts == sorted(set(starts))
            assert all(text[start - 1] == ord("\n") for start in starts[1:])
            assert len(starts) <= cpus
        _split(monkeypatch, 9)
        assert _read.line_starts(fd, _fork.plan(len(text), 1)) == [0, 3, 6, 7, 14, 17]
    finally:
        os.close(fd)


def test_no_newline_no_split(tmp_path, monkeypatch):
    path = tmp_path / "trace"
    path.write_bytes(b"a\rb\rc\r" * 100)
    fd = os.open(path, os.O_RDONLY)
    try:
        _split(monkeypatch, 4)
        assert _read.line_starts(fd, _fork.plan(600, 1)) == [0]
    finally:
        os.close(fd)


def test_one_rule_plans_byte_and_job_ranges(tmp_path, monkeypatch):
    # On a file of N newline bytes every offset is already a line start, so
    # the read's plan is the plan of N jobs.
    path = tmp_path / "trace"
    for size in range(1, 61):
        path.write_bytes(b"\n" * size)
        fd = os.open(path, os.O_RDONLY)
        try:
            for cpus in range(1, 9):
                _split(monkeypatch, cpus)
                assert _read._plan_ranges(fd) == _gen.plan_jobs(size), (size, cpus)
        finally:
            os.close(fd)


def test_a_fifo_is_one_range(tmp_path, monkeypatch):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert _read._plan_ranges(fd) == [0]
        _split(monkeypatch, 4)
        assert _read._plan_ranges(fd) == [0]
    finally:
        os.close(fd)


@pytest.mark.parametrize("mode, starts", [
    (stat.S_IFREG, [0, 4]), (stat.S_IFIFO, [0]), (stat.S_IFCHR, [0]), (stat.S_IFSOCK, [0]),
], ids=["regular", "fifo", "character-device", "socket"])
def test_only_a_regular_file_is_split(mode, starts, tmp_path, monkeypatch):
    # The size alone would split each: fstat reports the file's own size,
    # twice the floor and more, with the file type of ``mode``.
    path = tmp_path / "trace"
    path.write_bytes(b"\n" * 8)
    fd = os.open(path, os.O_RDONLY)
    try:
        status = list(os.fstat(fd))
        status[0] = mode | 0o600  # st_mode; st_size is 8
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(status))
        _split(monkeypatch, 2)
        assert _read._plan_ranges(fd) == starts
    finally:
        os.close(fd)


def test_a_byte_range_reads_exactly_its_bytes(tmp_path):
    # read() with no size reads to the range's end, past a buffer's size.
    data = bytes(range(256)) * 80
    path = tmp_path / "trace"
    path.write_bytes(data)
    fd = os.open(path, os.O_RDONLY)
    try:
        for start, end in [(0, 0), (0, 1), (5, 300), (0, len(data)), (1, 9000),
                           (8192, 16385), (7, None), (0, None), (len(data), None)]:
            assert _read._ByteRange(fd, start, end).read() == data[start:end], (start, end)
    finally:
        os.close(fd)


def test_a_small_file_is_one_range_by_default(tmp_path, monkeypatch):
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 1000)
    fd = os.open(path, os.O_RDONLY)
    try:
        assert os.path.getsize(path) < 2 * _read._RANGE_FLOOR
        assert _read._plan_ranges(fd) == [0]
        _split(monkeypatch, 3)
        assert len(_read._plan_ranges(fd)) == 3
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
    assert _run(argv, str(tmp_path)) == _run(argv, str(tmp_path), cpus=1)


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
    _split(monkeypatch, 3)
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
    _split(monkeypatch, 3)
    assert main(["rates", str(path), "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err.startswith("tracebw: error: [Errno 28] No space left")
    _no_children_left()


def test_interrupt_kills_and_reaps(tmp_path, monkeypatch):
    # Workers that would run for a minute are killed, not waited for.
    path = tmp_path / "trace"
    path.write_bytes((LANL_LINE + "\n").encode() * 100)
    started = []

    def interrupted(self, outs, header):
        started.append(self.pid)
        raise KeyboardInterrupt

    _fail_in_workers(monkeypatch, lambda: time.sleep(60))
    _split(monkeypatch, 3)
    monkeypatch.setattr(_fork._Worker, "collect", interrupted)
    begun = time.monotonic()
    with pytest.raises(KeyboardInterrupt), contextlib.redirect_stdout(io.StringIO()):
        main(["rates", str(path)])
    assert time.monotonic() - begun < 30
    assert len(started) == 1 and started[0] > 0
    _no_children_left()


def _floats():
    return [k / 7 for k in range(100_000)]


def test_a_result_larger_than_a_pipe_buffer_comes_back_whole():
    # 100,000 floats marshal to about 900 KB.
    assert _fork.fan_out([(lambda: "first", "running first"),
                          (_floats, "returning floats")], []) == ["first", _floats()]
    _no_children_left()


def test_a_long_spec_error_comes_back_whole():
    message = "count=" + "é9" * 100_000 + " is not a count"

    def refuse():
        raise InvalidSpec(message)

    with pytest.raises(InvalidSpec) as raised:
        _fork.fan_out([(lambda: None, "running first"), (refuse, "refusing")], [])
    assert type(raised.value) is InvalidSpec and str(raised.value) == message
    _no_children_left()


def test_a_worker_killed_mid_report_names_the_signal(monkeypatch):
    def dump(report, file):
        data = marshal.dumps(report)
        file.write(data[:len(data) // 2])
        file.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(marshal, "dump", dump)
    with pytest.raises(IoFailure, match="the worker returning floats failed: killed by signal 9$"):
        _fork.fan_out([(lambda: None, "running first"), (_floats, "returning floats")], [])
    _no_children_left()


def _fail_after(monkeypatch, count):
    """Make every ``tempfile.TemporaryFile()`` after the first ``count`` fail."""
    made = []

    def temporary_file():
        if len(made) == count:
            raise OSError(errno.EMFILE, "Too many open files")
        made.append(True)
        return real()

    real = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)


# A worker with two output spools opens its report spool third.
@pytest.mark.parametrize("made", [1, 2], ids=["_fail_at_second_spool", "_fail_at_report_spool"])
def test_a_worker_that_cannot_start_closes_its_spools(made, monkeypatch):
    # Out of descriptors before the fork: the spools already opened are
    # closed, so none is left for the collector to warn about.
    _fail_after(monkeypatch, made)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match="Too many open files"):
            _fork._Worker(_raise, 2, "doing nothing")
        gc.collect()
    assert [warning.category for warning in caught] == []
    _no_children_left()
