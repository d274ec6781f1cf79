"""``tracebw gen`` in job ranges, every range but the first written by a
forked worker: both files and standard error are byte for byte those of one
range, a failure names what one range would name, and no worker outlives
the command."""

import functools
import hashlib
import io
import math
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest

from tracebw import _fork, _gen
from tracebw.cli import main
from tracebw.synth import GenSpec, _jobs, iter_jobs

from .test_cli import GEN_PINS, GEN_PINS_SPEC

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="ranges need os.fork")

_PLAN = _gen.plan_jobs
_RANDOM = random.Random

# The benchmark's spec at seed 1.
_BENCH_SPEC = GenSpec(seed=1, count=40_000, missing_start_frac=0.05, missing_end_frac=0.02,
                      missing_mem_frac=0.02)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _gen_run(spec_text, workdir, starts=None, n=None):
    """Run gen in process on ``spec_text``; return the exit status, standard
    output, standard error, and the bytes of the trace and the sidecar, or
    None for a file that does not exist.

    ``n`` goes to the job range planner as the number of ranges to ask for;
    ``starts`` replaces the planner's answer outright.
    """
    spec = os.path.join(workdir, "s.genspec")
    trace = os.path.join(workdir, "t.trace")
    with open(spec, "w", encoding="utf-8") as handle:
        handle.write(spec_text)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        patch.setattr(sys, "stderr", err)
        if n is not None:
            patch.setattr(_gen, "plan_jobs", functools.partial(_PLAN, n=n))
        if starts is not None:
            patch.setattr(_gen, "plan_jobs", lambda count: starts)
        code = main(["gen", spec, "--out", trace])
    _no_children_left()
    files = []
    for path in (trace, trace + ".truth"):
        try:
            with open(path, "rb") as handle:
                files.append(handle.read())
        except FileNotFoundError:
            files.append(None)
    return (code, out.getvalue(), err.getvalue(), *files)


# --- the skip -----------------------------------------------------------------

@pytest.fixture
def recorded_rngs(monkeypatch):
    """Every random.Random that the generator seeds, kept for its state."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    return made


@pytest.mark.parametrize("spec, starts", [
    (GenSpec(seed=0, count=60), [1, 2, 59]),
    (GenSpec(seed=11, count=300, missing_start_frac=0.5), [1, 7, 100, 299]),
    (GenSpec(seed=2**40 + 3, count=130, inter_arrival_mean_ms=1.5), [3, 64, 129]),
    (_BENCH_SPEC, [20_000]),
])
def test_the_skip_reaches_the_draws_state(spec, starts, recorded_rngs):
    # One random() and one getrandbits(448) per earlier job leave the
    # generator where iter_jobs' eight random() draws a job leave it, and the
    # next job is the same record with the same exact rate. A CPython that
    # consumed Mersenne Twister words otherwise in getrandbits would fail
    # here, not change the fixtures.
    reference = iter_jobs(spec)
    done = 0
    for start in starts:
        for _ in islice(reference, start - done):
            pass
        done = start
        drawn = recorded_rngs[0].getstate()
        skipping = _RANDOM(spec.seed)
        for _ in range(start):
            skipping.random()
            skipping.getrandbits(448)
        assert skipping.getstate() == drawn, start
        ranged = _jobs(spec, start, start + 1)
        assert _as_fractions(next(ranged)) == next(reference), start
        assert next(ranged, None) is None
        done += 1


def _as_fractions(job):
    """A ``(record, numerator, denominator)`` of ``_jobs`` as iter_jobs'
    ``(record, rate)``."""
    record, numerator, denominator = job
    assert (numerator is None) is (denominator is None)
    return record, None if numerator is None else Fraction(numerator, denominator)


def test_a_range_is_a_slice_of_iter_jobs():
    spec = GenSpec(seed=5, count=40, missing_start_frac=0.3, missing_end_frac=0.2,
                   missing_mem_frac=0.1)
    jobs = list(iter_jobs(spec))
    triples = list(_jobs(spec, 0, 40))
    assert [_as_fractions(job) for job in triples] == jobs
    for first in range(0, 41, 3):
        for stop in (first, first + 1, min(first + 7, 40), 40):
            ranged = list(_jobs(spec, first, stop))
            assert ranged == triples[first:stop], (first, stop)
            assert [_as_fractions(job) for job in ranged] == jobs[first:stop], (first, stop)


@pytest.mark.parametrize("spec", [
    GenSpec(seed=seed, count=2000, missing_start_frac=0.05, missing_end_frac=0.02,
            missing_mem_frac=0.02) for seed in (1, 2, 3, 11)
] + [
    # Runtimes of 1-64 ms share a factor of two with the byte count most of the time.
    GenSpec(seed=4, count=2000, runtime_min_ms=1, runtime_max_ms=64, missing_mem_frac=0.1),
], ids=["seed-1", "seed-2", "seed-3", "seed-11", "runtime-1-64"])
def test_the_gcd_reduced_pair_is_the_fraction(spec):
    # gen writes the pair reduced by math.gcd; the library's Fraction is the
    # exact rate of the record's own memory and duration.
    reduced = 0
    for (record, numerator, denominator), (same, rate) in zip(_jobs(spec, 0, spec.count),
                                                                iter_jobs(spec), strict=True):
        assert record == same
        if rate is None:
            assert (numerator, denominator) == (None, None)
            assert None in (record.start_time, record.end_time, record.req_mem_kb)
            continue
        duration = record.end_time.epoch_ms - record.start_time.epoch_ms
        exact = Fraction(1000 * record.req_mem_kb * 1024, duration)
        common = math.gcd(numerator, denominator)
        assert (numerator // common, denominator // common) == (exact.numerator,
                                                                exact.denominator)
        assert rate == exact
        reduced += common > 1
    if spec.runtime_max_ms == 64:
        assert reduced > spec.count // 2


# --- every split point ------------------------------------------------------

_SPLIT_SPECS = {
    "some-missing": "seed=7\nmissing_start_frac=0.2\nmissing_end_frac=0.15\n"
                    "missing_mem_frac=0.1\n",
    "all-invalid": "seed=8\nmissing_start_frac=1\nmissing_end_frac=1\nmissing_mem_frac=1\n",
}


@pytest.mark.parametrize("spec_text", _SPLIT_SPECS.values(), ids=_SPLIT_SPECS.keys())
def test_every_count_at_two_and_three_ranges(spec_text, tmp_path):
    for count in range(31):
        text = f"{spec_text}count={count}\n"
        serial = _gen_run(text, str(tmp_path), n=1)
        assert serial[0] == 0
        for n in (2, 3):
            assert _gen_run(text, str(tmp_path), n=n) == serial, (count, n)


@pytest.mark.parametrize("spec_text", _SPLIT_SPECS.values(), ids=_SPLIT_SPECS.keys())
def test_every_job_as_a_boundary(spec_text, tmp_path):
    text = f"{spec_text}count=30\n"
    serial = _gen_run(text, str(tmp_path), n=1)
    for start in range(1, 30):
        assert _gen_run(text, str(tmp_path), starts=[0, start]) == serial, start
        if start < 29:
            assert _gen_run(text, str(tmp_path), starts=[0, start, start + 1]) == serial, start
    assert _gen_run(f"{spec_text}count=12\n", str(tmp_path), starts=list(range(12))) \
        == _gen_run(f"{spec_text}count=12\n", str(tmp_path), n=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pinned_bytes_at_every_range_count(n, tmp_path):
    code, out, err, trace, truth = _gen_run(GEN_PINS_SPEC, str(tmp_path), n=n)
    assert (code, out, err) == (0, "", "count=1000\nexpected_valid=907\nexpected_omitted=93\n")
    assert [hashlib.sha256(data).hexdigest() for data in (trace, truth)] == GEN_PINS


# --- the planner ----------------------------------------------------------

def test_plan_jobs_makes_nonempty_ranges_in_order():
    for count in (0, 1, 2, 5, 17, 100):
        for n in range(1, 9):
            starts = _PLAN(count, n)
            assert starts[0] == 0 and starts == sorted(set(starts))
            assert len(starts) == min(n, max(count, 1))
            assert starts[-1] < max(count, 1)
    assert _PLAN(10, 4) == [0, 2, 5, 7]


def test_plan_jobs_default():
    floor = _gen._JOB_FLOOR
    for count in (0, 1, floor, 2 * floor - 1):
        assert _PLAN(count) == [0]
    cpus = _fork.usable_cpus()
    assert len(_PLAN(2 * floor)) == min(cpus, 2)
    assert len(_PLAN(100 * floor)) == min(cpus, 100)


def test_small_runs_never_load_the_fork_code_in_subprocess(tmp_path):
    # perfbench's set-up run has count=0, and a count under twice the floor is
    # one range: neither loads the fork or byte range code, nor forks.
    code = ("import os, sys, tracebw.cli\n"
            "def refuse():\n"
            "    raise AssertionError('forked')\n"
            "os.fork = refuse\n"
            "for count in (0, int(sys.argv[3])):\n"
            "    with open(sys.argv[1], 'w') as spec:\n"
            "        spec.write(f'seed=3\\ncount={count}\\n')\n"
            "    assert tracebw.cli.main(['gen', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "    print(sorted({'tracebw._fork', 'tracebw._ranges'} & set(sys.modules)))\n")
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.genspec"), str(tmp_path / "t.trace"),
         str(2 * _gen._JOB_FLOOR - 1)],
        capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n[]\n"
    assert result.stderr.startswith("count=0\n")


# --- failures -------------------------------------------------------------

# Job 25 of this spec, and every job after it, leaves the timestamp span.
_LATE_FAILURE = ("seed=2\ncount=30\ninter_arrival_mean_ms=1e13\nmissing_start_frac=0.2\n"
                 "missing_end_frac=0.15\nmissing_mem_frac=0.1\n")


def _keep(workdir):
    for name, text in (("t.trace", "old trace\n"), ("t.trace.truth", "old truth\n")):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def test_a_spec_error_names_the_lowest_failing_job(tmp_path):
    # In the parent's range, in one worker's, or in several: the exit status
    # and the error line are those of one range, and both files are kept.
    _keep(str(tmp_path))
    serial = _gen_run(_LATE_FAILURE, str(tmp_path), n=1)
    assert serial == (2, "", "tracebw: error: job 25 leaves the timestamp span: epoch_ms "
                             "254619990027711 is outside 0001-01-01 .. 9999-12-31 UTC\n",
                      b"old trace\n", b"old truth\n")
    splits = [[0, k] for k in range(1, 30)]
    splits += [[0, 10, 20], [0, 20, 27], [0, 26, 28], [0, 24, 25, 26, 27]]
    for starts in splits:
        assert _gen_run(_LATE_FAILURE, str(tmp_path), starts=starts) == serial, starts
    assert sorted(os.listdir(tmp_path)) == ["s.genspec", "t.trace", "t.trace.truth"]


def _fail_in_workers(monkeypatch, action):
    """Make every worker run ``action`` first; the parent runs as before."""
    parent = os.getpid()
    write_jobs = _gen.write_jobs

    def failing(*args):
        if os.getpid() != parent:
            action()
        return write_jobs(*args)

    monkeypatch.setattr(_gen, "write_jobs", failing)


def _raise():
    raise RuntimeError("injected")


@pytest.mark.parametrize("action, cause", [
    (_raise, "RuntimeError: injected"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    (lambda: os._exit(3), "exit status 3"),
])
def test_worker_failure_exits_one_and_keeps_both_files(action, cause, tmp_path, monkeypatch):
    _keep(str(tmp_path))
    _fail_in_workers(monkeypatch, action)
    # Three ranges of 100 jobs start at jobs 0, 33 and 66; the first
    # worker's failure is the one reported.
    assert _gen_run("count=100\n", str(tmp_path), n=3) == (
        1, "", f"tracebw: error: I/O failure: the worker writing jobs 34 to 66 failed: {cause}\n",
        b"old trace\n", b"old truth\n")
    assert sorted(os.listdir(tmp_path)) == ["s.genspec", "t.trace", "t.trace.truth"]


def test_full_device_exits_one_and_reaps(tmp_path, monkeypatch, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    spec = tmp_path / "s.genspec"
    spec.write_text("count=300\n")
    monkeypatch.setattr(_gen, "plan_jobs", functools.partial(_PLAN, n=3))
    assert main(["gen", str(spec), "--out", "/dev/full", "--truth", str(tmp_path / "truth")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tracebw: error: ") and "[Errno 28] No space left" in err
    assert sorted(os.listdir(tmp_path)) == ["s.genspec"]
    _no_children_left()


def test_interrupt_kills_and_reaps(tmp_path, monkeypatch):
    # Workers that would run for a minute are killed, not waited for.
    _keep(str(tmp_path))
    started = []

    def interrupted(self):
        started.append(self.pid)
        raise KeyboardInterrupt

    _fail_in_workers(monkeypatch, lambda: time.sleep(60))
    monkeypatch.setattr(_fork._Worker, "result", interrupted)
    begun = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _gen_run("count=100\n", str(tmp_path), n=3)
    assert time.monotonic() - begun < 30
    assert len(started) == 1 and started[0] > 0
    _no_children_left()
    assert (tmp_path / "t.trace").read_text() == "old trace\n"
    assert (tmp_path / "t.trace.truth").read_text() == "old truth\n"
    assert sorted(os.listdir(tmp_path)) == ["s.genspec", "t.trace", "t.trace.truth"]
