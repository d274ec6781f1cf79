"""tracebw benchmark: the CLI end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds inputs from ``--seed`` under
``.perfbench-out/`` and runs the checkout's own ``src/tracebw``.

Closed loop, one client: one CLI process at a time, each started after the
previous one exits, so the host's two CPUs hold the benchmark and one
child. Every CLI process is started by ``spawner.py``, a helper that holds
no inputs, so the peak memory it reports is the child's own.

``--trace 0`` repeats the workload's CLI command until ``--seconds`` have
passed (at least five times), each run preceded by the same command on an
input with no records (the set-up cost users pay on every run). Before
each of the two CLI commands the benchmark runs ``PROBES_PER_GAP`` fixed
pure-Python probes that use no tracebw code (``probe``), which sample how
fast the host is at that moment.

The host's speed is not steady: the same CLI run takes up to 1.9 times as
long from one minute to the next, with CPU time equal to wall time, so the
slowdown is in the hardware the host shares, not in scheduling. Wall
seconds are therefore reported in *reference seconds*: the CLI's total
wall time over the run divided by the probes' total time, times
``REFERENCE_PROBE_S``. Probes and CLI runs alternate, so both see the same
mix of fast and slow periods, and the ratio of their totals cancels most
of it. On a 2.0 GHz Xeon vCPU the fastest probes take about
``REFERENCE_PROBE_S``, so there a reference second is about a wall second.
The end-to-end metrics are ``lines_per_ref_s`` (input lines, or jobs
written for ``gen``, per reference second of CLI time), ``wall_ref_s``
(mean CLI run), ``setup_s`` (mean empty-input run, in reference seconds)
and ``peak_rss_mb`` (median). The raw wall-time medians and minima go to
the details file. A run makes a few dozen CLI runs at most, too few for any
tail percentile to be steady, so the highest percentile with ten samples
beyond it and the sample count go to the details file as ``wall_s_tail``.

``--trace 1`` times the CLI for a quarter of ``--seconds`` (at least three
runs), then runs the CLI's stages in process once untraced and every stage
once traced (see ``tracing.py``), and a prefix of the input once more under
tracemalloc for peak allocations. The CLI time decomposes as
``cli.wall_s = cli.setup_s + (sum of the layers' self times) + cli.unaccounted_s``,
where the self times sum to ``trace.total_s``, and
``trace.overhead_s = trace.total_s - (the same stages untraced)``.

Every output of every CLI run is checked byte for byte against text the
benchmark computes itself; a run that exits non-zero or fails the check
counts in ``failed``. Each run also makes two self-tests: a corrupted output
must fail the check, and the peak memory of the empty-input run must equal
what the child reads from its own ``VmHWM``. Details of each run (digests
of every input and output, probe times, environment, every sample)
go to ``.perfbench-out/<workload>-seed<N>-trace<T>.json``; spans go to
``.perfbench-out/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(SRC))
try:
    import tracebw
except ImportError:
    sys.exit(f"perfbench: no tracebw package under {SRC}; run from a repository checkout")

import tracing
from spawner import spawn_and_wait
from tracebw.model import RateFlag
from workloads import REASONS, WORKLOADS, build

MIN_RUNS = 5
MIN_TRACE_RUNS = 3
ALLOC_JOBS = 5_000  # input lines and generated jobs measured under tracemalloc
PROBES_PER_GAP = 2  # probes before each CLI command
REFERENCE_PROBE_S = 0.032  # the fastest probe on a 2.0 GHz Xeon vCPU, Python 3.11
# Empty-input peak RSS via the spawner and via the child's own VmHWM may differ
# by the pages the child touches after reading VmHWM on its way out.
PEAK_TOLERANCE_KB = 1024

_HWM_SNIPPET = (
    "import sys\n"
    "from tracebw.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    hwm = next(line for line in status if line.startswith('VmHWM:'))\n"
    "sys.stdout.write(hwm.split()[1] + '\\n')\n"
    "sys.exit(code)\n"
)


class Spawner:
    """Client of ``spawner.py``; started before the benchmark holds any input."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout: str, stderr: str) -> dict:
        request = {"argv": argv, "env": cli_env(), "stdin": os.devnull,
                   "stdout": stdout, "stderr": stderr}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def first_difference(expected: str, actual: str) -> str:
    want, got = expected.splitlines(), actual.splitlines()
    for line_no, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"line {line_no}: expected {a!r}, got {b!r}"
    return f"{len(got)} lines, expected {len(want)}"


class Checker:
    """Compares CLI outputs with their exact expected text; records digests."""

    def __init__(self):
        self.digests: dict[str, list[str]] = {}
        self._verified: set[tuple[str, str, str]] = set()

    def check(self, expected: dict[str, str], kind: str) -> list[str]:
        errors = []
        for path, text in expected.items():
            try:
                digest = sha256(path)
                seen = self.digests.setdefault(os.path.relpath(path, ROOT), [])
                if digest not in seen:
                    seen.append(digest)
                if (kind, path, digest) in self._verified:
                    continue
                with open(path, encoding="utf-8", newline="") as handle:
                    actual = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                errors.append(f"{os.path.relpath(path, ROOT)}: {exc}")
                continue
            if actual == text:
                self._verified.add((kind, path, digest))
            else:
                errors.append(f"{os.path.relpath(path, ROOT)}: "
                              f"{first_difference(text, actual)}")
        return errors


class Runs:
    """CLI runs made so far: samples, failures and their first errors.

    Every run's timing is a sample; a run that fails counts in ``failed``,
    which makes the whole result incorrect.
    """

    def __init__(self, spawner: Spawner, case, checker: Checker):
        self.spawner, self.case, self.checker = spawner, case, checker
        self.samples = {"main": [], "setup": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probes: list[float] = []

    def cli(self, kind: str) -> None:
        argv, expected = ((self.case.argv, self.case.expected) if kind == "main"
                          else (self.case.setup_argv, self.case.setup_expected))
        name = self.case.name
        reply = self.spawner.run([sys.executable, "-m", "tracebw", *argv],
                                 str(OUT / "work" / f"{name}.stdout"),
                                 str(OUT / "work" / f"{name}.stderr"))
        errors = [] if reply["rc"] == 0 else [f"exit code {reply['rc']}"]
        errors += self.checker.check(expected, kind)
        self.attempted += 1
        self.samples[kind].append(reply)
        if errors:
            self.failed += 1
            self.errors.extend(f"{kind}: {e}" for e in errors[:3])

    def loop(self, seconds: float, min_runs: int) -> None:
        deadline = perf_counter() + seconds
        while len(self.samples["main"]) < min_runs or perf_counter() < deadline:
            for kind in ("setup", "main"):
                self.probes.extend(probe() for _ in range(PROBES_PER_GAP))
                self.cli(kind)

    def median(self, kind: str, key: str) -> float:
        return statistics.median(s[key] for s in self.samples[kind])

    def reference_s(self, kind: str) -> float:
        """The mean wall time of ``kind`` runs, in reference seconds."""
        wall = statistics.fmean(s["wall_s"] for s in self.samples[kind])
        return wall * REFERENCE_PROBE_S / statistics.fmean(self.probes)


def probe() -> float:
    """A fixed pure-Python task that uses no tracebw code; its time samples the host's speed.

    Integer arithmetic in a tight loop, then splitting, converting, grouping
    and formatting text as the CLI does. The two halves slow down by
    different amounts when the host is busy, on either side of the CLI's
    slowdown, so their sum tracks the CLI better than either alone.
    """
    started = perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) % 1_000_003
    rows = []
    for i in range(12_000):
        fields = f"{i}\t{i * 7919 % 100003}\t{i % 977}.25\tq{i % 13}".split("\t")
        rows.append((int(fields[0]), int(fields[1]), float(fields[2]), fields[3]))
    groups: dict[str, list[float]] = {}
    for row in rows:
        groups.setdefault(row[3], []).append(row[1] * row[2])
    "".join(f"{key}\t{sum(values):.3f}\n" for key, values in groups.items())
    return perf_counter() - started


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, if any."""
    ranked = sorted(values)
    rank = len(ranked) - 10
    if rank < 1:
        return {"samples": len(ranked)}
    return {"samples": len(ranked), "percentile": 100 * rank / len(ranked),
            "value_s": ranked[rank - 1]}


def self_tests(spawner: Spawner, case) -> dict:
    """A corrupted output must fail the check; the empty-input peak is the child's own."""
    work = OUT / "work"
    output = case.argv[-1]
    corrupted = str(work / f"{case.name}.corrupted")
    try:
        with open(output, encoding="utf-8", newline="") as handle:
            lines = handle.read().splitlines(keepends=True)
        last = lines[-1]
        digit = max(i for i, char in enumerate(last) if char.isdigit())
        with open(corrupted, "w", encoding="utf-8", newline="") as handle:
            handle.write("".join(lines[:-1]) + last[:digit]
                         + str((int(last[digit]) + 1) % 10) + last[digit + 1:])
        caught = bool(Checker().check({corrupted: case.expected[output]}, "selftest"))
    except (OSError, ValueError, IndexError):
        caught = False  # no usable output to corrupt; the runs' own check reports why

    def empty_run(*argv: str) -> dict:
        return spawner.run([sys.executable, *argv, *case.setup_argv],
                           str(work / "selftest.stdout"), str(work / "selftest.stderr"))

    own = empty_run("-c", _HWM_SNIPPET)
    with open(work / "selftest.stdout", encoding="utf-8") as handle:
        own_kb = int(handle.read() or -1)
    plain = empty_run("-m", "tracebw")
    direct = spawn_and_wait([sys.executable, "-m", "tracebw", *case.setup_argv], cli_env(),
                            os.devnull, str(work / "selftest.stdout"),
                            str(work / "selftest.stderr"))
    return {
        "corrupted_output_caught": caught,
        "harness_free_peak": (own["rc"] == plain["rc"] == 0
                              and abs(own["maxrss_kb"] - own_kb) <= PEAK_TOLERANCE_KB
                              and abs(plain["maxrss_kb"] - own_kb) <= PEAK_TOLERANCE_KB),
        "empty_peak_own_vmhwm_kb": own_kb,
        "empty_peak_same_run_rusage_kb": own["maxrss_kb"],
        "empty_peak_via_spawner_kb": plain["maxrss_kb"],
        "empty_peak_spawned_by_benchmark_kb": direct["maxrss_kb"],
        "benchmark_peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "commit": _git_commit()}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(runs: Runs) -> dict:
    wall = runs.reference_s("main")
    return {
        "lines_per_ref_s": {"value": runs.case.units / wall, "unit": "1/s"},
        "wall_ref_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": runs.median("main", "maxrss_kb") / 1024, "unit": "MB"},
        "setup_s": {"value": runs.reference_s("setup"), "unit": "s"},
    }


def raw_wall(runs: Runs) -> dict:
    """Wall seconds as measured, before conversion to reference seconds."""
    return {kind: {"median_s": runs.median(kind, "wall_s"),
                   "min_s": min(s["wall_s"] for s in runs.samples[kind])}
            for kind in ("main", "setup")}


def per_layer(runs: Runs, trace_errors: list[str]) -> tuple[dict, dict]:
    case = runs.case
    untraced_s = tracing.untraced_path_s(case)
    tracer, ctx, errors = tracing.traced_run(case)
    trace_errors.extend(errors)
    total, calls, self_s, root_s = tracing.analyse(tracer)
    tracer.write(str(OUT / f"spans-{case.name}.csv"))
    parse_peak, synth_peak = tracing.peak_alloc_mb(case, ALLOC_JOBS)

    report, samples = ctx["report"], ctx["samples"]
    civil, epoch = _time_cells(ctx["lines"], case.format)
    if civil + epoch != calls.get("timefmt.parse_timestamp", 0):
        trace_errors.append("timestamp cells in the input do not match parse_timestamp calls")
    parse_s = total["parsing.parse_trace"]
    wall, setup = runs.median("main", "wall_s"), runs.median("setup", "wall_s")
    values = {
        "parsing.parse_s": parse_s,
        "parsing.lines_per_s": len(ctx["lines"]) / parse_s,
        "parsing.parsed": report.parsed,
        "parsing.malformed": report.malformed,
        **{f"parsing.malformed.{r}": report.reasons.get(r, 0) for r in REASONS},
        "parsing.yield": report.parsed / report.record_lines,
        "parsing.write_s": total["parsing.write_lanl_trace"],
        "parsing.peak_alloc_mb": parse_peak,
        "timefmt.cells_civil": civil,
        "timefmt.cells_epoch": epoch,
        "timefmt.share_of_parse": total.get("timefmt.parse_timestamp", 0.0) / parse_s,
        "timefmt.format_day_s": total["timefmt.format_day"],
        "timefmt.format_timestamp_s": total["timefmt.format_timestamp"],
        "model.jobrecord_s": total["model.JobRecord"],
        "bandwidth.iter_rates_s": total["bandwidth.iter_rates"],
        "bandwidth.samples": len(samples),
        "bandwidth.omitted": report.parsed - len(samples),
        "bandwidth.yield": len(samples) / report.parsed,
        "bandwidth.carried_forward": sum(RateFlag.CARRIED_FORWARD_START in s.flags
                                         for s in samples),
        "bandwidth.negative": sum(RateFlag.NEGATIVE_DURATION in s.flags for s in samples),
        "bandwidth.zero_duration": sum(s.duration_ms == 0 for s in samples),
        "export.worksheet_s": total["export.write_worksheet"],
        "export.csv_s": total["export.write_csv"],
        "export.summarize_s": total["export.summarize"],
        "export.rows": case.units if case.name == "gen" else len(case.samples),
        "export.bytes_out": sum(len(text.encode()) for path, text in case.expected.items()
                                if not path.endswith((".stdout", ".stderr"))),
        "synth.generate_s": total["synth.generate"],
        "synth.peak_alloc_mb": synth_peak,
        "synth.sidecar_s": total["synth.write_sidecar"],
        "cli.wall_s": wall,
        "cli.setup_s": setup,
        "cli.unaccounted_s": wall - setup - root_s,
        "trace.total_s": root_s,
        "trace.overhead_s": root_s - untraced_s,
        "failed_frac": runs.failed / runs.attempted,
    }
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    details = {"self_s": self_s, "span_calls": calls, "span_total_s": total,
               "untraced_path_s": untraced_s,
               "decomposition": "cli.wall_s = cli.setup_s + sum(self_s) + cli.unaccounted_s"}
    return metrics, details


def _unit(name: str) -> str:
    if name.endswith("lines_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("yield", "share_of_parse", "failed_frac")):
        return "ratio"
    return "count"


def _time_cells(lines: list[str], fmt: str) -> tuple[int, int]:
    """Timestamp cells handed to parse_timestamp, split into civil and epoch forms."""
    if fmt != "lanl":
        return 0, 0
    civil = epoch = 0
    for line in lines:
        if line.startswith("#") or not line.strip():
            continue
        for cell in line.split("\t")[1:4]:
            cell = cell.strip()
            if cell in ("", "-1"):
                continue
            if cell.lstrip("-").isdigit():
                epoch += 1
            else:
                civil += 1
    return civil, epoch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if Path(tracebw.__file__).resolve().parent != SRC / "tracebw":
        print(f"perfbench: imported tracebw from {tracebw.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    with Spawner() as spawner:
        started = perf_counter()
        case = build(args.workload, args.seed, OUT / "work")
        build_s = perf_counter() - started
        checker = Checker()
        runs = Runs(spawner, case, checker)
        runs.cli("setup")  # warm-up: byte-compiles the package
        runs.samples["setup"].clear()
        runs.loop(args.seconds / 4 if args.trace else args.seconds,
                  MIN_TRACE_RUNS if args.trace else MIN_RUNS)
        tests = self_tests(spawner, case)
        trace_errors: list[str] = []
        if args.trace:
            metrics, details = per_layer(runs, trace_errors)
        else:
            metrics, details = end_to_end(runs), {}

    correct = (runs.failed == 0 and not trace_errors and tests["corrupted_output_caught"]
               and tests["harness_free_peak"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "metrics": metrics,
        "attempted": runs.attempted, "failed": runs.failed, "errors": runs.errors,
        "trace_errors": trace_errors, "self_tests": tests, "input_build_s": build_s,
        "inputs": {os.path.relpath(p, ROOT): sha256(p) for p in case.inputs},
        "outputs": checker.digests,
        "wall_s_tail": tail([sample["wall_s"] for sample in runs.samples["main"]]),
        "samples": runs.samples,
        "raw_wall": raw_wall(runs),
        "probe": {"mean_s": statistics.fmean(runs.probes), "spread": spread(runs.probes),
                  "samples_s": runs.probes},
        "environment": environment(),
        **details,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"perfbench: {args.workload} seed={args.seed} runs={runs.attempted} "
          f"failed={runs.failed} probe spread={record['probe']['spread']:.3f} "
          f"details in {os.path.relpath(result_path, ROOT)}")
    for error in (runs.errors + trace_errors)[:10]:
        print(f"perfbench: error: {error}")
    print(json.dumps({"correct": correct, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
