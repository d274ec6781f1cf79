"""The traced in-process run: one span per call into a tracebw layer.

Each stage's input is materialised before the stage runs (lines as a list,
records as a list, samples as a list), so a stage's span holds that layer's
work and nothing streamed from another. Stage spans are recorded around the
benchmark's own calls. Calls made inside a stage into the per-item public
functions of other layers (``timefmt.parse_timestamp``, ``model.JobRecord``,
``timefmt.format_day``, ``timefmt.format_timestamp``) are recorded by
wrapping the module attribute the caller looks up, so those spans nest
under the stage that made them.

Span and layer names are ``<module>.<function>``, with the module names the
package uses: ``cli``, ``parsing``, ``timefmt``, ``model``, ``bandwidth``,
``export`` and ``synth``. The root span ``cli`` covers the stages that the
workload's CLI command runs; the other stages run afterwards as roots of
their own, so that every layer is measured on every workload.
"""

from __future__ import annotations

import io
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter, perf_counter_ns

import tracebw.export
import tracebw.parsing
from tracebw.bandwidth import MbBase, MemorySource, iter_rates
from tracebw.export import summarize, write_csv, write_worksheet
from tracebw.parsing import TraceFormat, parse_trace, write_lanl_trace
from tracebw.synth import generate, write_sidecar

from workloads import Case, summary_text

LAYERS = ("cli", "parsing", "timefmt", "model", "bandwidth", "export", "synth")
# Stages of the traced run, in pipeline order.
STAGES = ("synth.generate", "parsing.write_lanl_trace", "synth.write_sidecar",
          "parsing.parse_trace", "bandwidth.iter_rates",
          "export.write_worksheet", "export.write_csv", "export.summarize")

# (module, attribute, span name) of each per-item function wrapped while tracing.
_WRAPPED = (
    (tracebw.parsing, "parse_timestamp", "timefmt.parse_timestamp"),
    (tracebw.parsing, "JobRecord", "model.JobRecord"),
    (tracebw.parsing, "format_timestamp", "timefmt.format_timestamp"),
    (tracebw.export, "format_day", "timefmt.format_day"),
)


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        # The body of span(), inlined: wrapped functions run once per line or cell.
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextmanager
    def wrapping(self):
        """Record a span for every call into the per-item functions."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _WRAPPED]
        try:
            for module, attr, name in _WRAPPED:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index},{parent},{name},{start},{end}\n")


def _stage(name: str, ctx: dict) -> None:
    """Run one stage over its materialised input, storing its output in ``ctx``."""
    if name == "synth.generate":
        ctx["records"], ctx["truth"] = generate(ctx["spec"])
    elif name == "parsing.write_lanl_trace":
        ctx[name] = io.StringIO()
        write_lanl_trace(ctx["records"], ctx[name])
    elif name == "synth.write_sidecar":
        ctx[name] = io.StringIO()
        write_sidecar(ctx["truth"], ctx[name])
    elif name == "parsing.parse_trace":
        stream = parse_trace(ctx["lines"], ctx["format"])
        ctx["parsed"] = list(stream)
        ctx["report"] = stream.report
    elif name == "bandwidth.iter_rates":
        ctx["samples"] = list(iter_rates(ctx["parsed"], ctx["memory"], ctx["carry"]))
    elif name == "export.write_worksheet":
        ctx[name] = io.StringIO()
        write_worksheet(ctx["samples"], MbBase.BINARY, ctx[name])
    elif name == "export.write_csv":
        ctx[name] = io.StringIO()
        write_csv(ctx["samples"], MbBase.BINARY, ctx[name])
    elif name == "export.summarize":
        ctx[name] = summarize(ctx["samples"], MbBase.BINARY)


def _context(case: Case) -> dict:
    with open(case.read_path, encoding="utf-8", errors="replace") as handle:
        lines = handle.readlines()
    return {"spec": case.spec, "lines": lines, "format": TraceFormat(case.format),
            "memory": MemorySource(case.memory), "carry": case.carry}


def _stage_output(name: str, value) -> str:
    if name == "export.summarize":
        stats = None if value.n_rates == 0 else (
            value.min, value.max, value.mean, value.median, value.p95)
        return summary_text(value.n_rates, value.n_negative, value.n_undefined, stats)
    return value.getvalue()


def untraced_path_s(case: Case) -> float:
    """Wall time of the workload's CLI stages, staged as in the traced run, untraced."""
    ctx = _context(case)
    started = perf_counter()
    for name in case.on_path:
        _stage(name, ctx)
    return perf_counter() - started


def traced_run(case: Case) -> tuple[Tracer, dict, list[str]]:
    """Run every stage once under the tracer; return it, the outputs and any errors."""
    ctx = _context(case)
    tracer = Tracer()
    with tracer.wrapping():
        with tracer.span("cli"):
            for name in case.on_path:
                with tracer.span(name):
                    _stage(name, ctx)
        for name in STAGES:
            if name not in case.on_path:
                with tracer.span(name):
                    _stage(name, ctx)
    return tracer, ctx, _check(case, ctx)


def _check(case: Case, ctx: dict) -> list[str]:
    errors = []
    report, samples = ctx["report"], ctx["samples"]
    if report.parsed != case.parsed:
        errors.append(f"parsed {report.parsed}, expected {case.parsed}")
    if dict(report.reasons) != dict(case.reasons):
        errors.append(f"malformed reasons {dict(report.reasons)}, expected {dict(case.reasons)}")
    got = [(s.job_id, s.start.epoch_ms, s.end.epoch_ms, s.n_bytes) for s in samples]
    want = [(s.job_id, s.start, s.end, s.n_bytes) for s in case.samples]
    if got != want:
        errors.append(f"iter_rates samples differ from the expected ones "
                      f"({len(got)} against {len(want)})")
    for name, text in case.stage_text.items():
        if _stage_output(name, ctx[name]) != text:
            errors.append(f"stage {name} output differs from the expected text")
    return errors


def peak_alloc_mb(case: Case, jobs: int) -> tuple[float, float]:
    """tracemalloc peaks over the first ``jobs`` lines and jobs of the workload.

    One peak is for a streaming parse plus rates, the other for ``generate``.
    tracemalloc slows Python code several times over, so only a prefix is
    measured; a stage that keeps every record still shows as a peak of
    megabytes, where a streaming one stays in kilobytes.
    """
    ctx = _context(case)
    lines, spec = ctx["lines"][:jobs], replace(case.spec, count=jobs)
    tracemalloc.start()
    try:
        stream = parse_trace(lines, ctx["format"])
        for _ in iter_rates(stream, ctx["memory"], ctx["carry"]):
            pass
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        generate(spec)
        synth_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return parse_peak / 2**20, synth_peak / 2**20


def analyse(tracer: Tracer) -> tuple[dict, dict, dict, float]:
    """Per-name span totals and call counts, per-layer self time, root duration.

    Self time is a span's duration minus its children's; layer self times
    cover only the ``cli`` root's subtree, so they sum to its duration.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total_s: dict = {}
    calls: dict = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    root_ns = 0
    in_path = set()
    for index, (name, start, end, parent) in enumerate(spans):
        total_s[name] = total_s.get(name, 0.0) + (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
        if name == "cli" and parent < 0:
            in_path.add(index)
            root_ns = end - start
        elif parent in in_path:
            in_path.add(index)
        if index in in_path:
            self_s[name.split(".")[0]] += (end - start - child_ns[index]) / 1e9
    return total_s, calls, self_s, root_ns / 1e9

