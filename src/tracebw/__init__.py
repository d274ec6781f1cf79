"""Per-job bandwidth estimation from supercomputer batch accounting traces.

The pipeline: parse a line-per-job accounting log into records, partition
out jobs missing the data the estimate needs, compute each remaining
job's bandwidth as memory footprint over wall-clock duration, then
summarize or export the results as a worksheet or CSV. A deterministic
rigid-job generator produces fixtures with exact ground truth so the
whole pipeline is testable without a real trace.

``import tracebw`` loads no submodule: each public name loads the module
that defines it on first use (PEP 562), so a command loads only what it
runs. Import a submodule by name, as in ``import tracebw.parsing``.
"""

# Each public name, by the module that defines it.
_PUBLIC = {
    "bandwidth": "BYTES_PER_KB MbBase MemorySource compute_rates duration_ms iter_rates"
                 " partition_jobs rate select_bytes to_output_unit",
    "errors": "InvalidSpec IoFailure MalformedLine MalformedSidecar",
    "export": "CSV_HEADER WORKSHEET_HEADER format_sig summarize write_csv write_worksheet",
    "model": "JobRecord ParseReport RateFlag RateSample Timestamp TraceSummary",
    "parsing": "TraceFormat TraceStream format_lanl_line parse_archive_line parse_lanl_line"
               " parse_trace write_lanl_trace",
    "synth": "GenSpec GroundTruth generate load_genspec read_sidecar write_sidecar",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
