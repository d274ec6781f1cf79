"""Per-job bandwidth estimation from supercomputer batch accounting traces.

The pipeline: parse a line-per-job accounting log into records, partition
out jobs missing the data the estimate needs, compute each remaining
job's bandwidth as memory footprint over wall-clock duration, then
summarize or export the results as a worksheet or CSV. A deterministic
rigid-job generator produces fixtures with exact ground truth so the
whole pipeline is testable without a real trace.
"""

from .bandwidth import (
    BYTES_PER_KB,
    MbBase,
    MemorySource,
    compute_rates,
    duration_ms,
    iter_rates,
    partition_jobs,
    rate,
    select_bytes,
    to_output_unit,
)
from .errors import InvalidSpec, IoFailure, MalformedLine, MalformedSidecar
from .export import (
    CSV_HEADER,
    WORKSHEET_HEADER,
    format_sig,
    summarize,
    write_csv,
    write_worksheet,
)
from .model import (
    JobRecord,
    ParseReport,
    RateFlag,
    RateSample,
    Timestamp,
    TraceSummary,
)
from .parsing import (
    TraceFormat,
    TraceStream,
    format_lanl_line,
    parse_archive_line,
    parse_lanl_line,
    parse_trace,
    write_lanl_trace,
)

# The generator's names load synth on first use, so the read path never pays
# for it (PEP 562). Only generate and read_sidecar load fractions, and with it
# decimal, when called: tracebw gen loads neither.
_SYNTH_NAMES = frozenset(
    ("GenSpec", "GroundTruth", "generate", "load_genspec", "read_sidecar", "write_sidecar"))


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BYTES_PER_KB",
    "CSV_HEADER",
    "GenSpec",
    "GroundTruth",
    "InvalidSpec",
    "IoFailure",
    "JobRecord",
    "MalformedLine",
    "MalformedSidecar",
    "MbBase",
    "MemorySource",
    "ParseReport",
    "RateFlag",
    "RateSample",
    "Timestamp",
    "TraceFormat",
    "TraceStream",
    "TraceSummary",
    "WORKSHEET_HEADER",
    "compute_rates",
    "duration_ms",
    "format_lanl_line",
    "format_sig",
    "generate",
    "iter_rates",
    "load_genspec",
    "parse_archive_line",
    "parse_lanl_line",
    "parse_trace",
    "partition_jobs",
    "rate",
    "read_sidecar",
    "select_bytes",
    "summarize",
    "to_output_unit",
    "write_csv",
    "write_lanl_trace",
    "write_sidecar",
    "write_worksheet",
]
