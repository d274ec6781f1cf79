"""A small ARCHIVE18 (Standard Workload Format) line writer for tests.

A job is a mapping from field name to value; ``None`` is written as the
format's missing marker ``-1``, floats in repr form so they read back
exactly. The field names are the ones the parser reports in its
malformed-line details.
"""

from __future__ import annotations

from typing import Mapping

SWF_FIELDS = (
    "job", "submit", "wait", "runtime", "allocated_procs", "avg_cpu",
    "used_mem_kb_per_proc", "requested_procs", "requested_time",
    "requested_mem_kb_per_proc", "status", "user", "group", "executable",
    "queue", "partition", "preceding_job", "think_time",
)


def swf_cell(value: int | float | str | None) -> str:
    if value is None:
        return "-1"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_swf_line(job: Mapping[str, int | float | str | None], sep: str = " ") -> str:
    """One 18-field line; a field the mapping lacks is written as missing."""
    return sep.join(swf_cell(job.get(name)) for name in SWF_FIELDS)
