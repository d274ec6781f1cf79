"""Shared strategies, record builders, and the exact-rational oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from tracebw import GenSpec, JobRecord, Timestamp, generate

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

# Timestamps stay within 1990-2100, the range the model promises to cover.
MS_1990 = 631_152_000_000
MS_2100 = 4_102_444_800_000


def rational_rate(n_bytes: int, duration_ms: int) -> Fraction | None:
    """Independent oracle: the exact rate as a Fraction, None when undefined."""
    if duration_ms == 0:
        return None
    return Fraction(1000 * n_bytes, duration_ms)


def assert_rate_close(value: float, expected: Fraction, rtol: Fraction = Fraction(1, 10**12)):
    """Exact-arithmetic closeness check: |value - expected| <= rtol * |expected|."""
    error = abs(Fraction(value) - expected)
    assert error <= rtol * abs(expected), f"{value} vs {expected}: relative error {error}"


# --- hypothesis strategies -------------------------------------------------

_TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._/+:- "


def tokens(min_size: int = 1) -> st.SearchStrategy[str]:
    """Opaque text fields that survive the tab-separated sentinel format:
    no tabs or newlines, no surrounding spaces, not the literal "-1"."""
    return (st.text(alphabet=_TOKEN_CHARS, min_size=min_size, max_size=12)
            .filter(lambda s: s == s.strip(" ") and s != "-1"))


timestamps = st.builds(Timestamp, st.integers(min_value=MS_1990, max_value=MS_2100))


def optional(strategy: st.SearchStrategy) -> st.SearchStrategy:
    return st.none() | strategy


#: Keyword arguments of a valid JobRecord.
job_record_args = st.fixed_dictionaries({
    "job_id": tokens(),
    "submit_time": optional(timestamps),
    "start_time": optional(timestamps),
    "end_time": optional(timestamps),
    "req_procs": optional(st.integers(0, 2**20)),
    "used_procs": optional(st.integers(0, 2**20)),
    "req_cpu_s": optional(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
    "used_cpu_s": optional(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
    "req_mem_kb": optional(st.integers(0, 2**32)),
    "used_mem_kb": optional(st.integers(0, 2**32)),
    "queue": optional(tokens()),
    "dedicated": optional(st.booleans()),
    "user": optional(tokens()),
    "project": optional(tokens()),
    "executable": optional(tokens()),
    "exit_code": optional(st.integers(-255, 255).filter(lambda v: v != -1)),
})

job_records = job_record_args.map(lambda args: JobRecord(**args))


# --- seeded (non-hypothesis) record maker ----------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_BODY = _LETTERS + "0123456789._/+:-"


def random_record(rng: random.Random) -> JobRecord:
    """One randomized JobRecord, reproducible from the caller's Random.

    Covers absent-field patterns and (via independent start/end draws)
    negative durations. Text fields start with a letter, so they can
    never collide with the "-1" sentinel.
    """

    def token() -> str:
        return rng.choice(_LETTERS) + "".join(
            rng.choice(_BODY) for _ in range(rng.randrange(0, 9)))

    def maybe(p_absent: float, make):
        return None if rng.random() < p_absent else make()

    def ts() -> Timestamp:
        return Timestamp(rng.randrange(MS_1990, MS_2100))

    return JobRecord(
        job_id=token(),
        submit_time=maybe(0.2, ts),
        start_time=maybe(0.3, ts),
        end_time=maybe(0.3, ts),
        req_procs=maybe(0.2, lambda: rng.randrange(0, 4096)),
        used_procs=maybe(0.2, lambda: rng.randrange(0, 4096)),
        req_cpu_s=maybe(0.2, lambda: rng.uniform(0.0, 1e7)),
        used_cpu_s=maybe(0.2, lambda: rng.uniform(0.0, 1e7)),
        req_mem_kb=maybe(0.25, lambda: rng.randrange(0, 2**31)),
        used_mem_kb=maybe(0.25, lambda: rng.randrange(0, 2**31)),
        queue=maybe(0.2, token),
        dedicated=maybe(0.4, lambda: rng.random() < 0.5),
        user=maybe(0.2, token),
        project=maybe(0.2, token),
        executable=maybe(0.2, token),
        exit_code=maybe(0.3, lambda: rng.choice([0, 0, 0, 1, 2, 137, -9])),
    )


# --- shared synthetic fixture ----------------------------------------------

THOUSAND_SPEC = GenSpec(
    seed=7,
    count=1000,
    missing_start_frac=0.10,
    missing_end_frac=0.05,
    missing_mem_frac=0.05,
)


@pytest.fixture(scope="session")
def thousand_jobs():
    """1000 generated records plus their ground truth."""
    records, truth = generate(THOUSAND_SPEC)
    return records, truth
