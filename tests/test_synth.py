"""Deterministic generation, ground truth, sidecars, and spec files."""

import dataclasses
import io
import math
from fractions import Fraction

import pytest

from tracebw import (
    GenSpec,
    GroundTruth,
    InvalidSpec,
    MalformedSidecar,
    MemorySource,
    TraceFormat,
    compute_rates,
    format_lanl_line,
    generate,
    load_genspec,
    parse_trace,
    partition_jobs,
    read_sidecar,
    write_lanl_trace,
    write_sidecar,
)
from tracebw.synth import iter_jobs

from .conftest import assert_rate_close


class TestGenSpec:
    @pytest.mark.parametrize("kwargs", [
        {"count": -1},
        {"inter_arrival_mean_ms": 0.0},
        {"inter_arrival_mean_ms": math.inf},
        {"inter_arrival_mean_ms": math.nan},
        {"runtime_min_ms": 0},
        {"runtime_min_ms": 10, "runtime_max_ms": 9},
        {"mem_kb_choices": ()},
        {"mem_kb_choices": (1024, 0)},
        {"procs_choices": (-4,)},
        {"missing_start_frac": 1.5},
        {"missing_end_frac": -0.1},
        {"seed": "42"},
        # Choices above the parsers' 2**63 - 1 count cap; integer fields given a non-integer.
        {"mem_kb_choices": (2**63,)},
        {"procs_choices": (10**309,)},
        {"mem_kb_choices": (1.5,)},
        {"runtime_min_ms": 1.5},
        {"runtime_max_ms": 3.6e6},
        {"count": 2.5},
        # A runtime longer than the timestamp span, which no job can fit.
        {"runtime_max_ms": 315_537_897_600_000},
        {"runtime_max_ms": 300_000_000_000_000_000},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidSpec):
            GenSpec(**kwargs)

    def test_widest_count_the_parsers_read_is_a_valid_choice(self):
        spec = GenSpec(count=3, mem_kb_choices=(2**63 - 1,), procs_choices=(2**63 - 1,))
        records, truth = generate(spec)
        sink = io.StringIO()
        write_lanl_trace(records, sink)
        stream = parse_trace(io.StringIO(sink.getvalue()), TraceFormat.LANL16)
        assert list(stream) == records
        assert stream.report.malformed == 0
        assert truth.expected_valid == 3

    def test_runtime_past_the_span_names_the_runtime_bounds(self):
        # The end is knocked out, so only the CPU seconds could overflow: the spec,
        # not the span, is at fault.
        with pytest.raises(InvalidSpec, match=r"^need 0 < runtime_min_ms <= runtime_max_ms "
                                              r"<= 315537897599999 \(the timestamp span\)"):
            GenSpec(count=1, runtime_min_ms=10**400, runtime_max_ms=10**400,
                    missing_end_frac=1)

    def test_choice_lists_become_tuples(self):
        spec = GenSpec(mem_kb_choices=[1, 2], procs_choices=[3])
        assert spec.mem_kb_choices == (1, 2)
        assert spec.procs_choices == (3,)


class TestGenerate:
    @pytest.mark.parametrize("kwargs,job", [
        # Every runtime is the whole span, so every end is past the year 9999.
        ({"runtime_min_ms": 315_537_897_599_999, "runtime_max_ms": 315_537_897_599_999}, 1),
        ({"inter_arrival_mean_ms": 1e14}, 3),  # two jobs fit before year 9999 runs out
        ({"inter_arrival_mean_ms": 1.7e308}, 1),  # the first gap overflows to infinity
    ])
    def test_a_job_outside_the_span_is_a_spec_error(self, kwargs, job):
        jobs = iter_jobs(GenSpec(count=10, **kwargs))
        for _ in range(job - 1):
            next(jobs)
        with pytest.raises(InvalidSpec, match=f"^job {job} leaves the timestamp span: "):
            next(jobs)

    def test_empty_run(self):
        records, truth = generate(GenSpec(count=0))
        assert records == []
        assert (truth.expected_valid, truth.expected_omitted) == (0, 0)
        assert truth.rates == ()

    def test_no_deletions_means_all_valid(self):
        records, truth = generate(GenSpec(seed=3, count=1000))
        assert truth.expected_valid == 1000
        assert truth.expected_omitted == 0
        assert len(truth.rates) == 1000

    def test_deletion_counts_match_the_records(self):
        # Oracle: the generator's own emitted records.
        records, truth = generate(GenSpec(seed=42, count=1000, missing_start_frac=0.3))
        missing = sum(1 for r in records if r.start_time is None)
        assert truth.expected_omitted == missing
        assert truth.expected_valid == 1000 - missing
        assert 0 < missing < 1000

    def test_deterministic(self):
        spec = GenSpec(seed=11, count=200, missing_start_frac=0.2, missing_mem_frac=0.1)
        first_records, first_truth = generate(spec)
        second_records, second_truth = generate(spec)
        assert first_records == second_records
        assert first_truth == second_truth
        first_bytes = "\n".join(format_lanl_line(r) for r in first_records)
        second_bytes = "\n".join(format_lanl_line(r) for r in second_records)
        assert first_bytes == second_bytes

    def test_seed_changes_the_stream(self):
        a, _ = generate(GenSpec(seed=1, count=50))
        b, _ = generate(GenSpec(seed=2, count=50))
        assert a != b

    def test_arrivals_monotone_nondecreasing(self, thousand_jobs):
        records, _ = thousand_jobs
        submits = [r.submit_time for r in records]
        assert all(a <= b for a, b in zip(submits, submits[1:]))

    def test_runtime_and_choices_respected(self):
        spec = GenSpec(seed=5, count=300, runtime_min_ms=10, runtime_max_ms=20,
                       mem_kb_choices=(7, 9), procs_choices=(2,))
        records, _ = generate(spec)
        for rec in records:
            assert rec.req_mem_kb in (7, 9)
            assert rec.req_procs == 2
            duration = rec.end_time.epoch_ms - rec.start_time.epoch_ms
            assert 10 <= duration <= 20

    def test_pipeline_self_consistency(self, thousand_jobs):
        # parse -> partition -> rates over the written fixture must
        # reproduce the ground truth exactly (counts) and to 1e-12 (rates).
        records, truth = thousand_jobs
        sink = io.StringIO()
        write_lanl_trace(records, sink)
        stream = parse_trace(io.StringIO(sink.getvalue()), TraceFormat.LANL16)
        parsed = list(stream)
        assert stream.report.parsed == 1000

        valid, omitted = partition_jobs(parsed, MemorySource.REQUESTED)
        assert len(valid) == truth.expected_valid
        assert len(omitted) == truth.expected_omitted

        samples = compute_rates(parsed, MemorySource.REQUESTED)
        assert len(samples) == truth.expected_valid
        for sample, (job_id, expected) in zip(samples, truth.rates):
            assert sample.job_id == job_id
            assert_rate_close(sample.rate_bytes_per_s, expected)

    def test_both_memory_fields_carry_the_same_value(self, thousand_jobs):
        records, _ = thousand_jobs
        assert all(r.req_mem_kb == r.used_mem_kb for r in records)


class TestSidecar:
    def test_round_trip(self, thousand_jobs):
        _, truth = thousand_jobs
        sink = io.StringIO()
        write_sidecar(truth, sink)
        assert read_sidecar(io.StringIO(sink.getvalue())) == truth

    def test_text_layout(self):
        _, truth = generate(GenSpec(seed=1, count=3))
        sink = io.StringIO()
        write_sidecar(truth, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "expected_valid=3"
        assert lines[1] == "expected_omitted=0"
        job_id, _, value = lines[2].partition(" ")
        assert job_id == "j000001"
        numerator, _, denominator = value.partition("/")
        assert Fraction(int(numerator), int(denominator)) == truth.rates[0][1]

    def test_rejects_missing_header(self):
        with pytest.raises(MalformedSidecar) as info:
            read_sidecar(io.StringIO("j1 1/2\n"))
        assert info.value.line_no == 1

    @pytest.mark.parametrize("text", [
        "expected_valid=5\nexpected_omitted=0\nj1 1/2\n",
        "expected_valid=0\nexpected_omitted=0\nj1 1/2\n",
        "expected_valid=1\nexpected_omitted=0\n",
    ])
    def test_rejects_header_count_that_disagrees_with_rate_lines(self, text):
        with pytest.raises(MalformedSidecar) as info:
            read_sidecar(io.StringIO(text))
        assert info.value.line_no == 1
        assert "rate line count" in str(info.value)

    def test_expected_valid_is_the_number_of_rates(self):
        truth = GroundTruth(expected_omitted=2, rates=(("j1", Fraction(1, 2)),))
        assert truth.expected_valid == 1
        with pytest.raises(TypeError):
            GroundTruth(5, 2, ())

    @pytest.mark.parametrize("omitted", [-5, 2.5, "2"])
    def test_omitted_count_is_a_count(self, omitted):
        with pytest.raises(ValueError, match="^expected_omitted must be a non-negative integer"):
            GroundTruth(expected_omitted=omitted, rates=())

    @pytest.mark.parametrize("text,line_no", [
        ("", 1),
        ("expected_valid=1\n", 2),
        ("expected_valid=x\nexpected_omitted=0\n", 1),
        ("expected_valid=1\nexpected_omitted\n", 2),
        ("expected_valid=1\nexpected_omitted=0\nj1 1/0\n", 3),
        ("expected_valid=1\nexpected_omitted=0\nj1\n", 3),
        ("expected_valid=2\nexpected_omitted=0\nj1 1/2\n\nj2 3\n", 5),
        ("expected_valid=1\nexpected_omitted=0\nj1 a/2\n", 3),
        ("expected_valid=0\nexpected_omitted=-5\n", 2),
        ("expected_valid=1\nexpected_omitted=-1\nj1 1/2\n", 2),
    ])
    def test_malformed_lines_name_their_line(self, text, line_no):
        with pytest.raises(MalformedSidecar) as info:
            read_sidecar(io.StringIO(text))
        assert info.value.line_no == line_no
        assert str(info.value).startswith(f"line {line_no}: expected ")


class TestLoadGenSpec:
    def test_defaults_when_empty(self):
        assert load_genspec([]) == GenSpec()

    def test_overrides_and_comments(self):
        spec = load_genspec([
            "# fixture for the e2e gate",
            "seed=42",
            "count=10000",
            "",
            "missing_start_frac=0.2",
            "missing_end_frac = 0.1",
            "mem_kb_choices=1024,2048",
        ])
        assert spec == GenSpec(seed=42, count=10000, missing_start_frac=0.2,
                               missing_end_frac=0.1, mem_kb_choices=(1024, 2048))

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidSpec, match="^line 2: unknown key 'speed'$"):
            load_genspec(["seed=1", "speed=42"])

    @pytest.mark.parametrize("field", dataclasses.fields(GenSpec), ids=lambda f: f.name)
    def test_every_field_is_a_key_read_as_its_default_type(self, field):
        default = field.default
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        value = getattr(load_genspec([f"{field.name}={text}"]), field.name)
        assert value == default and type(value) is type(default)

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidSpec):
            load_genspec(["count=many"])

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidSpec):
            load_genspec(["count 42"])

    def test_constraint_violations_surface(self):
        with pytest.raises(InvalidSpec):
            load_genspec(["runtime_min_ms=5", "runtime_max_ms=4"])
