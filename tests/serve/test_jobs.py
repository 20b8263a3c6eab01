"""Tests for the serve job/result model (JSONL parsing + validation)."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ksearch import STRATEGIES
from repro.serve import (
    JOB_COMMANDS,
    Job,
    JobError,
    JobResult,
    parse_job,
    parse_jobs,
)


class TestParseJob:
    def test_minimal(self):
        job = parse_job({"cmd": "flow", "source": "spla@0.01"}, index=3)
        assert job.id == "job3"
        assert job.cmd == "flow"
        assert job.rows == 0
        assert job.k is None
        assert job.workers is None

    def test_full(self):
        job = parse_job({"id": "a", "cmd": "ksearch", "source": "x.blif",
                         "rows": 20, "k": [0.0, 0.5], "tolerance": 6,
                         "strategy": "portfolio", "workers": 4})
        assert job.k == (0.0, 0.5)
        assert job.strategy == "portfolio"
        assert job.workers == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown fields"):
            parse_job({"cmd": "flow", "source": "s", "roes": 5})

    def test_bad_cmd(self):
        with pytest.raises(JobError, match="cmd must be one of"):
            parse_job({"cmd": "sweep", "source": "s"})

    def test_missing_source(self):
        with pytest.raises(JobError, match="missing source"):
            parse_job({"cmd": "flow"})

    def test_bad_rows(self):
        for field, value in (("rows", -1), ("rows", True), ("rows", 12.0),
                             ("tolerance", -1), ("tolerance", False)):
            with pytest.raises(JobError, match=field):
                parse_job({"cmd": "flow", "source": "s", field: value})

    def test_bad_k(self):
        """Strings and objects are not iterated into K values, booleans
        are not numbers, and a K the flow would reject fails here."""
        for k in ("0.5", "05", {"1": 0}, [True], [0.0, False], ["0.1"],
                  [-0.001], [10 ** 400]):
            with pytest.raises(JobError, match="k must be"):
                parse_job({"cmd": "flow", "source": "s", "k": k})
        with pytest.raises(JobError, match="non-empty"):
            parse_job({"cmd": "flow", "source": "s", "k": []})

    def test_bad_workers(self):
        for workers in (0, True, 2.0):
            with pytest.raises(JobError, match="workers"):
                parse_job({"cmd": "flow", "source": "s",
                           "workers": workers})

    def test_bad_strategy(self):
        """An unknown strategy, or one on a job that has no search,
        is rejected instead of failing at run time or being dropped."""
        for cmd, strategy in (("ksearch", "bisec"), ("ksearch", None),
                              ("ksearch", ["grid"]), ("flow", "grid"),
                              ("ksweep", "bisect")):
            with pytest.raises(JobError, match="strategy"):
                parse_job({"cmd": cmd, "source": "s", "strategy": strategy})

    def test_not_an_object(self):
        with pytest.raises(JobError, match="expected a JSON object"):
            parse_job([1, 2], index=1)

    def test_roundtrip(self):
        job = parse_job({"id": "r", "cmd": "ksweep", "source": "s",
                         "rows": 12, "k": [0.0, 0.005]})
        again = parse_job(json.loads(job.to_json()))
        assert again == job


class TestParseJobs:
    def test_stream_with_comments_and_blanks(self):
        jobs = parse_jobs([
            "# a comment",
            "",
            '{"id": "a", "cmd": "flow", "source": "s"}',
            '  {"id": "b", "cmd": "ksweep", "source": "s"}  ',
        ])
        assert [j.id for j in jobs] == ["a", "b"]

    def test_invalid_json_names_line(self):
        with pytest.raises(JobError, match="line 2"):
            parse_jobs(['{"id": "a", "cmd": "flow", "source": "s"}',
                        "{not json}"])

    def test_duplicate_id_rejected(self):
        with pytest.raises(JobError, match="duplicate job id"):
            parse_jobs(['{"id": "a", "cmd": "flow", "source": "s"}',
                        '{"id": "a", "cmd": "flow", "source": "s"}'])

    def test_auto_ids_count_jobs_not_lines(self):
        jobs = parse_jobs(["# skip", '{"cmd": "flow", "source": "s"}',
                           "", '{"cmd": "flow", "source": "t"}'])
        assert [j.id for j in jobs] == ["job1", "job2"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_k_rejected(self, token):
        """Python's json accepts these tokens; a job must not, or its
        result line would carry a token that is not valid JSON."""
        with pytest.raises(JobError, match="finite"):
            parse_jobs(['{"cmd": "ksweep", "source": "s", '
                        f'"k": [0.0, {token}]}}'])

    @pytest.mark.parametrize("line", ["[" * 1000,
                                      "[" * 100000 + "]" * 100000])
    def test_deep_nesting_is_a_job_error(self, line):
        with pytest.raises(JobError, match="line 2: invalid JSON"):
            parse_jobs(['{"cmd": "flow", "source": "s"}', line])


#: JSON values of every type, nested a little.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

#: Each optional field: a valid value or any JSON value.
_FIELDS = {
    "id": st.text(max_size=6) | _ANY_JSON,
    "rows": st.integers(0, 40) | _ANY_JSON,
    "k": st.lists(st.floats(0.0, 1.0) | st.integers(0, 2),
                  min_size=1, max_size=3) | _ANY_JSON,
    "tolerance": st.integers(0, 9) | _ANY_JSON,
    "strategy": st.sampled_from(STRATEGIES) | _ANY_JSON,
    "workers": st.integers(1, 4) | _ANY_JSON,
}

#: Job objects: a valid command and source with mixed optional fields
#: (so that many parse), or every known field mixed.
_JOB_OBJECTS = st.fixed_dictionaries(
    {"cmd": st.sampled_from(JOB_COMMANDS), "source": st.just("spla@0.01")},
    optional=_FIELDS) | st.fixed_dictionaries({}, optional=dict(
        _FIELDS, cmd=_ANY_JSON, source=_ANY_JSON))


class TestParseJobProperty:
    @given(_JOB_OBJECTS)
    @settings(max_examples=400, deadline=None)
    def test_parse_job_returns_a_valid_job_or_raises_job_error(self, data):
        try:
            job = parse_job(data)
        except JobError:
            return
        assert isinstance(job, Job)
        assert type(job.rows) is int and job.rows >= 0
        assert type(job.tolerance) is int and job.tolerance >= 0
        assert job.workers is None or \
            (type(job.workers) is int and job.workers >= 1)
        assert job.k is None or (job.k and all(
            type(x) is float and math.isfinite(x) and x >= 0
            for x in job.k))
        assert job.strategy in STRATEGIES
        assert parse_job(job.to_dict()) == job


class TestJobResult:
    def test_json_line_is_sorted_and_stable(self):
        result = JobResult(id="a", cmd="flow", source="s", ok=True,
                           verdict="converged", chosen_k=0.5,
                           rows=[(0.5, 10.0, 3, 50.0, 0)])
        line = result.to_json()
        data = json.loads(line)
        assert list(data) == sorted(data)
        assert data["rows"] == [[0.5, 10.0, 3, 50.0, 0]]
        assert "error" not in data

    def test_error_field_only_when_set(self):
        result = JobResult(id="a", cmd="flow", source="s", ok=False,
                           verdict="error", error="boom")
        assert json.loads(result.to_json())["error"] == "boom"
