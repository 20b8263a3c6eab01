"""Tests for the serve job/result model (JSONL parsing + validation)."""

import json

import pytest

from repro.serve import Job, JobError, JobResult, parse_job, parse_jobs


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
        with pytest.raises(JobError, match="rows"):
            parse_job({"cmd": "flow", "source": "s", "rows": -1})

    def test_bad_k(self):
        with pytest.raises(JobError, match="k must be"):
            parse_job({"cmd": "flow", "source": "s", "k": "0.5"})
        with pytest.raises(JobError, match="non-empty"):
            parse_job({"cmd": "flow", "source": "s", "k": []})

    def test_bad_workers(self):
        with pytest.raises(JobError, match="workers"):
            parse_job({"cmd": "flow", "source": "s", "workers": 0})

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
