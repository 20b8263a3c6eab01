"""Tests for the ``repro serve`` CLI wiring and shared parent flags."""

import json

import pytest

from repro.cli import build_parser, main

JOBS = """\
# two tiny calibrated jobs
{"id": "a", "cmd": "ksweep", "source": "spla@0.01", "rows": 12, "k": [0.0]}
{"id": "b", "cmd": "flow", "source": "spla@0.01", "rows": 12}
"""


def and_chain_blif(gates):
    """A chain of two-input ANDs: one subject tree ``2 * gates`` deep."""
    lines = [".model chain",
             ".inputs " + " ".join(f"x{i}" for i in range(gates + 1)),
             ".outputs y"]
    prev = "x0"
    for i in range(1, gates + 1):
        out = "y" if i == gates else f"a{i}"
        lines += [f".names {prev} x{i} {out}", "11 1"]
        prev = out
    return "\n".join(lines + [".end"]) + "\n"


class TestParserInheritance:
    """The shared execution flags come from one parent parser."""

    @pytest.mark.parametrize("command,extra", [
        ("flow", ["spla@0.01"]),
        ("ksweep", ["spla@0.01"]),
        ("ksearch", ["spla@0.01"]),
        ("serve", []),
    ])
    def test_shared_flags_accepted(self, command, extra):
        args = build_parser().parse_args(
            [command] + extra + ["--rows", "9", "--workers", "3",
                                 "--no-route-reuse"])
        assert args.rows == 9
        assert args.workers == 3
        assert args.no_route_reuse is True

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.jobs == "-"
        assert args.output == ""
        assert args.summary == ""
        assert args.workers == 1


class TestServeCommand:
    def test_file_stream_to_output_and_summary(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOBS)
        out = tmp_path / "results.jsonl"
        summary = tmp_path / "summary.json"
        rc = main(["serve", str(jobs), "-o", str(out),
                   "--summary", str(summary)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["a", "b"]
        assert all(json.loads(line)["ok"] for line in lines)
        data = json.loads(summary.read_text())
        assert data["jobs"] == 2
        assert data["ok"] == 2
        assert data["jobs_per_sec"] > 0
        assert "serve: 2/2 jobs ok" in capsys.readouterr().err

    def test_stdin_stream_to_stdout(self, monkeypatch, capsys, tmp_path):
        import io
        import sys as _sys
        monkeypatch.setattr(_sys, "stdin", io.StringIO(JOBS))
        rc = main(["serve"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["a", "b"]

    def test_malformed_stream_exits_2(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"cmd": "nope", "source": "s"}\n')
        rc = main(["serve", str(jobs)])
        assert rc == 2
        assert "serve:" in capsys.readouterr().err

    def test_failing_job_exits_1_but_streams_all(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"id": "bad", "cmd": "flow", "source": "zzz@0.01"}\n'
            '{"id": "ok", "cmd": "ksweep", "source": "spla@0.01", '
            '"rows": 12, "k": [0.0]}\n')
        out = tmp_path / "results.jsonl"
        rc = main(["serve", str(jobs), "-o", str(out)])
        assert rc == 1
        lines = [json.loads(line) for line in
                 out.read_text().splitlines()]
        assert [line["ok"] for line in lines] == [False, True]

    def test_deep_chain_job_then_next_job(self, tmp_path):
        """A 1,000-gate AND chain maps (its one subject tree has no
        depth bound) and the job after it still runs."""
        blif = tmp_path / "chain.blif"
        blif.write_text(and_chain_blif(1000))
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            json.dumps({"id": "chain", "cmd": "ksweep",
                        "source": str(blif), "k": [0.0]}) + "\n"
            '{"id": "ok", "cmd": "ksweep", "source": "spla@0.01", '
            '"rows": 12, "k": [0.0]}\n')
        out = tmp_path / "results.jsonl"
        rc = main(["serve", str(jobs), "-o", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in
                 out.read_text().splitlines()]
        assert [(line["id"], line["ok"]) for line in lines] == \
            [("chain", True), ("ok", True)]

    def test_trace_emission(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOBS)
        out = tmp_path / "results.jsonl"
        trace = tmp_path / "trace.jsonl"
        rc = main(["serve", str(jobs), "-o", str(out),
                   "--trace", str(trace)])
        assert rc == 0
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        assert events
        job_spans = [e for e in events if e.get("name") == "job"]
        assert {span["attrs"]["id"] for span in job_spans} == {"a", "b"}


class TestServeTelemetry:
    """--status-file / --metrics-out / --slow-job-s are side channels:
    they may not change one result byte, and the final heartbeat must
    agree with the summary."""

    JOBS4 = (
        '{"id": "a0", "cmd": "ksweep", "source": "spla@0.01", '
        '"rows": 12, "k": [0.0, 0.005]}\n'
        '{"id": "b0", "cmd": "ksweep", "source": "spla@0.01", '
        '"rows": 13, "k": [0.0]}\n'
        '{"id": "a1", "cmd": "ksweep", "source": "spla@0.01", '
        '"rows": 12, "k": [0.0]}\n'
        '{"id": "b1", "cmd": "ksweep", "source": "spla@0.01", '
        '"rows": 13, "k": [0.005]}\n')

    def _run(self, tmp_path, tag, extra):
        jobs = tmp_path / "jobs.jsonl"
        if not jobs.exists():
            jobs.write_text(self.JOBS4)
        out = tmp_path / f"results_{tag}.jsonl"
        rc = main(["serve", str(jobs), "-o", str(out)] + extra)
        assert rc == 0
        return out.read_bytes()

    @pytest.mark.parametrize("serve_workers", ["1", "4"])
    def test_result_bytes_unchanged_by_telemetry(self, tmp_path,
                                                 serve_workers):
        plain = self._run(tmp_path, f"plain{serve_workers}",
                          ["--serve-workers", serve_workers])
        status = tmp_path / f"status{serve_workers}.json"
        metrics = tmp_path / f"metrics{serve_workers}.prom"
        instrumented = self._run(
            tmp_path, f"obs{serve_workers}",
            ["--serve-workers", serve_workers,
             "--status-file", str(status),
             "--metrics-out", str(metrics),
             "--slow-job-s", "0.000001"])
        assert instrumented == plain
        assert status.exists() and metrics.exists()

    def test_final_heartbeat_matches_summary(self, tmp_path):
        status = tmp_path / "status.json"
        summary_path = tmp_path / "summary.json"
        self._run(tmp_path, "hb",
                  ["--status-file", str(status),
                   "--summary", str(summary_path),
                   "--slow-job-s", "0.000001"])
        heartbeat = json.loads(status.read_text())
        summary = json.loads(summary_path.read_text())
        assert heartbeat["state"] == "done"
        assert heartbeat["jobs_done"] == summary["jobs"] == 4
        assert heartbeat["ok"] == summary["ok"] == 4
        assert heartbeat["failed"] == summary["jobs"] - summary["ok"]
        assert heartbeat["slow_jobs"] == summary["slow_jobs"] == 4
        assert heartbeat["jobs_total"] == 4
        assert heartbeat["cache"] == summary["cache"]
        hist = heartbeat["instruments"]["serve.job_seconds"]
        assert hist["kind"] == "hist" and hist["count"] == 4

    def test_metrics_out_renders_prometheus_and_json(self, tmp_path):
        from repro.obs import parse_prometheus
        metrics = tmp_path / "metrics.prom"
        self._run(tmp_path, "prom", ["--metrics-out", str(metrics)])
        parsed = parse_prometheus(metrics.read_text())
        job_seconds = parsed["repro_serve_job_seconds"]
        assert job_seconds["type"] == "histogram"
        assert job_seconds["samples"]["repro_serve_job_seconds_count"] == 4
        assert parsed["repro_serve_jobs_done"]["samples"][
            "repro_serve_jobs_done"] == 4
        doc = json.loads((tmp_path / "metrics.prom.json").read_text())
        assert doc["counters"]["serve.jobs_done"] == 4
        assert doc["instruments"]["serve.job_seconds"]["count"] == 4

    def test_follow_subcommand_drains_results(self, tmp_path, capsys):
        self._run(tmp_path, "follow", [])
        results = tmp_path / "results_follow.jsonl"
        rc = main(["follow", str(results), "--timeout", "0.2",
                   "--poll", "0.02"])
        captured = capsys.readouterr()
        assert rc == 1  # results stream has no end marker: timeout
        ids = [json.loads(line)["id"]
               for line in captured.out.splitlines()]
        assert ids == ["a0", "b0", "a1", "b1"]
        assert "(timeout)" in captured.err

    def test_follow_subcommand_ends_on_final_heartbeat(self, tmp_path,
                                                       capsys):
        status = tmp_path / "status.json"
        self._run(tmp_path, "hb2", ["--status-file", str(status)])
        rc = main(["follow", str(status), "--timeout", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out.splitlines()[-1])["state"] == "done"
        assert "(end)" in captured.err

    def test_follow_count_flag(self, tmp_path, capsys):
        self._run(tmp_path, "cnt", [])
        results = tmp_path / "results_cnt.jsonl"
        rc = main(["follow", str(results), "--timeout", "5",
                   "--count", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert len(captured.out.splitlines()) == 2
