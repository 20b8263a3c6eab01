"""Tests for the hierarchical span tracer and its JSONL emission."""

import io
import json

import pytest

from repro.obs import Span, TraceError, Tracer, profile_report


def _small_tree():
    tracer = Tracer("run", command="test")
    with tracer.span("sweep", points=2):
        with tracer.span("k_point", k=0.0) as sp:
            sp.counters.count("map.cells", 10)
        with tracer.span("k_point", k=0.01) as sp:
            sp.counters.count("map.cells", 12)
    return tracer


class TestSpans:
    def test_nesting_follows_the_stack(self):
        tracer = _small_tree()
        root = tracer.close()
        assert root.name == "run"
        assert [c.name for c in root.children] == ["sweep"]
        sweep = root.children[0]
        assert [c.name for c in sweep.children] == ["k_point", "k_point"]
        assert sweep.children[0].attrs == {"k": 0.0}

    def test_times_are_monotone(self):
        root = _small_tree().close()
        for span in root.iter_spans():
            assert span.closed
            assert span.t_end >= span.t_start
        sweep = root.children[0]
        assert root.t_start <= sweep.t_start
        assert sweep.t_end <= root.t_end
        assert sweep.children[0].t_end <= sweep.children[1].t_start

    def test_duration_zero_while_open(self):
        span = Span(name="x", t_start=5.0)
        assert not span.closed
        assert span.duration == 0.0

    def test_close_is_idempotent(self):
        tracer = _small_tree()
        root = tracer.close()
        assert tracer.close() is root

    def test_use_after_close_raises(self):
        tracer = _small_tree()
        tracer.close()
        with pytest.raises(TraceError):
            with tracer.span("late"):
                pass
        with pytest.raises(TraceError):
            tracer.adopt(Span(name="orphan"))

    def test_adopt_attaches_detached_subtrees(self):
        detached = Tracer("k_point", k=0.5)
        with detached.span("map"):
            pass
        subtree = detached.close()

        tracer = Tracer("run")
        with tracer.span("sweep"):
            tracer.adopt(subtree)
            tracer.adopt(None)  # ignored
        root = tracer.close()
        sweep = root.children[0]
        assert [c.name for c in sweep.children] == ["k_point"]
        assert sweep.children[0].children[0].name == "map"


class TestSkeleton:
    def test_ignores_times_and_plan_dependent_counters(self):
        a = Tracer("run")
        with a.span("phase", k=1) as sp:
            sp.counters.count("x.results", 5)
            sp.counters.time("x.t", 0.123)
            sp.counters.work("x.effort", 99)
        b = Tracer("run")
        with b.span("phase", k=1) as sp:
            sp.counters.count("x.results", 5)
            sp.counters.time("x.t", 0.456)   # different wall-time
            sp.counters.work("x.effort", 1)  # different work
        assert a.close().skeleton() == b.close().skeleton()

    def test_sees_deterministic_differences(self):
        a = Tracer("run")
        with a.span("phase") as sp:
            sp.counters.count("x.results", 5)
        b = Tracer("run")
        with b.span("phase") as sp:
            sp.counters.count("x.results", 6)
        assert a.close().skeleton() != b.close().skeleton()

    def test_sees_structure_differences(self):
        a = Tracer("run")
        with a.span("phase"):
            pass
        b = Tracer("run")
        with b.span("phase"):
            pass
        with b.span("phase"):
            pass
        assert a.close().skeleton() != b.close().skeleton()


class TestReplayed:
    def test_same_skeleton_zero_durations(self):
        tracer = _small_tree()
        root = tracer.close()
        for span in root.iter_spans():
            span.counters.work("eval.work_probe", 3)
        copy = root.replayed()
        assert copy.skeleton() == root.skeleton()
        assert [s.name for s in copy.iter_spans()] == \
            [s.name for s in root.iter_spans()]
        for span in copy.iter_spans():
            assert span.closed and span.duration == 0.0
            assert span.counters["eval.work_probe"] == 0
        assert all(a is not b for a, b in
                   zip(copy.iter_spans(), root.iter_spans()))


class TestJsonl:
    def test_events_parse_and_cover_every_span(self):
        tracer = _small_tree()
        buffer = io.StringIO()
        lines = tracer.write_jsonl(buffer)
        rows = [json.loads(line) for line in
                buffer.getvalue().strip().split("\n")]
        assert len(rows) == lines == 5  # meta + 4 spans
        assert rows[0]["event"] == "meta"
        assert rows[0]["version"] == 1
        spans = [r for r in rows if r["event"] == "span"]
        assert [s["name"] for s in spans] == \
            ["run", "sweep", "k_point", "k_point"]
        assert spans[2]["path"] == "run[0]/sweep[0]/k_point"
        assert spans[2]["counters"] == {"map.cells": 10}
        assert spans[2]["counter_kinds"] == {"map.cells": "count"}
        for s in spans:
            assert s["dur"] >= 0.0

    def test_write_to_path(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        lines = _small_tree().write_jsonl(str(target))
        content = target.read_text().strip().split("\n")
        assert len(content) == lines
        for line in content:
            json.loads(line)


class TestProfileReport:
    def test_breakdown_aggregates_repeated_phases(self):
        tracer = _small_tree()
        report = profile_report(tracer.close())
        assert "Per-phase breakdown" in report
        assert "Merged counters" in report
        assert "run/sweep/k_point" in report
        # The two k_point spans aggregate into one row of 2 calls and
        # their counters sum in the merged table.
        lines = [ln for ln in report.splitlines() if "k_point" in ln]
        assert any("| 2" in ln.replace("|  2", "| 2") or " 2 " in ln
                   for ln in lines)
        assert "map.cells" in report
        assert "22" in report
