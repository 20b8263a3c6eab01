"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.io import parse_blif
from repro.serve import ServeEngine

#: Netlists without gates: an output wired to an input, and no outputs.
GATELESS_BLIFS = {
    "wire": ".model wire\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n",
    "no_outputs": ".model nothing\n.inputs a\n.outputs\n.end\n",
}


@pytest.fixture
def blif_file(tmp_path, small_network):
    from repro.io import dump_blif
    path = tmp_path / "small.blif"
    path.write_text(dump_blif(small_network))
    return str(path)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("info", "synth", "map", "flow", "ksweep"):
            args = parser.parse_args([cmd, "spla@0.01"]
                                     if cmd != "map" else [cmd, "spla@0.01"])
            assert args.command == cmd

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info_benchmark(self, capsys):
        assert main(["info", "spla@0.02"]) == 0
        out = capsys.readouterr().out
        assert "BooleanNetwork" in out
        assert "BaseNetwork" in out

    def test_info_blif(self, blif_file, capsys):
        assert main(["info", blif_file]) == 0
        assert "small" in capsys.readouterr().out

    def test_synth_roundtrip(self, blif_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.blif")
        assert main(["synth", blif_file, "-o", out_path,
                     "--effort", "fast"]) == 0
        net = parse_blif(open(out_path).read())
        assert net.outputs == ["g2", "g3", "g4"]

    def test_map_to_verilog(self, blif_file, tmp_path):
        out_path = str(tmp_path / "out.v")
        assert main(["map", blif_file, "-o", out_path]) == 0
        text = open(out_path).read()
        assert "module" in text and "endmodule" in text

    def test_map_with_congestion(self, blif_file, tmp_path):
        out_path = str(tmp_path / "out.v")
        assert main(["map", blif_file, "-o", out_path, "--k", "0.01",
                     "--partition", "placement"]) == 0
        assert "module" in open(out_path).read()

    @pytest.mark.parametrize("k", ["nan", "inf", "-1"])
    def test_map_rejects_bad_k(self, blif_file, k):
        """Only K = 0 maps min-area; any other K reaches the objective,
        which rejects non-finite and negative values."""
        with pytest.raises(ValueError, match="finite and non-negative"):
            main(["map", blif_file, "--k", k])

    def test_ksweep_prints_table(self, capsys):
        assert main(["ksweep", "spla@0.02", "--k", "0.0,0.01",
                     "--rows", "16"]) == 0
        out = capsys.readouterr().out
        assert "Cell Area" in out

    def test_flow_runs(self, capsys):
        code = main(["flow", "spla@0.02", "--rows", "18",
                     "--tolerance", "50"])
        out = capsys.readouterr().out
        assert "K=0" in out
        assert code in (0, 1)


class TestObservabilityFlags:
    def test_sweep_alias_parses(self):
        """``sweep`` resolves to the one-job path's ksweep job."""
        args = build_parser().parse_args(["sweep", "spla@0.01"])
        assert args.func is cli._cmd_job
        assert args.job_cmd == "ksweep"

    def test_sweep_trace_profile_artifacts(self, tmp_path, capsys):
        import json
        trace = str(tmp_path / "out.jsonl")
        assert main(["sweep", "spla@0.02", "--rows", "16",
                     "--k", "0.0,0.01", "--trace", trace,
                     "--profile"]) == 0
        captured = capsys.readouterr()
        assert "Per-phase breakdown" in captured.out
        assert "Merged counters" in captured.out
        rows = [json.loads(line)
                for line in open(trace).read().strip().split("\n")]
        assert rows[0]["event"] == "meta"
        assert any(r.get("name") == "k_point" for r in rows)
        # One CSV + one ASCII heatmap per evaluated K point, in the
        # default <trace>.artifacts directory.
        import os
        artifacts = sorted(os.listdir(trace + ".artifacts"))
        assert len(artifacts) == 4
        assert artifacts[0].endswith(".csv") and "k0" in artifacts[0]

    def test_flow_trace_to_explicit_artifacts_dir(self, tmp_path, capsys):
        import os
        trace = str(tmp_path / "flow.jsonl")
        art = str(tmp_path / "maps")
        code = main(["flow", "spla@0.02", "--rows", "18",
                     "--tolerance", "50", "--trace", trace,
                     "--artifacts", art])
        assert code in (0, 1)
        assert os.path.exists(trace)
        assert any(name.endswith(".txt") for name in os.listdir(art))

    def test_profile_without_trace(self, capsys):
        """A one-shot run is a one-job serve: the sweep sits under the
        job span, and the session-cache counters follow it."""
        assert main(["ksweep", "spla@0.02", "--rows", "16",
                     "--k", "0.0", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "run/job/sweep/k_point" in out
        assert "run/session_caches" in out
        assert "serve.netlist_misses" in out

    def test_profile_lists_placer_phase_times(self, capsys):
        """The placer's phase times are on the ``place`` spans, so the
        merged-counter table lists them with the map and route ones."""
        assert main(["ksweep", "spla@0.01", "--rows", "12",
                     "--k", "0,0.005", "--profile"]) == 0
        counters = {line.split("|")[0].strip(): line.split("|")[1].strip()
                    for line in capsys.readouterr().out.splitlines()
                    if line.count("|") == 2}
        for key in ("place.t_quadratic", "place.t_mincut",
                    "place.t_legalize", "map.t_cover", "route.t_init"):
            assert counters.get(key) == "time", key


class TestOneJobServe:
    """``flow``, ``ksweep`` and ``ksearch`` fail like serve, through serve."""

    @pytest.mark.parametrize("argv", [
        ["flow", "nosuch@0.02"],
        ["flow", "missing.blif"],
        ["flow", "spla@abc"],
        ["ksweep", "spla@0.02", "--k", "0,-1"],
        ["ksweep", "spla@0.02", "--k", "abc"],
        ["flow", "spla@0.02", "--rows", "-3"],
        ["flow", "spla@0.04", "--rows", "11"],
        ["flow", "spla@0.02", "--rows", "18", "--tolerance", "-1"],
        ["ksearch", "spla@0.02", "--k", "0,nan"],
    ], ids=["unknown-benchmark", "missing-blif", "bad-scale", "negative-k",
            "non-numeric-k", "negative-rows", "die-too-small",
            "negative-tolerance", "nan-k"])
    def test_no_answer_exits_2_with_one_line(self, argv, capsys,
                                             tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert captured.out == ""

    def test_runs_inside_the_engine_error_capture(self, capsys,
                                                  monkeypatch):
        def broken(self, job):
            raise TypeError("injected")

        monkeypatch.setattr(ServeEngine, "_dispatch", broken)
        assert main(["flow", "spla@0.02", "--rows", "18"]) == 2
        assert capsys.readouterr().err == \
            "repro flow: TypeError: injected\n"


@pytest.mark.parametrize("name", sorted(GATELESS_BLIFS))
class TestGatelessNetlists:
    """A netlist without gates gets the default die and maps to nothing."""

    @pytest.fixture
    def blif(self, tmp_path, name):
        path = tmp_path / f"{name}.blif"
        path.write_text(GATELESS_BLIFS[name])
        return str(path)

    def test_flow(self, blif, capsys):
        assert main(["flow", blif]) == 0
        assert capsys.readouterr().out == \
            "K=0: area=0 util=0.0% violations=0\nconverged at K=0\n"

    @pytest.mark.parametrize("flags", [["--k", "0.001"],
                                       ["--partition", "placement"]],
                             ids=["k", "placement"])
    def test_map(self, blif, flags, capsys):
        """The placement-aware mapping places the base network on the
        same at-least-one-gate default die as the flows."""
        assert main(["map", blif] + flags) == 0
        captured = capsys.readouterr()
        assert captured.err == "cells=0 area=0.0 um2\n"
        assert captured.out.startswith("module ")
        assert captured.out.rstrip().endswith("endmodule")

    def test_sta(self, blif, name, capsys):
        assert main(["sta", blif]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cells      : 0 (0.0 um2, 0.0% utilization)"
        assert out[1].startswith("routing    : 0 violations, ")
        assert out[2] == ("critical   : a(in) y(out)  0.00 ns"
                          if name == "wire" else
                          "critical   : none (no primary outputs)")

    def test_serve_stream(self, blif, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps({"id": "g", "cmd": "flow",
                                    "source": blif}) + "\n")
        assert main(["serve", str(jobs)]) == 0
        [line] = capsys.readouterr().out.splitlines()
        result = json.loads(line)
        assert (result["verdict"], result["chosen_k"], result["rows"]) == \
            ("converged", 0.0, [[0.0, 0, 0, 0.0, 0]])


class TestStaCommand:
    def test_sta_report(self, capsys):
        assert main(["sta", "spla@0.02", "--rows", "16", "--paths", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical" in out
        assert "path" in out
        assert "(in)" in out and "(out)" in out

    def test_sta_with_k(self, capsys):
        assert main(["sta", "spla@0.02", "--rows", "16", "--k", "0.002"]) == 0
        assert "violations" in capsys.readouterr().out

    def test_synth_rugged_effort(self, blif_file, tmp_path):
        out_path = str(tmp_path / "rugged.blif")
        assert main(["synth", blif_file, "-o", out_path,
                     "--effort", "rugged"]) == 0
        net = parse_blif(open(out_path).read())
        assert net.outputs == ["g2", "g3", "g4"]
