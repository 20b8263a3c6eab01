"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.io import parse_blif


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
        args = build_parser().parse_args(["sweep", "spla@0.01"])
        assert args.func.__name__ == "_cmd_ksweep"

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
        assert main(["ksweep", "spla@0.02", "--rows", "16",
                     "--k", "0.0", "--profile"]) == 0
        assert "run/sweep/k_point" in capsys.readouterr().out


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
