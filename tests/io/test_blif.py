"""Tests for BLIF I/O."""

import pytest

from repro.circuits import random_logic_network
from repro.errors import NetworkError, ParseError
from repro.io import dump_blif, parse_blif
from repro.network import check_boolnet_vs_boolnet, parse_sop


SAMPLE = """
.model test
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-0 1
.names c g
0 1
.end
"""


class TestParse:
    def test_sample(self):
        net = parse_blif(SAMPLE)
        assert net.name == "test"
        assert net.inputs == ["a", "b", "c"]
        assert net.outputs == ["f", "g"]
        assert net.nodes["t1"].sop == parse_sop("a b")
        assert net.nodes["g"].sop == parse_sop("c'")

    def test_comments_and_continuations(self):
        text = (".model t # a comment\n.inputs a \\\nb\n.outputs f\n"
                ".names a b f\n11 1\n.end\n")
        net = parse_blif(text)
        assert net.inputs == ["a", "b"]

    def test_constant_nodes(self):
        text = ".model t\n.inputs a\n.outputs f g\n.names f\n1\n.names g\n.end\n"
        net = parse_blif(text)
        assert net.nodes["f"].sop.is_one()
        assert net.nodes["g"].sop.is_zero()

    def test_offset_cover_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.names a f\n1 0\n.end\n"
        with pytest.raises(ParseError):
            parse_blif(text)

    def test_latch_rejected(self):
        text = ".model t\n.inputs a\n.outputs q\n.latch a q\n.end\n"
        with pytest.raises(ParseError):
            parse_blif(text)

    def test_duplicate_output_rejected(self):
        text = (".model t\n.inputs a b\n.outputs y y\n.names a b y\n11 1\n"
                ".end\n")
        with pytest.raises(NetworkError,
                           match="duplicate primary output 'y'"):
            parse_blif(text)

    def test_stray_cover_row_rejected(self):
        with pytest.raises(ParseError):
            parse_blif(".model t\n.inputs a\n.outputs f\n11 1\n.end\n")


class TestRoundtrip:
    def test_sample_roundtrip(self):
        net = parse_blif(SAMPLE)
        back = parse_blif(dump_blif(net))
        check_boolnet_vs_boolnet(net, back)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_network_roundtrip(self, seed):
        net = random_logic_network("r", num_inputs=6, num_nodes=15,
                                   num_outputs=4, seed=seed)
        back = parse_blif(dump_blif(net))
        assert back.inputs == net.inputs
        assert back.outputs == net.outputs
        check_boolnet_vs_boolnet(net, back)

    def test_small_network_roundtrip(self, small_network):
        back = parse_blif(dump_blif(small_network))
        check_boolnet_vs_boolnet(small_network, back)
