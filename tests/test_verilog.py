"""Tests for structural Verilog emission and re-parsing."""

from __future__ import annotations

import pytest

from repro.circuits import (
    GateType,
    Netlist,
    VerilogError,
    array_multiplier,
    parse_verilog,
    sequential_counter,
    write_verilog,
)
from repro.circuits.validate import check_equivalent


class TestRoundTrip:
    def test_s27(self, s27):
        check_equivalent(s27, parse_verilog(write_verilog(s27)))

    def test_multiplier(self):
        mul = array_multiplier(3)
        check_equivalent(mul, parse_verilog(write_verilog(mul)))

    def test_counter_sequential(self):
        cnt = sequential_counter(4)
        check_equivalent(cnt, parse_verilog(write_verilog(cnt)), n_cycles=8)

    def test_generated_logic(self, small_logic):
        check_equivalent(small_logic, parse_verilog(write_verilog(small_logic)))

    def test_mux_and_constants(self):
        netlist = Netlist(name="muxy")
        netlist.add_input("s")
        netlist.add_input("a")
        netlist.add_gate("one", GateType.CONST1)
        netlist.add_gate("y", GateType.MUX, ["s", "a", "one"])
        netlist.add_output("y")
        netlist.validate()
        check_equivalent(netlist, parse_verilog(write_verilog(netlist)))


    def test_escaped_net_names_round_trip_exactly(self):
        netlist = Netlist(name="escapes")
        for net in ("1", "a[0]", "b.1", "c"):
            netlist.add_input(net)
        netlist.add_gate("10", GateType.NAND, ["1", "a[0]"])
        netlist.add_gate("q.0", GateType.DFF, ["10"])
        netlist.add_gate("m[1]", GateType.MUX, ["b.1", "q.0", "c"])
        netlist.add_gate("k$", GateType.CONST0)
        netlist.add_gate("x,y", GateType.OR, ["m[1]", "k$", "10"])
        netlist.add_output("x,y")
        netlist.add_output("10")
        text = write_verilog(netlist)
        assert "\\a[0] " in text
        parsed = parse_verilog(text)
        assert parsed.gates == netlist.gates
        assert parsed.inputs == netlist.inputs
        assert parsed.outputs == netlist.outputs


class TestEmission:
    def test_clk_port_only_for_sequential(self, s27, combinational):
        assert "input clk;" in write_verilog(s27)
        assert "input clk;" not in write_verilog(combinational)

    def test_module_name_sanitized(self):
        netlist = Netlist(name="weird name!")
        netlist.add_input("a")
        netlist.add_gate("y", GateType.BUF, ["a"])
        netlist.add_output("y")
        text = write_verilog(netlist)
        assert "module weird_name_" in text

    def test_primitive_spelling(self, s27):
        text = write_verilog(s27)
        assert "nand g" in text
        assert "nor g" in text


class TestParserErrors:
    def test_missing_module_header(self):
        with pytest.raises(VerilogError, match="module header"):
            parse_verilog("wire x;")

    def test_unknown_construct(self):
        text = "module m(a, y);\n  input a;\n  output y;\n  initial y = a;\nendmodule\n"
        with pytest.raises(VerilogError, match="unsupported construct"):
            parse_verilog(text)

    def test_unknown_primitive(self):
        text = "module m(a, y);\n  input a;\n  output y;\n  frob g0(y, a);\nendmodule\n"
        with pytest.raises(VerilogError, match="unknown primitive"):
            parse_verilog(text)
