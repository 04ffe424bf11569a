"""Unit tests for the netlist container."""

from __future__ import annotations

import pytest

from repro.circuits import GateType, Netlist, NetlistError


def build_half_adder() -> Netlist:
    netlist = Netlist(name="ha")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate("sum", GateType.XOR, ["a", "b"])
    netlist.add_gate("carry", GateType.AND, ["a", "b"])
    netlist.add_output("sum")
    netlist.add_output("carry")
    return netlist


class TestConstruction:
    def test_counts(self):
        netlist = build_half_adder()
        assert netlist.num_gates == 2
        assert netlist.num_ffs == 0
        assert netlist.inputs == ["a", "b"]
        assert netlist.outputs == ["sum", "carry"]

    def test_duplicate_driver_rejected(self):
        netlist = build_half_adder()
        with pytest.raises(NetlistError, match="already driven"):
            netlist.add_gate("sum", GateType.OR, ["a", "b"])

    def test_duplicate_output_rejected(self):
        netlist = build_half_adder()
        with pytest.raises(NetlistError, match="declared twice"):
            netlist.add_output("sum")

    def test_len_and_contains(self):
        netlist = build_half_adder()
        assert len(netlist) == 4  # 2 inputs + 2 gates
        assert "sum" in netlist
        assert "nope" not in netlist

    def test_driver_lookup(self):
        netlist = build_half_adder()
        assert netlist.driver("sum").gtype is GateType.XOR
        with pytest.raises(NetlistError, match="no driver"):
            netlist.driver("ghost")


class TestValidation:
    def test_valid_netlist_passes(self):
        build_half_adder().validate()

    def test_undriven_input_detected(self):
        netlist = Netlist(name="bad")
        netlist.add_gate("g", GateType.NOT, ["missing"])
        with pytest.raises(NetlistError, match="undriven net"):
            netlist.validate()

    def test_undriven_output_detected(self):
        netlist = Netlist(name="bad")
        netlist.add_input("a")
        netlist.add_output("ghost")
        with pytest.raises(NetlistError, match="undriven"):
            netlist.validate()

    def test_combinational_cycle_detected(self):
        netlist = Netlist(name="cyclic")
        netlist.add_input("x")
        netlist.add_gate("p", GateType.AND, ["x", "q"])
        netlist.add_gate("q", GateType.AND, ["x", "p"])
        netlist.add_output("q")
        with pytest.raises(NetlistError, match="cycle"):
            netlist.validate()

    def test_sequential_loop_is_legal(self):
        netlist = Netlist(name="toggler")
        netlist.add_gate("q", GateType.DFF, ["d"])
        netlist.add_gate("d", GateType.NOT, ["q"])
        netlist.add_output("q")
        netlist.validate()  # must not raise

    def test_undriven_input_reported_before_undriven_output(self):
        netlist = Netlist(name="bad")
        netlist.add_gate("p", GateType.AND, ["q", "missing"])
        netlist.add_gate("q", GateType.AND, ["p", "p"])
        netlist.add_output("ghost")
        with pytest.raises(NetlistError) as info:
            netlist.validate()
        assert str(info.value) == "gate 'p' reads undriven net 'missing'"

    def test_undriven_output_reported_before_cycle(self):
        netlist = Netlist(name="bad")
        netlist.add_input("x")
        netlist.add_gate("p", GateType.AND, ["x", "q"])
        netlist.add_gate("q", GateType.AND, ["x", "p"])
        netlist.add_output("ghost")
        with pytest.raises(NetlistError) as info:
            netlist.validate()
        assert str(info.value) == "primary output 'ghost' is undriven"

    def test_cycle_message_names_every_stuck_net(self):
        netlist = Netlist(name="cyclic")
        netlist.add_input("x")
        netlist.add_gate("r", GateType.NOT, ["q"])
        netlist.add_gate("q", GateType.AND, ["x", "p"])
        netlist.add_gate("p", GateType.AND, ["x", "q"])
        netlist.add_gate("s", GateType.NOT, ["x"])
        netlist.add_output("r")
        with pytest.raises(NetlistError) as info:
            netlist.validate()
        assert str(info.value) == (
            "combinational cycle in 'cyclic' involving ['p', 'q', 'r']"
        )

    def test_growth_after_passing_validate_is_checked(self):
        netlist = build_half_adder()
        netlist.validate()
        netlist.validate()  # cached: the netlist did not change
        netlist.add_gate("g", GateType.NOT, ["missing"])
        with pytest.raises(NetlistError, match="undriven net"):
            netlist.validate()

    def test_new_output_after_passing_validate_is_checked(self):
        netlist = build_half_adder()
        netlist.validate()
        netlist.add_output("ghost")
        with pytest.raises(NetlistError, match="undriven"):
            netlist.validate()

    def test_replaced_outputs_after_passing_validate_are_checked(self):
        netlist = build_half_adder()
        netlist.validate()
        netlist.outputs = ["sum", "ghost"]
        with pytest.raises(NetlistError, match="undriven"):
            netlist.validate()

    def test_pickle_drops_the_validation_stamp(self):
        import pickle

        netlist = build_half_adder()
        netlist.validate()
        assert netlist.num_ffs == 0
        state = netlist.__getstate__()
        assert set(state) == {"name", "gates", "outputs"}
        pickle.loads(pickle.dumps(netlist)).validate()


class TestTopologicalOrder:
    def test_order_respects_dependencies(self, s27):
        order = [g.name for g in s27.topological_order()]
        position = {name: i for i, name in enumerate(order)}
        for gate in s27.logic_gates:
            for src in gate.inputs:
                assert position[src] < position[gate.name]

    def test_order_covers_every_gate(self, s27):
        order = s27.topological_order()
        assert len(order) == len(s27)

    def test_dff_outputs_act_as_sources(self, s27):
        order = [g.name for g in s27.topological_order()]
        position = {name: i for i, name in enumerate(order)}
        # G5 = DFF(G10): G5 may precede G10 (sequential edge is cut).
        assert position["G5"] < position["G11"]


class TestViewsAndTransforms:
    def test_fanout_map(self, s27):
        structure = s27.structure()
        consumers = structure.fanout[structure.index["G11"]]
        assert {structure.names[i] for i in consumers} == {"G17", "G10", "G6"}

    def test_copy_is_independent(self, s27):
        clone = s27.copy(name="s27_clone")
        clone.add_output("G10")
        assert "G10" not in s27.outputs
        assert clone.name == "s27_clone"

    def test_renamed_preserves_structure(self, s27):
        mapping = {"G0": "in0", "G17": "out0"}
        renamed = s27.renamed(mapping)
        assert "in0" in renamed.inputs
        assert renamed.outputs == ["out0"]
        renamed.validate()
        assert renamed.num_gates == s27.num_gates

    def test_stats_keys(self, s27):
        stats = s27.stats()
        assert stats["gates"] == 10
        assert stats["ffs"] == 3
        assert stats["inputs"] == 4
        assert stats["outputs"] == 1
        assert stats["n_nor"] == 3

    def test_flip_flops_view(self, s27):
        assert {g.name for g in s27.flip_flops} == {"G5", "G6", "G7"}

    def test_flip_flops_cache_tracks_growth_and_is_not_shared(self, s27):
        netlist = s27.copy()
        first = netlist.flip_flops
        first.clear()
        assert [g.name for g in netlist.flip_flops] == ["G5", "G6", "G7"]
        assert netlist.flip_flops is not netlist.flip_flops
        netlist.add_gate("G99", GateType.DFF, ["G5"])
        assert netlist.num_ffs == 4
        assert netlist.flip_flops[-1].name == "G99"
