"""Tests for the cycle-accurate logic simulator."""

from __future__ import annotations

import pytest

from repro.circuits import GateType, Netlist
from repro.circuits.validate import EquivalenceError, check_equivalent
from repro.sim.logic_sim import LogicSimulator, SimulationError


class TestBasics:
    def test_combinational_settling(self, tiny_chain):
        sim = LogicSimulator(tiny_chain)
        assert sim.step({"x": 0})["b"] == 0
        assert sim.step({"x": 1})["b"] == 1

    def test_missing_input_raises(self, tiny_chain):
        sim = LogicSimulator(tiny_chain)
        with pytest.raises(SimulationError, match="missing input"):
            sim.step({})

    def test_nonbinary_inputs_coerced(self, tiny_chain):
        sim = LogicSimulator(tiny_chain)
        assert sim.step({"x": 7})["b"] == 1

    def test_cycles_counter(self, tiny_chain):
        sim = LogicSimulator(tiny_chain)
        sim.run([{"x": 0}, {"x": 1}, {"x": 0}])
        assert sim.cycles == 3
        sim.reset()
        assert sim.cycles == 0


class TestSequential:
    def build_toggler(self) -> Netlist:
        netlist = Netlist(name="toggle")
        netlist.add_gate("q", GateType.DFF, ["d"])
        netlist.add_gate("d", GateType.NOT, ["q"])
        netlist.add_output("q")
        netlist.validate()
        return netlist

    def test_toggle_flip_flop(self):
        sim = LogicSimulator(self.build_toggler())
        seen = [sim.step({})["q"] for _ in range(4)]
        assert seen == [0, 1, 0, 1]

    def test_initial_state_option(self):
        sim = LogicSimulator(self.build_toggler(), initial_state=1)
        assert sim.step({})["q"] == 1

    def test_snapshot_and_restore(self):
        sim = LogicSimulator(self.build_toggler())
        sim.step({})
        saved = sim.snapshot()
        sim.step({})
        sim.step({})
        sim.load_state(saved)
        assert sim.state == saved

    def test_snapshot_is_copy(self):
        sim = LogicSimulator(self.build_toggler())
        snap = sim.snapshot()
        sim.step({})
        assert snap != sim.state or snap == {"q": 0}

    def test_s27_state_evolves(self, s27):
        sim = LogicSimulator(s27)
        vectors = [
            {"G0": 0, "G1": 0, "G2": 1, "G3": 1},
            {"G0": 1, "G1": 1, "G2": 0, "G3": 0},
            {"G0": 0, "G1": 1, "G2": 1, "G3": 0},
            {"G0": 1, "G1": 0, "G2": 0, "G3": 1},
        ]
        states = []
        for vec in vectors:
            sim.step(vec)
            states.append(tuple(sorted(sim.state.items())))
        assert len(set(states)) > 1  # the FFs actually move


class TestActivity:
    def test_activity_factor_range(self, s27):
        sim = LogicSimulator(s27)
        import random

        rng = random.Random(1)
        for _ in range(32):
            sim.step({net: rng.randint(0, 1) for net in s27.inputs})
        assert 0.0 <= sim.activity_factor() <= 1.0

    def test_constant_inputs_low_activity(self, s27):
        sim = LogicSimulator(s27)
        for _ in range(16):
            sim.step({net: 0 for net in s27.inputs})
        # With frozen inputs only the FF loop can toggle.
        assert sim.activity_factor() < 0.5


class TestEquivalenceChecker:
    def test_identical_pass(self, s27):
        check_equivalent(s27, s27.copy())

    def test_detects_functional_change(self, s27):
        from repro.circuits.netlist import Gate

        mutated = s27.copy(name="mutant")
        mutated.gates = dict(mutated.gates)
        mutated.gates["G17"] = Gate("G17", GateType.BUF, ("G11",))
        with pytest.raises(EquivalenceError, match="disagree"):
            check_equivalent(s27, mutated)

    def test_input_set_mismatch(self, s27, tiny_chain):
        with pytest.raises(EquivalenceError, match="input sets differ"):
            check_equivalent(s27, tiny_chain)


class TestLoadStateUnknownNets:
    """Unknown snapshot nets warn by default and raise under strict.

    A backup image holding nets that are not flip-flops of the design is
    corrupted or belongs to a different design, so a silent partial
    restore is never acceptable.
    """

    def test_unknown_nets_warn_by_default(self, s27):
        sim = LogicSimulator(s27)
        with pytest.warns(UserWarning, match="not .*flip-flops"):
            sim.load_state({"G5": 1, "bogus": 1})
        # The known net is restored despite the warning.
        assert sim.state["G5"] == 1

    def test_unknown_nets_raise_when_strict(self, s27):
        sim = LogicSimulator(s27)
        before = dict(sim.state)
        with pytest.raises(SimulationError, match="not .*flip-flops"):
            sim.load_state({"bogus": 1}, strict=True)
        assert sim.state == before  # nothing restored on raise

    def test_message_lists_first_five_sorted(self, s27):
        unknown = {f"fake{i}": 0 for i in range(7)}
        sim = LogicSimulator(s27)
        with pytest.warns(UserWarning) as caught:
            sim.load_state(unknown)
        message = str(caught[0].message)
        assert "7 net(s)" in message
        assert "fake0, fake1, fake2, fake3, fake4..." in message

    def test_known_subset_restores_silently(self, s27, recwarn):
        LogicSimulator(s27).load_state({"G5": 1})
        assert len(recwarn) == 0
