"""Tests for the deterministic circuit generators."""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits import (
    CircuitSpec,
    GateType,
    array_multiplier,
    balanced_tree_circuit,
    generate_circuit,
    majority_voter,
    parity_tree,
    ripple_carry_adder,
    sequential_counter,
    write_bench,
)
from repro.sim.logic_sim import LogicSimulator
from repro.suite.registry import ROSTER, load_circuit

#: sha256 over the ``write_bench`` text of every generated roster circuit
#: (all but ``s27``, which is parsed), in roster order.
ROSTER_BENCH_SHA256 = (
    "24fdee69e174ab9ef1c065783f76563caf3b4bee79fdedd0c9abcffa6f22db17"
)


class TestSpecValidation:
    def test_rejects_zero_gates(self):
        with pytest.raises(ValueError):
            CircuitSpec(name="x", n_gates=0)

    def test_rejects_bad_ff_fraction(self):
        with pytest.raises(ValueError):
            CircuitSpec(name="x", n_gates=10, ff_fraction=1.0)

    def test_rejects_unknown_style(self):
        with pytest.raises(ValueError, match="unknown style"):
            CircuitSpec(name="x", n_gates=10, style="quantum")


class TestGeneratedCircuits:
    @pytest.mark.parametrize("n_gates", [1, 7, 50, 333])
    def test_exact_gate_count(self, n_gates):
        spec = CircuitSpec(name=f"count{n_gates}", n_gates=n_gates)
        assert generate_circuit(spec).num_gates == n_gates

    @pytest.mark.parametrize("style", ["logic", "pld", "datapath", "fsm"])
    def test_all_styles_validate(self, style):
        spec = CircuitSpec(name=f"style_{style}", n_gates=80, style=style)
        generate_circuit(spec).validate()

    def test_ff_fraction_respected(self):
        spec = CircuitSpec(name="ffy", n_gates=200, ff_fraction=0.25)
        netlist = generate_circuit(spec)
        assert netlist.num_ffs == 50

    def test_deterministic_in_name(self):
        spec = CircuitSpec(name="det", n_gates=60)
        a = write_bench(generate_circuit(spec))
        b = write_bench(generate_circuit(spec))
        assert a == b

    def test_different_names_differ(self):
        a = write_bench(generate_circuit(CircuitSpec(name="one", n_gates=60)))
        b = write_bench(generate_circuit(CircuitSpec(name="two", n_gates=60)))
        assert a != b

    def test_outputs_exist(self):
        netlist = generate_circuit(CircuitSpec(name="outs", n_gates=40))
        assert netlist.outputs
        for out in netlist.outputs:
            assert out in netlist.gates

    def test_roster_netlists_are_pinned(self):
        digest = hashlib.sha256()
        for info in ROSTER:
            if info.name != "s27":
                digest.update(write_bench(load_circuit(info.name)).encode())
        assert digest.hexdigest() == ROSTER_BENCH_SHA256

    def test_simulatable(self):
        netlist = generate_circuit(CircuitSpec(name="simme", n_gates=64))
        sim = LogicSimulator(netlist)
        out = sim.step({net: 1 for net in netlist.inputs})
        assert set(out) == set(netlist.outputs)


class TestExactCircuits:
    def test_balanced_tree_gate_count(self):
        assert balanced_tree_circuit(8).num_gates == 7

    def test_balanced_tree_requires_power_of_two(self):
        with pytest.raises(ValueError):
            balanced_tree_circuit(6)

    def test_balanced_tree_and_semantics(self):
        tree = balanced_tree_circuit(4, op=GateType.AND)
        sim = LogicSimulator(tree)
        assert sim.step({f"x{i}": 1 for i in range(4)})[tree.outputs[0]] == 1
        assert sim.step({"x0": 0, "x1": 1, "x2": 1, "x3": 1})[tree.outputs[0]] == 0

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_adder_matches_integer_addition(self, width):
        adder = ripple_carry_adder(width)
        sim = LogicSimulator(adder)
        for a in range(2**width):
            for b in range(2**width):
                vec = {f"a{i}": (a >> i) & 1 for i in range(width)}
                vec |= {f"b{i}": (b >> i) & 1 for i in range(width)}
                out = sim.step(vec)
                total = sum(out[f"s{i}"] << i for i in range(width))
                total += out[adder.outputs[-1]] << width
                assert total == a + b, (a, b)

    @pytest.mark.parametrize("width", [2, 4])
    def test_multiplier_matches_integer_multiplication(self, width):
        mul = array_multiplier(width)
        sim = LogicSimulator(mul)
        for a in range(2**width):
            for b in range(2**width):
                vec = {f"a{i}": (a >> i) & 1 for i in range(width)}
                vec |= {f"b{i}": (b >> i) & 1 for i in range(width)}
                out = sim.step(vec)
                value = sum(out[f"prod{k}"] << k for k in range(2 * width))
                assert value == a * b, (a, b)

    def test_parity_tree(self):
        par = parity_tree(5)
        sim = LogicSimulator(par)
        for pattern in range(2**5):
            vec = {f"x{i}": (pattern >> i) & 1 for i in range(5)}
            assert sim.step(vec)[par.outputs[0]] == bin(pattern).count("1") % 2

    def test_majority_voter(self):
        maj = majority_voter(3)
        sim = LogicSimulator(maj)
        for pattern in range(8):
            vec = {f"v{i}": (pattern >> i) & 1 for i in range(3)}
            expected = int(bin(pattern).count("1") >= 2)
            assert sim.step(vec)["majority"] == expected

    def test_majority_requires_odd(self):
        with pytest.raises(ValueError):
            majority_voter(4)

    def test_counter_counts(self):
        cnt = sequential_counter(3)
        sim = LogicSimulator(cnt)
        values = []
        for _ in range(10):
            out = sim.step({"en": 1})
            values.append(sum(out[f"q{i}"] << i for i in range(3)))
        # After the first clock the counter runs 1, 2, ... mod 8.
        assert values[:9] == [0, 1, 2, 3, 4, 5, 6, 7, 0]

    def test_counter_holds_when_disabled(self):
        cnt = sequential_counter(3)
        sim = LogicSimulator(cnt)
        sim.step({"en": 1})
        sim.step({"en": 1})
        frozen = sim.step({"en": 0})
        again = sim.step({"en": 0})
        assert frozen == again
