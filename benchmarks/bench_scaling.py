"""SCALE — synthesis-tool scalability over the roster's size range.

The paper requires "an efficient, precise, automated design tool that
seamlessly converts any combinational and sequential designs into
intermittent robust architectures without human intervention".  This bench
times the full DIAC pipeline from the smallest (s27, 10 gates) to the
largest (s38584, 19253 gates) roster members.
"""

from __future__ import annotations

import pytest

from repro.core import DiacSynthesizer
from repro.suite import load_circuit

SIZES = ("s27", "s298", "s1423", "des", "b14", "s15850")


@pytest.mark.parametrize("name", SIZES)
def test_scaling_pipeline(benchmark, name):
    netlist = load_circuit(name)
    # The timing of the synthesis flow itself is the subject here; HDL is
    # emitted (and checked) only when read, which this bench never does.
    design = benchmark.pedantic(
        lambda: DiacSynthesizer().run(netlist), rounds=1, iterations=1
    )
    assert design.code.timing.passed
    assert len(design.plan.graph) > 0


def test_scaling_largest_circuit_within_budget(benchmark):
    """The 19k-gate flagship must synthesize in interactive time."""
    netlist = load_circuit("s38584")
    design = benchmark.pedantic(
        lambda: DiacSynthesizer().run(netlist), rounds=1, iterations=1
    )
    assert design.netlist.num_gates == 19253
