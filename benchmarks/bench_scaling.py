"""SCALE — synthesis-tool scalability over the roster's size range.

The paper requires "an efficient, precise, automated design tool that
seamlessly converts any combinational and sequential designs into
intermittent robust architectures without human intervention".  This bench
times the full DIAC pipeline from the smallest (s27, 10 gates) to the
largest (s38584, 19253 gates) roster members.
"""

from __future__ import annotations

import pytest

from repro.core import DiacConfig, DiacSynthesizer
from repro.suite import load_circuit

SIZES = ("s27", "s298", "s1423", "des", "b14", "s15850")


@pytest.mark.parametrize("name", SIZES)
def test_scaling_pipeline(benchmark, name):
    netlist = load_circuit(name)
    # Skip the equivalence-style roundtrip on the giants; the timing of
    # the synthesis flow itself is the subject here.
    config = DiacConfig(validate=netlist.num_gates <= 3000)
    design = benchmark.pedantic(
        lambda: DiacSynthesizer(config).run(netlist), rounds=1, iterations=1
    )
    assert design.code.timing.passed
    assert len(design.plan.graph) > 0


def test_scaling_largest_circuit_within_budget(benchmark):
    """The 19k-gate flagship must synthesize in interactive time."""
    netlist = load_circuit("s38584")
    config = DiacConfig(validate=False)
    design = benchmark.pedantic(
        lambda: DiacSynthesizer(config).run(netlist), rounds=1, iterations=1
    )
    assert design.netlist.num_gates == 19253
