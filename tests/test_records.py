"""The hot graph and netlist records stay slotted and picklable.

Gates, cell timings, feature dictionaries and task nodes are created by
the hundred thousand per roster run, so they carry ``__slots__`` instead
of a per-instance ``__dict__``.  Sweep pool workers receive netlists by
pickle, so slotting must not change what survives a round trip.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import build_task_graph
from repro.suite.registry import load_circuit
from repro.tech.library import StandardCellLibrary


@pytest.fixture(scope="module")
def s298():
    return load_circuit("s298")


@pytest.fixture(scope="module")
def graph(s298):
    return build_task_graph(s298)


def test_records_have_no_instance_dict(s298, graph):
    gate = next(iter(s298.gates.values()))
    node = next(iter(graph.nodes.values()))
    timing = StandardCellLibrary().characterize(gate)
    for record in (gate, timing, node.feature, node):
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.mark.parametrize("protocol", [None, pickle.HIGHEST_PROTOCOL])
def test_netlist_round_trips_through_pickle(s298, protocol):
    copy = pickle.loads(pickle.dumps(s298, protocol))
    assert copy.gates == s298.gates
    assert copy.outputs == s298.outputs
    for name, gate in s298.gates.items():
        twin = copy.gates[name]
        assert twin.is_sequential == gate.is_sequential
        assert twin.is_source == gate.is_source
        assert twin.is_combinational == gate.is_combinational


@pytest.mark.parametrize("protocol", [None, pickle.HIGHEST_PROTOCOL])
def test_task_node_round_trips_through_pickle(graph, protocol):
    for node in graph.nodes.values():
        copy = pickle.loads(pickle.dumps(node, protocol))
        assert copy == node
        assert copy.gates == node.gates
        assert copy.feature == node.feature
