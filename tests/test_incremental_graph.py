"""Incremental task-graph passes equal a from-scratch rebuild.

The policy passes derive each graph from the previous one: unchanged
nodes keep their costing and merged graphs contract the parent's node
edges.  The oracle here is a :class:`TaskGraph` built from scratch over
the same node list.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core import build_task_graph, config_for_graph, insert_nvm
from repro.core.policies import apply_policy
from repro.core.replacement import live_cut_profile, schedule_order
from repro.core.tree import TaskGraph, TaskNode, TreeError
from repro.suite.registry import load_circuit
from repro.tech.synthesis import SynthesisReport, synthesize

CIRCUITS = ("s298", "b05", "des")
FIELDS = ("fan_in", "fan_out", "level", "energy_j", "delay_s", "n_gates")


def rebuilt(graph: TaskGraph) -> TaskGraph:
    """The from-scratch oracle over ``graph``'s node list."""
    return TaskGraph(
        graph.netlist,
        graph.report,
        [TaskNode(node_id=n.node_id, gates=n.gates) for n in graph.nodes.values()],
    )


def assert_matches_rebuild(graph: TaskGraph) -> None:
    oracle = rebuilt(graph)
    assert list(graph.nodes) == list(oracle.nodes)
    for nid, node in graph.nodes.items():
        ref = oracle.nodes[nid]
        assert node.gates == ref.gates, nid
        for name in FIELDS:
            got, want = getattr(node.feature, name), getattr(ref.feature, name)
            assert type(got) is type(want) and repr(got) == repr(want), (nid, name)
        assert graph.successors(nid) == oracle.successors(nid), nid
        assert graph.predecessors(nid) == oracle.predecessors(nid), nid
    assert graph.edges == oracle.edges
    assert [n.node_id for n in graph.topological_nodes()] == [
        n.node_id for n in oracle.topological_nodes()
    ]


@pytest.fixture
def derived(monkeypatch) -> list[TaskGraph]:
    """Every graph :meth:`TaskGraph.derive` builds during the test."""
    graphs: list[TaskGraph] = []
    original = TaskGraph.derive

    def spy(self, *args, **kwargs):
        graph = original(self, *args, **kwargs)
        graphs.append(graph)
        return graph

    monkeypatch.setattr(TaskGraph, "derive", spy)
    return graphs


@pytest.fixture(scope="module")
def netlists():
    return {name: load_circuit(name) for name in CIRCUITS}


@pytest.mark.parametrize("granularity", ["gate", "level"])
@pytest.mark.parametrize("policy", [1, 2, 3])
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_passes_equal_full_rebuild(netlists, derived, circuit, policy, granularity):
    netlist = netlists[circuit]
    graph = build_task_graph(netlist, granularity=granularity)
    assert_matches_rebuild(graph)
    shaped = apply_policy(graph, policy, config_for_graph(graph))
    assert derived, "every policy builds at least one derived graph"
    for intermediate in derived:
        assert_matches_rebuild(intermediate)
    assert_matches_rebuild(shaped)
    plan = insert_nvm(shaped, budget_j=4 * shaped.total_energy_j / len(shaped))
    assert plan.n_barriers > 0
    assert_matches_rebuild(plan.graph)
    assert plan.live_cut == live_cut_profile(plan.graph, schedule_order(plan.graph))
    assert plan.schedule() == type(plan)(
        graph=plan.graph,
        budget_j=plan.budget_j,
        technology=plan.technology,
        barriers=plan.barriers,
        infeasible=plan.infeasible,
        criteria=plan.criteria,
        accumulated_j=plan.accumulated_j,
    ).schedule()


def test_both_derive_paths_are_exercised(netlists, derived):
    """Level-granularity des splits (gate rebuild) and merges (contraction)."""
    graph = build_task_graph(netlists["des"], granularity="level")
    shaped = apply_policy(graph, 3, config_for_graph(graph))
    assert any(".s" in nid for nid in shaped.nodes)
    assert len(derived) >= 2


def test_unsplit_policy1_keeps_costing(netlists, derived):
    graph = build_task_graph(netlists["s298"], granularity="gate")
    shaped = apply_policy(graph, 1, config_for_graph(graph))
    assert list(shaped.nodes) == [n.node_id for n in graph.topological_nodes()]
    (result,) = derived
    assert result is shaped
    for nid, node in shaped.nodes.items():
        assert node.feature == graph.nodes[nid].feature
        assert node.feature is graph.nodes[nid].feature


@pytest.fixture
def recosted(monkeypatch) -> list[tuple[TaskGraph, TaskGraph, int]]:
    """``(parent, child, cost calls)`` for every :meth:`TaskGraph.derive`.

    The calls count :meth:`SynthesisReport.block_cost` and
    :meth:`SynthesisReport.gate_cost` made inside the derive.
    """
    calls = [0]

    def counted(original):
        def cost(self, *args):
            calls[0] += 1
            return original(self, *args)

        return cost

    for name in ("block_cost", "gate_cost"):
        monkeypatch.setattr(SynthesisReport, name, counted(getattr(SynthesisReport, name)))
    derives: list[tuple[TaskGraph, TaskGraph, int]] = []
    original = TaskGraph.derive

    def spy(self, *args, **kwargs):
        before = calls[0]
        graph = original(self, *args, **kwargs)
        derives.append((self, graph, calls[0] - before))
        return graph

    monkeypatch.setattr(TaskGraph, "derive", spy)
    return derives


@pytest.mark.parametrize("granularity", ["gate", "level"])
@pytest.mark.parametrize("policy", [1, 2, 3])
@pytest.mark.parametrize("circuit", ["s298", "s838", "b05"])
def test_derive_shares_unchanged_nodes(recosted, circuit, policy, granularity):
    """Derive re-costs only nodes whose gate tuple changed.

    Every other node keeps its parent's costs, also when its level
    moved: only s838 at level granularity under policies 2 and 3 moves
    the level of a node whose gates are unchanged.
    """
    graph = build_task_graph(load_circuit(circuit), granularity=granularity)
    apply_policy(graph, policy, config_for_graph(graph))
    assert recosted
    kept = 0
    for parent, child, calls in recosted:
        changed = 0
        for nid, node in child.nodes.items():
            old = parent.nodes.get(nid)
            if old is None or old.gates != node.gates:
                changed += 1
                continue
            kept += 1
            assert replace(old.feature, level=node.feature.level) == (
                node.feature
            ), nid
        assert calls == changed
        assert_matches_rebuild(child)
    assert kept > 0
    node = next(iter(child.nodes.values()))
    with pytest.raises(FrozenInstanceError):
        node.gates = ()
    with pytest.raises(FrozenInstanceError):
        node.feature.level = 0


@pytest.mark.parametrize("circuit", ["s838", "b05", "des"])
def test_gate_cost_equals_one_gate_block(circuit):
    report = synthesize(load_circuit(circuit))
    for gate in report.netlist.logic_gates:
        block = (gate.name,)
        assert repr(report.gate_cost(gate.name)) == repr(report.block_cost(block)), (
            gate.name
        )


def test_derive_checks_partition(netlists):
    graph = build_task_graph(netlists["s298"])
    nodes = [TaskNode(node_id=n.node_id, gates=n.gates) for n in graph.nodes.values()]
    with pytest.raises(TreeError, match="not covered"):
        graph.derive(nodes[1:], absorbed_into={})


def test_derive_checks_acyclicity(tiny_chain):
    """Contracting a path's two ends around its middle is a cycle."""
    from repro.circuits import GateType

    tiny_chain.add_gate("c", GateType.NOT, ["b"])
    graph = build_task_graph(tiny_chain)
    assert graph.successors("a") == {"b"} and graph.successors("b") == {"c"}
    nodes = [TaskNode("a", ("a", "c")), TaskNode("b", ("b",))]
    with pytest.raises(TreeError, match="cycle"):
        graph.derive(nodes, absorbed_into={"c": "a"})
