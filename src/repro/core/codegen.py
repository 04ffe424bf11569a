"""Code generator and timing validation — paper Fig. 1, steps 6–7.

"After traversing all the levels and inserting NVMs, the NV-enhanced tree
will be formed.  Finally, the generated code undergoes validation checks
for possible timing violations.  To do so, this optimized tree will first
be converted to an HDL code and submitted to the commercial tool."

Our surrogate emits gate-level structural Verilog for the NV-enhanced
design, annotates every NVM barrier with a ``DIAC`` pragma comment listing
the nets its array latches, and performs the timing validation: the
achievable clock period is the registered critical path (stretched by the
scheme's flip-flop penalty, if any) and a violation is reported whenever a
target period cannot be met.  The HDL is emitted on first read and
checked right there: it must parse back, through the structural Verilog
parser, to the source netlist's gates and ports — our surrogate for "the
commercial tool accepted the netlist".  Nothing that does not read HDL
pays for it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from repro.circuits.netlist import Netlist
from repro.circuits.verilog import VerilogError, parse_verilog, write_verilog
from repro.core.replacement import NvmPlan


@dataclass(frozen=True)
class TimingReport:
    """Timing validation outcome (paper step 7).

    Attributes:
        achievable_period_s: smallest clock period the design can run at.
        target_period_s: requested period, or None when unconstrained.
        commit_latency_s: worst-case NVM commit latency (must fit in the
            backup reserve window, not in a clock period).
        violations: human-readable violation messages (empty = clean).
    """

    achievable_period_s: float
    target_period_s: float | None
    commit_latency_s: float
    violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether the design met all timing constraints."""
        return not self.violations


@dataclass(frozen=True)
class GeneratedCode:
    """The DIAC code generator's output bundle.

    Attributes:
        header: the ``//`` pragma header describing this plan's barriers.
        barrier_pragmas: barrier node id -> nets committed by its array
            (read-only).
        timing: the step-7 timing validation report.
        netlist: the source netlist :attr:`hdl` is emitted from.
    """

    header: str
    barrier_pragmas: Mapping[str, tuple[str, ...]]
    timing: TimingReport
    netlist: Netlist = field(repr=False, compare=False)

    @cached_property
    def hdl(self) -> str:
        """The netlist's structural Verilog, emitted and checked on first read.

        Raises:
            VerilogError: if the text does not round-trip to the netlist.
        """
        text = write_verilog(self.netlist)
        self.roundtrip_check(text)
        return text

    @property
    def verilog(self) -> str:
        """Structural Verilog of the NV-enhanced design."""
        return self.header + self.hdl

    def roundtrip_check(self, hdl: str) -> None:
        """Check that ``hdl`` parses back to exactly the source netlist.

        The parsed gates (type and ordered fanin), inputs and outputs
        (in order) must equal :attr:`netlist`'s.

        Raises:
            VerilogError: naming the first net that differs.
        """
        parsed = parse_verilog(hdl)
        source = self.netlist
        views: tuple[tuple[str, Mapping[str, object], Mapping[str, object]], ...] = (
            ("input", _positions(parsed.inputs), _positions(source.inputs)),
            ("output", _positions(parsed.outputs), _positions(source.outputs)),
            ("gate", parsed.gates, source.gates),
        )
        for label, got, want in views:
            if got != want:
                net = next(n for n in {**want, **got} if got.get(n) != want.get(n))
                raise VerilogError(
                    f"HDL round trip: {label} {net!r} differs from {source.name!r}"
                )


def _positions(nets: list[str]) -> dict[str, int]:
    """Net -> its index in ``nets`` (port lists hold each net once)."""
    return {net: i for i, net in enumerate(nets)}


def generate_code(
    plan: NvmPlan,
    target_period_s: float | None = None,
) -> GeneratedCode:
    """Build an NV-enhanced plan's code bundle and validate timing.

    Args:
        plan: the replacement procedure's output.
        target_period_s: optional clock-period constraint to check.

    Returns:
        A :class:`GeneratedCode` with the pragma header, barrier pragma
        table, and timing report; its Verilog is emitted on first read.
    """
    graph = plan.graph
    netlist = graph.netlist

    pragmas: dict[str, tuple[str, ...]] = {}
    lines = ["// Generated by the DIAC reproduction code generator."]
    lines.append(f"// design: {netlist.name}")
    lines.append(f"// nvm technology: {plan.technology.name}")
    lines.append(f"// barriers: {plan.n_barriers}")
    for barrier_id in plan.barriers:
        node = graph.nodes[barrier_id]
        nets = tuple(sorted(graph.output_nets(node)))
        pragmas[barrier_id] = nets
        lines.append(
            f"// DIAC pragma barrier {barrier_id} bits={plan.commit_bits(barrier_id)} "
            f"nets={','.join(nets)}"
        )

    achievable = graph.report.critical_path_s
    array = plan.backup_array()
    commit_latency = array.write_cost(plan.max_commit_bits).latency_s
    violations: list[str] = []
    if target_period_s is not None and achievable > target_period_s:
        violations.append(
            f"registered critical path {achievable * 1e9:.3f} ns exceeds "
            f"target period {target_period_s * 1e9:.3f} ns"
        )
    for node_id in plan.infeasible:
        violations.append(
            f"node {node_id!r} exceeds the energy budget on its own; "
            "re-run the policy stage with a smaller split threshold"
        )
    timing = TimingReport(
        achievable_period_s=achievable,
        target_period_s=target_period_s,
        commit_latency_s=commit_latency,
        violations=tuple(violations),
    )
    return GeneratedCode(
        header="\n".join(lines) + "\n",
        barrier_pragmas=MappingProxyType(pragmas),
        timing=timing,
        netlist=netlist,
    )
