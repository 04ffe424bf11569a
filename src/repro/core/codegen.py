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
target period cannot be met.  The emitted HDL round-trips through the
structural Verilog parser, which the pipeline uses as its "commercial tool
accepted the netlist" check.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.circuits.verilog import parse_verilog, write_verilog
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
        hdl: the netlist's structural Verilog (shared by every plan of
            the netlist; :attr:`verilog` is ``header + hdl``).
        barrier_pragmas: barrier node id -> nets committed by its array
            (read-only).
        timing: the step-7 timing validation report.
    """

    header: str
    hdl: str
    barrier_pragmas: Mapping[str, tuple[str, ...]]
    timing: TimingReport

    @property
    def verilog(self) -> str:
        """Structural Verilog of the NV-enhanced design."""
        return self.header + self.hdl

    def roundtrip_check(self) -> None:
        """Re-parse the emitted Verilog and verify it is well formed.

        The parser skips the ``//`` header, so this checks :attr:`hdl`,
        and one passing bundle vouches for every bundle sharing its HDL.

        Raises:
            VerilogError / NetlistError: if the emitted HDL is malformed.
        """
        parse_verilog(self.verilog).validate()


def generate_code(
    plan: NvmPlan,
    target_period_s: float | None = None,
    ff_delay_overhead: float = 0.0,
    hdl: str | None = None,
) -> GeneratedCode:
    """Emit HDL for an NV-enhanced plan and validate timing.

    Args:
        plan: the replacement procedure's output.
        target_period_s: optional clock-period constraint to check.
        ff_delay_overhead: relative registered-path penalty of the state
            elements (0.0 for DIAC's plain CMOS flip-flops; the NV-FF and
            LE-FF baselines pass their penalties here).
        hdl: the netlist's structural Verilog when the caller already
            holds it, e.g. another plan's :attr:`GeneratedCode.hdl`
            (emitted with :func:`write_verilog` otherwise).

    Returns:
        A :class:`GeneratedCode` with the Verilog text, barrier pragma
        table, and timing report.
    """
    graph = plan.graph
    netlist = graph.netlist
    if hdl is None:
        hdl = write_verilog(netlist)

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

    achievable = graph.report.critical_path_s * (1.0 + ff_delay_overhead)
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
        hdl=hdl,
        barrier_pragmas=MappingProxyType(pragmas),
        timing=timing,
    )
