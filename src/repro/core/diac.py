"""The end-to-end DIAC synthesis pipeline (paper Fig. 1).

Ties the seven steps together:

1.  take a gate-level design (the parsers/generators are the high-level
    front end),
2.  characterize it with the synthesis surrogate,
3.  build the un-optimized task tree with feature dictionaries,
4a. apply a granularity policy (1, 2 or 3),
4b. take the NVM technology model,
5.  run the replacement procedure (criteria-driven NVM insertion),
6.  form the NV-enhanced tree,
7.  generate HDL and validate timing.

:class:`DiacSynthesizer` is the one composition of steps 2–6.  Its
result, :class:`DiacDesign`, is the plan (barriers over the shaped
graph, and the commit schedule) and the config that produced it; the
netlist and report are the graph's, the executor's figures derive from
them, and step 7's code bundle is generated the first time it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.calibration import BARRIER_BUDGET_FACTOR
from repro.circuits.netlist import Netlist
from repro.core.codegen import GeneratedCode, generate_code
from repro.core.policies import apply_policy, config_for_graph
from repro.core.replacement import (
    REG_FLAG_BITS,
    NvmPlan,
    ReplacementCriteria,
    insert_nvm,
)
from repro.core.tree import TaskGraph
from repro.core.tree_generator import GRANULARITIES, build_task_graph
from repro.tech.cacti import backup_array_for
from repro.tech.nvm import MRAM, NvmTechnology
from repro.tech.synthesis import SynthesisReport, synthesize


@dataclass(frozen=True)
class DiacConfig:
    """Configuration of one DIAC synthesis run: the knobs a sweep varies.

    The rest of the pipeline runs at the paper's fixed settings: the
    synthesis surrogate's default switching activity, the policy bounds
    :func:`~repro.core.policies.config_for_graph` derives (the worked
    25 mJ / 20 mJ bracket around the mean node energy) and an
    unconstrained clock for step 7's timing report.

    Attributes:
        policy: task-granularity policy (1, 2 or 3; the paper uses 3).
        granularity: initial tree granularity (``"gate"`` or ``"level"``).
        technology: NVM technology for backup arrays (paper: MRAM).
        criteria: replacement criteria weights.
        budget_j: per-partition energy budget; None derives it from the
            circuit's full-state backup cost (see calibration module).
        use_safe_zone: whether the runtime FSM uses Th_SafeZone
            ("optimized DIAC" when True, plain "DIAC" when False).
    """

    policy: int = 3
    granularity: str = "gate"
    technology: NvmTechnology = MRAM
    criteria: ReplacementCriteria = field(default_factory=ReplacementCriteria)
    budget_j: float | None = None
    use_safe_zone: bool = True

    def __post_init__(self) -> None:
        if self.policy not in (1, 2, 3):
            raise ValueError("policy must be 1, 2 or 3")
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, "
                f"got {self.granularity!r}"
            )
        if self.budget_j is not None and not (
            math.isfinite(self.budget_j) and self.budget_j > 0
        ):
            raise ValueError(
                f"budget_j must be None or finite and positive, "
                f"got {self.budget_j!r}"
            )


def architectural_state_bits(netlist: Netlist) -> int:
    """Architectural state: flip-flops + primary outputs + Reg_Flag."""
    return netlist.num_ffs + len(netlist.outputs) + REG_FLAG_BITS


def full_backup_energy_j(netlist: Netlist, technology: NvmTechnology) -> float:
    """Energy of committing ``netlist``'s full architectural state once."""
    bits = architectural_state_bits(netlist)
    return backup_array_for(bits, technology).write_cost(bits).energy_j


@dataclass
class DiacDesign:
    """Output of one DIAC synthesis run.

    Attributes:
        plan: the replacement plan: barriers, commit schedule and
            commit bits overlaid on the shaped stage graph
            (``plan.graph``, shared with every plan over that stage).
        config: the configuration that produced this design.
    """

    plan: NvmPlan
    config: DiacConfig

    @property
    def netlist(self) -> Netlist:
        """The source circuit (the plan graph's)."""
        return self.plan.graph.netlist

    @property
    def report(self) -> SynthesisReport:
        """The circuit's synthesis characterization (the plan graph's)."""
        return self.plan.graph.report

    @cached_property
    def code(self) -> GeneratedCode:
        """Step 7: generated code and timing report, built on first read.

        The HDL inside is emitted and round-trip checked only when it is
        read in turn.
        """
        return generate_code(self.plan)

    # -- derived figures -------------------------------------------------------

    @property
    def state_bits(self) -> int:
        """Architectural state: flip-flops + primary outputs + Reg_Flag."""
        return architectural_state_bits(self.netlist)

    @property
    def pass_energy_j(self) -> float:
        """Energy of one evaluation pass (logic + flip-flop clocking)."""
        return self.report.logic_energy_j + self.report.ff_clock_energy_j

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports."""
        graph = self.plan.graph
        return {
            **{f"synth_{k}": v for k, v in self.report.summary().items()},
            **{f"plan_{k}": v for k, v in self.plan.summary().items()},
            "nodes": float(len(graph)),
            "depth": float(graph.depth),
            "state_bits": float(self.state_bits),
            "pass_energy_pj": self.pass_energy_j * 1e12,
            "timing_ok": float(self.code.timing.passed),
        }

    def report_text(self) -> str:
        """Human-readable synthesis report."""
        lines = [f"DIAC design report — {self.netlist.name}"]
        lines.append(
            f"  policy {self.config.policy}, NVM {self.config.technology.name}, "
            f"safe zone {'on' if self.config.use_safe_zone else 'off'}"
        )
        for key, value in self.summary().items():
            lines.append(f"  {key:28s} {value:.6g}")
        return "\n".join(lines)


class DiacSynthesizer:
    """The DIAC design tool: netlist in, intermittent-robust design out.

    "This will necessitate an efficient, precise, automated design tool
    that seamlessly converts any combinational and sequential designs into
    intermittent robust architectures without human intervention."

    The only composition of the pipeline: :meth:`run` calls the step
    methods in order, and :class:`repro.dse.explorer.SynthesisCache`
    memoizes the same calls for a sweep.  Step 7 is the design's own
    :attr:`DiacDesign.code`.
    """

    def __init__(self, config: DiacConfig | None = None) -> None:
        self.config = config or DiacConfig()

    def characterize(self, netlist: Netlist) -> TaskGraph:
        """Steps 2–3: characterize, build the un-optimized tree.

        The graph carries the netlist and its synthesis report.  It
        depends on the granularity only, never the policy.
        """
        return build_task_graph(
            netlist, report=synthesize(netlist), granularity=self.config.granularity
        )

    def shape(self, graph: TaskGraph) -> TaskGraph:
        """Step 4a: apply the policy to an un-optimized tree.

        Returns a new graph; ``graph`` itself is not modified, so one
        characterization serves every policy.
        """
        return apply_policy(graph, self.config.policy, config_for_graph(graph))

    def stage(self, netlist: Netlist) -> TaskGraph:
        """Steps 2–4a: the shaped graph of ``netlist``."""
        return self.shape(self.characterize(netlist))

    def derive_budget_j(self, netlist: Netlist) -> float:
        """Default barrier-spacing budget for ``netlist``.

        Proportional to the circuit's full-state backup cost: spacing
        partitions at about the cost of one full backup balances the
        expected half-partition re-execution loss against the savings from
        narrower commits (see calibration notes).
        """
        return BARRIER_BUDGET_FACTOR * full_backup_energy_j(netlist, self.config.technology)

    def budget_j(self, netlist: Netlist) -> float:
        """The barrier budget: ``config.budget_j``, else the derived default."""
        if self.config.budget_j is not None:
            return self.config.budget_j
        return self.derive_budget_j(netlist)

    def plan(self, shaped: TaskGraph, budget_j: float) -> NvmPlan:
        """Steps 4b–6: place NVM barriers over the shaped tree.

        The plan's ``graph`` is ``shaped`` itself; only the barrier
        overlay depends on ``budget_j``.
        """
        cfg = self.config
        return insert_nvm(shaped, budget_j, technology=cfg.technology, criteria=cfg.criteria)

    def run(self, netlist: Netlist) -> DiacDesign:
        """Run the full pipeline on ``netlist``.

        Returns:
            The synthesized :class:`DiacDesign`.
        """
        return DiacDesign(
            self.plan(self.stage(netlist), self.budget_j(netlist)), self.config
        )
