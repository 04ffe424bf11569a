"""Design lint: rule-based static checks with linter ergonomics.

Three rule families, each with stable IDs so findings can be selected
or suppressed like a real linter (``repro lint --select N --ignore
N004``):

* ``N***`` — netlist structure: combinational cycles, floating and
  multiply-driven nets, undriven primary outputs, dead gates, gate
  arity (width) mismatches;
* ``T***`` — task graph / NVM plan: nodes whose own energy exceeds the
  per-burst budget, commits that cannot fit the backup reserve, empty
  graphs and over-budget partitions;
* ``C***`` — threshold configuration: ordering violations, thresholds
  past the storage capacity, non-positive levels, suspicious safe-zone
  margins.

``error`` findings make ``repro lint`` exit nonzero; ``warning``
findings are reported but do not fail the run.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.circuits.netlist import Netlist, NetlistError
from repro.core.replacement import NvmPlan
from repro.energy.thresholds import ThresholdSet

ERROR = "error"
WARNING = "warning"

#: Relative slack before a budget comparison is flagged — synthesis
#: energies are floats and an over-budget report must mean it.
_BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class LintRule:
    """One registered check.

    Attributes:
        rule_id: stable identifier (``N001``, ``T002``, ``C001``, ...).
        severity: ``"error"`` or ``"warning"``.
        summary: one-line description shown by ``repro lint --rules``.
    """

    rule_id: str
    severity: str
    summary: str


@dataclass(frozen=True)
class LintFinding:
    """One violation of one rule at one location.

    Attributes:
        rule_id: the violated rule.
        severity: copied from the rule at emission time.
        message: human-readable description of this occurrence.
        subject: net / node / field the finding points at (may be empty).
        source: circuit, file or config the finding came from.
    """

    rule_id: str
    severity: str
    message: str
    subject: str = ""
    source: str = ""

    def render(self) -> str:
        """Format as ``source: RULE severity: message``."""
        prefix = f"{self.source}: " if self.source else ""
        return f"{prefix}{self.rule_id} {self.severity}: {self.message}"


_RULES = (
    LintRule("N001", ERROR, "combinational cycle (no DFF on the loop)"),
    LintRule("N002", ERROR, "gate reads a floating (undriven) net"),
    LintRule("N003", ERROR, "primary output is undriven"),
    LintRule("N004", WARNING, "dead gate: drives no gate, FF or output"),
    LintRule("N005", ERROR, "net is driven by more than one gate"),
    LintRule("N006", ERROR, "gate arity/width mismatch for its type"),
    LintRule("N007", ERROR, "netlist failed to parse"),
    LintRule("T001", ERROR, "task node energy exceeds the per-burst budget"),
    LintRule("T002", ERROR, "worst-case commit cannot fit the backup reserve"),
    LintRule("T003", WARNING, "partition energy exceeds the per-burst budget"),
    LintRule("T004", ERROR, "task graph is empty"),
    LintRule("C001", ERROR, "thresholds are not strictly increasing"),
    LintRule("C002", ERROR, "threshold exceeds the storage capacity"),
    LintRule("C003", ERROR, "threshold is not positive"),
    LintRule("C004", WARNING, "safe-zone margin is suspiciously wide"),
)

#: Registry of every lint rule, keyed by ID (insertion-ordered).
LINT_RULES: Mapping[str, LintRule] = {rule.rule_id: rule for rule in _RULES}


def _finding(
    rule_id: str, message: str, subject: str = "", source: str = ""
) -> LintFinding:
    rule = LINT_RULES[rule_id]
    return LintFinding(
        rule_id=rule.rule_id,
        severity=rule.severity,
        message=message,
        subject=subject,
        source=source,
    )


def filter_findings(
    findings: Iterable[LintFinding],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Apply ``--select`` / ``--ignore`` prefix filters.

    Both accept full IDs (``N004``) or family prefixes (``N``); a
    finding survives when it matches some ``select`` prefix (all, when
    ``select`` is None) and no ``ignore`` prefix.
    """
    chosen = None if select is None else tuple(select)
    dropped = () if ignore is None else tuple(ignore)
    kept = []
    for finding in findings:
        if chosen is not None and not any(
            finding.rule_id.startswith(p) for p in chosen
        ):
            continue
        if any(finding.rule_id.startswith(p) for p in dropped):
            continue
        kept.append(finding)
    return kept


def classify_netlist_error(error: Exception, source: str = "") -> LintFinding:
    """Map a parse/construction exception onto a netlist rule.

    Multiply-driven nets and arity mismatches are impossible to
    represent in a constructed :class:`Netlist` — they raise while
    parsing — so the file-oriented lint path funnels them here.
    """
    text = str(error)
    if "combinational cycle" in text:
        return _finding("N001", text, source=source)
    if "reads undriven net" in text:
        return _finding("N002", text, source=source)
    if "is undriven" in text:
        return _finding("N003", text, source=source)
    if "already driven" in text:
        return _finding("N005", text, source=source)
    if "input(s), got" in text or "at least" in text:
        return _finding("N006", text, source=source)
    return _finding("N007", text, source=source)


def lint_netlist(netlist: Netlist) -> list[LintFinding]:
    """Run the ``N***`` structural rules over a constructed netlist."""
    findings: list[LintFinding] = []
    source = netlist.name
    driven = netlist.gates
    consumed: set[str] = set()
    for gate in driven.values():
        consumed.update(gate.inputs)
        for src in gate.inputs:
            if src not in driven:
                findings.append(
                    _finding(
                        "N002",
                        f"gate {gate.name!r} reads undriven net {src!r}",
                        subject=src,
                        source=source,
                    )
                )
    for out in netlist.outputs:
        if out not in driven:
            findings.append(
                _finding(
                    "N003",
                    f"primary output {out!r} is undriven",
                    subject=out,
                    source=source,
                )
            )
    # Cycle detection only makes sense once every net resolves; on a
    # netlist with floating nets validation reports those first.
    if not findings:
        try:
            netlist.validate()
        except NetlistError as error:
            findings.append(
                _finding("N001", str(error), source=source)
            )
    output_nets = set(netlist.outputs)
    for gate in driven.values():
        if not gate.is_combinational:
            continue
        if gate.name not in consumed and gate.name not in output_nets:
            findings.append(
                _finding(
                    "N004",
                    f"gate {gate.name!r} drives nothing",
                    subject=gate.name,
                    source=source,
                )
            )
    return findings


def lint_plan(
    plan: NvmPlan, thresholds: ThresholdSet | None = None
) -> list[LintFinding]:
    """Run the ``T***`` rules over an NVM insertion plan.

    Args:
        plan: output of :func:`repro.core.replacement.insert_nvm`.
        thresholds: when given, enables the backup-reserve check
            (``T002``) against ``thresholds.backup_reserve_j``.
    """
    findings: list[LintFinding] = []
    source = plan.graph.netlist.name
    if not plan.graph.nodes:
        return [_finding("T004", "task graph has no nodes", source=source)]
    for node_id in plan.infeasible:
        energy = plan.graph.nodes[node_id].feature.energy_j
        findings.append(
            _finding(
                "T001",
                f"node {node_id!r} needs {energy:.3e} J in one burst "
                f"but the budget is {plan.budget_j:.3e} J",
                subject=node_id,
                source=source,
            )
        )
    if thresholds is not None:
        commit = plan.backup_array().write_cost(plan.max_commit_bits)
        reserve = thresholds.backup_reserve_j
        if commit.energy_j > reserve * (1.0 + _BUDGET_SLACK):
            findings.append(
                _finding(
                    "T002",
                    f"worst commit ({plan.max_commit_bits} bits, "
                    f"{commit.energy_j:.3e} J) exceeds the backup "
                    f"reserve Th_Bk - Th_Off = {reserve:.3e} J",
                    source=source,
                )
            )
    limit = plan.budget_j * (1.0 + _BUDGET_SLACK)
    for index, partition in enumerate(plan.schedule()):
        if partition.energy_j > limit:
            findings.append(
                _finding(
                    "T003",
                    f"partition {index} spends {partition.energy_j:.3e} J "
                    f"against a {plan.budget_j:.3e} J budget",
                    subject=partition.node_ids[0] if partition.node_ids else "",
                    source=source,
                )
            )
    return findings


_THRESHOLD_ORDER = ("off", "backup", "safe", "sense", "compute", "transmit")


def lint_thresholds(
    values: Mapping[str, float] | ThresholdSet, source: str = ""
) -> list[LintFinding]:
    """Run the ``C***`` rules over a threshold configuration.

    Accepts either a built :class:`ThresholdSet` or a raw mapping with
    keys ``off``/``backup``/``safe``/``sense``/``compute``/``transmit``
    and ``e_max`` (joules) — raw input is the point: an inverted
    configuration can never be *constructed*, but it can be linted.
    """
    if isinstance(values, ThresholdSet):
        values = {
            "off": values.off_j,
            "backup": values.backup_j,
            "safe": values.safe_j,
            "sense": values.sense_j,
            "compute": values.compute_j,
            "transmit": values.transmit_j,
            "e_max": values.e_max_j,
        }
    findings: list[LintFinding] = []
    levels = {name: float(values.get(name, 0.0)) for name in _THRESHOLD_ORDER}
    e_max = float(values.get("e_max", 0.0))
    for name, level in {**levels, "e_max": e_max}.items():
        if level <= 0.0:
            findings.append(
                _finding(
                    "C003",
                    f"threshold {name!r} must be positive, got {level:.6g}",
                    subject=name,
                    source=source,
                )
            )
    for low, high in zip(_THRESHOLD_ORDER, _THRESHOLD_ORDER[1:]):
        if levels[low] >= levels[high]:
            findings.append(
                _finding(
                    "C001",
                    f"{low} ({levels[low]:.6g} J) must lie strictly below "
                    f"{high} ({levels[high]:.6g} J)",
                    subject=high,
                    source=source,
                )
            )
    if levels["transmit"] > e_max > 0.0:
        findings.append(
            _finding(
                "C002",
                f"transmit ({levels['transmit']:.6g} J) exceeds the "
                f"storage capacity ({e_max:.6g} J)",
                subject="transmit",
                source=source,
            )
        )
    margin = levels["safe"] - levels["backup"]
    if e_max > 0.0 and margin > 0.5 * (e_max - levels["backup"]):
        findings.append(
            _finding(
                "C004",
                f"safe-zone margin {margin:.6g} J spans more than half "
                "the headroom above Th_Bk; backups will fire almost "
                "immediately after every resume",
                subject="safe",
                source=source,
            )
        )
    return findings
