"""The Fig. 5 evaluation harness.

Glues the whole reproduction together: synthesize a circuit with DIAC,
derive the per-circuit evaluation environment (capacitor, thresholds,
harvest trace), build the four scheme profiles, run the intermittent
executor on the identical macro task, and report normalized PDP.

Environment derivation (see calibration module for the rationale):

* ``E_MAX = FULL_BACKUP_MULTIPLE x (full-state backup cost)`` — the
  backup reserve between Th_Bk and Th_Off must cover a worst-case commit
  with margin, exactly as the paper's 25 mJ system is provisioned;
* thresholds keep the paper's proportions (1.5/3/5/6/8/12 over 25);
* the macro task is ``MACRO_TASK_ENERGY_RATIO x E_MAX`` of DIAC-work,
  converted to a pass count so every scheme executes the same number of
  circuit evaluations (Section IV-C assumption (1));
* the harvest trace and the safe-zone sleep drain scale with the circuit
  so the same intermittency structure appears at every energy scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baselines.schemes import all_profiles
from repro.calibration import (
    EVAL_HARVEST_FRACTION,
    EVAL_SLEEP_DRAIN_FACTOR,
    EVAL_T_REF_FACTOR,
    FULL_BACKUP_MULTIPLE,
    MACRO_TASK_ENERGY_RATIO,
)
from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig, DiacDesign, DiacSynthesizer, full_backup_energy_j
from repro.energy.harvester import HarvestTrace
from repro.energy.scenarios import ScenarioSpec, build_scenario_trace
from repro.energy.thresholds import ThresholdSet
from repro.sim.intermittent import (
    ExecutionResult,
    IntermittentExecutor,
    SchemeProfile,
)
from repro.suite.registry import BY_NAME, load_circuit


@dataclass(frozen=True)
class Environment:
    """Per-circuit evaluation environment.

    Attributes:
        e_max_j: capacity of the evaluation capacitor.
        thresholds: scaled threshold set.
        trace: harvest trace at the circuit's scale.
        sleep_drain_w: safe-zone standby drain.
        n_passes: macro-task length in circuit evaluations.
    """

    e_max_j: float
    thresholds: ThresholdSet
    trace: HarvestTrace
    sleep_drain_w: float
    n_passes: int


def build_environment(
    design: DiacDesign, scenario: ScenarioSpec | None = None
) -> Environment:
    """Derive the evaluation environment for one synthesized design.

    The capacitor is sized against the *reference* (MRAM) backup cost of
    the design's architectural state, regardless of which NVM the design
    under test uses: the storage capacitor is a device-level provision,
    so NVM-technology ablations swap the memory inside a fixed energy
    environment (Section IV-C).

    Args:
        design: the synthesized design to size the environment for.
        scenario: which harvest environment to materialize at the
            circuit's energy scale (see :mod:`repro.energy.scenarios`);
            ``None`` keeps the paper's Fig. 5 trace.
    """
    from repro.baselines.schemes import profile_diac
    from repro.tech.nvm import MRAM

    reference = profile_diac(design)
    e_max = FULL_BACKUP_MULTIPLE * full_backup_energy_j(design.netlist, MRAM)
    thresholds = ThresholdSet.from_e_max(e_max)
    p_ref = EVAL_HARVEST_FRACTION * reference.active_power_w
    t_ref = EVAL_T_REF_FACTOR * e_max / p_ref
    trace = build_scenario_trace(scenario or ScenarioSpec(), p_ref, t_ref)
    sleep_drain = EVAL_SLEEP_DRAIN_FACTOR * e_max / t_ref
    n_passes = max(
        1,
        math.ceil(MACRO_TASK_ENERGY_RATIO * e_max / reference.pass_energy_j),
    )
    return Environment(
        e_max_j=e_max,
        thresholds=thresholds,
        trace=trace,
        sleep_drain_w=sleep_drain,
        n_passes=n_passes,
    )


@dataclass
class CircuitEvaluation:
    """All four schemes' results for one circuit.

    Attributes:
        name: circuit name.
        suite: suite name ("custom" for off-roster circuits).
        results: scheme name -> execution result.
    """

    name: str
    suite: str
    results: dict[str, ExecutionResult] = field(default_factory=dict)

    def pdp(self, scheme: str) -> float:
        """Raw PDP of one scheme."""
        return self.results[scheme].pdp_js

    def normalized_pdp(self, baseline: str = "NV-based") -> dict[str, float]:
        """PDP of every scheme normalized to ``baseline`` (Fig. 5 view)."""
        base = self.pdp(baseline)
        return {name: r.pdp_js / base for name, r in self.results.items()}

    def improvement_pct(self, scheme: str, versus: str) -> float:
        """PDP improvement of ``scheme`` over ``versus``, percent."""
        return 100.0 * (1.0 - self.pdp(scheme) / self.pdp(versus))


def execute_profile(profile: SchemeProfile, environment: Environment) -> ExecutionResult:
    """Run one scheme's macro task in ``environment``."""
    executor = IntermittentExecutor(
        profile,
        e_max_j=environment.e_max_j,
        trace=environment.trace,
        thresholds=environment.thresholds,
        sleep_drain_w=environment.sleep_drain_w,
    )
    work = environment.n_passes * profile.pass_energy_j
    return executor.run(work_target_j=work)


def evaluate_design(design: DiacDesign) -> CircuitEvaluation:
    """Run the four-scheme comparison for one synthesized design."""
    env = build_environment(design)
    info = BY_NAME.get(design.netlist.name)
    return CircuitEvaluation(
        name=design.netlist.name,
        suite=info.suite if info else "custom",
        results={
            profile.name: execute_profile(profile, env)
            for profile in all_profiles(design)
        },
    )


def evaluate_circuit(
    circuit: str | Netlist,
    config: DiacConfig | None = None,
) -> CircuitEvaluation:
    """Synthesize and evaluate one circuit (by roster name or netlist)."""
    if isinstance(circuit, str):
        netlist = load_circuit(circuit)
    else:
        netlist = circuit
    design = DiacSynthesizer(config).run(netlist)
    return evaluate_design(design)


def evaluate_suite(
    names: list[str],
    config: DiacConfig | None = None,
) -> list[CircuitEvaluation]:
    """Evaluate a list of roster circuits, one after another."""
    return [evaluate_circuit(name, config=config) for name in names]
