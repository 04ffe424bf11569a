"""Feature dictionaries for task-tree nodes.

Paper Fig. 1, step 3: "Each node, e.g., node *i* in level *j* (n^i_j), has
one feature dictionary, which contains the number of inputs from a lower
level (fan in), the number of outputs to an upper level (fan out), the node
level itself (j), and its power consumption."

We keep the paper's four fields and add the derived quantities the rest of
the flow needs (delay, energy per evaluation, gate count).  Note on units:
the paper's worked example measures "power consumption ... per operand" in
millijoules, i.e. it is an *energy per evaluation*; we therefore expose
both the energy per evaluation (``energy_j``, used for all budget
comparisons) and the average power over the node's delay (``power_w``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FeatureDict:
    """Per-node feature dictionary (paper Fig. 1, step 3).

    Immutable, so task graphs derived from one another share the records
    of nodes that did not change.

    Attributes:
        fan_in: number of inputs arriving from lower levels.
        fan_out: number of outputs feeding upper levels.
        level: the node's level in the levelized tree.
        energy_j: energy of one evaluation of the node, joules (the paper's
            "power consumption" — its worked example is in mJ per operand).
        delay_s: critical-path delay through the node, seconds.
        n_gates: number of primitive gates inside the node.
    """

    fan_in: int = 0
    fan_out: int = 0
    level: int = 0
    energy_j: float = 0.0
    delay_s: float = 0.0
    n_gates: int = 0

    @property
    def power_w(self) -> float:
        """Average power over the node's evaluation, watts."""
        if self.delay_s <= 0.0:
            return 0.0
        return self.energy_j / self.delay_s

    @property
    def write_reduction_factor(self) -> float:
        """Criterion III weight: writes shrink by ``1/(fanin + fanout)``."""
        total = self.fan_in + self.fan_out
        return 1.0 / total if total else 1.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (the literal "Dict." of the paper)."""
        return {
            "fan_in": self.fan_in,
            "fan_out": self.fan_out,
            "level": self.level,
            "power": self.energy_j,
            "delay": self.delay_s,
            "n_gates": self.n_gates,
        }
