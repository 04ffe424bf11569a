"""Virtual energy storage — the paper's capacitor / "virtual battery".

"We introduced a virtual energy source within our simulation framework,
designed to mimic the functionality of a battery.  This virtual energy
source is responsible for accumulating energy during power availability and
deducting energy consumption during periods of power unavailability."

The :class:`EnergyStorage` keeps a strict ledger (harvested = stored +
consumed + clipped) so property tests can verify energy conservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calibration import CAPACITANCE_F, E_MAX_J


class InsufficientEnergyError(RuntimeError):
    """Raised when a withdrawal exceeds the stored energy."""


@dataclass
class EnergyStorage:
    """A capacitor-backed energy store with a conservation ledger.

    Attributes:
        e_max_j: storage capacity, joules.
        capacitance_f: capacitance, used to report the equivalent voltage.
        energy_j: current stored energy.
    """

    e_max_j: float = E_MAX_J
    capacitance_f: float = CAPACITANCE_F
    energy_j: float = 0.0
    total_harvested_j: float = field(default=0.0, repr=False)
    total_consumed_j: float = field(default=0.0, repr=False)
    total_clipped_j: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.e_max_j <= 0:
            raise ValueError("e_max_j must be positive")
        if not 0.0 <= self.energy_j <= self.e_max_j:
            raise ValueError("initial energy outside [0, e_max]")

    @property
    def voltage_v(self) -> float:
        """Equivalent capacitor voltage: ``sqrt(2 E / C)``."""
        return (2.0 * self.energy_j / self.capacitance_f) ** 0.5

    @property
    def headroom_j(self) -> float:
        """Energy that can still be stored before clipping."""
        return self.e_max_j - self.energy_j

    @property
    def is_full(self) -> bool:
        """Whether the store is at capacity."""
        return self.energy_j >= self.e_max_j

    def deposit(self, amount_j: float) -> float:
        """Add harvested energy; returns the amount actually stored.

        Energy beyond capacity is *clipped* (the harvester cannot push more
        charge into a full capacitor) and recorded in the ledger.
        """
        if amount_j < 0:
            raise ValueError("cannot deposit negative energy")
        stored = min(amount_j, self.headroom_j)
        self.energy_j += stored
        self.total_harvested_j += amount_j
        self.total_clipped_j += amount_j - stored
        return stored

    def withdraw(self, amount_j: float) -> None:
        """Consume stored energy.

        Raises:
            InsufficientEnergyError: if the store holds less than
                ``amount_j``; the store is left unchanged.
        """
        if amount_j < 0:
            raise ValueError("cannot withdraw negative energy")
        if amount_j > self.energy_j + 1e-21:
            raise InsufficientEnergyError(
                f"requested {amount_j:.3e} J, stored {self.energy_j:.3e} J"
            )
        taken = min(amount_j, self.energy_j)
        self.energy_j -= taken
        self.total_consumed_j += taken

    def drain(self, amount_j: float) -> float:
        """Consume up to ``amount_j`` (leakage semantics); returns taken."""
        if amount_j < 0:
            raise ValueError("cannot drain negative energy")
        taken = min(amount_j, self.energy_j)
        self.energy_j -= taken
        self.total_consumed_j += taken
        return taken

    def ledger_residual_j(self) -> float:
        """Conservation check: harvested - consumed - clipped - stored.

        Always ~0 up to floating-point error; property tests assert it.
        """
        return (
            self.total_harvested_j
            - self.total_consumed_j
            - self.total_clipped_j
            - self.energy_j
        )
