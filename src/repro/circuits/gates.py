"""Gate primitives for the gate-level netlist intermediate representation.

The netlist IR mirrors the ISCAS-89 ``.bench`` view of a circuit: every gate
drives exactly one net, and that net carries the gate's name.  The gate
types below cover the vocabulary of the ISCAS-89/ITC-99/MCNC suites of the
paper's Fig. 5 roster plus the cells the 45 nm synthesis surrogate
(Section IV-A's HSPICE characterization stand-in) characterizes.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence


class GateType(enum.Enum):
    """Primitive cell types understood by the netlist IR."""

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    MUX = "MUX"  # inputs: (select, a, b) -> b if select else a
    DFF = "DFF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    #: Members are singletons, so dicts and sets keyed on gate types
    #: (arity checks, cell characterization) hash them by identity in C
    #: instead of through ``Enum.__hash__``'s Python-level name hash.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Gate types that hold state across clock edges.
SEQUENTIAL_TYPES = frozenset({GateType.DFF})

#: Gate types with no logic function (sources).
SOURCE_TYPES = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})

#: Combinational gate types (everything that computes within a cycle).
COMBINATIONAL_TYPES = frozenset(
    t for t in GateType if t not in SEQUENTIAL_TYPES and t not in SOURCE_TYPES
)

#: Gate types whose fan-in count is fixed by definition.
_FIXED_ARITY = {
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.MUX: 3,
    GateType.DFF: 1,
    GateType.INPUT: 0,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
}

_N_ARY = frozenset(
    {
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    }
)


class GateArityError(ValueError):
    """Raised when a gate is built with an impossible number of inputs."""


def check_arity(gtype: GateType, n_inputs: int) -> None:
    """Validate that ``gtype`` may legally have ``n_inputs`` fan-ins.

    Raises:
        GateArityError: if the fan-in count is invalid for the type.
    """
    fixed = _FIXED_ARITY.get(gtype)
    if fixed is not None:
        if n_inputs != fixed:
            raise GateArityError(
                f"{gtype.value} requires exactly {fixed} input(s), got {n_inputs}"
            )
        return
    if gtype in _N_ARY and n_inputs < 1:
        raise GateArityError(f"{gtype.value} requires at least 1 input, got {n_inputs}")


def evaluate_gate(gtype: GateType, inputs: Sequence[int]) -> int:
    """Evaluate the boolean function of a combinational gate.

    Args:
        gtype: the gate type; must be combinational or a constant.
        inputs: input bit values (each 0 or 1) in declaration order.

    Returns:
        The output bit (0 or 1).

    Raises:
        ValueError: for sequential or input gate types, which have no
            combinational function.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype is GateType.AND:
        return int(all(inputs))
    if gtype is GateType.NAND:
        return int(not all(inputs))
    if gtype is GateType.OR:
        return int(any(inputs))
    if gtype is GateType.NOR:
        return int(not any(inputs))
    if gtype is GateType.XOR:
        return sum(inputs) & 1
    if gtype is GateType.XNOR:
        return (sum(inputs) & 1) ^ 1
    if gtype is GateType.NOT:
        return inputs[0] ^ 1
    if gtype is GateType.BUF:
        return inputs[0]
    if gtype is GateType.MUX:
        select, a, b = inputs
        return b if select else a
    raise ValueError(f"{gtype.value} has no combinational function")


def gate_type_from_name(name: str) -> GateType:
    """Map a textual gate-type name (any case) to a :class:`GateType`.

    Accepts the aliases found in common ``.bench`` dialects (``INV`` for
    ``NOT``, ``BUFF`` for ``BUF``).
    """
    token = name.strip().upper()
    aliases = {"INV": "NOT", "BUFF": "BUF", "BUFFER": "BUF", "DFFSR": "DFF"}
    token = aliases.get(token, token)
    try:
        return GateType(token)
    except ValueError as exc:
        raise ValueError(f"unknown gate type {name!r}") from exc
