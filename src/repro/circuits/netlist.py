"""Gate-level netlist container.

This is the substrate the paper's tree-based representation (Section
III-A) is built over: :func:`repro.core.tree_generator.build_task_graph`
partitions a netlist's gates into the task tree DIAC manipulates.

A :class:`Netlist` is a named collection of :class:`Gate` objects using the
ISCAS-89 convention that every gate drives a single net named after the
gate.  Primary inputs are gates of type ``INPUT``; primary outputs are a
list of net names.  Sequential circuits use ``DFF`` gates, whose outputs act
as sources and whose inputs act as sinks for combinational analysis.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

from repro.circuits.gates import (
    SEQUENTIAL_TYPES,
    SOURCE_TYPES,
    GateType,
    check_arity,
)

#: :data:`SOURCE_TYPES` and :data:`SEQUENTIAL_TYPES` as tuples: ``in`` on a
#: short tuple compares enum members by identity, with no hashing.
_SEQUENTIAL_TYPES = tuple(SEQUENTIAL_TYPES)
_SOURCE_TYPES = tuple(SOURCE_TYPES)

#: The derived views :class:`Netlist` caches in its ``__dict__``.
_CACHE_SLOTS = ("_structure", "_ff_cache")

_T = TypeVar("_T")


class NetlistError(ValueError):
    """Raised for structurally invalid netlists."""


@dataclass(frozen=True, slots=True)
class Gate:
    """A single cell instance.

    Attributes:
        name: net driven by this gate (unique within the netlist).
        gtype: primitive type of the cell.
        inputs: names of the nets feeding this gate, in order.
        is_sequential: whether this cell holds state (a flip-flop).
        is_source: whether this cell has no fan-in (primary input or
            constant).
        is_combinational: whether this cell computes a boolean function
            within a cycle.
    """

    name: str
    gtype: GateType
    inputs: tuple[str, ...] = ()
    is_sequential: bool = field(init=False, repr=False, compare=False)
    is_source: bool = field(init=False, repr=False, compare=False)
    is_combinational: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_arity(self.gtype, len(self.inputs))
        # Set once with short-tuple tests (identity comparisons, no enum
        # hashing): hot walks read these millions of times per roster
        # run, and a ``cached_property`` first access takes a lock.
        sequential = self.gtype in _SEQUENTIAL_TYPES
        source = self.gtype in _SOURCE_TYPES
        object.__setattr__(self, "is_sequential", sequential)
        object.__setattr__(self, "is_source", source)
        object.__setattr__(self, "is_combinational", not (sequential or source))


@dataclass(frozen=True, slots=True)
class NetlistStructure:
    """A valid netlist's connectivity on integer gate indices.

    Gate ``i`` is the ``i``-th gate in insertion order.  Built once per
    netlist by :meth:`Netlist.validate` and shared by every reader, so
    it must be treated as read-only.

    Attributes:
        names: gate (net) names, in insertion order.
        index: net name -> gate index.
        fanin: each gate's input indices, in pin order (a net read on
            two pins appears twice).
        fanout: each gate's consumer indices, flip-flops included, in
            gate order (once per pin read).
        topo: gate indices in evaluation order.  Sources and flip-flops
            start ready, ready gates are taken last-in first-out, and only
            combinational consumers wait for their inputs; so each
            flip-flop comes before the gates reading it (on ``s27`` the
            order starts ``DFF, DFF, DFF, INPUT``).
    """

    names: tuple[str, ...]
    index: dict[str, int]
    fanin: tuple[tuple[int, ...], ...]
    fanout: tuple[tuple[int, ...], ...]
    topo: tuple[int, ...]


@dataclass
class Netlist:
    """A gate-level circuit.

    Attributes:
        name: circuit name (e.g. ``"s27"``).
        gates: mapping from net name to the gate driving it.
        outputs: primary-output net names, in declaration order.
    """

    name: str
    gates: dict[str, Gate] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    # -- construction -------------------------------------------------------

    def add_gate(self, name: str, gtype: GateType, inputs: Iterable[str] = ()) -> Gate:
        """Add a gate driving net ``name``; returns the created gate.

        Raises:
            NetlistError: if a gate already drives ``name``.
        """
        if name in self.gates:
            raise NetlistError(f"net {name!r} already driven in {self.name!r}")
        gate = Gate(name=name, gtype=gtype, inputs=tuple(inputs))
        self.gates[name] = gate
        return gate

    def add_input(self, name: str) -> Gate:
        """Declare a primary input net."""
        return self.add_gate(name, GateType.INPUT)

    def add_output(self, name: str) -> None:
        """Declare a primary output net (may be declared before its driver)."""
        if name in self.outputs:
            raise NetlistError(f"output {name!r} declared twice in {self.name!r}")
        self.outputs.append(name)

    # -- views --------------------------------------------------------------

    @property
    def inputs(self) -> list[str]:
        """Primary-input net names, in insertion order."""
        return [g.name for g in self.gates.values() if g.gtype is GateType.INPUT]

    @property
    def flip_flops(self) -> list[Gate]:
        """All sequential cells, in insertion order (a fresh list)."""
        return list(self._cached("_ff_cache", self._build_flip_flops))

    def _build_flip_flops(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates.values() if g.is_sequential)

    @property
    def logic_gates(self) -> list[Gate]:
        """All combinational cells, in insertion order."""
        return [g for g in self.gates.values() if g.is_combinational]

    @property
    def num_gates(self) -> int:
        """Number of combinational gates (the paper's '# Gates' metric)."""
        return len(self.logic_gates)

    @property
    def num_ffs(self) -> int:
        """Number of flip-flops."""
        return len(self._cached("_ff_cache", self._build_flip_flops))

    def __len__(self) -> int:
        return len(self.gates)

    def __getstate__(self) -> dict[str, object]:
        """Pickle without the derived caches.

        No cache is worth shipping to sweep worker processes: each side
        rebuilds on first use.
        """
        state = self.__dict__.copy()
        for slot in _CACHE_SLOTS:
            state.pop(slot, None)
        return state

    def _cached(
        self, slot: str, build: Callable[[], _T], watch_outputs: bool = False
    ) -> _T:
        """``build()``, cached in ``slot`` while the netlist is unchanged.

        Invalidation is growth-aware: replacing the ``gates`` mapping or
        changing its length (``add_gate``) rebuilds the value, and so
        does the same for the ``outputs`` list (``add_output``) when
        ``watch_outputs`` is set.  Nothing in the repo mutates an
        existing entry in place — transforms build fresh netlists.  A
        ``build`` that raises caches nothing.
        """
        gates = self.gates
        outputs = self.outputs if watch_outputs else None
        n_outputs = len(self.outputs) if watch_outputs else 0
        cached = self.__dict__.get(slot)
        if (
            cached is not None
            and cached[0] is gates
            and cached[1] == len(gates)
            and cached[2] is outputs
            and cached[3] == n_outputs
        ):
            return cached[4]
        value = build()
        self.__dict__[slot] = (gates, len(gates), outputs, n_outputs, value)
        return value

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())

    def __contains__(self, net: str) -> bool:
        return net in self.gates

    def driver(self, net: str) -> Gate:
        """Return the gate driving ``net``.

        Raises:
            NetlistError: if no gate drives ``net``.
        """
        try:
            return self.gates[net]
        except KeyError as exc:
            raise NetlistError(f"net {net!r} has no driver in {self.name!r}") from exc

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity.

        Ensures every referenced net has a driver, every output is driven,
        and the combinational core is acyclic (cycles must pass through a
        DFF), reporting the first violation in that order.  A passing
        check builds the :class:`NetlistStructure` and caches it until the
        netlist changes (see :meth:`_cached`), so validating an unchanged
        netlist again is free.

        Raises:
            NetlistError: on the first violation found.
        """
        self.structure()

    def structure(self) -> NetlistStructure:
        """The validated netlist's :class:`NetlistStructure` (cached).

        Raises:
            NetlistError: as :meth:`validate` does.
        """
        return self._cached("_structure", self._build_structure, watch_outputs=True)

    def _build_structure(self) -> NetlistStructure:
        gates = self.gates
        names = tuple(gates)
        index = dict(zip(names, range(len(names))))
        lookup = index.__getitem__
        try:
            fanin = tuple([tuple(map(lookup, g.inputs)) for g in gates.values()])
        except KeyError:
            gate, src = next(
                (g, src) for g in gates.values() for src in g.inputs if src not in index
            )
            raise NetlistError(
                f"gate {gate.name!r} reads undriven net {src!r}"
            ) from None
        for out in self.outputs:
            if out not in index:
                raise NetlistError(f"primary output {out!r} is undriven")
        # Growing one tuple per net, not lists converted at the end,
        # leaves the collector one live container per gate.  It copies
        # O(k^2) for a net with k consumers; roster nets have at most 16.
        consumers: list[tuple[int, ...]] = [()] * len(names)
        for i, ins in enumerate(fanin):
            for src in ins:
                consumers[src] += (i,)
        fanout = tuple(consumers)
        # Sources and flip-flops start ready at in-degree 0.  Their count
        # goes negative as their inputs are taken, never back to 0, so
        # only combinational consumers are released.
        indegree = [
            len(ins) if g.is_combinational else 0
            for g, ins in zip(gates.values(), fanin)
        ]
        ready = [i for i, degree in enumerate(indegree) if not degree]
        order: list[int] = []
        take, release, emit = ready.pop, ready.append, order.append
        while ready:
            i = take()
            emit(i)
            for consumer in fanout[i]:
                indegree[consumer] -= 1
                if not indegree[consumer]:
                    release(consumer)
        if len(order) != len(names):
            stuck = sorted(names[i] for i, degree in enumerate(indegree) if degree > 0)
            raise NetlistError(
                f"combinational cycle in {self.name!r} involving {stuck[:8]}"
            )
        return NetlistStructure(names, index, fanin, fanout, tuple(order))

    def topological_order(self) -> list[Gate]:
        """Every gate once, in the evaluation order of :attr:`NetlistStructure.topo`.

        Sources (primary inputs, constants, and DFF outputs) are ready
        from the start; DFF *inputs* are treated as sinks so sequential
        loops are legal.  Callers get their own list.

        Raises:
            NetlistError: if the netlist is invalid (see :meth:`validate`),
                a purely combinational cycle included.
        """
        gates = tuple(self.gates.values())
        return [gates[i] for i in self.structure().topo]

    # -- transforms ---------------------------------------------------------

    def copy(self, name: str | None = None) -> "Netlist":
        """Deep-enough copy (gates are immutable) under an optional new name."""
        clone = Netlist(name=name or self.name)
        clone.gates = dict(self.gates)
        clone.outputs = list(self.outputs)
        return clone

    def renamed(self, mapping: Mapping[str, str], name: str | None = None) -> "Netlist":
        """Return a copy with nets renamed through ``mapping``.

        Nets absent from ``mapping`` keep their names.
        """
        def ren(net: str) -> str:
            return mapping.get(net, net)

        clone = Netlist(name=name or self.name)
        for gate in self.gates.values():
            clone.add_gate(ren(gate.name), gate.gtype, [ren(i) for i in gate.inputs])
        clone.outputs = [ren(o) for o in self.outputs]
        return clone

    def stats(self) -> dict[str, int]:
        """Summary counts used throughout the reproduction."""
        per_type: dict[str, int] = {}
        for gate in self.gates.values():
            per_type[gate.gtype.value] = per_type.get(gate.gtype.value, 0) + 1
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.num_gates,
            "ffs": self.num_ffs,
            **{f"n_{k.lower()}": v for k, v in sorted(per_type.items())},
        }
