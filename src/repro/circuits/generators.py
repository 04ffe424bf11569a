"""Deterministic circuit generators.

The paper evaluates DIAC on ISCAS-89, ITC-99 and MCNC circuits.  Those
netlists cannot be redistributed here, so this module synthesizes circuits
that match a *specification* — combinational gate count, flip-flop
fraction, structural style — deterministically from the circuit name.  The
real ``.bench``/BLIF parsers accept genuine distributions whenever they are
available; the generators guarantee the reproduction runs out of the box.

Structural styles:

* ``logic`` — a levelized random DAG (ISCAS-89 "Logic" class),
* ``pld`` — wide, shallow two-level AND-OR structure (MCNC PLA class),
* ``datapath`` — deep, narrow carry-chain-like structure (multipliers),
* ``fsm`` — flip-flop-rich next-state/output logic (ITC-99 controllers).

In addition, a handful of *exact* parametric circuits (adder, array
multiplier, parity tree, majority voter) are provided for tests and
examples where a known function matters.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.circuits.gates import GateType
from repro.circuits.netlist import Gate, Netlist

#: Gate-type weights per structural style, applied when drawing each gate.
_STYLE_WEIGHTS: dict[str, list[tuple[GateType, float]]] = {
    "logic": [
        (GateType.NAND, 0.28),
        (GateType.NOR, 0.18),
        (GateType.AND, 0.16),
        (GateType.OR, 0.14),
        (GateType.NOT, 0.12),
        (GateType.XOR, 0.07),
        (GateType.BUF, 0.05),
    ],
    "pld": [
        (GateType.AND, 0.45),
        (GateType.OR, 0.25),
        (GateType.NOT, 0.20),
        (GateType.NAND, 0.10),
    ],
    "datapath": [
        (GateType.XOR, 0.30),
        (GateType.AND, 0.25),
        (GateType.OR, 0.15),
        (GateType.NAND, 0.15),
        (GateType.XNOR, 0.10),
        (GateType.NOT, 0.05),
    ],
    "fsm": [
        (GateType.NAND, 0.25),
        (GateType.NOR, 0.22),
        (GateType.NOT, 0.18),
        (GateType.AND, 0.18),
        (GateType.OR, 0.17),
    ],
}


@dataclass(frozen=True)
class CircuitSpec:
    """Specification for a generated circuit.

    Attributes:
        name: circuit name; also seeds the generator, so equal specs always
            produce identical netlists.
        n_gates: exact number of combinational gates to generate.
        ff_fraction: flip-flop count as a fraction of ``n_gates``.
        style: one of ``logic``, ``pld``, ``datapath``, ``fsm``.
        n_inputs: primary input count (defaults scale with size).
        n_outputs: primary output count (defaults scale with size).
    """

    name: str
    n_gates: int
    ff_fraction: float = 0.15
    style: str = "logic"
    n_inputs: int | None = None
    n_outputs: int | None = None

    def __post_init__(self) -> None:
        if self.n_gates < 1:
            raise ValueError("n_gates must be >= 1")
        if not 0.0 <= self.ff_fraction < 1.0:
            raise ValueError("ff_fraction must be in [0, 1)")
        if self.style not in _STYLE_WEIGHTS:
            raise ValueError(f"unknown style {self.style!r}")


def _stable_seed(name: str) -> int:
    """Derive a deterministic seed from a circuit name."""
    return zlib.crc32(name.encode("utf-8"))


def generate_circuit(spec: CircuitSpec) -> Netlist:
    """Generate a circuit matching ``spec``; deterministic in ``spec.name``.

    The netlist is built in one pass and validated once.  Each gate draws
    its type from the style's weights (one ``random()`` roll against the
    cumulative weights), then an arity, then its inputs, each a net
    picked with a power-law bias toward the end of the pool of nets
    built so far: ``bias`` in (0, 1], smaller values reach further back
    (deeper reconvergence), values near 1 give shallow, chain-like
    structure.

    The result always validates: every net driven once, no combinational
    cycles, exact combinational gate count ``spec.n_gates``.
    """
    rng = random.Random(_stable_seed(spec.name))
    roll = rng.random
    n_gates = spec.n_gates
    n_ffs = int(round(n_gates * spec.ff_fraction))
    n_inputs = spec.n_inputs
    if n_inputs is None:
        n_inputs = max(2, min(64, int(round(n_gates ** 0.5))))
    n_outputs = spec.n_outputs
    if n_outputs is None:
        n_outputs = max(1, min(32, int(round(n_gates ** 0.4))))

    gates: dict[str, Gate] = {}
    pool: list[str] = []
    for i in range(n_inputs):
        name = f"pi{i}"
        gates[name] = Gate(name, GateType.INPUT)
        pool.append(name)
    # Flip-flop outputs are combinational sources; their data inputs are
    # connected after the logic exists (feedback is legal through a DFF).
    ff_names = [f"ff{i}" for i in range(n_ffs)]
    pool.extend(ff_names)

    weights = _STYLE_WEIGHTS[spec.style]
    bias = {"logic": 0.6, "pld": 0.3, "datapath": 0.9, "fsm": 0.5}[spec.style]
    exponent = 1.0 / (1.0 + 3.0 * bias)
    max_arity = {"logic": 4, "pld": 6, "datapath": 3, "fsm": 4}[spec.style]
    unary = (GateType.NOT, GateType.BUF)
    consumed: set[str] = set()
    gate_names: list[str] = []
    for i in range(n_gates):
        draw = roll()
        cumulative = 0.0
        gtype = weights[-1][0]
        for candidate_type, weight in weights:
            cumulative += weight
            if draw < cumulative:
                gtype = candidate_type
                break
        if gtype in unary:
            arity = 1
        else:
            arity = rng.randint(2, max_arity)
        n = len(pool)
        arity = min(arity, n)
        if arity < 2 and gtype not in unary:
            gtype = GateType.NOT
            arity = 1
        chosen: list[str] = []
        attempts, limit = 0, 20 * arity
        while len(chosen) < arity and attempts < limit:
            pick = int(roll() ** exponent * n)
            candidate = pool[pick if pick < n else n - 1]
            attempts += 1
            if candidate not in chosen:
                chosen.append(candidate)
        while len(chosen) < arity:  # tiny pools: allow duplicates' fallback
            chosen.append(rng.choice(pool))
        name = f"n{i}"
        gates[name] = Gate(name, gtype, tuple(chosen))
        consumed.update(chosen)
        pool.append(name)
        gate_names.append(name)

    # Connect flip-flop data inputs to late logic nets (next-state logic).
    candidates = gate_names if gate_names else pool
    for ff in ff_names:
        src = candidates[rng.randrange(max(1, len(candidates) // 2), len(candidates))] \
            if len(candidates) > 1 else candidates[0]
        gates[ff] = Gate(ff, GateType.DFF, (src,))
        consumed.add(src)

    # Primary outputs: prefer nets nobody consumes, then late nets.
    outputs: list[str] = []
    for net in gate_names:
        if len(outputs) >= n_outputs:
            break
        if net not in consumed:
            outputs.append(net)
    for net in reversed(gate_names or pool):
        if len(outputs) >= n_outputs:
            break
        if net not in outputs:
            outputs.append(net)
    netlist = Netlist(name=spec.name, gates=gates, outputs=outputs)
    netlist.validate()
    return netlist


# ---------------------------------------------------------------------------
# Exact parametric circuits.
# ---------------------------------------------------------------------------


def balanced_tree_circuit(
    n_inputs: int = 8, op: GateType = GateType.AND, name: str = "tree8"
) -> Netlist:
    """Balanced binary reduction tree — the paper's Fig. 2 running example.

    ``n_inputs`` leaves reduce pairwise to a single output through
    ``n_inputs - 1`` two-input gates (8 inputs -> F1..F7 in the figure's
    original labelling).

    Raises:
        ValueError: if ``n_inputs`` is not a power of two >= 2.
    """
    if n_inputs < 2 or n_inputs & (n_inputs - 1):
        raise ValueError("n_inputs must be a power of two >= 2")
    netlist = Netlist(name=name)
    frontier = []
    for i in range(n_inputs):
        netlist.add_input(f"x{i}")
        frontier.append(f"x{i}")
    counter = 1
    while len(frontier) > 1:
        next_frontier = []
        for a, b in zip(frontier[0::2], frontier[1::2]):
            node = f"f{counter}"
            counter += 1
            netlist.add_gate(node, op, [a, b])
            next_frontier.append(node)
        frontier = next_frontier
    netlist.add_output(frontier[0])
    netlist.validate()
    return netlist


def ripple_carry_adder(width: int, name: str | None = None) -> Netlist:
    """``width``-bit ripple-carry adder (full adders from XOR/AND/OR)."""
    if width < 1:
        raise ValueError("width must be >= 1")
    netlist = Netlist(name=name or f"rca{width}")
    for i in range(width):
        netlist.add_input(f"a{i}")
        netlist.add_input(f"b{i}")
    carry = None
    for i in range(width):
        a, b = f"a{i}", f"b{i}"
        netlist.add_gate(f"p{i}", GateType.XOR, [a, b])
        netlist.add_gate(f"g{i}", GateType.AND, [a, b])
        if carry is None:
            netlist.add_gate(f"s{i}", GateType.BUF, [f"p{i}"])
            carry = f"g{i}"
        else:
            netlist.add_gate(f"s{i}", GateType.XOR, [f"p{i}", carry])
            netlist.add_gate(f"pc{i}", GateType.AND, [f"p{i}", carry])
            netlist.add_gate(f"c{i}", GateType.OR, [f"g{i}", f"pc{i}"])
            carry = f"c{i}"
        netlist.add_output(f"s{i}")
    netlist.add_output(carry)
    netlist.validate()
    return netlist


def array_multiplier(width: int, name: str | None = None) -> Netlist:
    """``width`` x ``width`` unsigned array multiplier.

    Matches the "4-bit Multiplier" function class in the paper's roster and
    gives the logic simulator a numerically checkable workload.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    netlist = Netlist(name=name or f"mul{width}")
    for i in range(width):
        netlist.add_input(f"a{i}")
        netlist.add_input(f"b{i}")
    # Partial products.
    for i in range(width):
        for j in range(width):
            netlist.add_gate(f"pp{i}_{j}", GateType.AND, [f"a{i}", f"b{j}"])
    # Column-wise carry-save reduction with full/half adders.
    columns: dict[int, list[str]] = {}
    for i in range(width):
        for j in range(width):
            columns.setdefault(i + j, []).append(f"pp{i}_{j}")
    uid = 0

    def half_adder(x: str, y: str) -> tuple[str, str]:
        nonlocal uid
        s, c = f"has{uid}", f"hac{uid}"
        uid += 1
        netlist.add_gate(s, GateType.XOR, [x, y])
        netlist.add_gate(c, GateType.AND, [x, y])
        return s, c

    def full_adder(x: str, y: str, z: str) -> tuple[str, str]:
        nonlocal uid
        t, s = f"fat{uid}", f"fas{uid}"
        c1, c2, c = f"fac1_{uid}", f"fac2_{uid}", f"fac{uid}"
        uid += 1
        netlist.add_gate(t, GateType.XOR, [x, y])
        netlist.add_gate(s, GateType.XOR, [t, z])
        netlist.add_gate(c1, GateType.AND, [x, y])
        netlist.add_gate(c2, GateType.AND, [t, z])
        netlist.add_gate(c, GateType.OR, [c1, c2])
        return s, c

    max_col = 2 * width - 1
    for col in range(max_col):
        bits = columns.get(col, [])
        while len(bits) > 1:
            if len(bits) == 2:
                s, c = half_adder(bits.pop(), bits.pop())
            else:
                s, c = full_adder(bits.pop(), bits.pop(), bits.pop())
            bits.append(s)
            columns.setdefault(col + 1, []).append(c)
        if bits:
            netlist.add_gate(f"prod{col}", GateType.BUF, [bits[0]])
        else:
            netlist.add_gate(f"prod{col}", GateType.CONST0)
        netlist.add_output(f"prod{col}")
    # Final carry-out column.
    top_bits = columns.get(max_col, [])
    while len(top_bits) > 1:
        if len(top_bits) == 2:
            s, c = half_adder(top_bits.pop(), top_bits.pop())
        else:
            s, c = full_adder(top_bits.pop(), top_bits.pop(), top_bits.pop())
        top_bits.append(s)  # carries beyond 2w-1 cannot occur for n*n mul
    if top_bits:
        netlist.add_gate(f"prod{max_col}", GateType.BUF, [top_bits[0]])
    else:
        netlist.add_gate(f"prod{max_col}", GateType.CONST0)
    netlist.add_output(f"prod{max_col}")
    netlist.validate()
    return netlist


def parity_tree(width: int, name: str | None = None) -> Netlist:
    """XOR parity reduction over ``width`` inputs."""
    if width < 2:
        raise ValueError("width must be >= 2")
    netlist = Netlist(name=name or f"parity{width}")
    frontier = []
    for i in range(width):
        netlist.add_input(f"x{i}")
        frontier.append(f"x{i}")
    uid = 0
    while len(frontier) > 1:
        a = frontier.pop(0)
        b = frontier.pop(0)
        node = f"px{uid}"
        uid += 1
        netlist.add_gate(node, GateType.XOR, [a, b])
        frontier.append(node)
    netlist.add_output(frontier[0])
    netlist.validate()
    return netlist


def majority_voter(n_voters: int = 3, name: str | None = None) -> Netlist:
    """Majority-of-``n`` voter (the ITC-99 "Voting System" function class).

    Built as OR over all ceil(n/2 + ...) majority minterms of AND terms;
    practical for the small ``n`` used in tests and examples.
    """
    if n_voters < 3 or n_voters % 2 == 0:
        raise ValueError("n_voters must be odd and >= 3")
    from itertools import combinations

    netlist = Netlist(name=name or f"maj{n_voters}")
    for i in range(n_voters):
        netlist.add_input(f"v{i}")
    need = n_voters // 2 + 1
    terms = []
    for idx, combo in enumerate(combinations(range(n_voters), need)):
        term = f"t{idx}"
        netlist.add_gate(term, GateType.AND, [f"v{i}" for i in combo])
        terms.append(term)
    netlist.add_gate("majority", GateType.OR, terms)
    netlist.add_output("majority")
    netlist.validate()
    return netlist


def sequential_counter(width: int, name: str | None = None) -> Netlist:
    """``width``-bit synchronous binary counter (FF-heavy FSM workload)."""
    if width < 1:
        raise ValueError("width must be >= 1")
    netlist = Netlist(name=name or f"cnt{width}")
    netlist.add_input("en")
    for i in range(width):
        netlist.add_gate(f"q{i}", GateType.DFF, [f"d{i}"])
    carry = "en"
    for i in range(width):
        netlist.add_gate(f"d{i}", GateType.XOR, [f"q{i}", carry])
        if i < width - 1:
            netlist.add_gate(f"cy{i}", GateType.AND, [f"q{i}", carry])
            carry = f"cy{i}"
        netlist.add_output(f"q{i}")
    netlist.validate()
    return netlist
