"""Gate-level circuit substrate: netlist IR, parsers, generators.

Feeds the paper's Fig. 5 roster (ISCAS-89 ``.bench``, ITC-99, MCNC
BLIF) into the DIAC pipeline and provides generators for synthetic
stand-ins.
"""

from collections.abc import Callable
from pathlib import Path

from repro.circuits.bench_parser import (
    BenchParseError,
    load_bench,
    parse_bench,
    write_bench,
)
from repro.circuits.blif_parser import BlifParseError, load_blif, parse_blif
from repro.circuits.data_s27 import S27_BENCH
from repro.circuits.gates import GateArityError, GateType, evaluate_gate
from repro.circuits.generators import (
    CircuitSpec,
    array_multiplier,
    balanced_tree_circuit,
    generate_circuit,
    majority_voter,
    parity_tree,
    ripple_carry_adder,
    sequential_counter,
)
from repro.circuits.levelize import levelize
from repro.circuits.netlist import Gate, Netlist, NetlistError, NetlistStructure
from repro.circuits.verilog import VerilogError, parse_verilog, write_verilog

#: Netlist file parsers by lower-case file suffix.
_PARSERS = {".bench": load_bench, ".blif": load_blif, ".mcnc": load_blif}

#: The netlist file suffixes :func:`netlist_parser` accepts, for messages.
NETLIST_SUFFIXES = "/".join(_PARSERS)


def netlist_parser(path: str | Path) -> Callable[[str | Path], Netlist] | None:
    """The parser for a netlist file, chosen by its suffix in any case.

    ``.bench`` files parse as ISCAS-89, ``.blif`` and ``.mcnc`` as BLIF;
    any other suffix gives ``None``.
    """
    return _PARSERS.get(Path(path).suffix.lower())


__all__ = [
    "BenchParseError",
    "BlifParseError",
    "CircuitSpec",
    "Gate",
    "GateArityError",
    "GateType",
    "NETLIST_SUFFIXES",
    "Netlist",
    "NetlistError",
    "NetlistStructure",
    "S27_BENCH",
    "VerilogError",
    "array_multiplier",
    "balanced_tree_circuit",
    "evaluate_gate",
    "generate_circuit",
    "levelize",
    "load_bench",
    "load_blif",
    "majority_voter",
    "netlist_parser",
    "parity_tree",
    "parse_bench",
    "parse_blif",
    "parse_verilog",
    "ripple_carry_adder",
    "sequential_counter",
    "write_bench",
    "write_verilog",
]
