"""Structural Verilog emission (and re-parsing) for codegen validation.

DIAC's final step (paper Fig. 1, step 7) converts the NV-enhanced tree back
into HDL and submits it to a commercial tool for timing validation.  Our
surrogate emits a gate-level structural Verilog module; the companion parser
re-reads exactly the subset we emit so that the codegen path can be
round-trip checked without a commercial tool.
"""

from __future__ import annotations

import re

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist, NetlistError

_PRIMITIVE_OF = {
    GateType.AND: "and",
    GateType.NAND: "nand",
    GateType.OR: "or",
    GateType.NOR: "nor",
    GateType.XOR: "xor",
    GateType.XNOR: "xnor",
    GateType.NOT: "not",
    GateType.BUF: "buf",
}

_TYPE_OF = {v: k for k, v in _PRIMITIVE_OF.items()}


class VerilogError(ValueError):
    """Raised for emission or parsing failures."""


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def _escape(net: str) -> str:
    """Escape a net name into a legal Verilog identifier."""
    if _IDENT_RE.fullmatch(net):
        return net
    return "\\" + net + " "


def _clock_name(netlist: Netlist) -> str:
    """The generated clock port: ``clk``, or the first free ``clk_N``."""
    name, n = "clk", 0
    while name in netlist.gates:
        n += 1
        name = f"clk_{n}"
    return name


def write_verilog(netlist: Netlist, module_name: str | None = None) -> str:
    """Emit gate-level structural Verilog for ``netlist``.

    DFFs become ``always @(posedge clk)`` processes on a generated clock
    port, named ``clk`` unless a net already is (then ``clk_1``,
    ``clk_2``, ...); MUX gates become continuous conditional assigns;
    constants become constant assigns.

    Returns:
        The Verilog source text.
    """
    module = module_name or re.sub(r"\W", "_", netlist.name) or "top"
    inputs = netlist.inputs
    outputs = netlist.outputs
    clock = _clock_name(netlist) if netlist.num_ffs > 0 else None
    ports = ([clock] if clock else []) + inputs + outputs
    lines = [f"module {module}({', '.join(_escape(p) for p in ports)});"]
    if clock:
        lines.append(f"  input {clock};")
    for net in inputs:
        lines.append(f"  input {_escape(net)};")
    for net in outputs:
        lines.append(f"  output {_escape(net)};")
    wires = [
        g.name
        for g in netlist.gates.values()
        if g.gtype is not GateType.INPUT and g.name not in outputs
    ]
    for net in wires:
        kind = "reg" if netlist.gates[net].is_sequential else "wire"
        lines.append(f"  {kind} {_escape(net)};")
    idx = 0
    for gate in netlist.gates.values():
        if gate.gtype is GateType.INPUT:
            continue
        if gate.gtype is GateType.CONST0:
            lines.append(f"  assign {_escape(gate.name)} = 1'b0;")
        elif gate.gtype is GateType.CONST1:
            lines.append(f"  assign {_escape(gate.name)} = 1'b1;")
        elif gate.gtype is GateType.MUX:
            s, a, b = (_escape(n) for n in gate.inputs)
            lines.append(
                f"  assign {_escape(gate.name)} = {s} ? {b} : {a};"
            )
        elif gate.is_sequential:
            src = _escape(gate.inputs[0])
            lines.append(
                f"  always @(posedge {clock}) {_escape(gate.name)} <= {src};"
            )
        else:
            prim = _PRIMITIVE_OF[gate.gtype]
            args = ", ".join(_escape(n) for n in (gate.name, *gate.inputs))
            lines.append(f"  {prim} g{idx}({args});")
            idx += 1
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


#: One net: an escaped identifier (a backslash, then everything up to the
#: next whitespace, as :func:`_escape` writes it) or a plain one.
_NET = r"(\\\S+\s|[A-Za-z_][A-Za-z0-9_$]*)"
_NETS = rf"{_NET}(?:\s*,\s*{_NET})*"
_NET_RE = re.compile(_NET)
_MODULE_RE = re.compile(rf"module\s+(\w+)\s*\(\s*(?:{_NETS})?\s*\)\s*;")
_PORT_DIR_RE = re.compile(rf"^(input|output)\s+{_NET}\s*;$")
_PRIM_RE = re.compile(rf"^(\w+)\s+g\d+\(\s*({_NETS})\s*\);$")
_ASSIGN_CONST_RE = re.compile(rf"^assign\s+{_NET}\s*=\s*1'b([01]);$")
_ASSIGN_MUX_RE = re.compile(
    rf"^assign\s+{_NET}\s*=\s*{_NET}\s*\?\s*{_NET}\s*:\s*{_NET}\s*;$"
)
_ALWAYS_RE = re.compile(
    rf"^always\s+@\(posedge\s+{_NET}\s*\)\s+{_NET}\s*<=\s*{_NET}\s*;$"
)


def _unescape(token: str) -> str:
    """The net name a :data:`_NET` token spells."""
    return token[1:-1] if token.startswith("\\") else token


def parse_verilog(text: str) -> Netlist:
    """Parse the structural Verilog subset produced by :func:`write_verilog`.

    This is intentionally *not* a general Verilog front end — it accepts
    exactly the emitter's output, escaped identifiers included, so the
    codegen round trip can be verified.

    Raises:
        VerilogError: on any construct outside the emitted subset.
    """
    header = _MODULE_RE.search(text)
    if not header:
        raise VerilogError("no module header found")
    netlist = Netlist(name=header.group(1))
    body = text[header.end():]
    lines = [raw.strip() for raw in body.splitlines()]
    # Clock ports drive only the ``always`` edges, never a gate.
    clocks = {
        _unescape(m.group(1)) for m in map(_ALWAYS_RE.match, lines) if m
    }
    outputs: list[str] = []
    for line in lines:
        if not line or line == "endmodule" or line.startswith("//"):
            continue
        m = _PORT_DIR_RE.match(line)
        if m:
            direction, net = m.group(1), _unescape(m.group(2))
            if net in clocks:
                continue
            if direction == "input":
                netlist.add_input(net)
            else:
                outputs.append(net)
            continue
        if line.startswith(("wire ", "reg ")):
            continue
        m = _ASSIGN_CONST_RE.match(line)
        if m:
            net, bit = _unescape(m.group(1)), m.group(2)
            gtype = GateType.CONST1 if bit == "1" else GateType.CONST0
            netlist.add_gate(net, gtype)
            continue
        m = _ASSIGN_MUX_RE.match(line)
        if m:
            net, sel, b, a = map(_unescape, m.groups())
            netlist.add_gate(net, GateType.MUX, [sel, a, b])
            continue
        m = _ALWAYS_RE.match(line)
        if m:
            _clock, net, src = map(_unescape, m.groups())
            netlist.add_gate(net, GateType.DFF, [src])
            continue
        m = _PRIM_RE.match(line)
        if m:
            prim, arg_text = m.group(1), m.group(2)
            if prim not in _TYPE_OF:
                raise VerilogError(f"unknown primitive {prim!r}")
            args = [_unescape(a) for a in _NET_RE.findall(arg_text)]
            netlist.add_gate(args[0], _TYPE_OF[prim], args[1:])
            continue
        raise VerilogError(f"unsupported construct: {line!r}")
    for net in outputs:
        netlist.add_output(net)
    try:
        netlist.validate()
    except NetlistError as exc:
        raise VerilogError(str(exc)) from exc
    return netlist
