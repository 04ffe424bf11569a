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


def write_verilog(netlist: Netlist, module_name: str | None = None) -> str:
    """Emit gate-level structural Verilog for ``netlist``.

    DFFs become ``always @(posedge clk)`` processes on a generated ``clk``
    port; MUX gates become continuous conditional assigns; constants become
    constant assigns.

    Returns:
        The Verilog source text.
    """
    module = module_name or re.sub(r"\W", "_", netlist.name) or "top"
    inputs = netlist.inputs
    outputs = netlist.outputs
    has_ff = netlist.num_ffs > 0
    ports = (["clk"] if has_ff else []) + inputs + outputs
    lines = [f"module {module}({', '.join(_escape(p) for p in ports)});"]
    if has_ff:
        lines.append("  input clk;")
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
                f"  always @(posedge clk) {_escape(gate.name)} <= {src};"
            )
        else:
            prim = _PRIMITIVE_OF[gate.gtype]
            args = ", ".join(_escape(n) for n in (gate.name, *gate.inputs))
            lines.append(f"  {prim} g{idx}({args});")
            idx += 1
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_MODULE_RE = re.compile(r"module\s+(\w+)\s*\((.*?)\)\s*;", re.DOTALL)
_PORT_DIR_RE = re.compile(r"^(input|output)\s+(\S+);$")
_PRIM_RE = re.compile(r"^(\w+)\s+g\d+\((.*)\);$")
_ASSIGN_CONST_RE = re.compile(r"^assign\s+(\S+)\s*=\s*1'b([01]);$")
_ASSIGN_MUX_RE = re.compile(r"^assign\s+(\S+)\s*=\s*(\S+)\s*\?\s*(\S+)\s*:\s*(\S+);$")
_ALWAYS_RE = re.compile(r"^always\s+@\(posedge clk\)\s+(\S+)\s*<=\s*(\S+);$")


def parse_verilog(text: str) -> Netlist:
    """Parse the structural Verilog subset produced by :func:`write_verilog`.

    This is intentionally *not* a general Verilog front end — it accepts
    exactly the emitter's output so the codegen round trip can be verified.

    Raises:
        VerilogError: on any construct outside the emitted subset.
    """
    header = _MODULE_RE.search(text)
    if not header:
        raise VerilogError("no module header found")
    netlist = Netlist(name=header.group(1))
    body = text[header.end():]
    outputs: list[str] = []
    for raw in body.splitlines():
        line = line_stripped = raw.strip()
        if not line or line == "endmodule" or line.startswith("//"):
            continue
        m = _PORT_DIR_RE.match(line_stripped)
        if m:
            direction, net = m.groups()
            if net == "clk":
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
            net, bit = m.groups()
            gtype = GateType.CONST1 if bit == "1" else GateType.CONST0
            netlist.add_gate(net, gtype)
            continue
        m = _ASSIGN_MUX_RE.match(line)
        if m:
            net, sel, b, a = m.groups()
            netlist.add_gate(net, GateType.MUX, [sel, a, b])
            continue
        m = _ALWAYS_RE.match(line)
        if m:
            net, src = m.groups()
            netlist.add_gate(net, GateType.DFF, [src])
            continue
        m = _PRIM_RE.match(line)
        if m:
            prim, arg_text = m.groups()
            if prim not in _TYPE_OF:
                raise VerilogError(f"unknown primitive {prim!r}")
            args = [a.strip() for a in arg_text.split(",")]
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
