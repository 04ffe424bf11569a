"""The repository benchmark's contract with the package.

``perfbench/`` drives the package from outside: it imports names from
``repro`` and, with ``--trace 1``, patches the entry point of every
layer it attributes time to.  A refactor that renames or moves one of
those would only surface when the benchmark runs, so these tests pin
the contract in the ordinary suite: every ``repro`` name perfbench
imports exists, every traced entry point resolves, and installing then
uninstalling the tracer leaves every binding as it found it.
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``workloads``, ``probe`` and ``tracer`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import probe
        import tracer
        import workloads

        yield workloads, probe, tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def _repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import name``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] == "repro"
            ):
                found.extend(
                    (path.name, node.module, alias.name)
                    for alias in node.names
                )
    return found


def test_every_imported_repro_name_exists():
    imports = _repro_imports()
    assert imports, "perfbench imports nothing from repro?"
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_workloads_match_benchmark_json(perfbench):
    workloads, _probe, _tracer = perfbench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in declared["workloads"]}
    assert names <= set(workloads.WORKLOADS)


def test_every_layer_entry_point_resolves(perfbench):
    _workloads, _probe, tracer = perfbench
    for layer, targets in tracer.LAYERS.items():
        for target in targets:
            entries = tracer.Tracer._entry_points(target)
            assert entries, f"{layer}: {target} has no entry points"
            for _owner, attr, fn in entries:
                assert callable(fn), f"{layer}: {target} ({attr})"


def _bindings(tracer) -> dict[tuple[int, str], object]:
    """Every attribute of every repro module and traced class, by owner."""
    owners = [
        module
        for name, module in sys.modules.items()
        if name == "repro" or name.startswith("repro.")
    ]
    owners.append(time)
    for targets in tracer.LAYERS.values():
        for target in targets:
            owners.extend(
                owner
                for owner, _attr, _fn in tracer.Tracer._entry_points(target)
            )
    return {
        (id(owner), attr): value
        for owner in owners
        for attr, value in list(vars(owner).items())
    }


def test_install_patches_and_uninstall_restores(perfbench):
    _workloads, _probe, tracer = perfbench
    originals = {
        target: tracer.Tracer._entry_points(target)
        for targets in tracer.LAYERS.values()
        for target in targets
    }
    before = _bindings(tracer)
    trace = tracer.Tracer()
    trace.install()
    try:
        for target, entries in originals.items():
            for owner, attr, fn in entries:
                assert vars(owner)[attr] is not fn, f"{target} not patched"
    finally:
        trace.uninstall()
    after = _bindings(tracer)
    changed = [
        key for key, value in before.items() if after.get(key) is not value
    ]
    assert changed == []
    assert time.sleep is originals["time:sleep"][0][2]
