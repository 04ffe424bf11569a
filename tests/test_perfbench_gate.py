"""Tests for ``tools/perfbench_gate.py``, the CI benchmark regression gate.

The gate runs as CI does, as a subprocess over fabricated perfbench
output: a ``host`` line, a records-digest line, a metric line and the
JSON verdict last.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "perfbench_gate.py"
BASELINE = json.loads((ROOT / "tools" / "perfbench_baseline.json").read_text())
WORKLOAD = "sweep-scenarios"


def fake_run(tmp_path, wall_s, correct=True, last_line=None, digest=None):
    """A perfbench output file whose verdict carries ``wall_s``.

    ``digest`` defaults to the baseline's; ``""`` leaves the line out.
    """
    if digest is None:
        digest = BASELINE["digest"][WORKLOAD]
    verdict = {
        "correct": correct,
        "attempted": 216,
        "failed": 0 if correct else 3,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "ok_ratio": {"value": 1.0, "unit": "ratio"},
        },
    }
    lines = [
        'host {"cpu_count": 2, "nproc": 2}',
        *([f"records digest sha256:{digest}"] if digest else []),
        f"metric wall_s {wall_s:.6g} s (median of 3)",
        last_line if last_line is not None else json.dumps(verdict),
        "",
    ]
    path = tmp_path / "perfbench.out"
    path.write_text("\n".join(lines))
    return path


def gate(workload, path):
    return subprocess.run(
        [sys.executable, str(GATE), workload, str(path)],
        capture_output=True, text=True, check=False,
    )


def test_baseline_covers_every_benchmark_workload():
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(BASELINE["wall_s"]) == sorted(w["name"] for w in workloads)
    assert sorted(BASELINE["digest"]) == sorted(BASELINE["wall_s"])
    assert all(
        len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        for digest in BASELINE["digest"].values()
    )
    assert {"commit", "command", "host"} <= set(BASELINE)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.99])
def test_within_three_times_passes(tmp_path, ratio):
    wall_s = BASELINE["wall_s"][WORKLOAD] * ratio
    completed = gate(WORKLOAD, fake_run(tmp_path, wall_s))
    assert completed.returncode == 0, completed.stderr
    assert f"ok {WORKLOAD}" in completed.stdout


def test_above_three_times_fails(tmp_path):
    wall_s = BASELINE["wall_s"][WORKLOAD] * 3.01
    completed = gate(WORKLOAD, fake_run(tmp_path, wall_s))
    assert completed.returncode == 1
    assert f"FAIL {WORKLOAD}" in completed.stdout


def test_incorrect_run_fails_even_when_fast(tmp_path):
    wall_s = BASELINE["wall_s"][WORKLOAD] * 0.5
    completed = gate(WORKLOAD, fake_run(tmp_path, wall_s, correct=False))
    assert completed.returncode == 1
    assert "correct: False" in completed.stderr


def test_digest_mismatch_fails_even_when_fast(tmp_path):
    wall_s = BASELINE["wall_s"][WORKLOAD] * 0.5
    other = "0" * 64
    completed = gate(WORKLOAD, fake_run(tmp_path, wall_s, digest=other))
    assert completed.returncode == 1
    assert f"FAIL {WORKLOAD} records digest {other}" in completed.stderr


def test_missing_digest_line_fails(tmp_path):
    completed = gate(WORKLOAD, fake_run(tmp_path, 0.1, digest=""))
    assert completed.returncode == 2
    assert "records digest" in completed.stderr


def test_workload_without_baseline_fails(tmp_path):
    completed = gate("no-such-workload", fake_run(tmp_path, 0.1))
    assert completed.returncode == 2
    assert "no baseline" in completed.stderr


@pytest.mark.parametrize(
    "last_line",
    [
        "not json at all",
        json.dumps({"correct": True, "metrics": {}}),
        json.dumps({"correct": True, "metrics": {"wall_s": {"value": "1"}}}),
        json.dumps([1, 2, 3]),
    ],
    ids=["not-json", "no-wall_s", "string-wall_s", "not-an-object"],
)
def test_malformed_last_line_fails(tmp_path, last_line):
    completed = gate(WORKLOAD, fake_run(tmp_path, 0.1, last_line=last_line))
    assert completed.returncode == 2
    assert "error:" in completed.stderr


def test_missing_output_and_bad_usage_fail(tmp_path):
    assert gate(WORKLOAD, tmp_path / "absent.out").returncode == 2
    completed = subprocess.run(
        [sys.executable, str(GATE), WORKLOAD],
        capture_output=True, text=True, check=False,
    )
    assert completed.returncode == 2
    assert "usage:" in completed.stderr
