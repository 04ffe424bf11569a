"""Regression gate over one ``perfbench/run.py`` run.

From the repository root::

    python3 perfbench/run.py --workload sweep-scenarios --seed 1 \\
        --seconds 2 --trace 0 > out.txt
    python3 tools/perfbench_gate.py sweep-scenarios out.txt

Reads the last line of the run's output (perfbench's JSON verdict) and
its ``records digest sha256:`` line, and fails when the run reported
``"correct": false``, when the workload has no entry in the committed
baseline (``perfbench_baseline.json`` beside this file), when the
records digest differs from the baseline's (seed 1), or when its
``wall_s`` exceeds :data:`MAX_RATIO` times the baseline.  ``wall_s`` is
in perfbench's reference seconds, already rescaled for the speed of the
host it ran on, so a baseline measured on one machine gates runs on
another.  The digest is a hash of the workload's records, so any change
to a computed figure, down to a float's last bit, fails the gate.

Exit codes: 0 pass, 1 regression or incorrect run, 2 unusable input
(unreadable or malformed output, no baseline entry).  Standard library
only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "perfbench_baseline.json"

#: A run fails when its ``wall_s`` exceeds this multiple of the baseline.
#: Shared CI runners routinely add tens of percent; a genuine hot-path
#: regression goes straight past 3x.
MAX_RATIO = 3.0

_DIGEST_RE = re.compile(r"^records digest sha256:([0-9a-f]{64})\b", re.MULTILINE)


class GateError(Exception):
    """The gate cannot judge the run (exit code 2)."""


def load_run(path: Path) -> tuple[dict, str]:
    """A perfbench run's verdict (its last non-empty line) and records digest."""
    try:
        text = path.read_text()
    except OSError as error:
        raise GateError(f"cannot read {path}: {error}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise GateError(f"{path} is empty")
    try:
        verdict = json.loads(lines[-1])
        wall_s = verdict["metrics"]["wall_s"]["value"]
    except (ValueError, TypeError, KeyError):
        raise GateError(
            f"{path}: last line is not a perfbench verdict with "
            "metrics.wall_s.value"
        ) from None
    if not isinstance(wall_s, (int, float)) or isinstance(wall_s, bool):
        raise GateError(f"{path}: metrics.wall_s.value is {wall_s!r}")
    match = _DIGEST_RE.search(text)
    if match is None:
        raise GateError(f"{path}: no 'records digest sha256:' line")
    return verdict, match.group(1)


def baseline_entry(workload: str) -> tuple[float, str]:
    """The committed baseline ``wall_s`` (reference s) and digest of ``workload``."""
    try:
        baseline = json.loads(BASELINE.read_text())
        walls, digests = baseline["wall_s"], baseline["digest"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise GateError(f"cannot read baseline {BASELINE}: {error!r}") from None
    if workload not in walls or workload not in digests:
        raise GateError(
            f"workload {workload!r} has no baseline in {BASELINE}; "
            f"known: {', '.join(sorted(walls))}"
        )
    return float(walls[workload]), str(digests[workload])


def gate(workload: str, outfile: Path) -> int:
    """Judge one run; prints one line and returns the exit code."""
    try:
        verdict, digest = load_run(outfile)
        reference, expected_digest = baseline_entry(workload)
    except GateError as error:
        print(f"perfbench gate: error: {error}", file=sys.stderr)
        return 2
    if verdict.get("correct") is not True:
        print(
            f"perfbench gate: FAIL {workload} reported correct: "
            f"{verdict.get('correct')!r} ({verdict.get('failed')} failed)",
            file=sys.stderr,
        )
        return 1
    if digest != expected_digest:
        print(
            f"perfbench gate: FAIL {workload} records digest {digest} "
            f"differs from baseline {expected_digest}",
            file=sys.stderr,
        )
        return 1
    wall_s = verdict["metrics"]["wall_s"]["value"]
    ratio = wall_s / reference
    status = "ok" if ratio <= MAX_RATIO else "FAIL"
    print(
        f"perfbench gate: {status} {workload} wall_s {wall_s:.4f} s vs "
        f"baseline {reference:.4f} s = {ratio:.2f}x (limit {MAX_RATIO:.1f}x), "
        f"records digest {digest[:8]}... as baseline"
    )
    return 0 if status == "ok" else 1


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: perfbench_gate.py WORKLOAD OUTFILE", file=sys.stderr)
        return 2
    return gate(args[0], Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
