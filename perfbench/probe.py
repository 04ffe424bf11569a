"""Child processes of the benchmark: set-up probes and the fixture build.

``setup``: ``run.py`` starts this several times and times each start up
to the ``ready`` line, which gives ``setup_s``: interpreter start,
imports (including the NumPy kernel the executor loads lazily), netlist
loading and, for ``service-grid``, opening the store and queue.  The
probe samples the host's speed over everything after its own first
lines and prints that stretch's raw and reference seconds after
``ready``.

``prepare``: builds the workload's untimed fixture and prints its path
(or nothing when there is none).  It runs in its own process so that
the fixture's memory does not count in the run's ``peak_rss_mb``.

Usage::

    python3 perfbench/probe.py setup <workload> <seed> [<fixture>]
    python3 perfbench/probe.py prepare <workload> <seed> <directory>
"""

import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(name: str, seed: int, fixture: Path | None) -> None:
    import workloads
    from repro.dse.batch import batch_routing_enabled

    batch_routing_enabled()
    workloads.WORKLOADS[name].setup(seed, fixture)


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "prepare":
        import workloads

        fixture = workloads.WORKLOADS[name].prepare(seed, Path(argv[3]))
        print("" if fixture is None else fixture, flush=True)
        return 0
    with HostSpeed() as speed:
        start = time.perf_counter()
        setup(name, seed, Path(argv[3]) if len(argv) > 3 else None)
        wall = time.perf_counter() - start
    print(f"ready {wall!r} {speed.reference_seconds(wall)!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
