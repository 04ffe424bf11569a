"""Design-space exploration: policies x budgets x NVM technologies.

Run:
    python examples/design_space_exploration.py [circuit]

DIAC is a *design exploration* methodology: this example sweeps the
synthesis knobs on one roster circuit, prints the landscape, and reports
the PDP-optimal configuration together with the (PDP, re-execution)
pareto front — the efficiency/resiliency trade-off the paper's Fig. 2
discussion frames.
"""

from __future__ import annotations

import sys

from repro.dse import SynthesisCache, evaluate_point, expand_points, pareto_front
from repro.core import ReplacementCriteria
from repro.metrics import format_table
from repro.suite import load_circuit
from repro.tech import MRAM, RERAM


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "b10"
    netlist = load_circuit(name)
    print(f"exploring {name}: {netlist.num_gates} gates, {netlist.num_ffs} FFs\n")

    points = expand_points(
        policies=(1, 2, 3),
        budget_scales=(0.5, 1.0, 2.0),
        technologies=(MRAM, RERAM),
        criteria_sets=(ReplacementCriteria(),),
        safe_zones=(True, False),
        threshold_scales=(1.0,),
        safe_margin_scales=(None,),
    )
    # One cache for the whole sweep: each (policy, budget, technology)
    # plan and its HDL are built once and shared by both safe-zone modes.
    cache = SynthesisCache()
    records = [evaluate_point(netlist, point, cache=cache) for point in points]

    rows = [
        [
            r.point.label(),
            r.n_barriers,
            r.n_backups,
            f"{r.reexec_energy_j:.2e}",
            f"{r.pdp_js:.3e}",
        ]
        for r in sorted(records, key=lambda r: r.pdp_js)
    ]
    print(
        format_table(
            ["design point", "barriers", "backups", "reexec (J)", "PDP (Js)"],
            rows,
            title=f"design space of {name} ({len(records)} points)",
        )
    )
    print()

    best = min(records, key=lambda r: r.pdp_js)
    print(f"PDP-optimal point: {best.point.label()}  (PDP {best.pdp_js:.3e} Js)")

    front = pareto_front(
        records, objectives=[lambda r: r.pdp_js, lambda r: r.reexec_energy_j]
    )
    print("\nefficiency/resiliency pareto front:")
    for record in front:
        print(
            f"  {record.point.label():28s} PDP={record.pdp_js:.3e}  "
            f"reexec={record.reexec_energy_j:.2e} J"
        )


if __name__ == "__main__":
    main()
