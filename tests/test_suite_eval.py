"""Tests for the benchmark registry, the evaluation harness and metrics."""

from __future__ import annotations

import pytest

from repro.core.diac import full_backup_energy_j
from repro.evaluation import build_environment, evaluate_circuit, evaluate_design
from repro.metrics import (
    format_normalized_pdp,
    format_paper_vs_measured,
    format_table,
    improvement_pct,
    mean,
    normalized_table,
    paper_vs_measured,
    suite_improvements,
)
from repro.suite import BY_NAME, ROSTER, load_circuit, small_roster, suite_members


class TestRegistry:
    def test_roster_size(self):
        assert len(ROSTER) == 24

    def test_suite_split(self):
        assert len(suite_members("iscas89")) == 12
        assert len(suite_members("itc99")) == 8
        assert len(suite_members("mcnc")) == 4

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            suite_members("iwls")

    def test_gate_counts_match_paper(self):
        # Spot-check the Fig. 5 caption numbers.
        assert BY_NAME["s27"].n_gates == 10
        assert BY_NAME["s38584"].n_gates == 19253
        assert BY_NAME["b14"].n_gates == 4444
        assert BY_NAME["des"].n_gates == 2383

    @pytest.mark.parametrize(
        "name", [b.name for b in ROSTER if b.n_gates <= 1000]
    )
    def test_loaded_circuits_match_counts(self, name):
        netlist = load_circuit(name)
        assert netlist.num_gates == BY_NAME[name].n_gates
        netlist.validate()

    def test_s27_is_genuine(self):
        s27 = load_circuit("s27")
        assert s27.num_ffs == 3
        assert set(s27.inputs) == {"G0", "G1", "G2", "G3"}

    def test_loading_deterministic(self):
        from repro.circuits import write_bench

        assert write_bench(load_circuit("b10")) == write_bench(load_circuit("b10"))

    def test_unknown_circuit(self):
        with pytest.raises(KeyError, match="roster"):
            load_circuit("c6288")

    def test_small_roster_filter(self):
        subset = small_roster(max_gates=300)
        assert all(b.n_gates <= 300 for b in subset)
        assert any(b.suite == "itc99" for b in subset)


class TestEnvironment:
    def test_derivation(self, s27_design):
        env = build_environment(s27_design)
        assert env.e_max_j > 0
        assert env.thresholds.e_max_j == pytest.approx(env.e_max_j)
        assert env.n_passes >= 1
        assert env.sleep_drain_w > 0
        assert env.trace.peak_power_w > 0

    def test_reserve_covers_full_backup(self, s27_design):
        """The paper's provisioning rule: backup fits in Th_Bk - Th_Off."""
        env = build_environment(s27_design)
        full_backup = full_backup_energy_j(s27_design.netlist, s27_design.config.technology)
        assert env.thresholds.backup_reserve_j > full_backup


class TestEvaluation:
    @pytest.fixture(scope="class")
    def s27_eval(self):
        return evaluate_circuit("s27")

    def test_all_four_schemes_present(self, s27_eval):
        assert set(s27_eval.results) == {
            "NV-based",
            "NV-clustering",
            "DIAC",
            "Optimized DIAC",
        }

    def test_baseline_normalizes_to_one(self, s27_eval):
        norm = s27_eval.normalized_pdp()
        assert norm["NV-based"] == pytest.approx(1.0)

    def test_fig5_ordering(self, s27_eval):
        norm = s27_eval.normalized_pdp()
        assert (
            norm["Optimized DIAC"]
            < norm["DIAC"]
            < norm["NV-clustering"]
            < norm["NV-based"]
        )

    def test_all_schemes_completed(self, s27_eval):
        assert all(r.completed for r in s27_eval.results.values())

    def test_improvement_pct_consistent(self, s27_eval):
        imp = s27_eval.improvement_pct("DIAC", "NV-based")
        norm = s27_eval.normalized_pdp()
        assert imp == pytest.approx(100.0 * (1.0 - norm["DIAC"]))

    def test_evaluate_design_matches_circuit_path(self, s27_design):
        ev = evaluate_design(s27_design)
        assert ev.name == "s27"
        assert ev.suite == "iscas89"


class TestMetrics:
    @pytest.fixture(scope="class")
    def two_evals(self):
        return [evaluate_circuit("s27"), evaluate_circuit("b02")]

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_improvement_aggregation(self, two_evals):
        imp = improvement_pct(two_evals, "DIAC", "NV-based")
        assert 0 < imp < 100

    def test_suite_improvements_keys(self, two_evals):
        per_suite = suite_improvements(two_evals, "DIAC", "NV-based")
        assert set(per_suite) == {"iscas89", "itc99"}

    def test_normalized_table(self, two_evals):
        table = normalized_table(two_evals)
        assert set(table) == {"s27", "b02"}
        assert table["s27"]["NV-based"] == pytest.approx(1.0)

    def test_paper_vs_measured_rows(self, two_evals):
        rows = paper_vs_measured(two_evals)
        assert rows
        for row in rows:
            assert {"scheme", "versus", "suite", "paper_pct", "measured_pct"} <= set(row)

    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2.5], ["xy", 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]

    def test_format_normalized_pdp(self, two_evals):
        text = format_normalized_pdp(
            normalized_table(two_evals),
            ("NV-based", "NV-clustering", "DIAC", "Optimized DIAC"),
        )
        assert "s27" in text and "Optimized DIAC" in text

    def test_format_paper_vs_measured(self, two_evals):
        text = format_paper_vs_measured(paper_vs_measured(two_evals))
        assert "paper %" in text
