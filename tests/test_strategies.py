"""Tests for the adaptive search-strategy subsystem (repro.dse.strategies)."""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.dse import (
    DesignPoint,
    DesignSpace,
    EvalOutcome,
    ExplorationRecord,
    JsonlResultStore,
    make_strategy,
    ParetoEvolutionStrategy,
    Proposal,
    RandomStrategy,
    Range,
    SuccessiveHalvingStrategy,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    hypervolume_2d,
)
from repro.dse.strategies import _score_outcomes
from repro.energy.scenarios import ScenarioSpec
from repro.tech import MRAM, RERAM


def fake_record(
    pdp: float,
    reexec: float = 1.0,
    circuit: str = "s27",
    scenario: ScenarioSpec = ScenarioSpec(),
    point: DesignPoint | None = None,
) -> ExplorationRecord:
    return ExplorationRecord(
        point=point or DesignPoint(),
        pdp_js=pdp,
        energy_j=1.0,
        active_time_s=1.0,
        n_backups=1,
        reexec_energy_j=reexec,
        n_barriers=1,
        circuit=circuit,
        scenario=scenario,
    )


SPACE = DesignSpace(
    policies=(1, 2, 3),
    technologies=(MRAM, RERAM),
    safe_zones=(True, False),
    budget_scale=Range(0.5, 2.0),
    threshold_scale=Range(0.9, 1.1),
)


class TestRange:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Range(0.0, 1.0)
        with pytest.raises(ValueError, match="below"):
            Range(2.0, 1.0)

    def test_degenerate_range_pins_the_knob(self):
        pinned = Range(1.0, 1.0)
        rng = random.Random(0)
        assert pinned.sample(rng) == 1.0

    def test_clip(self):
        knob = Range(0.5, 2.0)
        assert knob.clip(0.1) == 0.5
        assert knob.clip(5.0) == 2.0
        assert knob.clip(1.3) == 1.3


class TestDesignSpace:
    def test_sample_stays_in_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            point = SPACE.sample(rng)
            assert point.policy in SPACE.policies
            assert point.technology in SPACE.technologies
            assert 0.5 <= point.budget_scale <= 2.0
            assert 0.9 <= point.threshold_scale <= 1.1
            assert point.safe_margin_scale is None

    def test_margin_range_sampled_when_present(self):
        space = DesignSpace(safe_margin_scale=Range(0.5, 2.0))
        rng = random.Random(3)
        values = {space.sample(rng).safe_margin_scale for _ in range(20)}
        assert all(v is not None and 0.5 <= v <= 2.0 for v in values)

    def test_from_spec_spans_the_axes(self):
        spec = SweepSpec(
            circuits=("s27",),
            policies=(1, 3),
            budget_scales=(0.5, 1.0, 2.0),
            technologies=(MRAM, RERAM),
            threshold_scales=(0.9, 1.2),
            safe_margin_scales=(None, 0.5, 2.0),
        )
        space = DesignSpace.from_spec(spec)
        assert space.policies == (1, 3)
        assert space.technologies == (MRAM, RERAM)
        assert space.budget_scale == Range(0.5, 2.0)
        assert space.threshold_scale == Range(0.9, 1.2)
        assert space.safe_margin_scale == Range(0.5, 2.0)

    def test_from_spec_all_none_margins_stay_pinned(self):
        space = DesignSpace.from_spec(SweepSpec(circuits=("s27",)))
        assert space.safe_margin_scale is None

    def test_from_spec_mixed_margins_fold_default_into_range(self):
        # None (default width) == explicit scale 1.0, so a mixed axis
        # must keep the default reachable by spanning through 1.0.
        space = DesignSpace.from_spec(
            SweepSpec(circuits=("s27",),
                      safe_margin_scales=(None, 2.0, 5.0))
        )
        assert space.safe_margin_scale == Range(1.0, 5.0)

    def test_mutate_stays_in_bounds(self):
        rng = random.Random(11)
        point = SPACE.sample(rng)
        for _ in range(100):
            point = SPACE.mutate(point, rng)
            assert point.policy in SPACE.policies
            assert 0.5 <= point.budget_scale <= 2.0
            assert 0.9 <= point.threshold_scale <= 1.1

    def test_crossover_takes_fields_from_parents(self):
        rng = random.Random(5)
        a = DesignPoint(policy=1, budget_scale=0.5, threshold_scale=0.9)
        b = DesignPoint(policy=3, budget_scale=2.0, threshold_scale=1.1)
        for _ in range(30):
            child = SPACE.crossover(a, b, rng)
            assert child.policy in (1, 3)
            assert child.budget_scale in (0.5, 2.0)
            assert child.threshold_scale in (0.9, 1.1)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            DesignSpace(policies=())


class TestScoring:
    def test_normalizes_per_scenario_circuit_group(self):
        solar = ScenarioSpec("office-solar")
        outcomes = [
            EvalOutcome(
                Proposal(DesignPoint(policy=1)),
                records=[
                    fake_record(2.0, circuit="s27"),
                    fake_record(20.0, circuit="b02"),
                ],
            ),
            EvalOutcome(
                Proposal(DesignPoint(policy=2)),
                records=[
                    fake_record(1.0, circuit="s27"),
                    fake_record(10.0, circuit="b02"),
                ],
            ),
            EvalOutcome(
                Proposal(DesignPoint(policy=3)),
                records=[fake_record(3.0, scenario=solar)],
            ),
        ]
        scores = _score_outcomes(outcomes)
        assert scores[1] == 1.0  # wins both of its groups
        assert scores[0] == 2.0  # 2x the winner in both groups
        assert scores[2] == 1.0  # alone in its group
        # A raw-PDP comparison would have ranked the b02 records (PDP 10
        # and 20) behind everything; normalization keeps groups apart.

    def test_failures_penalize_and_empty_is_inf(self):
        from repro.dse import SweepFailure

        good = EvalOutcome(
            Proposal(DesignPoint(policy=1)), records=[fake_record(1.0)]
        )
        fragile = EvalOutcome(
            Proposal(DesignPoint(policy=2)),
            records=[fake_record(1.0)],
            failures=[SweepFailure("s27", "p", "boom")],
        )
        dead = EvalOutcome(
            Proposal(DesignPoint(policy=3)),
            failures=[SweepFailure("s27", "p", "boom")],
        )
        scores = _score_outcomes([good, fragile, dead])
        assert scores[0] < scores[1] < scores[2]
        assert scores[2] == float("inf")

    def test_zero_best_pdp_keeps_winner_finite(self):
        outcomes = [
            EvalOutcome(Proposal(DesignPoint(policy=1)),
                        records=[fake_record(0.0)]),
            EvalOutcome(Proposal(DesignPoint(policy=2)),
                        records=[fake_record(1.0)]),
        ]
        scores = _score_outcomes(outcomes)
        assert scores[0] == 1.0
        assert scores[1] == float("inf")


class TestRandomStrategy:
    def test_seed_determinism(self):
        a = RandomStrategy(SPACE, samples=10, seed=42)
        b = RandomStrategy(SPACE, samples=10, seed=42)
        assert [p.point.identity() for p in a.ask()] == [
            p.point.identity() for p in b.ask()
        ]
        c = RandomStrategy(SPACE, samples=10, seed=43)
        assert [p.point.identity() for p in c.ask()] != [
            p.point.identity() for p in a.ask() + b.ask()
        ]

    def test_batching(self):
        strategy = RandomStrategy(SPACE, samples=7, seed=0, batch_size=3)
        sizes = []
        while batch := strategy.ask():
            sizes.append(len(batch))
        assert sizes == [3, 3, 1]

    def test_lhs_stratifies_continuous_knobs(self):
        n = 12
        strategy = RandomStrategy(SPACE, samples=n, seed=1, method="lhs")
        points = [p.point for p in strategy.ask()]
        knob = SPACE.budget_scale
        width = (knob.hi - knob.lo) / n
        strata = sorted(
            int((p.budget_scale - knob.lo) / width) for p in points
        )
        assert strata == list(range(n))  # exactly one sample per stratum

    def test_lhs_balances_discrete_choices(self):
        n = 12
        strategy = RandomStrategy(SPACE, samples=n, seed=2, method="lhs")
        points = [p.point for p in strategy.ask()]
        counts = {policy: 0 for policy in SPACE.policies}
        for p in points:
            counts[p.policy] += 1
        assert set(counts.values()) == {n // len(SPACE.policies)}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            RandomStrategy(SPACE, method="sobol")


class TestSuccessiveHalving:
    def test_screen_then_promote(self):
        strategy = SuccessiveHalvingStrategy(
            SPACE, pool=8, promote=0.25, rounds=2, screen_scale=1.5, seed=0
        )
        screen = strategy.ask()
        assert len(screen) == 8
        assert all(p.scenario_scale == 1.5 for p in screen)
        # Rank proposals by a synthetic PDP equal to their index.
        outcomes = [
            EvalOutcome(p, records=[fake_record(float(i + 1), point=p.point)])
            for i, p in enumerate(screen)
        ]
        strategy.tell(outcomes)
        final = strategy.ask()
        assert len(final) == 2  # top 25% of 8
        assert all(p.scenario_scale == 1.0 for p in final)
        assert [p.point.identity() for p in final] == [
            screen[0].point.identity(),
            screen[1].point.identity(),
        ]
        strategy.tell(
            [EvalOutcome(p, records=[fake_record(1.0)]) for p in final]
        )
        assert strategy.ask() == []

    def test_fidelity_anneals_geometrically(self):
        strategy = SuccessiveHalvingStrategy(
            SPACE, pool=9, rounds=3, screen_scale=2.25, seed=0
        )
        assert strategy._fidelity(0) == pytest.approx(2.25)
        assert strategy._fidelity(1) == pytest.approx(1.5)
        assert strategy._fidelity(2) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="screen_scale"):
            SuccessiveHalvingStrategy(SPACE, screen_scale=1.0)
        with pytest.raises(ValueError, match="rounds"):
            SuccessiveHalvingStrategy(SPACE, rounds=1)
        with pytest.raises(ValueError, match="promote"):
            SuccessiveHalvingStrategy(SPACE, promote=1.5)


class TestParetoEvolution:
    def test_never_reproposes_a_point(self):
        strategy = ParetoEvolutionStrategy(
            SPACE, population=6, generations=4, seed=9
        )
        seen = set()
        while proposals := strategy.ask():
            identities = {p.point.identity() for p in proposals}
            assert not identities & seen
            seen |= identities
            strategy.tell(
                [
                    EvalOutcome(
                        p,
                        records=[
                            fake_record(
                                1.0 + i, reexec=10.0 - i, point=p.point
                            )
                        ],
                    )
                    for i, p in enumerate(proposals)
                ]
            )
        assert len(seen) == 6 * 4

    def test_parents_come_from_the_front(self):
        strategy = ParetoEvolutionStrategy(
            SPACE, population=4, generations=2, seed=1
        )
        proposals = strategy.ask()
        # One clear winner (low pdp AND low reexec): the only parent.
        records = [
            fake_record(10.0, reexec=10.0, point=p.point) for p in proposals
        ]
        records[2] = fake_record(1.0, reexec=1.0, point=proposals[2].point)
        strategy.tell(
            [EvalOutcome(p, records=[r])
             for p, r in zip(proposals, records)]
        )
        parents = strategy._parents()
        assert [p.identity() for p in parents] == [
            proposals[2].point.identity()
        ]

    def test_generation_budget(self):
        strategy = ParetoEvolutionStrategy(
            SPACE, population=3, generations=2, seed=0
        )
        assert len(strategy.ask()) == 3
        strategy.tell([])
        assert len(strategy.ask()) == 3
        strategy.tell([])
        assert strategy.ask() == []


class TestMakeStrategy:
    def test_cli_choices_match_the_registry(self):
        # The CLI keeps a literal copy so the parser builds without
        # importing the DSE package; pin the two so they cannot drift.
        from repro.cli import _STRATEGY_CHOICES
        from repro.dse import STRATEGIES

        assert _STRATEGY_CHOICES == STRATEGIES

    def test_known_names(self):
        # "grid" is a known name but the spec walk, not an ask/tell
        # strategy: neither make_strategy nor a request builds one.
        with pytest.raises(ValueError, match="full-factorial spec walk"):
            make_strategy("grid", SPACE)
        request = SweepRequest(spec=SweepSpec(circuits=("s27",)))
        with pytest.raises(ValueError, match="full-factorial spec walk"):
            request.build_strategy()
        assert isinstance(make_strategy("random", SPACE), RandomStrategy)
        assert isinstance(make_strategy("lhs", SPACE), RandomStrategy)
        assert isinstance(
            make_strategy("halving", SPACE), SuccessiveHalvingStrategy
        )
        assert isinstance(
            make_strategy("evolution", SPACE), ParetoEvolutionStrategy
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("annealing", SPACE)

    def test_halving_rejects_single_generation(self):
        # A single round cannot both screen and evaluate at full
        # fidelity; silently running 2 rounds would double the budget
        # the user asked for.
        with pytest.raises(ValueError, match="generations >= 2"):
            make_strategy("halving", SPACE, generations=1)
        strategy = make_strategy("halving", SPACE, generations=3)
        assert strategy.rounds == 3


TINY_SPACE = DesignSpace(
    policies=(3,),
    safe_zones=(True,),
    budget_scale=Range(0.5, 2.0),
    threshold_scale=Range(1.0, 1.0),
)


class TestRunSearch:
    def test_random_search_evaluates_samples(self):
        result = SweepEngine(workers=1).submit(
            SweepRequest(
                spec=SweepSpec(),
                strategy=RandomStrategy(TINY_SPACE, samples=4, seed=0)
            )
        )
        assert result.stats.n_evaluated == 4
        assert result.stats.n_generations == 1
        assert len(result.records) == 4
        assert {r.circuit for r in result.records} == {"s27"}

    def test_search_is_seed_deterministic(self):
        def run(seed):
            return SweepEngine(workers=1).submit(
                SweepRequest(
                    spec=SweepSpec(),
                    strategy=RandomStrategy(TINY_SPACE, samples=3, seed=seed)
                )
            )

        a, b = run(5), run(5)
        assert [r.key() for r in a.records] == [r.key() for r in b.records]
        assert [r.pdp_js for r in a.records] == [r.pdp_js for r in b.records]

    def test_duplicate_proposals_evaluated_once(self):
        class Repeater:
            def __init__(self):
                self.asked = False

            def ask(self):
                if self.asked:
                    return []
                self.asked = True
                point = DesignPoint()
                return [Proposal(point), Proposal(point)]

            def tell(self, outcomes):
                self.outcomes = outcomes

        strategy = Repeater()
        result = SweepEngine(workers=1).submit(
            SweepRequest(spec=SweepSpec(), strategy=strategy)
        )
        assert result.stats.n_evaluated == 1
        assert len(result.records) == 1
        # Both proposals still see the (shared) record.
        assert [len(o.records) for o in strategy.outcomes] == [1, 1]

    def test_failures_reach_the_strategy_not_the_records(self):
        class Infeasible:
            def __init__(self):
                self.asked = False
                self.outcomes = None

            def ask(self):
                if self.asked:
                    return []
                self.asked = True
                return [Proposal(DesignPoint(safe_margin_scale=15.0))]

            def tell(self, outcomes):
                self.outcomes = outcomes

        strategy = Infeasible()
        result = SweepEngine(workers=1).submit(
            SweepRequest(spec=SweepSpec(), strategy=strategy)
        )
        assert result.records == []
        assert result.stats.n_failed == 1
        assert strategy.outcomes[0].records == []
        assert "margin" in strategy.outcomes[0].failures[0].error

    def test_resume_skips_evaluated_points(self, tmp_path):
        store = JsonlResultStore(tmp_path / "search.jsonl")

        def run():
            return SweepEngine(workers=1, store=store).submit(
                SweepRequest(
                    spec=SweepSpec(),
                    strategy=RandomStrategy(TINY_SPACE, samples=3, seed=7),
                    resume=True
                )
            )

        first = run()
        assert first.stats.n_evaluated == 3
        second = run()
        assert second.stats.n_evaluated == 0
        assert second.stats.n_resumed == 3
        assert sorted(r.key() for r in second.records) == sorted(
            r.key() for r in first.records
        )

    def test_screen_failures_not_in_result_failures(self):
        # Every point is infeasible (margin 15x), so the screening round
        # AND the promoted full-fidelity round both fail.  The stats see
        # every failed evaluation, but the result's failure list — like
        # its records — covers only the requested scenarios, without
        # screening duplicates under scaled labels.
        doomed = DesignSpace(
            policies=(3,),
            safe_zones=(True,),
            budget_scale=Range(0.5, 2.0),
            threshold_scale=Range(1.0, 1.0),
            safe_margin_scale=Range(15.0, 15.0),
        )
        strategy = SuccessiveHalvingStrategy(
            doomed, pool=4, promote=0.5, rounds=2, screen_scale=1.5, seed=0
        )
        result = SweepEngine(workers=1).submit(
            SweepRequest(spec=SweepSpec(), strategy=strategy)
        )
        assert result.records == []
        assert result.stats.n_failed == 4 + 2
        assert len(result.failures) == 2
        assert {f.scenario for f in result.failures} == {
            ScenarioSpec().label()
        }

    def test_screen_records_stored_but_not_reported(self, tmp_path):
        store = JsonlResultStore(tmp_path / "halving.jsonl")
        strategy = SuccessiveHalvingStrategy(
            TINY_SPACE, pool=4, promote=0.5, rounds=2, screen_scale=2.0,
            seed=0,
        )
        result = SweepEngine(workers=1, store=store).submit(
            SweepRequest(spec=SweepSpec(), strategy=strategy)
        )
        assert result.stats.n_generations == 2
        assert result.stats.n_evaluated == 4 + 2
        # Only the full-fidelity final round lands in the result...
        assert len(result.records) == 2
        assert all(r.scenario == ScenarioSpec() for r in result.records)
        # ...but the screening evaluations persist under scaled keys.
        on_disk = store.load()
        assert len(on_disk) == 6
        scales = {r.scenario.scale for r in on_disk}
        assert scales == {1.0, 2.0}

    def test_halving_resume_skips_the_screen_too(self, tmp_path):
        store = JsonlResultStore(tmp_path / "halving.jsonl")

        def run():
            return SweepEngine(workers=1, store=store).submit(
                SweepRequest(
                    spec=SweepSpec(),
                    strategy=SuccessiveHalvingStrategy(
                    TINY_SPACE, pool=4, promote=0.5, rounds=2, seed=3
                ),
                    resume=True
                )
            )

        first = run()
        assert first.stats.n_evaluated == 6
        second = run()
        assert second.stats.n_evaluated == 0
        assert second.stats.n_resumed == 6

    def test_multi_circuit_multi_scenario_cross(self):
        result = SweepEngine(workers=1).submit(
            SweepRequest(
                spec=SweepSpec(circuits=("s27", "b02"), scenarios=(ScenarioSpec(), ScenarioSpec("office-solar"))),
                strategy=RandomStrategy(TINY_SPACE, samples=2, seed=0)
            )
        )
        assert result.stats.n_evaluated == 2 * 2 * 2
        assert set(result.by_scenario()) == {
            ("paper-fig5", "s27"),
            ("paper-fig5", "b02"),
            ("office-solar", "s27"),
            ("office-solar", "b02"),
        }

    def test_max_generations_backstop(self):
        class Forever:
            def ask(self):
                return [Proposal(DesignPoint())]

            def tell(self, outcomes):
                pass

        result = SweepEngine(workers=1).submit(
            SweepRequest(
                spec=SweepSpec(),
                strategy=Forever(),
                max_generations=3
            )
        )
        assert result.stats.n_generations == 3
        assert result.stats.n_evaluated == 1  # deduped across generations

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="circuits"):
            SweepEngine().submit(
                SweepRequest(
                    spec=SweepSpec(circuits=()),
                    strategy=RandomStrategy(TINY_SPACE, samples=1)
                )
            )
        with pytest.raises(ValueError, match="scenarios"):
            SweepEngine().submit(
                SweepRequest(
                    spec=SweepSpec(scenarios=()),
                    strategy=RandomStrategy(TINY_SPACE, samples=1)
                )
            )


class TestHalvingFindsTheFront:
    """Successive halving keeps the grid's front, with or without the screen.

    The request is the ``search-halving`` benchmark shape: s838 and b05
    under three harvest scenarios with threshold and margin scales.  Per
    (circuit, scenario) group, the hypervolume of the halving records on
    (PDP, re-executed energy) must reach 95% of the full grid's, against
    a reference point at 1.1x the grid's maximum in each objective.
    """

    @staticmethod
    def spec(seed: int) -> SweepSpec:
        names = ("paper-fig5", f"rf-markov@{seed}", "office-solar")
        return SweepSpec(
            circuits=("s838", "b05"),
            scenarios=tuple(ScenarioSpec.parse(n) for n in names),
            threshold_scales=(0.8, 1.0, 1.25),
            safe_margin_scales=(0.5, 1.0, 2.0),
        )

    @staticmethod
    def objectives_by_group(records) -> dict:
        groups: dict = {}
        for r in records:
            groups.setdefault((r.circuit, r.scenario.label()), []).append(
                (r.pdp_js, r.reexec_energy_j)
            )
        return groups

    @pytest.fixture(scope="class")
    def grids(self) -> dict:
        return {
            seed: self.objectives_by_group(
                SweepEngine().submit(SweepRequest(spec=self.spec(seed))).records
            )
            for seed in (1, 2)
        }

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_hypervolume_ratio(self, grids, seed, prune):
        result = SweepEngine().submit(
            SweepRequest(
                spec=self.spec(seed),
                strategy="halving",
                search_seed=seed,
                analysis_prune=prune,
            )
        )
        found = self.objectives_by_group(result.records)
        grid = grids[seed]
        assert len(grid) == 6
        for group, points in grid.items():
            reference = (
                1.1 * max(p[0] for p in points),
                1.1 * max(p[1] for p in points),
            )
            full = hypervolume_2d(points, reference)
            assert full > 0, group
            ratio = hypervolume_2d(found.get(group, []), reference) / full
            assert ratio >= 0.95, (group, ratio)


class TestSearchCli:
    def test_cli_random_strategy(self, capsys, tmp_path):
        path = tmp_path / "search.jsonl"
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales",
            "0.5", "2.0", "--safe-zone", "on",
            "--strategy", "random", "--samples", "3",
            "--results", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "random search, 1 generation(s)" in out
        assert "pareto front" in out
        assert len(path.read_text().splitlines()) == 3

    def test_cli_halving_strategy(self, capsys):
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales",
            "0.5", "2.0", "--safe-zone", "on",
            "--strategy", "halving", "--samples", "4",
            "--generations", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "halving search, 2 generation(s)" in out

    def test_cli_rejects_bad_search_knobs(self):
        with pytest.raises(SystemExit, match="--samples"):
            main(["sweep", "s27", "--strategy", "random", "--samples", "0"])
        with pytest.raises(SystemExit, match="--generations"):
            main(["sweep", "s27", "--strategy", "evolution",
                  "--generations", "0"])
        with pytest.raises(SystemExit, match="generations >= 2"):
            main(["sweep", "s27", "--strategy", "halving",
                  "--generations", "1"])
