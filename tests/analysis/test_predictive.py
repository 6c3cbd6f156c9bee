"""Predictive analyzer: soundness/completeness against ground truth, engine
agreement (levels vs full), an engine-independent oracle (a direct
level-by-level sweep), and the online streaming path (an observer's LTL
engine)."""

import random

import pytest

from repro.analysis import detect, predict, predict_many
from repro.engines import AnalysisBus, LtlEngine
from repro.lattice import LevelByLevelBuilder
from repro.logic import Monitor
from repro.logic.composite import CompositeMonitor
from repro.observer import Observer
from repro.sched import FixedScheduler, RandomScheduler, explore_all, run_program
from repro.workloads import (
    AUDIT_PROPERTY,
    LANDING_OBSERVED_SCHEDULE,
    LANDING_PROPERTY,
    XYZ_OBSERVED_SCHEDULE,
    XYZ_PROPERTY,
    landing_controller,
    random_program,
    transfer_program,
    xyz_program,
)


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_levels_and_full_agree_on_violation_existence(self, seed):
        program = random_program(random.Random(seed), n_threads=2, n_vars=3,
                                 ops_per_thread=4, write_ratio=0.6)
        ex = run_program(program, RandomScheduler(seed))
        # a simple generic safety property over the generated variables
        spec = "historically(v0 <= v1 + v2 + 100)"
        full = predict(ex, spec, mode="full")
        levels = predict(ex, spec, mode="levels")
        assert bool(full.violations) == bool(levels.violations), seed

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_on_tighter_property(self, seed):
        program = random_program(random.Random(seed), n_threads=3, n_vars=2,
                                 ops_per_thread=3, write_ratio=0.8)
        ex = run_program(program, RandomScheduler(seed + 100))
        spec = "v0 <= v1 or v1 <= v0"  # tautology: never violated
        full = predict(ex, spec, mode="full")
        levels = predict(ex, spec, mode="levels")
        assert full.ok and levels.ok

    def test_unknown_mode_rejected(self, xyz_execution):
        with pytest.raises(ValueError):
            predict(xyz_execution, XYZ_PROPERTY, mode="quantum")

    def test_missing_spec_variable_rejected(self, xyz_execution):
        with pytest.raises(KeyError):
            predict(xyz_execution, "nonexistent == 1")


def _oracle_case(name):
    """``(execution, specs)``: a paper workload or a seeded random program,
    with specs that both hold and fail somewhere in its lattice."""
    if name == "xyz":
        return (run_program(xyz_program(),
                            FixedScheduler(XYZ_OBSERVED_SCHEDULE)),
                [XYZ_PROPERTY, "x >= -1", "y <= z"])
    if name == "landing":
        return (run_program(landing_controller(),
                            FixedScheduler(LANDING_OBSERVED_SCHEDULE)),
                [LANDING_PROPERTY, "radio <= 1", "approved <= landing"])
    if name == "bank":
        return (run_program(transfer_program(),
                            FixedScheduler([1, 1, 1] + [0] * 6,
                                           strict=False)),
                [AUDIT_PROPERTY, "a + b >= 0", "a <= 100"])
    seed = int(name.rsplit("-", 1)[1])
    program = random_program(random.Random(seed), n_threads=2 + seed % 2,
                             n_vars=3, ops_per_thread=4, write_ratio=0.6)
    return (run_program(program, RandomScheduler(seed)),
            ["historically(v0 <= v1 + v2 + 100)", "v0 <= v1",
             "(v0 > 0) -> [v1 == 0, v1 > v2)"])


def _direct_sweep(execution, monitor):
    """The level-by-level sweep driven by hand, no engine or bus."""
    variables = sorted(monitor.variables)
    builder = LevelByLevelBuilder(
        execution.n_threads,
        {v: execution.initial_store[v] for v in variables}, monitor)
    builder.feed_many(execution.messages)
    builder.finish()
    return builder


def _shape(violations, stats, variables):
    return ([v.pretty(variables) for v in violations],
            stats.nodes_expanded, stats.levels_completed,
            stats.peak_resident_cuts)


@pytest.mark.parametrize("case", ["xyz", "landing", "bank"]
                         + [f"random-{seed}" for seed in range(6)])
class TestDirectSweepOracle:
    """``predict(mode="levels")`` and ``predict_many`` equal a direct
    :class:`LevelByLevelBuilder` sweep — an engine-independent check."""

    def test_predict_levels(self, case):
        execution, specs = _oracle_case(case)
        for spec in specs:
            monitor = Monitor(spec)
            variables = sorted(monitor.variables)
            builder = _direct_sweep(execution, monitor)
            report = predict(execution, spec, mode="levels")
            assert _shape(report.violations, report.stats, variables) == \
                _shape(builder.violations, builder.stats, variables), spec
            assert report.nodes == builder.stats.nodes_expanded

    def test_predict_many_attribution(self, case):
        execution, specs = _oracle_case(case)
        composite = CompositeMonitor(specs)
        variables = sorted(composite.variables)
        builder = _direct_sweep(execution, composite)
        reports = predict_many(execution, specs)
        assert list(reports) == [str(m.formula) for m in composite.monitors]
        for i, monitor in enumerate(composite.monitors):
            own = [v for v in builder.violations
                   if i in composite.failing_specs(v.monitor_state)]
            report = reports[str(monitor.formula)]
            assert _shape(report.violations, report.stats, variables) == \
                _shape(own, builder.stats, variables), str(monitor.formula)
            observed = detect(execution, monitor)
            assert (report.observed_ok, report.observed_violation_index) \
                == (observed.ok, observed.violation_index)


class TestSoundness:
    """Every predicted violating run must be *feasible*: some real
    interleaving realizes exactly that relevant-event order (straightline
    programs make this exact)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_predicted_runs_are_feasible(self, seed):
        program = random_program(random.Random(seed), n_threads=2, n_vars=2,
                                 ops_per_thread=3, write_ratio=0.7)
        ex = run_program(program, RandomScheduler(seed))
        spec = "historically(v0 + v1 >= 0)"  # won't trigger; use lattice runs
        report = predict(ex, spec, mode="full")
        # collect the relevant-event orders of all real interleavings
        feasible_orders = set()
        for ground in explore_all(program, max_executions=20_000):
            feasible_orders.add(tuple(m.event.eid for m in ground.messages))
        # every lattice run must be among them
        from repro.lattice import ComputationLattice

        variables = sorted(program.default_relevance_vars())
        initial = {v: ex.initial_store[v] for v in variables}
        lat = ComputationLattice(2, initial, ex.messages)
        for run in lat.runs():
            order = tuple(m.event.eid for m in run.messages)
            assert order in feasible_orders, order

    def test_landing_prediction_feasible(self, landing_execution):
        report = predict(landing_execution, LANDING_PROPERTY, mode="full")
        predicted_orders = {
            tuple(m.event.label for m in v.messages) for v in report.violations
        }
        # ground truth: violating observed traces of real interleavings
        real_bad_prefixes = set()
        for ex in explore_all(landing_controller()):
            d = detect(ex, LANDING_PROPERTY)
            if not d.ok:
                labels = tuple(m.event.label for m in ex.messages)
                real_bad_prefixes.add(labels[: d.violation_index])
        # each predicted counterexample order occurs as a real bad prefix
        for order in predicted_orders:
            assert order in real_bad_prefixes, order


class TestCompleteness:
    """If some interleaving with the same causal order violates, the
    analyzer must predict it (the lattice contains all consistent runs)."""

    def test_audit_violation_predicted_from_clean_run(self):
        program = transfer_program()
        ex = run_program(program, FixedScheduler([1, 1, 1] + [0] * 6,
                                                 strict=False))
        assert detect(ex, AUDIT_PROPERTY).ok
        report = predict(ex, AUDIT_PROPERTY)
        assert report.predicted

    def test_no_false_negatives_vs_exhaustive_same_computation(self):
        """For the xyz program: every interleaving that (a) violates on its
        own trace and (b) has the same relevant causal order as the observed
        run, appears among the predicted violations."""
        program = xyz_program()
        observed = run_program(program, FixedScheduler(
            [0, 0, 1, 1, 0, 0, 1, 1, 1, 0]))
        report = predict(observed, XYZ_PROPERTY, mode="full")
        predicted = {tuple(m.event.label for m in v.messages)
                     for v in report.violations}
        obs_clocks = sorted(tuple(m.clock) for m in observed.messages)
        for ex in explore_all(program):
            same_comp = sorted(tuple(m.clock) for m in ex.messages) == obs_clocks
            d = detect(ex, XYZ_PROPERTY)
            if same_comp and not d.ok:
                labels = tuple(m.event.label for m in ex.messages)
                assert labels[: d.violation_index] in predicted


class TestReportFields:
    def test_report_metadata(self, xyz_execution):
        report = predict(xyz_execution, XYZ_PROPERTY, mode="full")
        assert report.program_name == "xyz"
        assert "x > 0" in report.spec
        assert report.observed_violation_index is None
        assert report.nodes == 7

    def test_run_limit_bounds_full_mode(self, xyz_execution):
        report = predict(xyz_execution, XYZ_PROPERTY, mode="full", run_limit=1)
        assert report.n_runs == 1

    def test_ok_and_predicted_flags(self, xyz_execution):
        report = predict(xyz_execution, XYZ_PROPERTY)
        assert not report.ok and report.predicted
        clean = predict(xyz_execution, "x >= -1")
        assert clean.ok and not clean.predicted


class TestLtlEngineStreaming:
    def test_streaming_violation_discovery(self, xyz_execution):
        obs = Observer(2, xyz_execution.initial_store, spec=XYZ_PROPERTY)
        seen = []
        for m in xyz_execution.messages:
            seen.extend(obs.receive(m))
        seen.extend(obs.finish())
        assert len(seen) == 1
        assert obs.violations == seen

    def test_stats_exposed(self, xyz_execution):
        engine = LtlEngine(2, xyz_execution.initial_store, XYZ_PROPERTY)
        bus = AnalysisBus(2, [engine])
        for m in xyz_execution.messages:
            bus.feed(m)
        bus.finish()
        assert engine.stats.nodes_expanded == 7
        assert engine.snapshot()["nodes"] == 7
