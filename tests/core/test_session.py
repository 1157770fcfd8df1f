"""SolverSession: compile-once, solve-many.

The contract under test: ``SolverSession.solve([s1..sK])`` produces
records **byte-identical** to K independent one-scenario solves (a fresh
session per scenario, so every lockstep batch has width one), across
orderings, delay modes, and bound axes; ``NoiseAwareSizingFlow``, which
shares the session's one stage-2 setup, agrees with the scenario path;
and the lockstep driver is bit-identical to scalar OGWS runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OGWSOptimizer, SizingProblem, SolverSession
from repro.core.ogws import FEASIBILITY_TOLERANCE, run_lockstep
from repro.core.subgradient import MultiplicativeUpdate, SubgradientUpdate
from repro.runtime import CircuitRef, FlowConfig, Scenario, SweepSpec
from repro.timing.metrics import evaluate_metrics
from repro.utils.errors import ConvergenceError, ValidationError


REF = CircuitRef.random(20, 5, 3, seed=0, target_depth=7)


def _spec(**axes):
    base = axes.pop("base", FlowConfig(n_patterns=32, max_iterations=60))
    return SweepSpec(circuits=(REF,), base=base, **axes)


def _solo(scenarios):
    """The oracle: one fresh session and one-scenario solve per scenario."""
    return [SolverSession.for_ref(s.circuit).solve([s])[0] for s in scenarios]


@pytest.fixture(scope="module")
def session():
    return SolverSession.for_ref(REF)


class TestArtifactSharing:
    def test_circuit_and_compiled_built_once(self, session):
        assert session.circuit is session.circuit
        assert session.compiled is session.compiled
        assert session.fingerprint() == REF.fingerprint()

    def test_engine_memoized_per_config(self, session):
        args = ("woss", 32, 0, "similarity", 2, "own")
        assert session.engine(*args) is session.engine(*args)
        other = session.engine("woss", 32, 0, "similarity", 2, "none")
        assert other is not session.engine(*args)

    def test_stage1_memoized_for_named_orderings(self, session):
        a = session.stage1("woss", 32, 0)
        assert session.stage1("woss", 32, 0) is a

    def test_foreign_scenario_rejected(self, session):
        other = CircuitRef.random(12, 4, 2, seed=9, target_depth=5)
        scenario = _spec().scenarios()[0]
        foreign = type(scenario)(other, scenario.config)
        with pytest.raises(ValidationError):
            session.solve([foreign])

    def test_for_circuit_session_validates_scenarios(self):
        """A for_circuit session has no ref to name its records by, so
        solve() refuses every scenario: a matching one as well as one
        whose ref realizes a different circuit."""
        scenario = _spec().scenarios()[0]
        good = SolverSession.for_circuit(REF.build())
        with pytest.raises(ValidationError):
            good.solve([scenario])
        assert good.ref is None
        other = SolverSession.for_circuit(
            CircuitRef.random(12, 4, 2, seed=9, target_depth=5).build())
        with pytest.raises(ValidationError):
            other.solve([scenario])


class TestBatchEquivalence:
    """The acceptance contract: batched records == one-scenario records."""

    @pytest.mark.parametrize("ordering", ["woss", "none", "random"])
    @pytest.mark.parametrize("delay_mode", ["own", "none", "propagated"])
    def test_batch_matches_scalar_per_mode(self, ordering, delay_mode):
        spec = _spec(orderings=(ordering,), delay_modes=(delay_mode,),
                     noise_fractions=(0.09, 0.12), delay_slacks=(1.1, 1.3))
        scenarios = spec.scenarios()
        scalar = _solo(scenarios)
        batched = SolverSession.for_ref(REF).solve(scenarios)
        assert ([r.canonical_json() for r in batched]
                == [r.canonical_json() for r in scalar])

    def test_warm_session_matches_solo_solves(self, session):
        scenarios = _spec(noise_fractions=(0.09, 0.12)).scenarios()
        first = session.solve(scenarios)
        again = session.solve(scenarios)
        solo = _solo(scenarios)
        assert ([r.canonical_json() for r in first]
                == [r.canonical_json() for r in again]
                == [r.canonical_json() for r in solo])

    @pytest.mark.parametrize("ordering", ["woss", "greedy2", "random",
                                          "none"])
    @pytest.mark.parametrize("delay_mode", ["own", "none", "propagated"])
    def test_flow_wrapper_matches_session_solve(self, ordering, delay_mode):
        """``NoiseAwareSizingFlow`` run with a scenario's seed lands on
        every canonical field of that scenario's record."""
        from repro.core import NoiseAwareSizingFlow

        [scenario] = _spec(orderings=(ordering,),
                           delay_modes=(delay_mode,)).scenarios()
        [record] = _solo([scenario])
        config = scenario.config
        outcome = NoiseAwareSizingFlow(
            REF.build(), ordering=config.ordering,
            miller_mode=config.miller_mode,
            coupling_order=config.coupling_order,
            delay_mode=config.delay_mode, n_patterns=config.n_patterns,
            seed=scenario.seed, bound_factors=config.bound_factors,
            optimizer_options=config.optimizer_options).run()
        sizing = outcome.sizing
        assert tuple(float(x) for x in sizing.x) == record.sizes
        assert all(type(v) is float for v in record.sizes)
        assert sizing.metrics == record.metrics
        assert sizing.initial_metrics == record.initial_metrics
        assert bool(sizing.feasible) == record.feasible
        assert bool(sizing.converged) == record.converged
        assert sizing.iterations == record.iterations
        assert float(sizing.duality_gap) == record.duality_gap
        assert float(outcome.ordering_cost_before) == \
            record.ordering_cost_before
        assert float(outcome.ordering_cost_after) == \
            record.ordering_cost_after
        assert sizing.repair_evals == record.diagnostics["repair_evals"]

    def test_mixed_axes_grouped_and_ordered(self, session):
        """Axes that change the engine split into groups; record order is
        the input scenario order regardless."""
        spec = _spec(orderings=("woss", "none"), delay_modes=("own", "none"),
                     noise_fractions=(0.09, 0.12))
        scenarios = spec.scenarios()
        records = session.solve(scenarios)
        assert [r.scenario.content_hash() for r in records] == \
            [s.content_hash() for s in scenarios]
        scalar = _solo(scenarios)
        assert ([r.canonical_json() for r in records]
                == [r.canonical_json() for r in scalar])

    def test_lockstep_chunking_preserves_bytes(self, monkeypatch):
        """Groups wider than LOCKSTEP_WIDTH split into chunks and still
        match the scalar records byte for byte."""
        monkeypatch.setattr("repro.core.session.LOCKSTEP_WIDTH", 2)
        spec = _spec(noise_fractions=(0.08, 0.1, 0.12, 0.15, 0.2))
        scenarios = spec.scenarios()
        scalar = _solo(scenarios)
        batched = SolverSession.for_ref(REF).solve(scenarios)
        assert ([r.canonical_json() for r in batched]
                == [r.canonical_json() for r in scalar])

    def test_retiring_column_matches_solo_solve(self):
        """Regression: an infeasible column retiring at its own
        max_iterations while two others keep iterating (the engine key
        ignores max_iterations, so they share a batch) reported sizes
        from a pooled width-1 buffer that later LRS solves overwrote."""
        ref = CircuitRef.iscas85("c880")
        base = FlowConfig(n_patterns=64)
        scenarios = [Scenario(ref, base.replace(
            delay_slack=slack, noise_fraction=noise, max_iterations=budget))
            for slack, noise, budget in ((0.5, 0.01, 3), (1.2, 0.2, 40),
                                         (1.05, 0.08, 40))]
        together = SolverSession.for_ref(ref).solve(scenarios)
        alone = SolverSession.for_ref(ref)
        assert not together[0].feasible
        for scenario, record in zip(scenarios, together):
            [solo] = alone.solve([scenario])
            assert record.canonical_json() == solo.canonical_json()

    def test_non_finite_solve_names_its_scenario(self, monkeypatch):
        """Finite-or-fail: a column whose multipliers turn NaN fails at
        OGWS's one exit, and the batch names that column's scenario."""
        apply_batch = MultiplicativeUpdate.apply_batch

        def poisoned(self, multipliers, *args):
            steps = apply_batch(self, multipliers, *args)
            multipliers[-1].gamma = float("nan")
            return steps

        monkeypatch.setattr(MultiplicativeUpdate, "apply_batch", poisoned)
        scenarios = _spec(noise_fractions=(0.1, 0.2), base=FlowConfig(
            n_patterns=32, max_iterations=1)).scenarios()
        with pytest.raises(ConvergenceError,
                           match=scenarios[1].content_hash()[:12]):
            SolverSession.for_ref(REF).solve(scenarios)

    def test_diagnostics_carry_repair_counter(self, session):
        record = session.solve(_spec().scenarios())[0]
        assert "repair_evals" in record.diagnostics
        assert record.diagnostics["repair_evals"] >= 0

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 6),
        ordering=st.sampled_from(["woss", "none", "greedy2"]),
        delay_mode=st.sampled_from(["own", "none", "propagated"]),
        fractions=st.lists(st.sampled_from([0.08, 0.1, 0.12, 0.15, 0.2]),
                           min_size=2, max_size=4, unique=True),
    )
    def test_property_batch_equals_scalar(self, seed, ordering, delay_mode,
                                          fractions):
        ref = CircuitRef.random(14, 4, 2, seed=seed, target_depth=6)
        spec = SweepSpec(
            circuits=(ref,), orderings=(ordering,),
            delay_modes=(delay_mode,), noise_fractions=tuple(fractions),
            base=FlowConfig(n_patterns=16, max_iterations=40))
        scenarios = spec.scenarios()
        scalar = _solo(scenarios)
        batched = SolverSession.for_ref(ref).solve(scenarios)
        assert ([r.canonical_json() for r in batched]
                == [r.canonical_json() for r in scalar])


class TestLockstep:
    def _engine(self, session):
        return session.engine("woss", 32, 0, "similarity", 2, "own")

    def test_lockstep_bitwise_equals_scalar_runs(self, session):
        engine = self._engine(session)
        x_init = session.compiled.default_sizes(np.inf)

        def optimizers():
            return [OGWSOptimizer(
                engine,
                SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
                x_init=x_init) for nf in (0.08, 0.1, 0.12, 0.2)]

        scalar = [opt.run() for opt in optimizers()]
        lockstep = run_lockstep(optimizers())
        for a, b in zip(scalar, lockstep):
            assert a.iterations == b.iterations
            assert (a.x == b.x).all()
            assert a.dual_value == b.dual_value
            assert a.duality_gap == b.duality_gap
            assert a.repair_evals == b.repair_evals
            assert a.metrics == b.metrics

    def test_lockstep_single_optimizer_falls_back(self, session):
        """run() is a lockstep batch of width one."""
        engine = self._engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        problem = SizingProblem.from_initial(engine, x_init)
        a = OGWSOptimizer(engine, problem, x_init=x_init).run()
        [b] = run_lockstep([OGWSOptimizer(engine, problem, x_init=x_init)])
        assert (a.x == b.x).all() and a.iterations == b.iterations

    def test_lockstep_rejects_mismatched_engines(self, session):
        engine = self._engine(session)
        other = session.engine("woss", 32, 0, "similarity", 2, "none")
        x_init = session.compiled.default_sizes(np.inf)
        with pytest.raises(ValidationError):
            run_lockstep([
                OGWSOptimizer(engine,
                              SizingProblem.from_initial(engine, x_init)),
                OGWSOptimizer(other,
                              SizingProblem.from_initial(other, x_init)),
            ])

    def test_mixed_outer_budgets_retire_columns_independently(self, session):
        """Columns with different max_iterations / tolerance leave the
        lockstep batch at different iterations yet match their scalar
        runs exactly."""
        engine = self._engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        problem = SizingProblem.from_initial(engine, x_init)

        def optimizers():
            return [
                OGWSOptimizer(engine, problem, x_init=x_init,
                              max_iterations=3),
                OGWSOptimizer(engine, problem, x_init=x_init,
                              tolerance=0.2),
                OGWSOptimizer(engine, problem, x_init=x_init),
            ]

        scalar = [opt.run() for opt in optimizers()]
        lockstep = run_lockstep(optimizers())
        for a, b in zip(scalar, lockstep):
            assert a.iterations == b.iterations
            assert (a.x == b.x).all()

    @staticmethod
    def _assert_bitwise(a, b):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.multipliers.lam_edge.tobytes() == \
            b.multipliers.lam_edge.tobytes()
        assert a.multipliers.beta == b.multipliers.beta
        assert a.multipliers.gamma == b.multipliers.gamma
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert ra == rb

    @pytest.mark.parametrize("rule", ["multiplicative", "subgradient"])
    @pytest.mark.parametrize("K", [3, 8])
    def test_batched_a4_columns_bitwise_equal_scalar(self, session, rule, K):
        """The grouped apply_batch path (same rule across all live
        columns) must reproduce scalar runs to the byte, including the
        full per-iteration history records."""
        engine = self._engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        fractions = (0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.35)[:K]

        def optimizers():
            return [OGWSOptimizer(
                engine,
                SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
                update=rule, x_init=x_init) for nf in fractions]

        for a, b in zip([opt.run() for opt in optimizers()],
                        run_lockstep(optimizers())):
            self._assert_bitwise(a, b)

    def test_mixed_update_rules_group_independently(self, session,
                                                    monkeypatch):
        """Columns with different rules split into one A4 batch per rule
        yet still match their runs alone."""
        engine = self._engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        rules = ("multiplicative", "subgradient", "multiplicative",
                 "subgradient", "multiplicative")

        def optimizers():
            return [OGWSOptimizer(
                engine,
                SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
                update=rule, x_init=x_init)
                for nf, rule in zip((0.08, 0.1, 0.12, 0.15, 0.2), rules)]

        alone = [opt.run() for opt in optimizers()]
        widths = []
        for cls in (MultiplicativeUpdate, SubgradientUpdate):
            def tracing(self, multipliers, *args, _apply=cls.apply_batch):
                widths.append((self.name, len(multipliers)))
                return _apply(self, multipliers, *args)

            monkeypatch.setattr(cls, "apply_batch", tracing)
        for a, b in zip(alone, run_lockstep(optimizers())):
            self._assert_bitwise(a, b)
        # The first iteration steps every column: one batch per rule.
        assert widths[:2] == [("multiplicative", 3), ("subgradient", 2)]

    @pytest.mark.parametrize("first", ["multiplicative", "subgradient"])
    def test_rule_group_goes_whole_when_the_other_retires(
            self, session, monkeypatch, first):
        """While both rules run, each is a group of one stepping its
        column from a slice of the stacks; once ``first`` retires, the
        other rule covers every live column and is passed the stacks
        whole.  Both columns stay bit-identical to their runs alone."""
        engine = self._engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        other = ({"multiplicative", "subgradient"} - {first}).pop()

        def optimizers():
            return [OGWSOptimizer(
                engine,
                SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
                update=rule, x_init=x_init, max_iterations=budget)
                for nf, rule, budget in ((0.1, first, 3), (0.12, other, 8))]

        alone = [opt.run() for opt in optimizers()]
        calls = []
        for cls in (MultiplicativeUpdate, SubgradientUpdate):
            def tracing(self, multipliers, ks, arrival, *args,
                        _apply=cls.apply_batch):
                calls.append((self.name, len(multipliers), arrival.shape[1]))
                return _apply(self, multipliers, ks, arrival, *args)

            monkeypatch.setattr(cls, "apply_batch", tracing)
        together = run_lockstep(optimizers())
        for a, b in zip(alone, together):
            self._assert_bitwise(a, b)
        assert [r.iterations for r in together] == [3, 8]
        assert calls == [(first, 1, 1), (other, 1, 1)] * 3 + \
            [(other, 1, 1)] * 5


class TestRepairShortCircuit:
    def test_lazy_feasibility_matches_eager(self, session):
        engine = self._noise_engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        problem = SizingProblem.from_initial(engine, x_init)
        optimizer = OGWSOptimizer(engine, problem, x_init=x_init)
        from repro.timing.metrics import EvalContext

        rng = np.random.default_rng(5)
        cc = session.compiled
        mask = cc.is_sizable
        for _ in range(12):
            x = cc.default_sizes(1.0)
            x[mask] = np.clip(rng.uniform(0.3, 4.0, int(mask.sum())),
                              cc.lower[mask], cc.upper[mask])
            eager = problem.is_feasible(evaluate_metrics(engine, x),
                                        FEASIBILITY_TOLERANCE)
            lazy = optimizer._feasible_lazy(EvalContext(engine, x))
            assert eager == lazy

    def _noise_engine(self, session):
        return session.engine("woss", 32, 0, "similarity", 2, "own")

    def test_repair_counts_candidate_evaluations(self, session):
        engine = self._noise_engine(session)
        x_init = session.compiled.default_sizes(np.inf)
        problem = SizingProblem.from_initial(engine, x_init)
        optimizer = OGWSOptimizer(engine, problem, x_init=x_init)
        result = optimizer.run()
        assert result.repair_evals >= 0
        infeasible_iters = sum(1 for h in result.history if not h.feasible)
        assert result.repair_evals <= 7 * max(infeasible_iters, 0) + 7


class TestFuzzSweepSmoke:
    """CircuitRef.random fuzz sweep through the grouped runtime path
    (robustness of the grouping planner on non-ISCAS topologies)."""

    def test_random_topology_fuzz_sweep(self):
        from repro.runtime import BatchRunner

        rng = np.random.default_rng(2026)
        refs = tuple(
            CircuitRef.random(int(rng.integers(8, 30)),
                              int(rng.integers(2, 6)),
                              int(rng.integers(1, 4)),
                              seed=int(seed),
                              target_depth=int(rng.integers(4, 9)))
            for seed in rng.integers(0, 1000, size=3))
        spec = SweepSpec(
            circuits=refs, orderings=("woss", "random"),
            noise_fractions=(0.1, 0.15),
            base=FlowConfig(n_patterns=16, max_iterations=30))
        runner = BatchRunner(jobs=1)
        records = runner.run(spec)
        assert len(records) == len(spec)
        assert runner.stats.groups == len(refs)
        assert [r.scenario.content_hash() for r in records] == \
            [s.content_hash() for s in spec.scenarios()]
        # Grouped output still equals one-scenario solves, byte for byte.
        scalar = _solo(spec.scenarios())
        assert ([r.canonical_json() for r in records]
                == [r.canonical_json() for r in scalar])


class TestSessionPool:
    """SessionPool: LRU reuse keyed by circuit identity, warm ≡ cold."""

    def test_reuse_hit_and_identity(self):
        from repro.core import SessionPool

        pool = SessionPool(capacity=2)
        first = pool.session(REF)
        assert pool.session(REF) is first
        # An equal-but-distinct ref (same content hash) shares the session.
        clone = CircuitRef.from_dict(REF.canonical_dict())
        assert pool.session(clone) is first
        assert (pool.hits, pool.misses) == (2, 1)
        assert REF in pool and len(pool) == 1

    def test_lru_eviction_order(self):
        from repro.core import SessionPool

        refs = [CircuitRef.random(10 + 2 * i, 3, 2, seed=i, target_depth=4)
                for i in range(3)]
        pool = SessionPool(capacity=2)
        s0 = pool.session(refs[0])
        pool.session(refs[1])
        pool.session(refs[0])       # refresh refs[0]; refs[1] is now LRU
        pool.session(refs[2])       # evicts refs[1]
        assert pool.evictions == 1
        assert refs[1] not in pool
        assert pool.session(refs[0]) is s0
        pool.clear()
        assert len(pool) == 0

    def test_capacity_validated(self):
        from repro.core import SessionPool

        with pytest.raises(ValidationError):
            SessionPool(capacity=0)

    def test_bench_file_edit_is_a_pool_miss_not_a_stale_hit(self, tmp_path):
        """A long-lived pool must not serve a session built from an old
        version of a .bench file edited in place (the key folds in the
        netlist bytes, not just the path)."""
        import shutil

        from repro.circuit.parser import builtin_bench_path
        from repro.core import SessionPool

        path = tmp_path / "c.bench"
        shutil.copy(builtin_bench_path("c17"), path)
        pool = SessionPool()
        ref = CircuitRef.bench(path)
        first = pool.session(ref)
        assert pool.session(ref) is first           # unchanged file: warm
        path.write_text(path.read_text() + "\n# edited\n")
        assert pool.session(ref) is not first       # edited file: rebuild
        assert pool.misses == 2

    def test_warm_reuse_byte_identical_to_cold_rebuild(self):
        """The reuse contract: records from a warm (pooled) session match
        a cold per-group rebuild byte for byte, across repeated groups."""
        from repro.core import SessionPool
        from repro.runtime.runner import run_scenario_group

        pool = SessionPool()
        scenarios = _spec(noise_fractions=(0.1, 0.13)).scenarios()
        cold = [r.canonical_json() for r in run_scenario_group(scenarios)]
        first = [r.canonical_json()
                 for r in run_scenario_group(scenarios, pool=pool)]
        warm = [r.canonical_json()
                for r in run_scenario_group(scenarios, pool=pool)]
        assert first == cold
        assert warm == cold
        assert pool.hits == 1   # the second group reused the session

    def test_batch_runner_serial_path_keeps_a_warm_pool(self):
        from repro.runtime import BatchRunner

        spec = _spec(noise_fractions=(0.1, 0.13))
        runner = BatchRunner(jobs=1)
        first = [r.canonical_json() for r in runner.run(spec)]
        second = [r.canonical_json() for r in runner.run(spec)]
        assert first == second
        assert runner.session_pool().hits >= 1
