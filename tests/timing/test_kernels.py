"""Kernel sweep layer: plan structure, oracle equivalence, allocation.

The precompiled :class:`SweepPlan` / :class:`Workspace` kernels must be
drop-in replacements for the unbuffered level sweeps kept as oracles in
``tests/oracles/``, and a steady-state fused LRS pass must not allocate.
"""

import tracemalloc

import numpy as np
import pytest

from repro import ChannelLayout, SimilarityAnalyzer, iscas85_circuit
from repro.circuit import random_circuit
from repro.core import LagrangianSubproblemSolver, MultiplierState
from repro.noise import CouplingSet, MillerMode
from repro.timing import CouplingDelayMode, ElmoreEngine

from oracles.csr import csr_matvec as csr_oracle
from oracles.elmore import LevelSweepEngine
from oracles.lrs import solve_reference
from oracles.multipliers import project_reference


@pytest.fixture(scope="module")
def setup():
    circuit = iscas85_circuit("c432")
    compiled = circuit.compile()
    analyzer = SimilarityAnalyzer(circuit, n_patterns=32)
    coupling = CouplingSet.from_layout(ChannelLayout.from_levels(circuit),
                                       analyzer, MillerMode.SIMILARITY)
    return compiled, coupling


def _engines(compiled, coupling, mode=CouplingDelayMode.OWN):
    return (ElmoreEngine(compiled, coupling, mode),
            LevelSweepEngine(compiled, coupling, mode))


def test_plan_structure(setup):
    compiled, _ = setup
    plan = compiled.sweep_plan()
    assert plan is compiled.sweep_plan()  # memoized
    # Every edge appears exactly once in the descendant closure's direct
    # children (first hop) and the boundary/wire split covers all edges.
    n_boundary = int(np.sum(~compiled.is_wire[compiled.edge_dst]))
    assert len(plan.boundary_ids) == n_boundary
    assert plan.proj_scatter.n_rows == compiled.num_edges
    # Closures stay near the edge count (stage-limited, not quadratic).
    assert plan.desc.nnz < 4 * compiled.num_edges
    assert plan.anc.nnz < 4 * compiled.num_edges
    # Condensed schedule covers every non-wire node exactly once.
    assert len(plan.cond_nodes) == int(np.sum(~compiled.is_wire))
    assert plan.nbytes > 0


@pytest.mark.parametrize("mode", list(CouplingDelayMode))
def test_sweeps_match_reference_backend(setup, mode):
    compiled, coupling = setup
    kernel, reference = _engines(compiled, coupling, mode)
    rng = np.random.default_rng(7)
    x = compiled.default_sizes(1.0)
    mask = compiled.is_sizable
    x[mask] = np.clip(rng.uniform(0.5, 3.0, int(mask.sum())),
                      compiled.lower[mask], compiled.upper[mask])

    ck, cr = kernel.capacitances(x), reference.capacitances(x)
    for key in cr:
        np.testing.assert_allclose(ck[key], cr[key], rtol=1e-12, atol=1e-15)
    dk, dr = kernel.delays(x), reference.delays(x)
    np.testing.assert_allclose(dk, dr, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(kernel.arrival_times(dr),
                               reference.arrival_times(dr),
                               rtol=1e-12, atol=1e-12)
    lam = MultiplierState.initial(compiled).node_multipliers()
    np.testing.assert_allclose(
        kernel.weighted_upstream_resistance(x, lam),
        reference.weighted_upstream_resistance(x, lam),
        rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mode", list(CouplingDelayMode))
def test_lrs_solve_matches_reference_backend(setup, mode):
    compiled, coupling = setup
    kernel, reference = _engines(compiled, coupling, mode)
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    rk = LagrangianSubproblemSolver(kernel).solve(mult)
    rr = solve_reference(reference, mult)
    assert rk.passes == rr.passes
    assert rk.converged and rr.converged
    np.testing.assert_allclose(rk.x, rr.x, rtol=1e-12, atol=1e-15)


def test_project_matches_reference(setup):
    compiled, _ = setup
    rng = np.random.default_rng(3)
    # Include exact zeros so the dead-edge rule is exercised.
    lam = rng.uniform(0.0, 2.0, compiled.num_edges)
    lam[rng.random(compiled.num_edges) < 0.15] = 0.0
    kernel = MultiplierState(compiled, lam.copy())
    reference = MultiplierState(compiled, lam.copy())
    kernel.project()
    project_reference(reference)
    np.testing.assert_allclose(kernel.lam_edge, reference.lam_edge,
                               rtol=1e-10, atol=1e-12)
    assert kernel.conservation_residual() < 1e-9


def test_project_on_random_circuits():
    for seed in range(4):
        compiled = random_circuit(18, 4, 3, seed=seed).compile()
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.0, 1.5, compiled.num_edges)
        lam[rng.random(compiled.num_edges) < 0.3] = 0.0
        a = MultiplierState(compiled, lam.copy()).project()
        b = project_reference(MultiplierState(compiled, lam.copy()))
        np.testing.assert_allclose(a.lam_edge, b.lam_edge,
                                   rtol=1e-10, atol=1e-12)


def test_workspace_reuse_is_stateless(setup):
    """Back-to-back solves through one workspace give identical results."""
    compiled, coupling = setup
    engine = ElmoreEngine(compiled, coupling)
    solver = LagrangianSubproblemSolver(engine)
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    first = solver.solve(mult)
    second = solver.solve(mult)
    np.testing.assert_array_equal(first.x, second.x)
    assert engine.workspace() is engine.workspace()


def test_steady_state_lrs_pass_allocates_nothing(setup):
    """tracemalloc guard: warm kernel passes run entirely in the workspace.

    The reference spelling allocates dozens of node/edge-length arrays
    per pass (hundreds of KiB at c432 scale); the fused kernel pass must
    stay under a small fixed overhead (ufunc bookkeeping, view objects)
    regardless of circuit size.
    """
    compiled, coupling = setup
    engine = ElmoreEngine(compiled, coupling)
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    x0 = compiled.default_sizes(1.0)
    solver = LagrangianSubproblemSolver(engine, max_passes=5, tolerance=0.0)
    solver.solve(mult, x0=x0)  # warm: plan, workspace, coupling scratch

    tracemalloc.start()
    solver.solve(mult, x0=x0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # 5 passes; the only O(n) allocations allowed are the per-solve
    # constants (lam_node, numer, alpha_beta, x copies) — not per-pass.
    per_pass_budget = 16 * 1024
    per_solve = 8 * compiled.num_nodes * 8 + 4096
    assert peak < per_solve + 5 * per_pass_budget, (
        f"steady-state LRS passes allocated {peak} bytes")


def test_reference_backend_allocates_more_for_contrast(setup):
    """Sanity check that the guard above measures something real: the
    per-sweep oracle spelling allocates well past its budget."""
    compiled, coupling = setup
    engine = LevelSweepEngine(compiled, coupling)
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    x0 = compiled.default_sizes(1.0)
    solve_reference(engine, mult, x0=x0, tolerance=0.0, max_passes=5)
    tracemalloc.start()
    solve_reference(engine, mult, x0=x0, tolerance=0.0, max_passes=5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak > 8 * compiled.num_nodes * 8 + 5 * 16 * 1024


def test_lagrangian_value_accepts_context(setup):
    from repro.core.problem import SizingProblem
    from repro.timing.metrics import EvalContext

    compiled, coupling = setup
    engine = ElmoreEngine(compiled, coupling)
    solver = LagrangianSubproblemSolver(engine)
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    x = solver.solve(mult).x
    problem = SizingProblem(delay_bound_ps=5000.0, noise_bound_ff=2000.0,
                            power_cap_bound_ff=50000.0)
    plain = solver.lagrangian_value(x, mult, problem)
    context = EvalContext(engine, x)
    with_ctx = solver.lagrangian_value(x, mult, problem, context=context)
    assert with_ctx == pytest.approx(plain, rel=1e-12)


def _operators(compiled, coupling):
    """Every CSR operator the solver multiplies by, with its column count."""
    plan = compiled.sweep_plan()
    return {
        "desc": (plan.desc, compiled.num_nodes),
        "anc": (plan.anc, compiled.num_nodes),
        "wire_chain": (plan.wire_chain, compiled.num_nodes),
        "proj_scatter": (plan.proj_scatter, len(plan.boundary_ids)),
        "coupling_endpoints": (coupling._ensure_scratch()["op"],
                               coupling.num_pairs),
    }


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("name", ["desc", "anc", "wire_chain",
                                  "proj_scatter", "coupling_endpoints"])
def test_csr_matvec_equals_sequential_oracle(setup, name, width):
    """The one CSR backend adds each row in index order onto 0.0: equal
    bit for bit to the per-row oracle, as a vector, one column or K."""
    from repro.timing import kernels

    compiled, coupling = setup
    op, n_cols = _operators(compiled, coupling)[name]
    assert op.nnz
    rng = np.random.default_rng(9 + width)
    x = rng.uniform(-2.0, 2.0, (n_cols, width))
    x[rng.random(n_cols) < 0.1] = -0.0
    inputs = [x] if width > 1 else [x, np.ascontiguousarray(x[:, 0])]
    for x_in in inputs:
        y = np.full((op.n_rows,) + x_in.shape[1:], np.nan)
        assert kernels.csr_matvec(op, x_in, y) is y
        expected = csr_oracle(op, x_in)
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(np.signbit(y), np.signbit(expected))


def test_plan_operators_share_one_read_only_unit_vector(setup):
    from repro.timing.kernels import CSROp

    compiled, coupling = setup
    plan = compiled.sweep_plan()
    assert not plan.units.flags.writeable
    assert np.all(plan.units == 1.0)
    assert plan.desc.nnz == plan.anc.nnz == len(plan.units)
    for name in ("desc", "anc", "wire_chain", "proj_scatter"):
        op = getattr(plan, name)
        assert op.data.base is plan.units and len(op.data) == op.nnz
        assert op.nbytes == op.indptr.nbytes + op.indices.nbytes
    # desc_base is the compiled circuit's own load_cap, not a copy.
    assert plan.desc_base is compiled.load_cap
    op = coupling._ensure_scratch()["op"]
    assert op.data.base is None and op.nbytes == (
        op.indptr.nbytes + op.indices.nbytes + op.data.nbytes)
    with pytest.raises(ValueError, match="shorter"):
        CSROp(plan.desc.indptr, plan.desc.indices, plan.units[:-1])


def test_no_scratch_beyond_the_kernels_needs(setup):
    """The raw kernels need no gather scratch: no closure-sized buffer
    in any workspace, none in the coupling batch scratch."""
    from repro.timing import kernels

    compiled, coupling = setup
    plan = compiled.sweep_plan()
    for width in (None, 3):
        names = set(vars(kernels.Workspace(plan, width=width)))
        assert not names & {"cbuf", "sbuf"}
    assert "ws" not in coupling._ensure_batch_scratch(3)


_KERNEL_IMPORTS = """
import sys
import repro.cli
import repro.runtime.worker
from repro.timing import kernels
print(sorted(name for name in sys.modules
             if name == "scipy.sparse" or name.startswith("scipy.sparse.")))
"""


def _run(code):
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    import os
    import subprocess
    import sys

    import repro

    path = [os.path.dirname(os.path.dirname(repro.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env).stdout


def test_cli_and_worker_imports_leave_scipy_sparse_unloaded():
    assert _run(_KERNEL_IMPORTS).split("\n")[0] == \
        "['scipy.sparse._sparsetools']"


def test_later_scipy_sparse_import_shares_the_kernels_module():
    out = _run(_KERNEL_IMPORTS + """
import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools
assert _sparsetools is kernels._st
assert sys.modules["scipy.sparse._sparsetools"] is kernels._st
rng = np.random.default_rng(0)
dense = rng.uniform(size=(40, 30)) * (rng.random((40, 30)) < 0.2)
matrix = scipy.sparse.csr_matrix(dense)
x = rng.uniform(size=30)
np.testing.assert_allclose(matrix @ x, dense @ x, rtol=1e-12)
np.testing.assert_allclose((matrix @ matrix.T).toarray(), dense @ dense.T,
                           rtol=1e-12)
print("ok")
""")
    assert out.split()[-1] == "ok"


def test_kernels_after_scipy_sparse_reuse_its_module():
    out = _run("""
import sys
import scipy.sparse
from scipy.sparse import _sparsetools
from repro.timing import kernels
assert kernels._st is _sparsetools
assert sys.modules["scipy.sparse._sparsetools"] is _sparsetools
print("ok")
""")
    assert out.split()[-1] == "ok"


def _random_sizes(compiled, rng):
    x = compiled.default_sizes(1.0)
    mask = compiled.is_sizable
    x[mask] = np.clip(rng.uniform(0.3, 4.0, int(mask.sum())),
                      compiled.lower[mask], compiled.upper[mask])
    return x


class TestBatchedKernels:
    """Column-stacked (n, K) sweeps must be bitwise equal per column."""

    def test_csr_matmat_bitwise_equals_matvec(self, setup):
        from repro.timing import kernels

        compiled, _ = setup
        plan = compiled.sweep_plan()
        rng = np.random.default_rng(11)
        x_cols = np.ascontiguousarray(rng.uniform(0.1, 3.0,
                                                  (compiled.num_nodes, 5)))
        y_cols = np.empty_like(x_cols)
        kernels.csr_matvec(plan.desc, x_cols, y_cols)
        for k in range(5):
            y = np.empty(compiled.num_nodes)
            kernels.csr_matvec(plan.desc, np.ascontiguousarray(x_cols[:, k]),
                               y)
            np.testing.assert_array_equal(y, y_cols[:, k])

    @pytest.mark.parametrize("mode", list(CouplingDelayMode))
    def test_batched_arrival_bitwise(self, setup, mode):
        from repro.timing import kernels

        compiled, coupling = setup
        plan = compiled.sweep_plan()
        engine = ElmoreEngine(compiled, coupling, mode)
        rng = np.random.default_rng(17)
        xs = [_random_sizes(compiled, rng) for _ in range(4)]
        delays = np.column_stack([engine.delays(x) for x in xs])
        ws = kernels.Workspace(plan, width=4)
        arrival = np.empty_like(delays)
        kernels.arrival_sweep(plan, delays, arrival, ws)
        for k, x in enumerate(xs):
            expected = engine.arrival_times(
                np.ascontiguousarray(delays[:, k]))
            np.testing.assert_array_equal(arrival[:, k], expected)

    def test_batched_projection_bitwise(self, setup):
        from repro.timing import kernels

        compiled, _ = setup
        plan = compiled.sweep_plan()
        rng = np.random.default_rng(23)
        lams = []
        for _ in range(4):
            lam = rng.uniform(0.0, 2.0, compiled.num_edges)
            lam[rng.random(compiled.num_edges) < 0.2] = 0.0
            lams.append(lam)
        stacked = np.column_stack(lams)
        kernels.project_sweep(plan, stacked)
        for k, lam in enumerate(lams):
            expected = lam.copy()
            kernels.project_sweep(plan, expected)
            np.testing.assert_array_equal(stacked[:, k], expected)

    @pytest.mark.parametrize("mode", list(CouplingDelayMode))
    def test_solve_batch_bitwise_equals_scalar(self, setup, mode):
        compiled, coupling = setup
        engine = ElmoreEngine(compiled, coupling, mode)
        solver = LagrangianSubproblemSolver(engine)
        mults = [MultiplierState.initial(compiled, beta=b, gamma=g)
                 for b, g in [(1e-3, 1e-3), (5e-3, 2e-3),
                              (1e-2, 1e-2), (2e-4, 5e-2)]]
        batch = solver.solve_batch(mults)
        for mult, got in zip(mults, batch):
            want = solver.solve(mult)
            assert got.passes == want.passes
            assert got.max_rel_change == want.max_rel_change
            np.testing.assert_array_equal(got.x, want.x)

    def test_solve_batch_warm_starts(self, setup):
        compiled, coupling = setup
        engine = ElmoreEngine(compiled, coupling)
        solver = LagrangianSubproblemSolver(engine)
        mults = [MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
                 for _ in range(3)]
        cold = solver.solve_batch(mults)
        x0s = [r.x for r in cold]
        warm = solver.solve_batch(mults, x0s)
        for mult, x0, got in zip(mults, x0s, warm):
            want = solver.solve(mult, x0=x0)
            assert got.passes == want.passes
            np.testing.assert_array_equal(got.x, want.x)

    def test_compaction_on_final_pass_keeps_true_convergence_state(self,
                                                                   setup):
        """Regression: a column converging exactly at the pass budget
        compacts the survivors into fresh buffers; their reported
        max_rel/converged must come from the real last pass, not the new
        buffer's zeros."""
        compiled, coupling = setup
        engine = ElmoreEngine(compiled, coupling)
        mults = [MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3),
                 MultiplierState.initial(compiled, beta=3e-1, gamma=2e-1)]
        # Warm-start column 1 at its own fixed point so it converges on
        # pass 1 == max_passes, exactly when column 0 is still moving.
        probe = LagrangianSubproblemSolver(engine)
        x0s = [None, probe.solve(mults[1]).x]
        solver = LagrangianSubproblemSolver(engine, max_passes=1)
        batch = solver.solve_batch(mults, x0s)
        for mult, x0, got in zip(mults, x0s, batch):
            want = solver.solve(mult, x0=x0)
            assert got.converged == want.converged
            assert got.max_rel_change == want.max_rel_change
            assert got.passes == want.passes
            np.testing.assert_array_equal(got.x, want.x)
        assert [r.converged for r in batch] == [False, True]

    def test_solve_batch_results_do_not_alias_the_pool(self, setup):
        """Regression: a column finishing in the width-1 buffers must be
        copied out, or the next solve on the pool overwrites it."""
        compiled, coupling = setup
        engine = ElmoreEngine(compiled, coupling)
        solver = LagrangianSubproblemSolver(engine)
        mults = [MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3),
                 MultiplierState.initial(compiled, beta=3e-1, gamma=2e-1)]
        # Column 1 starts at its own fixed point and converges first, so
        # column 0 finishes alone at width one.
        x0s = [None, solver.solve(mults[1]).x]
        results = solver.solve_batch(mults, x0s)
        assert results[1].passes < results[0].passes
        kept = [r.x.copy() for r in results]
        for width in (1, 2):
            ws = engine.pool.buffers(width)
            for r in results:
                assert not np.shares_memory(r.x, ws.x_a)
                assert not np.shares_memory(r.x, ws.x_b)
        solver.solve(mults[0])
        for r, x in zip(results, kept):
            np.testing.assert_array_equal(r.x, x)

    def test_batch_workspace_pooled_by_width(self, setup):
        from repro.timing import kernels

        compiled, _ = setup
        plan = compiled.sweep_plan()
        bws = kernels.BatchWorkspace(plan)
        assert bws.buffers(4) is bws.buffers(4)
        assert bws.buffers(4) is not bws.buffers(3)
        assert bws.buffers(4).x_a.shape == (compiled.num_nodes, 4)
        assert bws.nbytes > 0

    def test_batch_workspace_evicts_lru_widths(self, setup):
        """The pool stays bounded when a shrinking batch visits many
        widths; recently-used widths survive, stale ones are dropped."""
        from repro.timing import kernels

        compiled, _ = setup
        bws = kernels.BatchWorkspace(compiled.sweep_plan(), max_pool=3)
        kept = bws.buffers(8)
        for width in (7, 6):
            bws.buffers(width)
        bws.buffers(8)              # refresh width-8 recency
        bws.buffers(5)              # evicts width 7 (LRU), not 8
        assert set(bws._pool) == {6, 8, 5}
        assert bws.buffers(8) is kept

    def test_steady_state_batched_pass_allocates_nothing(self, setup):
        """tracemalloc guard, batched edition: warm (n, K) passes at a
        constant width run entirely in the pooled workspace."""
        compiled, coupling = setup
        engine = ElmoreEngine(compiled, coupling)
        mults = [MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
                 for _ in range(4)]
        x0 = compiled.default_sizes(1.0)
        x0s = [x0] * 4
        # tolerance=0 keeps every column active: no compaction events,
        # so every pass after warmup is steady-state.
        solver = LagrangianSubproblemSolver(engine, max_passes=5,
                                            tolerance=0.0)
        solver.solve_batch(mults, x0s)  # warm pools + scratch

        tracemalloc.start()
        solver.solve_batch(mults, x0s)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Per-solve constants (K lam_node vectors + the final x copies)
        # are O(K·n); per-pass overhead must stay small and fixed.
        per_pass_budget = 16 * 1024
        per_solve = 12 * 4 * compiled.num_nodes * 8 + 8192
        assert peak < per_solve + 5 * per_pass_budget, (
            f"steady-state batched LRS passes allocated {peak} bytes")

    def test_metrics_tail_batch_allocation_bounded(self, setup):
        """tracemalloc guard over the lockstep metrics tail: warm
        ``totals_batch`` calls run in the pooled pair scratch, leaving
        only the transposed column copy plus the (K,) result."""
        compiled, coupling = setup
        rng = np.random.default_rng(31)
        x_cols = np.ascontiguousarray(
            rng.uniform(0.5, 2.0, (compiled.num_nodes, 4)))
        coupling.totals_batch(x_cols)  # warm the width-4 scratch

        tracemalloc.start()
        coupling.totals_batch(x_cols)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        budget = 2 * coupling.num_pairs * 4 * 8 + 16 * 1024
        assert peak < budget, (
            f"warm totals_batch allocated {peak} bytes (> {budget})")

    def test_batched_a4_allocation_bounded(self, setup):
        """tracemalloc guard over batched A4: one ``apply_batch`` call
        allocates O(E·K) work matrices (edge terms, ratio/step, stacked
        λ before/after) and nothing proportional to passes or nodes³ —
        no per-edge Python objects, no K redundant scalar passes."""
        from repro.core.problem import SizingProblem
        from repro.core.subgradient import (
            MultiplicativeUpdate,
            SubgradientUpdate,
        )

        compiled, coupling = setup
        engine = ElmoreEngine(compiled, coupling)
        x = compiled.default_sizes(1.0)
        delays = engine.delays(x)
        arrival = engine.arrival_times(delays)
        K = 4
        arr = np.column_stack([arrival * (1 + 0.01 * j) for j in range(K)])
        del_ = np.column_stack([delays * (1 + 0.01 * j) for j in range(K)])
        problems = [SizingProblem(delay_bound_ps=float(arrival[compiled.sink]),
                                  noise_bound_ff=100.0 + j,
                                  power_cap_bound_ff=1000.0 + j)
                    for j in range(K)]
        for update in (MultiplicativeUpdate(), SubgradientUpdate()):
            mults = [MultiplierState.initial(compiled, beta=0.1, gamma=0.1)
                     for _ in range(K)]
            update.apply_batch(mults, [1] * K, arr, del_, problems,
                               [1500.0] * K, [40.0] * K)  # warm ufunc paths

            tracemalloc.start()
            update.apply_batch(mults, [2] * K, arr, del_, problems,
                               [1500.0] * K, [40.0] * K)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            budget = 14 * compiled.num_edges * K * 8 + 32 * 1024
            assert peak < budget, (
                f"{update.name} apply_batch allocated {peak} bytes "
                f"(> {budget})")


def test_evalcontext_totals_match_metric_functions(setup):
    """The dot-product fast totals pin exactly to the metric definitions."""
    from repro.timing.metrics import EvalContext, total_area, total_capacitance

    compiled, coupling = setup
    rng = np.random.default_rng(13)
    x = compiled.default_sizes(1.0)
    mask = compiled.is_sizable
    x[mask] = np.clip(rng.uniform(0.5, 3.0, int(mask.sum())),
                      compiled.lower[mask], compiled.upper[mask])
    context = EvalContext(ElmoreEngine(compiled, coupling), x)
    assert context.area_um2 == pytest.approx(
        total_area(compiled, x), rel=1e-12)
    assert context.total_cap_ff == pytest.approx(
        total_capacitance(compiled, x), rel=1e-12)
