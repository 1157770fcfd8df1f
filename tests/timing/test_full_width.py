"""The lockstep path at full width: per-width constants, the sink probe,
the one-gather arrival write-back and workspace memory counted once.

* Every per-node constant a workspace carries is a C-contiguous
  ``(n, K)`` array equal to its 1-D source broadcast; at width 1 it is a
  view of the plan's array.  The coupling batch scratch holds its pair
  constants the same way.
* ``arrival_sweep(plan, delays, None, ws)`` returns each column's sink
  arrival, bit for bit ``arrival_times(delays)[sink]``, and a full sweep
  equals the fill-and-scatter spelling in ``tests/oracles/arrival.py``.
* ``Workspace.nbytes`` and ``CouplingSet.nbytes`` count each base
  allocation once, the coupling set's solver scratch included.
"""

import numpy as np
import pytest

from repro import ChannelLayout, SimilarityAnalyzer, iscas85_circuit
from repro.circuit import load_bench, random_circuit
from repro.circuit.parser import builtin_bench_path
from repro.core import OGWSOptimizer, SizingProblem, run_lockstep
from repro.noise import CouplingSet, MillerMode
from repro.timing import CouplingDelayMode, ElmoreEngine, kernels

from oracles.arrival import arrival_fill_scatter
from oracles.trees import random_tree_circuit

CIRCUITS = {
    "c17": lambda: load_bench(builtin_bench_path("c17")),
    "c432": lambda: iscas85_circuit("c432"),
    "random": lambda: random_circuit(200, 12, 8, seed=3),
    "tree": lambda: random_tree_circuit(150, 10, 6, seed=2, max_segments=4),
}
WIDTHS = (1, 2, 3, 16)


def _bits(values):
    """``values`` as raw float64 bit patterns (tells −0.0 from 0.0)."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _coupled(name, order=2):
    circuit = CIRCUITS[name]()
    analyzer = SimilarityAnalyzer(circuit, n_patterns=32)
    coupling = CouplingSet.from_layout(ChannelLayout.from_levels(circuit),
                                       analyzer, MillerMode.SIMILARITY,
                                       order=order)
    return circuit.compile(), coupling


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", ["c432", "random"])
def test_workspace_constants_at_width(name, width):
    plan = CIRCUITS[name]().compile().sweep_plan()
    ws = kernels.Workspace(plan, width=width)
    sources = kernels.Workspace.constant_sources(plan)
    assert set(sources) == set(kernels.Workspace.CONSTANTS)
    for const_name, source in sources.items():
        const = getattr(ws, const_name)
        assert const.shape == (plan.num_nodes, width), const_name
        assert const.dtype == source.dtype, const_name
        assert const.flags.c_contiguous, const_name
        np.testing.assert_array_equal(
            const, np.broadcast_to(source[:, None], const.shape))
        assert np.shares_memory(const, source) == (width == 1), const_name
    if width == 1:
        flat = ws.vectors()
        for const_name, source in sources.items():
            const = getattr(flat, const_name)
            assert const.shape == source.shape
            assert np.shares_memory(const, source)
    flat = kernels.Workspace(plan)
    for const_name, source in sources.items():
        assert getattr(flat, const_name) is source


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", ["c432", "random"])
def test_coupling_scratch_constants_at_width(name, width):
    """Order 2 keeps the frozen slope sums, higher orders ``chat``."""
    for order in (2, 3):
        _, coupling = _coupled(name, order)
        assert coupling.num_pairs
        s = coupling._ensure_batch_scratch(width)
        sources = {"ctilde": coupling.ctilde,
                   "two_distance": coupling._two_distance}
        if order == 2:
            sources["dx_static"] = coupling._ensure_scratch()["dx_static"]
        else:
            sources["chat"] = coupling.chat
        np.testing.assert_array_equal(sources["two_distance"],
                                      2.0 * coupling.distance)
        for const_name, source in sources.items():
            const = s[const_name]
            assert const.shape == (len(source), width), const_name
            assert const.flags.c_contiguous, const_name
            assert not const.flags.writeable, const_name
            np.testing.assert_array_equal(
                const, np.broadcast_to(source[:, None], const.shape))
            assert np.shares_memory(const, source) == (width == 1), \
                const_name
        assert not any(name.endswith("_col") for name in vars(coupling))


def _delay_columns(compiled, count, seed):
    """``count`` delay vectors at random sizes, with zero and −0.0 entries
    and one all-(−0.0) column."""
    engine = ElmoreEngine(compiled)
    rng = np.random.default_rng(seed)
    n = compiled.num_nodes
    columns = []
    for k in range(count):
        x = compiled.clip_sizes(rng.uniform(0.05, 5.0, n))
        d = engine.delays(x)
        d[rng.random(n) < 0.15] = 0.0
        d[rng.random(n) < 0.15] = -0.0
        if k == 2:
            d[:] = -0.0
        columns.append(d)
    return engine, columns


@pytest.mark.parametrize("shape", ["(n,)", "(n, 1)", "(n, 3)"])
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_sink_probe_equals_full_sweep_at_the_sink(name, shape):
    compiled = CIRCUITS[name]().compile()
    plan = compiled.sweep_plan()
    width = 3 if shape == "(n, 3)" else 1
    engine, columns = _delay_columns(compiled, width, seed=len(name))
    for d in columns:
        expected = engine.arrival_times(d)[compiled.sink]
        if shape == "(n,)":
            got = kernels.arrival_sweep(plan, d, None, engine.workspace())
            assert np.shape(got) == ()
            np.testing.assert_array_equal(got, expected)
            assert _bits(got) == _bits(expected)
    if shape == "(n,)":
        return
    delays = np.ascontiguousarray(np.column_stack(columns))
    got = kernels.arrival_sweep(plan, delays, None,
                                engine.pool.buffers(width))
    expected = np.array([engine.arrival_times(d)[compiled.sink]
                         for d in columns])
    assert got.shape == (width,)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    # The probe leaves its input alone and returns no workspace view.
    assert not np.shares_memory(got, engine.pool.buffers(width).arr)


@pytest.mark.parametrize("shape", ["(n,)", "(n, 1)", "(n, 3)"])
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_one_gather_write_back_equals_fill_and_scatter(name, shape):
    compiled = CIRCUITS[name]().compile()
    plan = compiled.sweep_plan()
    width = 3 if shape == "(n, 3)" else 1
    engine, columns = _delay_columns(compiled, width, seed=7 + len(name))
    delays = columns[0] if shape == "(n,)" else \
        np.ascontiguousarray(np.column_stack(columns))
    ws = engine.workspace() if shape == "(n,)" else \
        engine.pool.buffers(width)
    arrival = np.full(delays.shape, np.nan)
    kernels.arrival_sweep(plan, delays, arrival, ws)
    expected = arrival_fill_scatter(plan, delays)
    np.testing.assert_array_equal(_bits(arrival), _bits(expected))
    assert np.isin(plan.arr_perm, np.arange(compiled.num_nodes)).all()
    assert len(np.unique(plan.arr_perm)) == compiled.num_nodes


@pytest.mark.parametrize("width", (None,) + WIDTHS)
def test_workspace_nbytes_counts_each_base_once(width):
    """The width-1 constants view the plan and the condensed arrivals
    view ``arr``: neither adds to ``nbytes``."""
    plan = CIRCUITS["c432"]().compile().sweep_plan()
    ws = kernels.Workspace(plan, width=width)
    ws.arrival_levels()
    owned = [getattr(ws, name)
             for name in ws.NODE_BUFFERS + ws.SCRATCH_BUFFERS]
    if width is not None:
        owned += [ws.lam, ws.numer, ws.alpha_beta, ws.colmax, ws.colmask]
        if width > 1:
            owned += [getattr(ws, name) for name in ws.CONSTANTS]
    assert all(array.base is None for array in owned)
    assert len({id(array) for array in owned}) == len(owned)
    assert ws.nbytes == sum(array.nbytes for array in owned)
    n_cond = len(plan.cond_nodes)
    for *_, level, _ in ws.arrival_levels():
        assert level.base is ws.arr and level.shape[0] <= n_cond


@pytest.mark.parametrize("order", (2, 3))
def test_coupling_nbytes_counts_its_scratch_once(order):
    """After a lockstep solve ``nbytes`` holds the set's arrays, the
    endpoint-scatter operator once and every pooled width's scratch; the
    width-1 constants view the set's own arrays and add nothing."""
    compiled, coupling = _coupled("c432", order)
    engine = ElmoreEngine(compiled, coupling)
    x_init = compiled.default_sizes(np.inf)
    run_lockstep([OGWSOptimizer(
        engine, SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
        x_init=x_init, max_iterations=5) for nf in (0.1, 0.12, 0.14, 0.16)])
    coupling._ensure_batch_scratch(1)
    assert {1, 4} <= set(coupling.__dict__["_batch_scratch"])
    _assert_nbytes_counts_each_base_once(coupling)


@pytest.mark.parametrize("mode", list(CouplingDelayMode))
def test_coupling_nbytes_counts_its_scratch_in_every_delay_mode(mode):
    """The count holds whichever scratch the delay mode's passes use,
    after a width-2 lockstep solve and a width-1 run on one set."""
    compiled, coupling = _coupled("c432")
    engine = ElmoreEngine(compiled, coupling, mode)
    x_init = compiled.default_sizes(np.inf)

    def optimizer(nf):
        return OGWSOptimizer(
            engine,
            SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
            x_init=x_init, max_iterations=3)

    run_lockstep([optimizer(0.1), optimizer(0.14)])
    optimizer(0.12).run()
    assert {1, 2} <= set(coupling.__dict__["_batch_scratch"])
    _assert_nbytes_counts_each_base_once(coupling)


@pytest.mark.parametrize("mode", list(CouplingDelayMode))
def test_node_caps_scratch_only_where_propagated_reads_it(mode):
    """Only the ``PROPAGATED`` delay mode asks the batched coupling pass
    for per-node caps, so only its solves allocate that buffer."""
    compiled, coupling = _coupled("c432")
    engine = ElmoreEngine(compiled, coupling, mode)
    x_init = compiled.default_sizes(np.inf)
    run_lockstep([OGWSOptimizer(
        engine, SizingProblem.from_initial(engine, x_init, noise_fraction=nf),
        x_init=x_init, max_iterations=5) for nf in (0.1, 0.12, 0.14, 0.16)])
    scratch = coupling.__dict__["_batch_scratch"]
    if mode is CouplingDelayMode.PROPAGATED:
        assert "node_caps" in scratch[4]
    else:
        assert not any("node_caps" in s for s in scratch.values())
    _assert_nbytes_counts_each_base_once(coupling)


@pytest.mark.parametrize("order", (2, 3))
def test_coupling_nbytes_follows_the_pooled_widths(order):
    """A new width adds exactly the scratch it allocates (at width 1 the
    pair constants are views and add nothing); the width the LRU evicts
    drops out of the count."""
    _, coupling = _coupled("c432", order)
    coupling._ensure_scratch()

    def allocated(s):
        return sum(value.nbytes for name, value in s.items()
                   if name != "op" and value.base is None)

    pooled = {}
    for width in range(1, 8):
        before = coupling.nbytes
        pooled[width] = coupling._ensure_batch_scratch(width)
        evicted = pooled.pop(width - 6) if width > 6 else {}
        assert coupling.nbytes - before == \
            allocated(pooled[width]) - allocated(evicted)
    assert set(coupling.__dict__["_batch_scratch"]) == set(pooled)
    _assert_nbytes_counts_each_base_once(coupling)


def _assert_nbytes_counts_each_base_once(coupling):
    """``nbytes`` is the sum over the set's arrays, the endpoint-scatter
    operator once and every pooled width's own scratch; each is a base
    allocation counted once."""
    scratch = coupling._scratch
    op = scratch["op"]
    owned = [value for value in vars(coupling).values()
             if isinstance(value, np.ndarray)]
    owned += [op.indptr, op.indices, op.data]
    owned += [value for name, value in scratch.items() if name != "op"]
    for width, s in coupling.__dict__["_batch_scratch"].items():
        assert s["op"] is op
        owned += [value for name, value in s.items() if name != "op"
                  and (width > 1 or name not in (
                      "ctilde", "chat", "two_distance", "dx_static"))]
    assert all(array.base is None for array in owned)
    assert len({id(array) for array in owned}) == len(owned)
    assert coupling.nbytes == sum(array.nbytes for array in owned)
