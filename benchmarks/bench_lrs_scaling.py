"""LRS linear-time claim ("linear runtime per iteration").

Times a single LRS fixed-point solve (the paper's Fig. 8 subroutine,
steps S2–S5) across the suite and fits runtime per pass against
#gates+#wires.  Each point is the fastest of :data:`_ROUNDS` solves:
every circuit's solver is built once, solved once untimed (sweep plan
and workspaces), then timed in rounds interleaved across the circuits,
so host drift lands on every circuit alike.  Also benchmarks one fused
S2+S3+S4 pass in isolation on the largest circuit — the absolute
constant behind ``BENCH_perf.json``.
"""

import functools
import time

import numpy as np
import pytest

from repro import ChannelLayout, ElmoreEngine, SimilarityAnalyzer, iscas85_circuit
from repro.analysis import format_fig10_rows, linear_fit
from repro.core import LagrangianSubproblemSolver, MultiplierState
from repro.noise import CouplingSet, MillerMode

CIRCUITS = ["c432", "c880", "c1355", "c2670", "c5315", "c7552"]
_ROWS = []
_ROUNDS = 5


def build(name):
    circuit = iscas85_circuit(name)
    compiled = circuit.compile()
    analyzer = SimilarityAnalyzer(circuit, n_patterns=64)
    coupling = CouplingSet.from_layout(ChannelLayout.from_levels(circuit),
                                       analyzer, MillerMode.SIMILARITY)
    engine = ElmoreEngine(compiled, coupling)
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    return compiled, engine, mult


@pytest.fixture(scope="module")
def timings():
    """``{name: (size, s/pass, solve)}``: the fastest of its rounds and
    the warm solve it timed."""
    solves = {}
    for name in CIRCUITS:
        compiled, engine, mult = build(name)
        solves[name] = (compiled.num_components, functools.partial(
            LagrangianSubproblemSolver(engine).solve, mult))
    for _, solve in solves.values():
        solve()
    best = dict.fromkeys(CIRCUITS, np.inf)
    for _ in range(_ROUNDS):
        for name, (_, solve) in solves.items():
            start = time.perf_counter()
            result = solve()
            best[name] = min(best[name], (time.perf_counter() - start)
                             / result.passes)
    return {name: (size, best[name], solve)
            for name, (size, solve) in solves.items()}


@pytest.mark.parametrize("name", CIRCUITS)
def test_lrs_solve_scaling(benchmark, timings, name):
    size, per_pass, solve = timings[name]
    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert result.converged
    _ROWS.append((size, per_pass))
    benchmark.extra_info["passes"] = result.passes


def test_lrs_linearity(benchmark, report_writer):
    def analyze():
        rows = sorted(_ROWS)
        return rows, linear_fit([r[0] for r in rows], [r[1] for r in rows])

    rows, fit = benchmark.pedantic(analyze, rounds=1, iterations=1)
    text = format_fig10_rows([r[0] for r in rows], [r[1] for r in rows],
                             "s/LRS-pass", fit=fit,
                             title="LRS runtime per pass vs #gates+#wires")
    text += (f"\neach point: fastest of {_ROUNDS} solves, interleaved "
             "across circuits after a warm-up")
    report_writer("lrs_scaling", text)
    assert fit.r_squared > 0.9, "LRS pass time is not linear in circuit size"


def test_single_lrs_pass_c7552(benchmark):
    """One S2+S3+S4 pass on the largest circuit — the core inner loop."""
    compiled, engine, mult = build("c7552")
    one_pass = LagrangianSubproblemSolver(engine, max_passes=1, tolerance=0.0)
    x0 = compiled.default_sizes(1.0)

    result = benchmark(one_pass.solve, mult, x0)
    assert result.passes == 1
    assert np.all(result.x[compiled.is_sizable] > 0)
