"""Shared fixtures: small circuits, engines, and flow artifacts.

Expensive objects are session-scoped; tests must not mutate them (size
vectors are always copied out of fixtures before modification).
"""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, load_bench, random_circuit
from repro.circuit.parser import builtin_bench_path
from repro.core import NoiseAwareSizingFlow
from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.runtime import BatchRunner, CircuitRef, FlowConfig, SweepSpec


def pytest_configure(config):
    # Numeric trouble inside the library (sqrt of a negative, 0/0) must
    # fail the test that provokes it, not scroll past as a warning.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:repro")


@pytest.fixture(scope="session")
def figure1_circuit():
    """The paper's Figure 1: 3 drivers, 3 gates, 7 wires, 1 load."""
    builder = CircuitBuilder(name="fig1", default_wire_length=120.0)
    in1, in2, in3 = (builder.add_input(f"in{k}") for k in (1, 2, 3))
    g1 = builder.add_gate("nand", [in1, in2], name="g1")
    g2 = builder.add_gate("nor", [in2, in3], name="g2")
    g3 = builder.add_gate("nand", [g1, g2], name="g3")
    builder.set_output(g3, load=50.0)
    return builder.build()


@pytest.fixture(scope="session")
def c17():
    return load_bench(builtin_bench_path("c17"))


@pytest.fixture(scope="session")
def small_circuit():
    """25 gates / 5 inputs — the workhorse for engine comparisons."""
    return random_circuit(25, 5, 4, seed=0, target_depth=8)


@pytest.fixture(scope="session")
def medium_circuit():
    """120 gates — big enough to exercise level parallelism."""
    return random_circuit(120, 12, 8, seed=3, target_depth=15)


@pytest.fixture(scope="session")
def small_compiled(small_circuit):
    return small_circuit.compile()


@pytest.fixture(scope="session")
def small_coupling(small_circuit):
    analyzer = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
    layout = ChannelLayout.from_levels(small_circuit)
    return CouplingSet.from_layout(layout, analyzer, MillerMode.SIMILARITY)


@pytest.fixture(scope="session")
def small_flow_result(small_circuit):
    """A converged flow on the small circuit (shared read-only)."""
    flow = NoiseAwareSizingFlow(
        small_circuit, n_patterns=64,
        optimizer_options={"max_iterations": 300, "tolerance": 0.01},
    )
    return flow.run()


@pytest.fixture(scope="session")
def sweep_records():
    """Records of a tiny 2-circuit × 2-ordering sweep (shared read-only)."""
    spec = SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),
                  CircuitRef.random(16, 5, 3, seed=1, target_depth=6)),
        orderings=("woss", "none"),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )
    return BatchRunner().run(spec)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
