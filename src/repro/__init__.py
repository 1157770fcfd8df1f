"""repro — noise-constrained gate and wire sizing by Lagrangian relaxation.

A from-scratch Python reproduction of

    Jiang, Jou, Chang, "Noise-Constrained Performance Optimization by
    Simultaneous Gate and Wire Sizing Based on Lagrangian Relaxation",
    DAC 1999.

Quickstart::

    from repro import iscas85_circuit, NoiseAwareSizingFlow

    circuit = iscas85_circuit("c432")
    result = NoiseAwareSizingFlow(circuit).run()
    print(result.sizing.summary())

Package map (bottom-up):

* :mod:`repro.circuit`   — circuit graphs, builder, .bench parser, generators
* :mod:`repro.simulate`  — levelized (cycle-accurate) logic simulation
* :mod:`repro.geometry`  — channels, track assignment, coupling extraction
* :mod:`repro.noise`     — coupling model, similarity, Miller, WOSS ordering
* :mod:`repro.timing`    — Elmore engine, power/area metrics
* :mod:`repro.opt`       — SciPy reference optimum
* :mod:`repro.core`      — LRS, OGWS, KKT certificate, two-stage flow
* :mod:`repro.runtime`   — scenario specs, batch runner, result cache
* :mod:`repro.baselines` — uniform / TILOS-like baselines
* :mod:`repro.analysis`  — paper data, fits, shadow prices, reports

Sweeps (many circuits × many configurations, parallel, cached) go
through :mod:`repro.runtime` — see its docstring for the quickstart.
"""

from repro.circuit import (
    Circuit,
    CircuitBuilder,
    CompiledCircuit,
    ISCAS85_SPECS,
    iscas85_circuit,
    iscas85_suite,
    load_bench,
    random_circuit,
)
from repro.core import (
    FlowResult,
    LagrangianSubproblemSolver,
    MultiplierState,
    NoiseAwareSizingFlow,
    OGWSOptimizer,
    SizingProblem,
    SizingResult,
    check_kkt,
)
from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer, woss_ordering
from repro.runtime import (
    BatchRunner,
    CircuitRef,
    FlowConfig,
    ResultCache,
    RunRecord,
    Scenario,
    SweepSpec,
    run_scenario,
)
from repro.tech import Technology
from repro.timing import CouplingDelayMode, ElmoreEngine, evaluate_metrics

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # circuit
    "Circuit",
    "CircuitBuilder",
    "CompiledCircuit",
    "load_bench",
    "random_circuit",
    "iscas85_circuit",
    "iscas85_suite",
    "ISCAS85_SPECS",
    # technology
    "Technology",
    # geometry / noise
    "ChannelLayout",
    "CouplingSet",
    "MillerMode",
    "SimilarityAnalyzer",
    "woss_ordering",
    # timing
    "ElmoreEngine",
    "CouplingDelayMode",
    "evaluate_metrics",
    # core
    "SizingProblem",
    "MultiplierState",
    "LagrangianSubproblemSolver",
    "OGWSOptimizer",
    "SizingResult",
    "NoiseAwareSizingFlow",
    "FlowResult",
    "check_kkt",
    # runtime
    "CircuitRef",
    "FlowConfig",
    "Scenario",
    "SweepSpec",
    "RunRecord",
    "ResultCache",
    "BatchRunner",
    "run_scenario",
]
