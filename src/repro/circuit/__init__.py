"""Circuit representation substrate.

The paper's circuit graph ``H = (V, E)`` is a DAG over an artificial source
(index 0), ``s`` input drivers (1..s), ``n`` sized components — gates and
wires — (s+1..n+s, topologically indexed), and an artificial sink
(n+s+1).  This package provides:

* :class:`~repro.circuit.components.Node` /
  :class:`~repro.circuit.components.NodeKind` — node records (views of a
  circuit's columns, and the builder's input),
* :class:`~repro.circuit.circuit.Circuit` — the finished, validated graph,
  stored as NumPy columns (:meth:`~repro.circuit.circuit.Circuit.from_columns`),
* :class:`~repro.circuit.builder.CircuitBuilder` — incremental construction
  with automatic wire insertion,
* :class:`~repro.circuit.compiled.CompiledCircuit` — CSR/NumPy form used by
  the vectorized engines,
* :func:`~repro.circuit.parser.load_bench` — ISCAS85 ``.bench`` reader,
* :mod:`~repro.circuit.generators` — seeded random circuit generation,
* :mod:`~repro.circuit.iscas85` — the Table 1 benchmark suite.
"""

from repro.circuit.builder import CircuitBuilder
from repro.circuit.circuit import Circuit
from repro.circuit.components import Node, NodeKind
from repro.circuit.compiled import CompiledCircuit
from repro.circuit.generators import random_circuit
from repro.circuit.iscas85 import ISCAS85_SPECS, iscas85_circuit, iscas85_suite
from repro.circuit.library import (
    equality_comparator,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.circuit.parser import load_bench, load_bench_text

__all__ = [
    "Node",
    "NodeKind",
    "Circuit",
    "CircuitBuilder",
    "CompiledCircuit",
    "load_bench",
    "load_bench_text",
    "random_circuit",
    "ISCAS85_SPECS",
    "iscas85_circuit",
    "iscas85_suite",
    "ripple_carry_adder",
    "parity_tree",
    "mux_tree",
    "equality_comparator",
]
