"""JSON serialization of circuits and sizing results.

Reproducibility plumbing: persist a circuit (with its technology) and a
sizing outcome to plain JSON, reload them bit-exactly, and diff runs
across machines.  The schema is versioned; loading rejects unknown
versions rather than guessing.
"""

import dataclasses
import json
import pathlib

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.components import Node, NodeKind
from repro.tech import Technology
from repro.timing.metrics import CircuitMetrics
from repro.utils.errors import ReproError

SCHEMA_VERSION = 1


# -- circuits -----------------------------------------------------------------------


def circuit_header(circuit):
    """:func:`circuit_to_dict` without its ``nodes`` and ``edges`` lists."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "circuit",
        "name": circuit.name,
        "technology": dataclasses.asdict(circuit.tech),
    }


def node_to_dict(n):
    """One entry of :func:`circuit_to_dict`'s ``nodes`` list."""
    return {
        "index": n.index,
        "kind": n.kind.name,
        "name": n.name,
        "r_hat": n.r_hat,
        "c_hat": n.c_hat,
        "fringe": n.fringe,
        "alpha": n.alpha,
        "lower": n.lower,
        "upper": n.upper,
        "function": n.function,
        "length": n.length,
        "load_cap": n.load_cap,
    }


def circuit_to_dict(circuit):
    """Plain-dict form of a circuit (nodes, edges, technology)."""
    data = circuit_header(circuit)
    data["nodes"] = [node_to_dict(n) for n in circuit.nodes]
    data["edges"] = [list(edge) for edge in circuit.edges]
    return data


def circuit_from_dict(data):
    """Rebuild (and re-validate) a circuit from :func:`circuit_to_dict`."""
    _check_header(data, "circuit")
    tech = Technology(**data["technology"])
    nodes = [
        Node(
            index=entry["index"],
            kind=NodeKind[entry["kind"]],
            name=entry["name"],
            r_hat=entry["r_hat"],
            c_hat=entry["c_hat"],
            fringe=entry["fringe"],
            alpha=entry["alpha"],
            lower=entry["lower"],
            upper=entry["upper"],
            function=entry["function"],
            length=entry["length"],
            load_cap=entry["load_cap"],
        )
        for entry in data["nodes"]
    ]
    edges = [tuple(edge) for edge in data["edges"]]
    return Circuit(nodes, edges, tech, name=data["name"])


def save_circuit(circuit, path):
    """Write the circuit as JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(circuit_to_dict(circuit), indent=1))
    return path


def load_circuit(path):
    """Load a circuit saved by :func:`save_circuit`."""
    return circuit_from_dict(json.loads(pathlib.Path(path).read_text()))


# -- sizing results -----------------------------------------------------------------


def sizing_result_to_dict(result, include_history=False):
    """Plain-dict form of a :class:`SizingResult` (sizes + metrics)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sizing_result",
        "converged": bool(result.converged),
        "feasible": bool(result.feasible),
        "iterations": int(result.iterations),
        "duality_gap": float(result.duality_gap),
        "dual_value": float(result.dual_value),
        "runtime_s": float(result.runtime_s),
        "memory_bytes": int(result.memory_bytes),
        "sizes": np.asarray(result.x, dtype=float).tolist(),
        "metrics": _metrics_dict(result.metrics),
        "initial_metrics": _metrics_dict(result.initial_metrics),
        "problem": {
            "delay_bound_ps": float(result.problem.delay_bound_ps),
            "noise_bound_ff": float(result.problem.noise_bound_ff),
            "power_cap_bound_ff": float(result.problem.power_cap_bound_ff),
        },
    }
    if include_history:
        payload["history"] = [dataclasses.asdict(r) for r in result.history]
    return payload


def save_sizing_result(result, path, include_history=False):
    path = pathlib.Path(path)
    path.write_text(json.dumps(
        sizing_result_to_dict(result, include_history=include_history), indent=1))
    return path


def load_sizing_summary(path):
    """Load the dict saved by :func:`save_sizing_result` (validated)."""
    data = json.loads(pathlib.Path(path).read_text())
    _check_header(data, "sizing_result")
    data["sizes"] = np.asarray(data["sizes"], dtype=float)
    return data


def metrics_to_dict(metrics):
    """Plain-dict form of a :class:`~repro.timing.metrics.CircuitMetrics`."""
    return {
        "noise_pf": float(metrics.noise_pf),
        "delay_ps": float(metrics.delay_ps),
        "power_mw": float(metrics.power_mw),
        "area_um2": float(metrics.area_um2),
        "total_cap_ff": float(metrics.total_cap_ff),
    }


def metrics_from_dict(data):
    """Rebuild a :class:`CircuitMetrics` from :func:`metrics_to_dict`."""
    return CircuitMetrics(**{key: float(data[key]) for key in (
        "noise_pf", "delay_ps", "power_mw", "area_um2", "total_cap_ff")})


_metrics_dict = metrics_to_dict


def _check_header(data, expected_kind):
    if not isinstance(data, dict):
        raise ReproError("not a repro JSON document")
    if data.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"unsupported schema version {data.get('schema')!r} "
            f"(this library writes {SCHEMA_VERSION})")
    if data.get("kind") != expected_kind:
        raise ReproError(
            f"expected a {expected_kind!r} document, got {data.get('kind')!r}")
