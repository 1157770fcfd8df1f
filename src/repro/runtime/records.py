"""Structured results of scenario execution.

A :class:`RunRecord` is the unit the batch runner streams, the cache
persists, and the analysis/report layer consumes.  It carries the full
deterministic outcome (metrics, improvements, final sizes, convergence
diagnostics) plus non-deterministic telemetry (runtime, memory) kept
*outside* the canonical form so that serial and parallel executions of
the same scenario serialize to identical bytes.

It deliberately duck-types the slice of
:class:`~repro.core.result.SizingResult` that the Table 1 formatter reads
(``metrics``, ``initial_metrics``, ``iterations``, ``runtime_s``,
``memory_bytes``, ``improvements``), so records drop into the existing
reporting code unchanged.
"""

import dataclasses
import json

from repro.io import metrics_from_dict, metrics_to_dict
from repro.runtime.config import Scenario
from repro.utils.errors import ReproError

#: Bumped to 2 when solver diagnostics (``repair_evals``) joined the
#: canonical payload, and to 3 when ``FlowConfig`` lost its two
#: partition-routing fields (every scenario's canonical JSON changed);
#: older cache entries read back as misses.
RECORD_SCHEMA_VERSION = 3


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Outcome of one scenario run through the two-stage flow."""

    scenario: Scenario
    feasible: bool
    converged: bool
    iterations: int
    duality_gap: float
    ordering_cost_before: float
    ordering_cost_after: float
    initial_metrics: object     # CircuitMetrics at x_init
    metrics: object             # CircuitMetrics at the reported sizing
    sizes: tuple                # final component sizes (um)
    #: Deterministic solver diagnostics (e.g. ``repair_evals``, the
    #: primal-repair bisection's candidate evaluations) — part of the
    #: canonical form, so batch and scalar runs must agree on them.
    diagnostics: dict = dataclasses.field(default_factory=dict)
    runtime_s: float = 0.0      # telemetry — excluded from canonical form
    memory_bytes: int = 0       # telemetry — excluded from canonical form
    cached: bool = False        # True when served from a ResultCache
    #: Realized-circuit fingerprint, computed by the worker that built the
    #: circuit.  Deterministic but kept out of the canonical form: it is
    #: cache bookkeeping (verified at put/read-back), not an outcome.
    fingerprint: str = ""

    @property
    def improvements(self):
        """Table 1's Impr(%) entries for this run."""
        return self.metrics.improvements_over(self.initial_metrics)

    @property
    def ordering_improvement(self):
        """Relative reduction of total effective loading by stage 1."""
        if self.ordering_cost_before <= 0:
            return 0.0
        return 1.0 - self.ordering_cost_after / self.ordering_cost_before

    def summary(self):
        """One-line outcome for streaming sweep output."""
        imp = self.improvements
        status = "feasible" if self.feasible else "INFEASIBLE"
        origin = " [cached]" if self.cached else ""
        return (
            f"{self.scenario.label}: {status}, {self.iterations} ite, "
            f"gap {self.duality_gap:.2%}, area {imp['area']:+.1f}%, "
            f"noise {imp['noise']:+.1f}%, delay {imp['delay']:+.1f}%"
            f"{origin}"
        )

    # -- serialization ----------------------------------------------------------

    def canonical_dict(self):
        """The deterministic payload only (no runtime/memory/cached)."""
        return {
            "schema": RECORD_SCHEMA_VERSION,
            "kind": "run_record",
            "scenario": self.scenario.canonical_dict(),
            "feasible": bool(self.feasible),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "duality_gap": float(self.duality_gap),
            "ordering_cost_before": float(self.ordering_cost_before),
            "ordering_cost_after": float(self.ordering_cost_after),
            "initial_metrics": metrics_to_dict(self.initial_metrics),
            "metrics": metrics_to_dict(self.metrics),
            "sizes": [float(x) for x in self.sizes],
            "diagnostics": {str(k): int(v)
                            for k, v in sorted(self.diagnostics.items())},
        }

    def canonical_json(self):
        """Byte-stable serialization — the parallel-vs-serial equality test.

        Also the **wire form**: the HTTP records endpoint
        (``GET /v1/sweeps/{id}/records``) embeds each record as exactly
        these bytes, so a client diffing the response against a local
        serial run compares byte-for-byte.  :meth:`from_json` is the
        inverse; diagnostics (``repair_evals`` and friends) survive the
        round-trip intact because they are part of the canonical form.
        """
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        """Parse one serialized record (canonical or full form)."""
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ReproError(f"unparseable run_record JSON: {error}") \
                from None
        return cls.from_dict(data)

    def to_dict(self):
        """Full payload including telemetry (what the cache persists)."""
        data = self.canonical_dict()
        data["runtime_s"] = float(self.runtime_s)
        data["memory_bytes"] = int(self.memory_bytes)
        data["fingerprint"] = str(self.fingerprint)
        return data

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or data.get("kind") != "run_record":
            raise ReproError("not a run_record document")
        if data.get("schema") != RECORD_SCHEMA_VERSION:
            raise ReproError(
                f"unsupported run_record schema {data.get('schema')!r} "
                f"(this library writes {RECORD_SCHEMA_VERSION})")
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            feasible=bool(data["feasible"]),
            converged=bool(data["converged"]),
            iterations=int(data["iterations"]),
            duality_gap=float(data["duality_gap"]),
            ordering_cost_before=float(data["ordering_cost_before"]),
            ordering_cost_after=float(data["ordering_cost_after"]),
            initial_metrics=metrics_from_dict(data["initial_metrics"]),
            metrics=metrics_from_dict(data["metrics"]),
            sizes=tuple(float(x) for x in data["sizes"]),
            diagnostics={str(k): int(v)
                         for k, v in data.get("diagnostics", {}).items()},
            runtime_s=float(data.get("runtime_s", 0.0)),
            memory_bytes=int(data.get("memory_bytes", 0)),
            fingerprint=str(data.get("fingerprint", "")),
        )
