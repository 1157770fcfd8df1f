"""Vectorized stage-limited Elmore delay engine.

The delay of node ``i`` is ``D_i = r_i · C_i`` (paper Sec. 2.1) where
``C_i`` sums the capacitance downstream of ``i``'s resistance *within its
RC stage*: wire subtrees are traversed, gate input capacitances terminate
the traversal (the gate's own drive resistance starts the next stage).
With the π wire model, half a wire's self-capacitance sits upstream of
its own resistance (it loads the driver but not the wire itself).

Coupling capacitance enters the delay model according to
:class:`CouplingDelayMode`:

* ``OWN`` (paper): a wire's weighted coupling cap adds to that wire's own
  ``C_i`` only — the attachment for which Theorem 5's ``opt_i`` is exact
  (DESIGN.md §2),
* ``NONE``: coupling affects the crosstalk constraint but not delay,
* ``PROPAGATED``: coupling also loads all upstream resistors of the
  stage, like ordinary wire capacitance (ablation; the sizing engine
  compensates with the extra ``R_i``-weighted slope term).

Backends
--------
Two interchangeable sweep implementations sit behind the ``backend``
flag:

* ``"kernel"`` (default): precompiled sweeps from
  :mod:`repro.timing.kernels` — the stage-limited capacitance and
  upstream-resistance recurrences are unrolled into static sparse
  closures evaluated by one ``take`` + ``add.reduceat`` each (no level
  loop), and the max-plus arrival sweep runs over presorted per-level
  edge segments, all with scratch from a reusable
  :class:`~repro.timing.kernels.Workspace`.  This is what makes the
  "linear runtime per iteration" claim fast in absolute terms (see
  ``BENCH_perf.json`` for the measured kernel-vs-reference speedups).
* ``"reference"``: the original unbuffered ``np.add.at`` /
  ``np.maximum.at`` level loops, kept as the golden reference the
  equivalence property tests compare against (≤ 1e-12 relative).

Each backend is fully deterministic (fixed summation order), so the
BatchRunner contract — parallel record streams byte-identical to serial
— holds as long as every process runs the same backend (the default
everywhere is ``kernel``).  The backends differ from each other only by
floating-point reassociation, within the 1e-12 equivalence bound.
"""

import enum

import numpy as np

from repro.noise.crosstalk import CouplingSet
from repro.timing import kernels
from repro.utils.errors import ValidationError
from repro.utils.units import OHM_FF_TO_PS

#: Accepted values for ``ElmoreEngine(backend=...)``.
BACKENDS = ("kernel", "reference")


class CouplingDelayMode(enum.Enum):
    """Where coupling capacitance shows up in the delay model."""

    OWN = "own"
    NONE = "none"
    PROPAGATED = "propagated"


class ElmoreEngine:
    """Elmore delay / arrival-time / weighted-resistance sweeps.

    Parameters
    ----------
    compiled:
        A :class:`~repro.circuit.compiled.CompiledCircuit`.
    coupling:
        A :class:`~repro.noise.crosstalk.CouplingSet` (weighted pairs);
        defaults to no coupling.
    mode:
        A :class:`CouplingDelayMode` (paper default ``OWN``).
    backend:
        ``"kernel"`` (default, precompiled segmented sweeps) or
        ``"reference"`` (naive scatter loops); see the module docstring.
    """

    def __init__(self, compiled, coupling=None, mode=CouplingDelayMode.OWN,
                 backend="kernel"):
        self.compiled = compiled
        self.coupling = coupling if coupling is not None else CouplingSet.empty(
            compiled.num_nodes)
        if self.coupling.num_nodes != compiled.num_nodes:
            raise ValidationError("coupling set does not match the circuit")
        self.mode = CouplingDelayMode(mode)
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.backend = backend
        self._workspace = None

    def workspace(self):
        """The engine's lazily-built :class:`~repro.timing.kernels.Workspace`.

        Shared scratch for the kernel sweeps and the fused LRS pass;
        single-threaded by contract (each engine — and hence each
        worker process — owns exactly one).
        """
        if self._workspace is None:
            self._workspace = kernels.Workspace(self.compiled.sweep_plan())
        return self._workspace

    # -- capacitance sweeps -------------------------------------------------------

    def capacitances(self, x):
        """One reverse sweep: per-node capacitance components at sizes ``x``.

        Returns a dict with arrays of length ``num_nodes``:

        ``cself``
            Self (ground) capacitance ``ĉ·x + f``.
        ``cpl``
            Weighted coupling capacitance hanging on each node
            (zero array under ``CouplingDelayMode.NONE``).
        ``child_sum``
            Σ of ``load`` over the node's children, plus ``C_L`` for
            primary-output wires.
        ``load``
            Capacitance the node presents to its driver: full wire
            subtree for wires (+ coupling when PROPAGATED), input cap
            for gates.
        ``downstream``
            The paper's ``C_i``:  ``child_sum`` for gates/drivers;
            ``cself/2 + cpl + child_sum`` for wires.
        """
        if self.backend == "reference":
            return self._capacitances_reference(x)
        cc = self.compiled
        plan = cc.sweep_plan()
        ws = self.workspace()
        if self.mode is CouplingDelayMode.NONE:
            cpl = np.zeros(cc.num_nodes)
        else:
            cpl = self.coupling.node_coupling_caps(x)
        propagated = self.mode is CouplingDelayMode.PROPAGATED
        # Fresh output arrays (the dict escapes); scratch from the
        # workspace.
        cself = np.empty(cc.num_nodes)
        source_terms = np.empty(cc.num_nodes)
        kernels.s2_source_terms(plan, cc, x, cpl, propagated, cself,
                                source_terms, ws.t1)
        child_sum = np.empty(cc.num_nodes)
        kernels.child_sum_sweep(plan, source_terms, child_sum, ws)
        load = cself + plan.wire_mask_f * child_sum
        if propagated:
            load += plan.wire_mask_f * cpl
        downstream = child_sum.copy()
        wmask = cc.is_wire
        downstream[wmask] += 0.5 * cself[wmask] + cpl[wmask]
        return {
            "cself": cself,
            "cpl": cpl,
            "child_sum": child_sum,
            "load": load,
            "downstream": downstream,
        }

    def _capacitances_reference(self, x):
        """Reference backend: unbuffered per-level ``np.add.at`` scatters."""
        cc = self.compiled
        cself = cc.self_capacitance(x)
        if self.mode is CouplingDelayMode.NONE:
            cpl = np.zeros(cc.num_nodes)
        else:
            cpl = self.coupling.node_coupling_caps(x)
        child_sum = cc.load_cap.copy()
        load = np.zeros(cc.num_nodes)
        wire_load_extra = cpl if self.mode is CouplingDelayMode.PROPAGATED else 0.0
        for level in range(cc.num_levels - 1, -1, -1):
            eids = cc.edges_by_src_level[level]
            if len(eids):
                np.add.at(child_sum, cc.edge_src[eids], load[cc.edge_dst[eids]])
            nodes = cc.nodes_by_level[level]
            if not len(nodes):
                continue
            wires = nodes[cc.is_wire[nodes]]
            gates = nodes[cc.is_gate[nodes]]
            if len(wires):
                load[wires] = cself[wires] + child_sum[wires]
                if self.mode is CouplingDelayMode.PROPAGATED:
                    load[wires] += np.asarray(wire_load_extra)[wires]
            if len(gates):
                load[gates] = cself[gates]
        downstream = child_sum.copy()
        wmask = cc.is_wire
        downstream[wmask] += 0.5 * cself[wmask] + cpl[wmask]
        return {
            "cself": cself,
            "cpl": cpl,
            "child_sum": child_sum,
            "load": load,
            "downstream": downstream,
        }

    # -- delay --------------------------------------------------------------------

    def effective_resistance(self, x):
        """Per-node resistance scaled so that r·C is in picoseconds."""
        return self.compiled.resistance(x) * OHM_FF_TO_PS

    def delays(self, x, caps=None):
        """Per-node Elmore delay ``D_i`` (ps).  Source/sink are zero.

        With the kernel backend and no precomputed ``caps``, the
        component dict is skipped entirely: the downstream capacitance
        is assembled in workspace buffers and only the delay vector is
        allocated.
        """
        if caps is None and self.backend == "kernel":
            return self._delays_kernel(x)
        caps = caps if caps is not None else self.capacitances(x)
        return self.effective_resistance(x) * caps["downstream"]

    def _delays_kernel(self, x):
        cc = self.compiled
        plan = cc.sweep_plan()
        ws = self.workspace()
        propagated = self.mode is CouplingDelayMode.PROPAGATED
        if self.mode is CouplingDelayMode.NONE:
            cpl = None
        else:
            cpl = self.coupling.node_coupling_caps(x)
        kernels.s2_source_terms(plan, cc, x, cpl, propagated, ws.cself,
                                ws.source_terms, ws.t1)
        kernels.child_sum_sweep(plan, ws.source_terms, ws.child_sum, ws)
        # downstream = child_sum + wires ∘ (cself/2 + cpl)
        np.multiply(ws.cself, 0.5, out=ws.t1)
        if cpl is not None:
            np.add(ws.t1, cpl, out=ws.t1)
        np.multiply(ws.t1, plan.wire_mask_f, out=ws.t1)
        np.add(ws.t1, ws.child_sum, out=ws.t1)
        np.divide(plan.r_hat_eff, x, out=ws.r_eff, where=cc.is_sizable)
        return ws.r_eff * ws.t1

    def arrival_times(self, delays):
        """Arrival time ``a_i`` per node (ps), paper Sec. 4.1 recurrences.

        ``a_i = max_{j ∈ input(i)} a_j + D_i`` with ``a_source = 0``; the
        sink's value is the circuit delay (max over primary outputs).
        """
        cc = self.compiled
        if self.backend == "reference":
            return self._arrival_times_reference(delays)
        arrival = np.empty(cc.num_nodes)
        kernels.arrival_sweep(cc.sweep_plan(), delays, arrival,
                              self.workspace())
        return arrival

    def _arrival_times_reference(self, delays):
        cc = self.compiled
        arrival = np.zeros(cc.num_nodes)
        incoming = np.full(cc.num_nodes, -np.inf)
        incoming[cc.source] = 0.0
        for level in range(1, cc.num_levels):
            eids = cc.edges_by_dst_level[level]
            if len(eids):
                np.maximum.at(incoming, cc.edge_dst[eids], arrival[cc.edge_src[eids]])
            nodes = cc.nodes_by_level[level]
            if len(nodes):
                # The sink has zero delay, so this also sets the circuit
                # delay at arrival[sink].
                arrival[nodes] = incoming[nodes] + delays[nodes]
        return arrival

    def circuit_delay(self, x):
        """Max primary-output arrival time (ps) — Table 1's "Delay"."""
        delays = self.delays(x)
        return float(self.arrival_times(delays)[self.compiled.sink])

    # -- weighted upstream resistance ----------------------------------------------

    def weighted_upstream_resistance(self, x, lam_node):
        """Theorem 5's ``R_i = Σ_{j ∈ upstream(i)} λ_j·r_j`` (ps/fF units).

        One forward sweep.  Gates and drivers restart the accumulation
        (their resistance starts a new stage), wires extend their
        parent's.
        """
        cc = self.compiled
        r_eff = self.effective_resistance(x)
        if self.backend == "reference":
            return self._upstream_reference(r_eff, lam_node)
        upstream = np.empty(cc.num_nodes)
        kernels.upstream_sweep(cc.sweep_plan(), lam_node * r_eff, upstream,
                               self.workspace())
        return upstream

    def _upstream_reference(self, r_eff, lam_node):
        cc = self.compiled
        acc = np.zeros(cc.num_nodes)
        upstream = np.zeros(cc.num_nodes)
        for level in range(cc.num_levels):
            eids = cc.edges_by_dst_level[level]
            if len(eids):
                np.add.at(upstream, cc.edge_dst[eids], acc[cc.edge_src[eids]])
            nodes = cc.nodes_by_level[level]
            if not len(nodes):
                continue
            own = lam_node[nodes] * r_eff[nodes]
            starts = cc.is_gate[nodes] | cc.is_driver[nodes]
            acc[nodes] = np.where(starts, own, own + upstream[nodes])
        return upstream
