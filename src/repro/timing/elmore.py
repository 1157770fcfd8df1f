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
  (``docs/architecture.md``, "Model choices: generalizations"),
* ``NONE``: coupling affects the crosstalk constraint but not delay,
* ``PROPAGATED``: coupling also loads all upstream resistors of the
  stage, like ordinary wire capacitance (ablation; the sizing engine
  compensates with the extra ``R_i``-weighted slope term).

Sweeps
------
Every sweep runs on the precompiled kernels of
:mod:`repro.timing.kernels`: the stage-limited capacitance and
upstream-resistance recurrences are unrolled into static sparse closures
evaluated by one CSR product each (no level loop), and the max-plus
arrival sweep runs over presorted per-level edge segments.  This is what
makes the "linear runtime per iteration" claim fast in absolute terms.
Scratch comes from the engine's :attr:`ElmoreEngine.pool`; the per-level
``np.add.at`` / ``np.maximum.at`` spelling survives as a test oracle
(``tests/oracles/elmore.py``), pinned equivalent to ≤ 1e-12 relative.

The sweeps are deterministic (fixed summation order), which the
BatchRunner contract — parallel record streams byte-identical to serial
— relies on.
"""

import enum

import numpy as np

from repro.noise.crosstalk import CouplingSet
from repro.timing import kernels
from repro.utils.errors import ValidationError
from repro.utils.units import OHM_FF_TO_PS


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
    pool:
        The :class:`~repro.timing.kernels.BatchWorkspace` to draw scratch
        from.  A :class:`~repro.core.session.SolverSession` hands every
        engine it builds its one pool; by default the engine makes its
        own on first use.
    """

    def __init__(self, compiled, coupling=None, mode=CouplingDelayMode.OWN,
                 pool=None):
        self.compiled = compiled
        self.coupling = coupling if coupling is not None else CouplingSet.empty(
            compiled.num_nodes)
        if self.coupling.num_nodes != compiled.num_nodes:
            raise ValidationError("coupling set does not match the circuit")
        self.mode = CouplingDelayMode(mode)
        self._pool = pool

    @property
    def pool(self):
        """Width-keyed scratch for the batched sweeps and LRS passes.

        Single-threaded by contract, like every workspace in it.
        """
        if self._pool is None:
            self._pool = kernels.BatchWorkspace(self.compiled.sweep_plan())
        return self._pool

    def workspace(self):
        """1-D scratch for single-point sweeps: views of the pool's
        width-1 buffers (see :meth:`~repro.timing.kernels.Workspace.vectors`).
        """
        return self.pool.buffers(1).vectors()

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
        kernels.s2_source_terms(ws, x, cpl, propagated, cself, source_terms)
        child_sum = np.empty(cc.num_nodes)
        kernels.child_sum_sweep(ws, source_terms, child_sum)
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

    # -- delay --------------------------------------------------------------------

    def effective_resistance(self, x):
        """Per-node resistance scaled so that r·C is in picoseconds."""
        return self.compiled.resistance(x) * OHM_FF_TO_PS

    def delays(self, x):
        """Per-node Elmore delay ``D_i`` (ps).  Source/sink are zero.

        The downstream capacitance is assembled in workspace buffers
        (the :meth:`capacitances` component dict is never built) and only
        the delay vector is allocated.  ``x`` may be ``(n,)`` or
        column-stacked ``(n, K)`` sizes, one scenario per column; each
        column is bit-identical to the 1-D sweep.
        """
        ws = self._scratch(x)
        propagated = self.mode is CouplingDelayMode.PROPAGATED
        cpl = None if self.mode is CouplingDelayMode.NONE else \
            self.coupling.node_coupling_caps(x)
        kernels.s2_source_terms(ws, x, cpl, propagated, ws.cself,
                                ws.source_terms)
        kernels.child_sum_sweep(ws, ws.source_terms, ws.child_sum)
        # downstream = child_sum + wires ∘ (cself/2 + cpl)
        np.multiply(ws.cself, 0.5, out=ws.t1)
        if cpl is not None:
            np.add(ws.t1, cpl, out=ws.t1)
        np.multiply(ws.t1, ws.wire_mask_f, out=ws.t1)
        np.add(ws.t1, ws.child_sum, out=ws.t1)
        np.divide(ws.r_hat_eff, x, out=ws.r_eff, where=ws.is_sizable)
        return ws.r_eff * ws.t1

    def arrival_times(self, delays):
        """Arrival time ``a_i`` per node (ps), paper Sec. 4.1 recurrences.

        ``a_i = max_{j ∈ input(i)} a_j + D_i`` with ``a_source = 0``; the
        sink's value is the circuit delay (max over primary outputs).
        Accepts ``(n,)`` or column-stacked ``(n, K)`` delays.
        """
        arrival = np.empty(delays.shape)
        kernels.arrival_sweep(self.compiled.sweep_plan(), delays, arrival,
                              self._scratch(delays))
        return arrival

    def _scratch(self, x):
        """The workspace matching ``x``'s shape: the pooled width-K
        buffers for ``(n, K)``, their width-1 views for ``(n,)``."""
        return self.pool.buffers(x.shape[1]) if x.ndim == 2 \
            else self.workspace()

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
        upstream = np.empty(cc.num_nodes)
        kernels.upstream_sweep(cc.sweep_plan(), lam_node * r_eff, upstream)
        return upstream
