"""Slow, obviously correct Elmore implementations.

Two oracles for :class:`~repro.timing.elmore.ElmoreEngine`:

* :class:`LevelSweepEngine` — the engine's API on unbuffered per-level
  ``np.add.at`` / ``np.maximum.at`` sweeps over the compiled circuit,
  the spelling the precompiled kernels replaced.  The kernel tests pin
  the engine to it to 1e-12 relative.
* :class:`ElmoreReference` recomputes everything from the paper's set
  definitions — ``downstream(i)`` / ``upstream(i)`` via explicit graph
  traversal, capacitance sums by iterating those sets — with no sharing
  between nodes.  It is O(n²) and certifies the vectorized engine on
  small randomized circuits (the property tests compare them to machine
  precision).
"""

import numpy as np

from repro.noise.crosstalk import CouplingSet
from repro.timing.elmore import CouplingDelayMode
from repro.utils.units import OHM_FF_TO_PS


class LevelSweepEngine:
    """:class:`~repro.timing.elmore.ElmoreEngine`'s sweeps, one graph
    level at a time with unbuffered scatters."""

    def __init__(self, compiled, coupling=None, mode=CouplingDelayMode.OWN):
        self.compiled = compiled
        self.coupling = coupling if coupling is not None else CouplingSet.empty(
            compiled.num_nodes)
        self.mode = CouplingDelayMode(mode)

    def capacitances(self, x):
        """Per-node capacitance components, as ``ElmoreEngine.capacitances``."""
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

    def effective_resistance(self, x):
        return self.compiled.resistance(x) * OHM_FF_TO_PS

    def delays(self, x):
        return self.effective_resistance(x) * self.capacitances(x)["downstream"]

    def arrival_times(self, delays):
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
        return float(self.arrival_times(self.delays(x))[self.compiled.sink])

    def weighted_upstream_resistance(self, x, lam_node):
        cc = self.compiled
        r_eff = self.effective_resistance(x)
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


class ElmoreReference:
    """Per-node-traversal Elmore model over a :class:`Circuit`."""

    def __init__(self, circuit, coupling=None, mode=CouplingDelayMode.OWN):
        self.circuit = circuit
        self.coupling = coupling if coupling is not None else CouplingSet.empty(
            circuit.num_nodes)
        self.mode = CouplingDelayMode(mode)

    def node_coupling(self, index, x):
        """Weighted coupling capacitance attached to node ``index``."""
        if self.mode is CouplingDelayMode.NONE:
            return 0.0
        cpl = self.coupling
        total = 0.0
        for p in range(cpl.num_pairs):
            if index in (cpl.pair_i[p], cpl.pair_j[p]):
                other = cpl.pair_j[p] if cpl.pair_i[p] == index else cpl.pair_i[p]
                u = (x[index] + x[other]) / (2.0 * cpl.distance[p])
                series = sum(u ** n for n in range(cpl.order))
                total += cpl.ctilde[p] * series
        return total

    def downstream_cap(self, index, x):
        """The paper's ``C_i`` by direct iteration of ``downstream(i)``."""
        total = 0.0
        for k in self.circuit.downstream(index):
            node = self.circuit.node(k)
            if node.is_gate:
                total += 0.0 if k == index else node.capacitance(x[k])
            elif node.is_wire:
                own = node.capacitance(x[k])
                cpl = self.node_coupling(k, x)
                if k == index:
                    total += 0.5 * own + cpl
                elif self.mode is CouplingDelayMode.PROPAGATED:
                    total += own + cpl
                else:
                    total += own  # OWN: other wires' coupling is not propagated
                if node.load_cap:
                    total += node.load_cap
        return total

    def delay(self, index, x):
        """``D_i = r_i · C_i`` in ps."""
        node = self.circuit.node(index)
        r = node.resistance(x[index]) if (node.kind.is_component) else 0.0
        return r * self.downstream_cap(index, x) * OHM_FF_TO_PS

    def delays(self, x):
        """All node delays (ps); zero at source/sink."""
        out = np.zeros(self.circuit.num_nodes)
        for node in self.circuit.nodes:
            if node.kind.is_component:
                out[node.index] = self.delay(node.index, x)
        return out

    def arrival_times(self, x):
        """Arrival per node (ps) by the paper's recurrences, in index order."""
        delays = self.delays(x)
        arrival = np.zeros(self.circuit.num_nodes)
        for node in self.circuit.nodes:
            if node.index == 0:
                continue
            preds = self.circuit.inputs(node.index)
            best = max(arrival[j] for j in preds)
            arrival[node.index] = best + delays[node.index]
        return arrival

    def circuit_delay(self, x):
        return float(self.arrival_times(x)[self.circuit.sink_index])

    def weighted_upstream_resistance(self, index, x, lam_node):
        """``R_i = Σ_{j ∈ upstream(i)} λ_j·r_j`` (ps/fF) by set iteration."""
        total = 0.0
        for j in self.circuit.upstream(index):
            node = self.circuit.node(j)
            total += lam_node[j] * node.resistance(x[j]) * OHM_FF_TO_PS
        return total
