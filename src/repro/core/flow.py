"""The paper's complete two-stage flow (Sec. 1).

Stage 1 — **switching-aware wire ordering**: simulate the circuit, build
per-channel similarity matrices, order each channel's tracks with WOSS
(or a baseline) minimizing the total effective loading ``Σ (1 − s_ij)``.

Stage 2 — **simultaneous gate and wire sizing**: extract Miller-weighted
coupling for the ordered layout and run OGWS to minimize area under the
delay, crosstalk, and power bounds.

:class:`NoiseAwareSizingFlow` is the top-level entry point the examples,
the benches and ``repro size`` use: one circuit under one validated
:class:`~repro.runtime.config.FlowConfig`, whose ``seed`` is the
simulation seed itself (a :class:`~repro.runtime.config.Scenario`
derives its own seed from ``FlowConfig.seed`` and the circuit).
``run()`` solves the config through
:meth:`~repro.core.session.SolverSession.solve_configs`, the one stage-2
setup that every sweep scenario also runs through, so a flow and a
scenario with the same seed land on the same sizing by construction.
The stage-1 helpers (:func:`resolve_ordering`,
:func:`order_channel_wires`) live here as module functions, which the
session memoizes.
"""

import dataclasses

import numpy as np

from repro.noise.miller import MillerMode
from repro.noise.ordering import (
    greedy_both_ends,
    random_ordering,
    woss_class_ordering,
    woss_ordering,
)
from repro.timing.elmore import CouplingDelayMode
from repro.utils.errors import ValidationError
from repro.utils.rng import stable_seed

#: Stage 1 algorithms accepted by name (`NoiseAwareSizingFlow`, config, CLI).
ORDERING_NAMES = ("woss", "greedy2", "random", "none")


def resolve_ordering(name, seed=0):
    """The stage-1 ordering callable for a name from :data:`ORDERING_NAMES`.

    ``seed`` only matters for ``"random"``: per-channel seeds derive
    from it plus the channel label, so two flows with different seeds
    explore different random orderings while each stays reproducible
    cross-process.
    """
    if name == "woss":
        def woss(weights, label):
            return woss_ordering(weights)

        woss.class_ordering = woss_class_ordering
        return woss
    if name == "greedy2":
        return lambda weights, label: greedy_both_ends(weights)
    if name == "random":
        return lambda weights, label: random_ordering(
            len(weights), seed=stable_seed(seed, "ordering", label))
    if name == "none":
        return lambda weights, label: list(range(len(weights)))
    raise ValidationError(
        f"unknown ordering {name!r}; choose from {sorted(ORDERING_NAMES)}")


def order_channel_wires(analyzer, layout, ordering):
    """Stage 1: per-channel track ordering from switching similarity.

    ``ordering`` is a callable ``(weights, label) → permutation``.
    Returns ``(ordered_layout, cost_before, cost_after)`` where the
    costs are the summed ``1 − similarity`` over adjacent pairs.

    Stage 1 streams: each channel's keys or similarity are built, used
    to order the channel and dropped before the next channel's, so at
    most one channel's square array is alive at a time and nothing of
    it outlives the call.  An ordering that offers ``class_ordering``
    (WOSS, from :func:`resolve_ordering`) orders the channel's *classes*
    — its wires grouped by equal simulated rows
    (:meth:`SimilarityAnalyzer.classes`) — from the integer distance
    keys between one representative per class
    (:meth:`SimilarityAnalyzer.sort_keys`), which gives exactly the
    per-wire WOSS order (:func:`~repro.noise.ordering.woss_class_ordering`
    states why) from a ``classes × classes`` array instead of a
    ``width × width`` one.  The other orderings (and WOSS above 16383
    patterns, where no keys exist) get the channel's float64 weights
    ``1 − similarity``.  Every ordering's costs come from one place,
    :meth:`SimilarityAnalyzer.path_dissimilarity`, which counts the
    disagreements of adjacent rows — O(width · P) per channel and
    bit-identical to summing the weights over the same pairs.
    """
    orders = {}
    cost_before = 0.0
    cost_after = 0.0
    for channel in layout.channels:
        if len(channel) < 2:
            continue
        order = _order_channel(analyzer, channel, ordering)
        cost_before += analyzer.path_dissimilarity(channel.wires)
        cost_after += analyzer.path_dissimilarity(channel.wires, order)
        orders[channel.label] = order
    return layout.apply_ordering(orders), cost_before, cost_after


def _order_channel(analyzer, channel, ordering):
    """One channel's order; its keys or weights die with this frame."""
    class_ordering = getattr(ordering, "class_ordering", None)
    if class_ordering is not None:
        classes, representatives = analyzer.classes(channel.wires)
        keys = analyzer.sort_keys(representatives)
        if keys is not None:
            return class_ordering(classes, keys)
    weights = 1.0 - analyzer.matrix(channel.wires)
    np.fill_diagonal(weights, 0.0)
    return ordering(weights, channel.label)


@dataclasses.dataclass
class FlowResult:
    """Everything the two-stage flow produced."""

    circuit: object
    layout: object              # ordered ChannelLayout
    coupling: object            # CouplingSet (Miller-weighted)
    engine: object              # ElmoreEngine used by stage 2
    problem: object             # SizingProblem
    sizing: object              # SizingResult from OGWS
    ordering_cost_before: float  # Σ (1 − s) over adjacent pairs, initial order
    ordering_cost_after: float   # same after stage 1

    @property
    def ordering_improvement(self):
        """Relative reduction of total effective loading by stage 1."""
        if self.ordering_cost_before <= 0:
            return 0.0
        return 1.0 - self.ordering_cost_after / self.ordering_cost_before


class NoiseAwareSizingFlow:
    """End-to-end noise-constrained sizing of one circuit.

    A flow is a circuit plus one validated
    :class:`~repro.runtime.config.FlowConfig` (:attr:`config`); the
    constructor takes the config's twelve values in the spelling of a
    caller holding live objects (enum modes, a bound-factor triple, an
    options dict).

    Parameters
    ----------
    circuit:
        The circuit to optimize.
    ordering:
        Stage 1 algorithm, a name from :data:`ORDERING_NAMES`:
        ``"woss"`` (paper), ``"greedy2"``, ``"random"`` or ``"none"``.
    miller_mode:
        Crosstalk weighting (paper default: similarity).
    coupling_order:
        Taylor order k of Eq. 3 (paper default 2).
    delay_mode:
        Where coupling enters delay (paper default ``OWN``).
    n_patterns, seed:
        Logic-simulation workload for similarity analysis.  ``seed`` is
        the simulation seed itself; a
        :class:`~repro.runtime.config.Scenario` derives its seed from
        ``FlowConfig.seed`` and the circuit instead.
    bound_factors:
        ``(delay_slack, noise_fraction, power_fraction)`` for
        :meth:`SizingProblem.from_initial`, relative to the Table 1
        "Init" sizing (every component at its upper bound — see
        DESIGN.md §3), which is also where OGWS starts.
    optimizer_options:
        OGWS options: any of ``max_iterations``, ``tolerance`` and
        ``update`` (the config's solver fields).
    """

    def __init__(self, circuit, ordering="woss", miller_mode=MillerMode.SIMILARITY,
                 coupling_order=2, delay_mode=CouplingDelayMode.OWN,
                 n_patterns=256, seed=0, bound_factors=(1.1, 0.1, 0.2),
                 optimizer_options=None):
        from repro.runtime.config import FlowConfig

        options = dict(optimizer_options or {})
        unknown = sorted(set(options) - {"max_iterations", "tolerance",
                                         "update"})
        if unknown:
            raise ValidationError(
                f"unknown optimizer options {unknown}; choose from "
                "['max_iterations', 'tolerance', 'update']")
        delay_slack, noise_fraction, power_fraction = bound_factors
        self.circuit = circuit
        self.config = FlowConfig(
            ordering=ordering,
            miller_mode=miller_mode, coupling_order=coupling_order,
            delay_mode=delay_mode,
            n_patterns=n_patterns, seed=seed, delay_slack=delay_slack,
            noise_fraction=noise_fraction, power_fraction=power_fraction,
            **options)

    def run(self, session=None):
        """Execute both stages; returns a :class:`FlowResult`.

        ``session`` optionally reuses an existing
        :class:`~repro.core.session.SolverSession` over this circuit
        (sharing its compiled circuit, similarity, layout, coupling and
        engine artifacts); by default a fresh one is created.  Either
        way the config is solved by
        :meth:`~repro.core.session.SolverSession.solve_configs`, the
        setup every sweep scenario runs through.
        """
        from repro.core.session import SolverSession

        if session is None:
            session = SolverSession.for_circuit(self.circuit)
        elif session.circuit is not self.circuit:
            raise ValidationError("flow and session bind different circuits")
        engine, (layout, cost_before, cost_after), [sizing] = \
            session.solve_configs([self.config], self.config.seed)
        return FlowResult(
            circuit=self.circuit,
            layout=layout,
            coupling=engine.coupling,
            engine=engine,
            problem=sizing.problem,
            sizing=sizing,
            ordering_cost_before=cost_before,
            ordering_cost_after=cost_after,
        )
