#!/usr/bin/env python3
"""Domain scenario: parallel buses trading delay against crosstalk.

A bank of parallel multi-segment buses on a resistive metal layer is the
classic crosstalk battleground: meeting a tight delay bound forces the
bus wires wider (their resistance dominates the path), and wider wires
couple more strongly to their neighbors — so the crosstalk constraint
becomes *active* and the optimizer must balance the two (γ > 0, noise
pinned at X_B).

The sweep anchors on the probed minimum achievable delay and tightens
the bound toward it.  It closes with noise-blind sizing (the same OGWS
with the crosstalk bound relaxed a millionfold, as conventional
noise-unaware sizing does) at a tight bound, measuring the crosstalk
violation such a flow would ship — the paper's motivating comparison.

Run:  python examples/noise_delay_tradeoff.py
"""

import numpy as np

from repro import CircuitBuilder, NoiseAwareSizingFlow, SizingProblem, Technology
from repro.core import OGWSOptimizer
from repro.timing.metrics import evaluate_metrics
from repro.utils.tables import format_table
from repro.utils.units import FF_PER_PF


def build_bus_design(n_buses=10, stages=3, segments=4, seg_len=800.0):
    """Parallel buses crossing ``stages`` gate stages.

    Each stage drives every bus through ``segments`` chained wire
    segments (a repeater-less global route); neighboring buses run in
    the same channels, which is where the coupling lives.  The metal is
    deliberately resistive (mid-layer) so wire sizing matters.
    """
    tech = Technology.dac99().replace(wire_unit_resistance=0.8)
    builder = CircuitBuilder(tech=tech, name="parallel-buses",
                             default_wire_length=60.0)
    signals = [builder.add_input(f"bus{k}") for k in range(n_buses)]
    for stage in range(stages):
        next_signals = []
        for k in range(n_buses):
            tail = signals[k]
            for seg in range(segments):
                tail = builder.add_branch(tail, seg_len,
                                          name=f"s{stage}b{k}seg{seg}")
            gate = builder.add_gate(
                "nand", [tail, signals[(k + 1) % n_buses]],
                name=f"s{stage}g{k}")
            next_signals.append(gate)
        signals = next_signals
    for k, sig in enumerate(signals):
        builder.set_output(sig, load=80.0)
    return builder.build()


def main():
    circuit = build_bus_design()
    base = NoiseAwareSizingFlow(circuit, n_patterns=256,
                                bound_factors=(1.1, 0.12, 0.4),
                                optimizer_options={"max_iterations": 250})
    outcome = base.run()
    engine = outcome.engine
    x_init = engine.compiled.default_sizes(np.inf)
    init = evaluate_metrics(engine, x_init)
    print(f"{circuit.name}: {circuit.num_gates} gates, {circuit.num_wires} wires; "
          f"delay {init.delay_ps:.0f} ps, noise {init.noise_pf:.2f} pF at x = U")

    # Probe the delay frontier: with noise/power relaxed and an
    # unreachable bound, OGWS drives sizes toward minimum delay.
    probe_problem = SizingProblem(
        delay_bound_ps=init.delay_ps * 1e-3,
        noise_bound_ff=outcome.problem.noise_bound_ff * 1e6,
        power_cap_bound_ff=outcome.problem.power_cap_bound_ff * 1e6,
    )
    probe = OGWSOptimizer(engine, probe_problem, x_init=x_init,
                          max_iterations=150).run()
    d_min = evaluate_metrics(engine, probe.x).delay_ps
    print(f"approximate minimum achievable delay: {d_min:.0f} ps")

    noise_bound_ff = outcome.problem.noise_bound_ff
    rows = []
    tight = None
    first_infeasible = None
    for slack in (2.0, 1.5, 1.25, 1.1, 1.05):
        problem = SizingProblem(
            delay_bound_ps=slack * d_min,
            noise_bound_ff=noise_bound_ff,
            power_cap_bound_ff=outcome.problem.power_cap_bound_ff,
        )
        result = OGWSOptimizer(engine, problem, x_init=x_init,
                               max_iterations=300).run()
        m = result.metrics
        noise_use = m.noise_pf * FF_PER_PF / noise_bound_ff
        rows.append([
            f"{slack:.2f}", f"{problem.delay_bound_ps:.0f}",
            "yes" if result.feasible else "NO",
            m.delay_ps, m.noise_pf, f"{noise_use:.0%}",
            m.area_um2, f"{result.multipliers.gamma:.2e}", result.iterations,
        ])
        if result.feasible:
            tight = problem
        elif first_infeasible is None:
            first_infeasible = problem
    print()
    print(format_table(
        ["slack", "A0(ps)", "feasible", "delay(ps)", "noise(pF)", "X/X_B",
         "area(um2)", "gamma", "ite"],
        rows,
        title="delay-bound sweep (noise bound fixed; X/X_B -> 100% means the "
              "crosstalk constraint is active)"))

    compare_at = first_infeasible or tight
    if compare_at is None:
        print("\nno comparison point found; adjust the sweep.")
        return
    blind_problem = SizingProblem(
        delay_bound_ps=compare_at.delay_bound_ps,
        noise_bound_ff=compare_at.noise_bound_ff * 1e6,
        power_cap_bound_ff=compare_at.power_cap_bound_ff,
    )
    blind = OGWSOptimizer(engine, blind_problem, x_init=x_init,
                          max_iterations=300).run().metrics
    bound_pf = compare_at.noise_bound_ff / FF_PER_PF
    violation = blind.noise_pf / bound_pf - 1.0
    print(f"\nnoise-blind sizing at A0 = {compare_at.delay_bound_ps:.0f} ps "
          f"(delay reached: {blind.delay_ps:.0f} ps): measured noise "
          f"{blind.noise_pf:.2f} pF vs bound {bound_pf:.2f} pF ({violation:+.1%}).")
    if violation > 0:
        print("A conventional noise-unaware sizer ships this crosstalk violation")
        print("to buy that delay; the noise-constrained flow instead reports the")
        print("delay as unreachable within the noise budget — the designer's")
        print("actual frontier.")


if __name__ == "__main__":
    main()
