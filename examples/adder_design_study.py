#!/usr/bin/env python3
"""Design study: a 16-bit ripple-carry adder through the whole toolbox.

Exercises the library end to end on a functionally verified datapath
block: structural generation, noise-constrained sizing, shadow-price
readout (what one more picosecond would cost), and activity-aware power
versus the paper's uniform model.

Run:  python examples/adder_design_study.py
"""

from repro import NoiseAwareSizingFlow
from repro.analysis import shadow_prices
from repro.circuit import ripple_carry_adder
from repro.timing import activity_power, toggle_rates


def main():
    adder = ripple_carry_adder(16)
    print(f"{adder}: functionally verified 16-bit RCA "
          f"({adder.num_gates} gates, {adder.num_wires} wires)")

    flow = NoiseAwareSizingFlow(
        adder, n_patterns=512,
        bound_factors=(1.05, 0.15, 0.3),
        optimizer_options={"max_iterations": 400, "tolerance": 0.005})
    outcome = flow.run()
    sizing = outcome.sizing
    print("\nsizing: " + sizing.summary())

    # Shadow prices: the marginal exchange rates at this optimum.
    prices = shadow_prices(sizing)
    print(f"\nshadow prices: 1 ps of delay budget = {prices.delay:.3f} um^2; "
          f"1 fF of noise budget = {prices.noise:.4f} um^2; "
          f"1 fF of power budget = {prices.power:.4f} um^2")

    # Activity-aware power: the adder's real switching vs the uniform model.
    rates = toggle_rates(adder, n_patterns=1024)
    power = activity_power(outcome.engine, sizing.x, rates)
    print(f"\npower: uniform model {power.uniform_mw:.3f} mW vs "
          f"activity-weighted {power.activity_mw:.3f} mW "
          f"(x{power.overestimate_factor:.1f} pessimism; mean activity "
          f"{power.mean_activity:.2f} toggles/cycle)")
    top = ", ".join(f"{adder.node(i).name} ({mw * 1e3:.1f} uW)"
                    for i, mw in power.top_consumers[:3])
    print(f"hottest nodes: {top}")


if __name__ == "__main__":
    main()
