#!/usr/bin/env python3
"""Working from a standard ``.bench`` netlist (ISCAS85 format).

Loads the genuine c17 benchmark shipped with the library, lists its
busiest signals from the cycle-accurate logic simulation, and sizes it
under noise constraints.

Run:  python examples/custom_bench_netlist.py [path/to/netlist.bench]
"""

import sys

import numpy as np

from repro import NoiseAwareSizingFlow, load_bench
from repro.circuit.parser import builtin_bench_path
from repro.timing import toggle_rates


def main(argv):
    path = argv[0] if argv else builtin_bench_path("c17")
    circuit = load_bench(path)
    print(f"loaded {circuit} from {path}")

    # Switching activity: one steady value per node per cycle.
    rates = toggle_rates(circuit, n_patterns=24, seed=7)
    print("\nbusiest signals (toggles per cycle over 24 cycles):")
    for index in np.argsort(-rates, kind="stable")[:5]:
        print(f"  {circuit.node(int(index)).name:14s} {rates[index]:.2f}")

    flow = NoiseAwareSizingFlow(circuit, n_patterns=128,
                                optimizer_options={"max_iterations": 300})
    outcome = flow.run()
    print(f"\nsizing outcome (delay bound {outcome.problem.delay_bound_ps:.0f} ps):")
    print("  " + outcome.sizing.summary())


if __name__ == "__main__":
    main(sys.argv[1:])
