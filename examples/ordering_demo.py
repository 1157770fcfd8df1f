#!/usr/bin/env python3
"""Stage 1 worked example — the paper's Figure 6 scenario.

Four wires (named 4, 5, 7, 8 as in the figure) carry signals with known
switching behavior, one value per cycle.  We compute their switching
similarities, build the ``1 − similarity`` weight graph, and compare the
WOSS heuristic (Fig. 7) against the exact optimum and baselines on the
NP-hard ``SS`` ordering problem.

Run:  python examples/ordering_demo.py
"""

import numpy as np

from repro.noise import (
    exact_ordering,
    ordering_cost,
    random_ordering,
    similarity_from_values,
    two_opt_improve,
    woss_ordering,
)


def figure6_values(slots=200, seed=0):
    """Per-cycle values in the spirit of Fig. 6: {5,7} switch together,
    {4,8} switch together, and the two groups are nearly uncorrelated."""
    rng = np.random.default_rng(seed)
    base_a = rng.random(slots) < 0.5          # drives wires 5 and 7
    base_b = rng.random(slots) < 0.5          # drives wires 4 and 8
    flip = rng.random(slots) < 0.035          # small per-wire disturbance
    return {
        "5": base_a,
        "7": np.logical_xor(base_a, flip),
        "4": base_b,
        "8": np.logical_xor(base_b, np.roll(flip, 7)),
    }


def main():
    names = ["4", "5", "7", "8"]
    values = figure6_values()
    sim = similarity_from_values(np.stack([values[n] for n in names]))

    print("similarity matrix (paper Sec. 3.2):")
    print("      " + "  ".join(f"{n:>6s}" for n in names))
    for a, row in zip(names, sim):
        print(f"  {a:>3s} " + "  ".join(f"{v:+6.2f}" for v in row))

    weights = 1.0 - sim
    np.fill_diagonal(weights, 0.0)
    print("\nedge weights 1 - similarity (effective loading):")
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            print(f"  ({names[a]},{names[b]}): {weights[a, b]:.2f}")

    candidates = {
        "WOSS (Fig. 7)": woss_ordering(weights),
        "WOSS + 2-opt": two_opt_improve(woss_ordering(weights), weights),
        "exact (Held-Karp)": exact_ordering(weights),
        "random": random_ordering(len(names), seed=1),
        "as-given": list(range(len(names))),
    }
    print("\ntrack orderings and total effective loading:")
    for label, order in candidates.items():
        cost = ordering_cost(order, weights)
        pretty = "<" + ",".join(names[k] for k in order) + ">"
        print(f"  {label:18s} {pretty:12s} cost = {cost:.2f}")

    woss_cost = ordering_cost(candidates["WOSS (Fig. 7)"], weights)
    exact_cost = ordering_cost(candidates["exact (Held-Karp)"], weights)
    print(f"\nWOSS is within {(woss_cost / exact_cost - 1) * 100:.1f}% of optimal "
          f"here; similar wires ({{5,7}} and {{4,8}}) share adjacent tracks, "
          f"exactly the Fig. 6 outcome.")


if __name__ == "__main__":
    main()
