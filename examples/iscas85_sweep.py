#!/usr/bin/env python3
"""Run Table 1 circuits through the flow and compare with the paper.

Built on the scenario layer: circuits expand into a declarative
:class:`SweepSpec`, a :class:`BatchRunner` executes them (optionally in
parallel and against a result cache), and the streamed
:class:`RunRecord`\\ s feed the Table 1 formatter directly.

By default runs the four smallest suite circuits to stay fast; pass
circuit names (or "all") for more, ``--jobs N`` for worker processes,
and ``--cache DIR`` to skip recomputation on repeat runs.

Run:  python examples/iscas85_sweep.py [c432 c880 ... | all] [--jobs N] [--cache DIR]
"""

import argparse

from repro import ISCAS85_SPECS
from repro.analysis.report import format_paper_table1, format_table1
from repro.runtime import BatchRunner, CircuitRef, FlowConfig, ResultCache, SweepSpec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", default=["c432", "c880", "c499", "c1355"])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache", default=None, help="result cache directory")
    args = parser.parse_args(argv)

    names = args.names
    if names == ["all"]:
        names = sorted(ISCAS85_SPECS, key=lambda n: ISCAS85_SPECS[n].total)

    spec = SweepSpec(
        circuits=tuple(CircuitRef.iscas85(n) for n in names),
        base=FlowConfig(n_patterns=256, max_iterations=200),
    )
    cache = ResultCache(args.cache) if args.cache else None
    runner = BatchRunner(jobs=args.jobs, cache=cache)

    results = {}
    for record in runner.iter_records(spec):
        results[record.scenario.circuit.label] = record
        origin = " [cached]" if record.cached else ""
        print(f"{record.scenario.circuit.label}: {record.iterations} iterations, "
              f"gap {record.duality_gap:.2%}, {record.runtime_s:.1f}s{origin}")

    print(f"\n{runner.stats.summary()}\n")
    print(format_table1(results))
    print()
    print(format_paper_table1())
    print("\nshape notes: noise ends ~12x below initial, under its bound")
    print("(X_B = 0.1 x initial; the paper's X_B binds, ours does not),")
    print("power drops ~12x, area ~100x and delay rises about 10% — the")
    print("paper's Impr(%) row, qualitatively.")
    print("Absolute numbers differ by construction (synthetic layout; see")
    print('docs/architecture.md, "Model choices: substitutions").')


if __name__ == "__main__":
    main()
