#!/usr/bin/env python3
"""Print the sha256 of the canonical record stream of three fixed sweeps.

Run against a source tree:

    PYTHONPATH=src python tools/record_digests.py

Each line is ``<spec> <records> <sha256>``, where the digest covers
``"\\n".join(record.canonical_json())`` over a serial
``BatchRunner(jobs=1)`` run without a cache.  Three specs:

* ``golden-144``: c432, c880 and c1355 × orderings woss/greedy2/random/
  none × delay modes own/none/propagated × Miller modes similarity/
  worst/physical/literal, default ``FlowConfig``.  Every engine group
  here holds one scenario, so every solve is a lockstep batch of width
  one.
* ``lockstep-24``: c432, c880 and c1355 × delay slack {1.1, 1.2} ×
  noise fraction {0.10, 0.12, 0.14, 0.16}: three engine groups of eight
  columns each, the wide lockstep path.
* ``subgradient-12``: c432 and c880 × delay modes own/none/propagated ×
  coupling orders 2 and 3 under the subgradient A4 rule
  (``FlowConfig(update="subgradient", max_iterations=60)``): twelve
  width-one solves through the rule the other two specs never run, at
  Taylor orders both equal to and above the paper's.

The CI ``records`` job runs this script against the base tree and the
head tree on one runner and fails on any difference unless
``RECORD_SCHEMA_VERSION`` changed between them.  ``--schema`` prints
that version alone.
"""

import argparse
import hashlib
import sys

CIRCUITS = ("c432", "c880", "c1355")


def specs():
    """``{name: SweepSpec}`` in print order."""
    from repro.runtime import CircuitRef, FlowConfig, SweepSpec

    circuits = tuple(CircuitRef.iscas85(name) for name in CIRCUITS)
    return {
        "golden-144": SweepSpec(
            circuits=circuits,
            orderings=("woss", "greedy2", "random", "none"),
            delay_modes=("own", "none", "propagated"),
            miller_modes=("similarity", "worst", "physical", "literal")),
        "lockstep-24": SweepSpec(
            circuits=circuits,
            delay_slacks=(1.1, 1.2),
            noise_fractions=(0.10, 0.12, 0.14, 0.16)),
        "subgradient-12": SweepSpec(
            circuits=circuits[:2],
            delay_modes=("own", "none", "propagated"),
            coupling_orders=(2, 3),
            base=FlowConfig(update="subgradient", max_iterations=60)),
    }


def digest(spec):
    """``(record count, sha256 hex)`` of ``spec``'s serial record stream."""
    from repro.runtime import BatchRunner

    lines = [record.canonical_json()
             for record in BatchRunner(jobs=1).run(spec)]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schema", action="store_true",
                        help="print RECORD_SCHEMA_VERSION and exit")
    args = parser.parse_args(argv)
    if args.schema:
        from repro.runtime.records import RECORD_SCHEMA_VERSION

        print(RECORD_SCHEMA_VERSION)
        return 0
    for name, spec in specs().items():
        count, hexdigest = digest(spec)
        print(f"{name} {count} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
