"""Reference implementations that the product code is pinned against.

Each module here keeps a straightforward (slow) spelling of something
the library now computes another way: the object-graph netlist (one
``Node`` per vertex, the whole-tail coverage scan, the per-node compiled
arrays with the per-edge level loop, the per-pair coupling walk), the
list-built sweep plan, the row-by-row CSR product, the per-level Elmore
sweeps, the per-sweep LRS and its coupling sums, the per-level flow
projection, the per-node simulator and the one-column primal repair.
Tests compare the two exactly, or to a tolerance fixed in the test where
the summation order differs.

Two modules here are not references but test-only tools that no command,
bench or workload runs: :mod:`oracles.trees` generates random circuits
with multi-segment routing trees (wire-to-wire edges and deep RC stages)
for the engine tests, and :mod:`oracles.posynomial` builds problem PP's
objective and constraints as explicit posynomials, the structural check
that Theorems 6–7 rest on.
"""
