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
"""
