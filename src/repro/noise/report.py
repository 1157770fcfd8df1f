"""Per-net crosstalk reporting.

Turns a coupling set + sizing point into the victim-oriented view a
noise sign-off wants: which nets own the most (Miller-weighted)
coupling and which aggressor pairs dominate.  A pair ``(i, j)`` with
``i < j`` is owned by wire ``i``: the paper sums it into ``i``'s term
through ``j ∈ I(i)``, the neighbors of larger index.  Used by the adder
example.
"""

import dataclasses

from repro.utils.errors import GeometryError
from repro.utils.tables import format_table


@dataclasses.dataclass(frozen=True)
class VictimRecord:
    """One net's crosstalk situation at a sizing point."""

    net: int                 # owning wire's node index
    name: str                # node name
    noise_ff: float          # owned Σ c_ij
    n_pairs: int             # pairs owned
    worst_pair: tuple        # (other node index, cap fF) of the top aggressor


def victim_records(circuit, coupling, x):
    """Per-owning-net records, sorted by descending owned noise."""
    if coupling.num_nodes != circuit.num_nodes:
        raise GeometryError("coupling set does not match the circuit")
    caps = coupling.pair_caps(x)
    per_net = {}
    for p in range(coupling.num_pairs):
        owner = int(coupling.pair_i[p])
        other = int(coupling.pair_j[p])
        entry = per_net.setdefault(owner, {"noise": 0.0, "pairs": 0,
                                           "worst": (other, 0.0)})
        entry["noise"] += float(caps[p])
        entry["pairs"] += 1
        if caps[p] > entry["worst"][1]:
            entry["worst"] = (other, float(caps[p]))
    records = [VictimRecord(
        net=net, name=circuit.node(net).name, noise_ff=entry["noise"],
        n_pairs=entry["pairs"], worst_pair=entry["worst"])
        for net, entry in per_net.items()]
    records.sort(key=lambda r: -r.noise_ff)
    return records


def noise_report(circuit, coupling, x, top=10,
                 title="per-net crosstalk report"):
    """Monospace victim table (top ``top`` nets by owned noise)."""
    records = victim_records(circuit, coupling, x)
    rows = [[r.name, r.n_pairs, r.noise_ff,
             f"{circuit.node(r.worst_pair[0]).name} "
             f"({r.worst_pair[1]:.2f} fF)"] for r in records[:top]]
    table = format_table(
        ["victim net", "pairs", "noise (fF)", "worst aggressor"],
        rows, title=title, floatfmt="{:.3f}")
    total = sum(r.noise_ff for r in records)
    return table + f"\ntotal weighted crosstalk: {total / 1e3:.3f} pF over " \
                   f"{len(records)} owning nets"
