"""Per-net crosstalk reporting."""

import pytest

from repro.noise.report import noise_report, victim_records
from repro.utils.errors import GeometryError


@pytest.fixture(scope="module")
def setting(small_circuit, small_coupling):
    x = small_circuit.compile().default_sizes(1.0)
    return small_circuit, small_coupling, x


def test_records_sorted_descending(setting):
    circuit, coupling, x = setting
    records = victim_records(circuit, coupling, x)
    noises = [r.noise_ff for r in records]
    assert noises == sorted(noises, reverse=True)


def test_totals_match_coupling_set(setting):
    circuit, coupling, x = setting
    records = victim_records(circuit, coupling, x)
    assert sum(r.noise_ff for r in records) == pytest.approx(coupling.total(x))


def test_owners_match_dominating_index(setting):
    circuit, coupling, x = setting
    owners = {int(o) for o in coupling.pair_i}
    assert {r.net for r in victim_records(circuit, coupling, x)} == owners


def test_each_pair_owned_by_its_smaller_index(setting):
    """A pair (i, j) with i < j is reported under wire i, once."""
    circuit, coupling, x = setting
    assert (coupling.pair_i < coupling.pair_j).all()
    records = victim_records(circuit, coupling, x)
    assert sum(r.n_pairs for r in records) == coupling.num_pairs
    for record in records:
        assert record.n_pairs == int((coupling.pair_i == record.net).sum())


def test_worst_pair_is_largest(setting):
    circuit, coupling, x = setting
    records = victim_records(circuit, coupling, x)
    caps = coupling.pair_caps(x)
    for record in records[:5]:
        owned = [float(caps[p]) for p in range(coupling.num_pairs)
                 if int(coupling.pair_i[p]) == record.net]
        assert record.worst_pair[1] == pytest.approx(max(owned))


def test_report_renders(setting):
    circuit, coupling, x = setting
    text = noise_report(circuit, coupling, x, top=5)
    assert "victim net" in text
    assert "total weighted crosstalk" in text
    # Top row is the worst victim.
    records = victim_records(circuit, coupling, x)
    assert records[0].name in text


def test_mismatched_coupling_rejected(setting, figure1_circuit):
    _, coupling, x = setting
    with pytest.raises(GeometryError):
        victim_records(figure1_circuit, coupling, x)
