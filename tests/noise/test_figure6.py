"""The paper's Figure 6 worked example.

Four wires; {5,7} switch almost identically, {4,8} switch almost
identically, and the groups are uncorrelated.  Each wire carries one
value per cycle (a ±1 row), so the similarity is the mean of the
per-cycle products.  The minimum effective loading keeps each similar
pair on adjacent tracks — the figure's conclusion (orderings like
<7,5,4,8> / <5,7,4,8>).
"""

import numpy as np
import pytest

from repro.noise import (
    exact_ordering,
    ordering_cost,
    similarity_from_values,
    woss_ordering,
)

NAMES = ["4", "5", "7", "8"]


@pytest.fixture(scope="module")
def figure6():
    rng = np.random.default_rng(0)
    slots = 400
    base_a = rng.random(slots) < 0.5
    base_b = rng.random(slots) < 0.5
    flip = rng.random(slots) < 0.03
    rows = {
        "5": base_a,
        "7": np.logical_xor(base_a, flip),
        "4": base_b,
        "8": np.logical_xor(base_b, np.roll(flip, 11)),
    }
    sim = similarity_from_values(np.stack([rows[n] for n in NAMES]))
    weights = 1.0 - sim
    np.fill_diagonal(weights, 0.0)
    return rows, sim, weights


def test_similar_pairs_have_high_similarity(figure6):
    _, sim, _ = figure6
    pos = {n: k for k, n in enumerate(NAMES)}
    assert sim[pos["5"], pos["7"]] > 0.9
    assert sim[pos["4"], pos["8"]] > 0.9
    for a, b in (("5", "4"), ("5", "8"), ("7", "4"), ("7", "8")):
        assert abs(sim[pos[a], pos[b]]) < 0.5


def test_optimal_ordering_keeps_similar_pairs_adjacent(figure6):
    _, _, weights = figure6
    order = exact_ordering(weights)
    names = [NAMES[k] for k in order]
    pairs = {frozenset(p) for p in zip(names, names[1:])}
    assert frozenset(("5", "7")) in pairs
    assert frozenset(("4", "8")) in pairs


def test_woss_matches_exact_on_figure6(figure6):
    _, _, weights = figure6
    woss_cost = ordering_cost(woss_ordering(weights), weights)
    exact_cost = ordering_cost(exact_ordering(weights), weights)
    assert woss_cost == pytest.approx(exact_cost, rel=1e-9)


def test_bad_ordering_costs_roughly_one_extra_unit(figure6):
    """Splitting one similar pair costs ~1 extra (an uncorrelated edge
    replaces a near-zero one) — the magnitude structure of Fig. 6."""
    _, _, weights = figure6
    pos = {n: k for k, n in enumerate(NAMES)}
    good = [pos["5"], pos["7"], pos["4"], pos["8"]]
    bad = [pos["5"], pos["4"], pos["7"], pos["8"]]
    delta = ordering_cost(bad, weights) - ordering_cost(good, weights)
    assert 0.5 < delta < 2.5
