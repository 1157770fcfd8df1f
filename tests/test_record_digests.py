"""The fixed sweeps of ``tools/record_digests.py`` (fast, tier-1).

The CI ``records`` job compares these sweeps' record digests between
two trees, so their shape is what it covers: ``golden-144`` solves every
scenario as a lockstep batch of width one, ``lockstep-24`` runs three
engine groups of eight columns, and ``subgradient-12`` is the only spec
that steps the subgradient A4 rule, at coupling orders 2 and 3.  The
specs are expanded here, never solved.
"""

import collections
import importlib.util
import pathlib

import pytest

from repro.core import SolverSession

ROOT = pathlib.Path(__file__).resolve().parent.parent

ALL_MODES = {"own", "none", "propagated"}

#: spec name -> (records, columns per engine group, A4 rule, coupling
#: orders, delay modes)
SHAPES = {
    "golden-144": (144, 1, "multiplicative", {2}, ALL_MODES),
    "lockstep-24": (24, 8, "multiplicative", {2}, {"own"}),
    "subgradient-12": (12, 1, "subgradient", {2, 3}, ALL_MODES),
}


@pytest.fixture(scope="module")
def record_digests():
    spec = importlib.util.spec_from_file_location(
        "record_digests", ROOT / "tools" / "record_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_specs_print_in_a_fixed_order(record_digests):
    assert list(record_digests.specs()) == list(SHAPES)


@pytest.mark.parametrize("name", list(SHAPES))
def test_spec_shape(record_digests, name):
    count, width, update, orders, modes = SHAPES[name]
    scenarios = record_digests.specs()[name].scenarios()
    assert len(scenarios) == count
    groups = collections.Counter(
        (s.circuit, SolverSession._engine_key(s.config)) for s in scenarios)
    assert set(groups.values()) == {width}
    assert {s.config.update for s in scenarios} == {update}
    assert {s.config.coupling_order for s in scenarios} == orders
    assert {s.config.delay_mode for s in scenarios} == modes


def test_subgradient_spec_runs_sixty_iterations(record_digests):
    scenarios = record_digests.specs()["subgradient-12"].scenarios()
    assert {s.config.max_iterations for s in scenarios} == {60}
    assert {s.circuit.name for s in scenarios} == {"c432", "c880"}
