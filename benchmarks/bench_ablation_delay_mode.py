"""Ablation — where coupling capacitance enters the delay model.

``docs/architecture.md`` ("Model choices: generalizations") documents
that Theorem 5's closed form corresponds to coupling loading only the
victim wire's own delay (`OWN`).  This bench compares the three
supported attachments on c432 via a declarative
:class:`SweepSpec` over the ``delay_modes`` axis: ignoring coupling in
delay (`NONE`), the paper-consistent `OWN`, and full upstream
propagation (`PROPAGATED`, with the corrected denominator term).  The
initial delay rises with each richer model; the optimizer compensates
with marginal area.
"""

import pytest

from repro.runtime import BatchRunner, CircuitRef, FlowConfig, SweepSpec
from repro.timing import CouplingDelayMode
from repro.utils.tables import format_table

_RECORDS = {}

SPEC = SweepSpec(
    circuits=(CircuitRef.iscas85("c432"),),
    delay_modes=tuple(m.value for m in CouplingDelayMode),
    base=FlowConfig(n_patterns=128, max_iterations=200),
)

_BY_MODE = {s.config.delay_mode: s for s in SPEC.scenarios()}


def run_mode(mode):
    return BatchRunner().run([_BY_MODE[mode.value]])[0]


@pytest.mark.parametrize("mode", list(CouplingDelayMode))
def test_delay_mode(benchmark, mode):
    record = benchmark.pedantic(run_mode, args=(mode,), rounds=1, iterations=1)
    assert record.feasible
    _RECORDS[mode.value] = record


def test_delay_mode_report(benchmark, report_writer):
    def render():
        order = ["none", "own", "propagated"]
        return [
            [mode, _RECORDS[mode].initial_metrics.delay_ps,
             _RECORDS[mode].metrics.delay_ps,
             _RECORDS[mode].metrics.area_um2, _RECORDS[mode].iterations]
            for mode in order if mode in _RECORDS
        ]

    rows = benchmark.pedantic(render, rounds=1, iterations=1)
    text = format_table(
        ["coupling in delay", "init delay(ps)", "final delay(ps)",
         "final area(um2)", "ite"],
        rows, title="Coupling-in-delay ablation (c432)")
    text += ("\nOWN is the paper-consistent model (Theorem 5 exact); "
             "PROPAGATED adds upstream loading and the corrected LRS term.")
    report_writer("ablation_delay_mode", text)
    init_delays = {row[0]: row[1] for row in rows}
    assert init_delays["none"] <= init_delays["own"] <= init_delays["propagated"]
