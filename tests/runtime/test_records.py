"""Run records as the one persisted result: metric dicts and round trips."""

import json

import numpy as np
import pytest

from repro.runtime import RunRecord
from repro.runtime.records import metrics_from_dict, metrics_to_dict
from repro.timing.metrics import CircuitMetrics
from repro.utils.errors import ReproError

METRIC_FIELDS = ("noise_pf", "delay_ps", "power_mw", "area_um2",
                 "total_cap_ff")


@pytest.fixture(scope="module")
def metrics(small_flow_result):
    sizing = small_flow_result.sizing
    return sizing.initial_metrics, sizing.metrics


def test_metrics_round_trip_is_exact(metrics):
    for value in metrics:
        assert metrics_from_dict(metrics_to_dict(value)) == value


def test_metrics_dict_holds_the_five_metrics_as_floats():
    value = CircuitMetrics(*(np.float64(k + 0.5) for k in range(5)))
    data = metrics_to_dict(value)
    assert tuple(data) == METRIC_FIELDS
    assert all(type(v) is float for v in data.values())
    assert data == {field: getattr(value, field) for field in METRIC_FIELDS}


def test_metrics_dict_is_json_clean(metrics):
    for value in metrics:
        text = json.dumps(metrics_to_dict(value))
        assert metrics_from_dict(json.loads(text)) == value


def test_metrics_from_dict_reads_exactly_the_metric_fields(metrics):
    data = dict(metrics_to_dict(metrics[1]), extra=1.0)
    assert metrics_from_dict(data) == metrics[1]
    del data["total_cap_ff"]
    with pytest.raises(KeyError):
        metrics_from_dict(data)


def test_record_json_round_trip(sweep_records):
    """Each record read back from its canonical bytes carries the same
    outcome (sizes, metrics, verdicts) and serializes to the same bytes."""
    for record in sweep_records:
        clone = RunRecord.from_json(record.canonical_json())
        assert clone.canonical_json() == record.canonical_json()
        assert clone.sizes == record.sizes
        assert clone.metrics == record.metrics
        assert clone.initial_metrics == record.initial_metrics
        assert (clone.feasible, clone.iterations) == \
            (record.feasible, record.iterations)


def test_full_form_keeps_the_telemetry(sweep_records):
    record = sweep_records[0]
    clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert clone.runtime_s == record.runtime_s
    assert clone.memory_bytes == record.memory_bytes
    assert clone.fingerprint == record.fingerprint
    assert clone.canonical_json() == record.canonical_json()


def test_unparseable_json_rejected():
    with pytest.raises(ReproError, match="unparseable"):
        RunRecord.from_json("{not json")
