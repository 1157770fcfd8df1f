"""Output checks every record passes before any metric prints."""

import math

import numpy as np

#: The monolithic solver's feasibility slack (OGWSOptimizer default).
FEASIBILITY_TOLERANCE = 1e-3

#: Float slack on top of the solver's own tolerance: the bounds here are
#: recomputed with different (but equivalent) arithmetic.
RECOMPUTE_SLACK = 1e-9


def _partition_delay_tolerance():
    try:
        from repro.core.partitioned import PARTITION_DELAY_TOLERANCE
    except ImportError:
        return FEASIBILITY_TOLERANCE
    return PARTITION_DELAY_TOLERANCE


def record_problems(record, sizable):
    """Why ``record`` fails the benchmark's check (an empty list if it passes).

    ``sizable`` is the circuit's boolean mask of sizable components: their
    sizes must be finite and positive, the rest (drivers, loads) zero.  A
    record flagged feasible must meet bounds recomputed from its own
    initial metrics and config; where the partitioned path ran
    (``partitions`` in its diagnostics) the documented partitioned delay
    tolerance applies.
    """
    problems = []
    sizes = np.asarray(record.sizes, dtype=float)
    if sizes.shape != sizable.shape or not np.all(np.isfinite(sizes)) \
            or not np.all(sizes[sizable] > 0) \
            or np.any(sizes[~sizable] != 0):
        problems.append("size vector not finite and positive where sizable")
    final, initial = record.metrics, record.initial_metrics
    values = (final.delay_ps, final.noise_pf, final.total_cap_ff,
              final.area_um2, initial.delay_ps, initial.noise_pf,
              initial.total_cap_ff, initial.area_um2)
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite metric")
        return problems
    if not record.feasible:
        return problems
    config = record.scenario.config
    delay_tol = _partition_delay_tolerance() \
        if "partitions" in record.diagnostics else FEASIBILITY_TOLERANCE
    checks = [("delay", final.delay_ps,
               config.delay_slack * initial.delay_ps, delay_tol),
              ("power", final.total_cap_ff,
               config.power_fraction * initial.total_cap_ff,
               FEASIBILITY_TOLERANCE)]
    if initial.noise_pf > 0:
        checks.append(("noise", final.noise_pf,
                       config.noise_fraction * initial.noise_pf,
                       FEASIBILITY_TOLERANCE))
    for name, value, bound, tol in checks:
        if value / bound - 1.0 > tol + RECOMPUTE_SLACK:
            problems.append(f"{name} {value:.6g} over bound {bound:.6g}")
    return problems


def sizable_mask(ref):
    """The sizable-component mask of the circuit ``ref`` names."""
    return ref.build().compile().is_sizable


def canonical(records):
    """Canonical bytes of a record list (the byte-identity contracts)."""
    return [record.canonical_json() for record in records]
