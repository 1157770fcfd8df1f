"""Stage 1 in float64 throughout.

:func:`order_wires_reference` orders every channel from float64 weights
``1 − similarity`` built by :func:`similarity_from_values` (a float64
``±1`` product), runs the named ordering on those weights (WOSS with no
integer keys), and sums each path's cost with ``_path_cost`` over the
same weights.
:func:`repro.core.flow.order_channel_wires` instead streams integer
keys into WOSS and counts adjacent-row disagreements for the costs;
``tests/core/test_stage1.py`` pins the two to the same orders and
bit-equal costs.
"""

import numpy as np

from repro.core.flow import resolve_ordering
from repro.noise import similarity_from_values
from repro.noise.ordering import _path_cost


def order_wires_reference(values, layout, name, seed=0):
    """``(orders, cost_before, cost_after)`` of the named ordering.

    ``orders`` maps channel label → position permutation, as
    :meth:`ChannelLayout.apply_ordering` takes it.
    """
    ordering = resolve_ordering(name, seed=seed)
    orders = {}
    cost_before = 0.0
    cost_after = 0.0
    for channel in layout.channels:
        if len(channel) < 2:
            continue
        weights = 1.0 - similarity_from_values(values, channel.wires)
        np.fill_diagonal(weights, 0.0)
        order = ordering(weights, channel.label)
        cost_before += _path_cost(list(range(len(channel))), weights)
        cost_after += _path_cost(order, weights)
        orders[channel.label] = order
    return orders, cost_before, cost_after
