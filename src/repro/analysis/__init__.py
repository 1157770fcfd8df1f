"""Paper data, comparisons, and report formatting.

* :mod:`~repro.analysis.paper_data` — Table 1 and the in-text numbers as
  published, for side-by-side comparison,
* :mod:`~repro.analysis.compare` — the Table 1 shape check and the
  linearity fits behind Figure 10,
* :mod:`~repro.analysis.sensitivity` — shadow prices of the three bounds
  read off the multipliers (an extension; the sensitivity bench checks
  them against finite differences),
* :mod:`~repro.analysis.report` — monospace tables in the paper's layout,
* :mod:`~repro.analysis.live` — live sweep monitoring: render progress
  tables from a queue's tailed event stream (``repro queue watch``).
"""

from repro.analysis.compare import LinearFit, linear_fit, shape_check_table1
from repro.analysis.live import watch_queue
from repro.analysis.paper_data import PAPER_IMPROVEMENTS, PAPER_TABLE1, PaperRow
from repro.analysis.report import format_fig10_rows, format_sweep, format_table1
from repro.analysis.sensitivity import (
    ShadowPrices,
    bound_sweep,
    shadow_prices,
    validate_shadow_prices,
)

__all__ = [
    "PAPER_TABLE1",
    "PAPER_IMPROVEMENTS",
    "PaperRow",
    "linear_fit",
    "LinearFit",
    "shape_check_table1",
    "format_table1",
    "format_sweep",
    "format_fig10_rows",
    "watch_queue",
    "ShadowPrices",
    "shadow_prices",
    "validate_shadow_prices",
    "bound_sweep",
]
