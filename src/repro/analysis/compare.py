"""Shape comparisons against the paper and Figure 10 linearity fits."""

import dataclasses

import numpy as np

from repro.analysis.paper_data import PAPER_TABLE1


@dataclasses.dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope·x + intercept`` with fit quality."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x):
        return self.slope * np.asarray(x) + self.intercept


def linear_fit(x, y):
    """Fit a line and report R² (the Figure 10 linearity evidence)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("linear_fit needs two same-length arrays of >= 2 points")
    slope, intercept = np.polyfit(x, y, 1)
    prediction = slope * x + intercept
    ss_res = float(np.sum((y - prediction) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r2)


def shape_check_table1(name, improvements, noise_band=(70.0, 100.0),
                       delay_band=(-25.0, 40.0), power_band=(70.0, 100.0),
                       area_band=(70.0, 100.0)):
    """Check our improvements land in the paper's qualitative bands.

    The paper's substrate (real ISCAS85 + its layout + a C solver) and
    ours (statistical clones + a channel model) cannot match absolutely;
    the *shape* claims are: noise cut ~10×, area and power cut by a large
    factor, delay roughly unchanged.  Returns ``{metric: bool}``.
    """
    if name not in PAPER_TABLE1:
        raise KeyError(f"unknown Table 1 circuit {name!r}")
    bands = {
        "noise": noise_band,
        "delay": delay_band,
        "power": power_band,
        "area": area_band,
    }
    return {
        metric: bands[metric][0] <= improvements[metric] <= bands[metric][1]
        for metric in bands
    }

