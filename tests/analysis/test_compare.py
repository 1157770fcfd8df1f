"""Linearity fits and shape checks."""

import numpy as np
import pytest

from repro.analysis import linear_fit, shape_check_table1
from repro.analysis.paper_data import PAPER_TABLE1


def test_linear_fit_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    fit = linear_fit(x, 2.5 * x + 1.0)
    assert fit.slope == pytest.approx(2.5)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_linear_fit_noisy_line_high_r2():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 10, 40)
    y = 3.0 * x + rng.normal(0, 0.1, 40)
    fit = linear_fit(x, y)
    assert fit.r_squared > 0.99


def test_linear_fit_predict():
    fit = linear_fit([0.0, 1.0], [1.0, 3.0])
    np.testing.assert_allclose(fit.predict([2.0]), [5.0])


def test_linear_fit_flat_line_is_a_perfect_fit():
    fit = linear_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(4.0)
    assert fit.r_squared == 1.0


def test_linear_fit_ignores_point_order():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 5, 12)
    y = -1.5 * x + rng.normal(0, 0.2, 12)
    order = rng.permutation(12)
    a, b = linear_fit(x, y), linear_fit(x[order], y[order])
    assert a.slope < 0
    assert b.slope == pytest.approx(a.slope, rel=1e-12)
    assert b.intercept == pytest.approx(a.intercept, rel=1e-12)
    assert b.r_squared == pytest.approx(a.r_squared, rel=1e-12)


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0])


def test_shape_check_bands():
    good = {"noise": 91.0, "delay": -5.0, "power": 90.0, "area": 95.0}
    result = shape_check_table1("c432", good)
    assert all(result.values())
    bad = {"noise": 10.0, "delay": 300.0, "power": 90.0, "area": 95.0}
    result = shape_check_table1("c432", bad)
    assert not result["noise"] and not result["delay"]
    assert result["power"] and result["area"]


def test_shape_check_unknown_circuit():
    with pytest.raises(KeyError):
        shape_check_table1("c9999", {})



@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_paper_rows_pass_their_own_shape_check(name):
    """The bands encode the paper's shape claims, so every printed
    Table 1 row lands inside them."""
    row = PAPER_TABLE1[name]
    improvements = {metric: row.improvement(metric)
                    for metric in ("noise", "delay", "power", "area")}
    assert shape_check_table1(name, improvements) == dict.fromkeys(
        improvements, True)


def test_shape_check_band_edges_are_inclusive():
    edges = {"noise": 70.0, "delay": 40.0, "power": 100.0, "area": 70.0}
    assert all(shape_check_table1("c432", edges).values())
    below = {"noise": 69.9, "delay": -25.1, "power": 69.9, "area": 100.1}
    assert not any(shape_check_table1("c432", below).values())
