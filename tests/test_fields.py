"""Tests of the exact trigonometric-polynomial calculus."""

import re

import numpy as np
import pytest

from crspin.fields import TrigPoly


def test_evaluation_matches_numpy_cosine():
    c = TrigPoly.cosine(2, 1, amplitude=0.7, frequency=3)
    for x in [(0.0, 0.0), (0.13, 0.29), (0.5, 0.99)]:
        assert c(x) == pytest.approx(0.7 * np.cos(6 * np.pi * x[1]), abs=1e-14)


def test_sum_evaluates_pointwise():
    p = TrigPoly.cosine(2, 0)
    q = TrigPoly.sine(2, 1, amplitude=0.5)
    combo = p + q
    x = (0.21, 0.83)
    assert combo(x) == pytest.approx(p(x) + q(x), abs=1e-14)


def test_sine_is_real_valued():
    s = TrigPoly.sine(4, 2, amplitude=1.3, frequency=2)
    for x in np.linspace(0, 1, 7):
        point = (0.1, 0.2, x, 0.4)
        assert abs(s(point).imag) < 1e-14
        assert s(point).real == pytest.approx(1.3 * np.sin(4 * np.pi * x), abs=1e-13)


def test_zero_pruning():
    p = TrigPoly(2, {(1, 0): 1.0})
    q = TrigPoly(2, {(1, 0): -1.0})
    assert (p + q).coeffs == {}
    assert p.coeffs == {(1, 0): 1.0 + 0j}
    assert TrigPoly(2, {(1, 0): 0.0, (0, 1): 0j}).coeffs == {}


def test_frame_derivative_eigenvalue():
    # E_1 = (d/dx_1 - i d/dy_1)/2 multiplies exp(2 pi i (n_x x + n_y y))
    # by pi i (n_x - i n_y); Ebar_1 by pi i (n_x + i n_y).
    m = 2
    n_x, n_y = 3, -2
    freq = (n_x, 0, n_y, 0)
    phi = TrigPoly(2 * m, {freq: 1.0})
    de = phi.frame_derivative("e", 1)
    debar = phi.frame_derivative("ebar", 1)
    assert de.coeffs[freq] == pytest.approx(1j * np.pi * (n_x - 1j * n_y), abs=1e-14)
    assert debar.coeffs[freq] == pytest.approx(1j * np.pi * (n_x + 1j * n_y), abs=1e-14)


def test_dimension_and_axis_errors():
    with pytest.raises(ValueError):
        TrigPoly(2, {(1, 0, 0): 1.0})
    p = TrigPoly.cosine(2, 0)
    with pytest.raises(ValueError):
        p((0.1, 0.2, 0.3))
    q = TrigPoly.cosine(4, 0)
    with pytest.raises(ValueError):
        p + q


def test_derivative_kills_constants():
    p = TrigPoly(4, {(0, 0, 0, 0): 2.5})
    for direction in ("e", "ebar"):
        for a in (1, 2):
            assert p.frame_derivative(direction, a).coeffs == {}


def test_bad_frequencies_and_axes_are_refused():
    # int() used to truncate a frequency coordinate and a negative axis indexed from the end
    with pytest.raises(ValueError, match=r"frequency \(1\.5, 0\) must have integer coordinates"):
        TrigPoly.cosine(2, 0, frequency=1.5)
    with pytest.raises(ValueError, match=r"frequency \(0\.7, 0\) must have integer coordinates"):
        TrigPoly(2, {(0.7, 0): 1.0})
    for axis in (-1, 2, 5):
        with pytest.raises(ValueError, match=rf"axis out of range: {axis}$"):
            TrigPoly.cosine(2, axis)
        with pytest.raises(ValueError, match=rf"axis out of range: {axis}$"):
            TrigPoly.sine(2, axis)
    assert TrigPoly(2, {(2.0, -1): 1.0}).coeffs == {(2, -1): 1.0 + 0j}


@pytest.mark.parametrize("build, freq", [
    (lambda: TrigPoly.cosine(2, 0, frequency=True), "(True, 0)"),
    (lambda: TrigPoly(2, {(True, 0): 1.0}), "(True, 0)"),
    (lambda: TrigPoly(2, {(0, np.True_): 1.0}), f"(0, {np.True_!r})"),
], ids=["cosine frequency", "bool key", "numpy bool key"])
def test_bool_frequency_coordinates_are_refused(build, freq):
    # True == 1, so each of these used to build the frequency-1 wave
    with pytest.raises(ValueError, match=f"^frequency {re.escape(freq)} must have integer coordinates$"):
        build()


def test_zero_frequency_waves_are_constants():
    x = (0.21, 0.83)
    assert TrigPoly.cosine(2, 0, amplitude=0.4, frequency=0)(x) == pytest.approx(0.4, abs=1e-15)
    assert TrigPoly.sine(2, 1, amplitude=0.4, frequency=0).coeffs == {}


def test_evaluation_at_an_array_of_points_matches_single_points():
    p = TrigPoly(3, {(1, 0, -2): 0.4 + 0.2j, (0, 1, 0): -1.1, (0, 0, 0): 0.3})
    points = np.array([[0.1, 0.2, 0.3], [0.55, 0.05, 0.91], [0.0, 0.0, 0.0]])
    values = p(points)
    assert values.shape == (3,)
    for point, value in zip(points, values):
        assert value == pytest.approx(p(point), abs=1e-14)
    assert np.all(TrigPoly(3)(points) == 0)
    with pytest.raises(ValueError):
        p(np.zeros((2, 2)))


def test_frame_derivative_refuses_a_frame_vector_it_lacks():
    p = TrigPoly.cosine(4, 0)
    for direction, a in (("e", 0), ("ebar", 3), ("x", 1)):
        with pytest.raises(ValueError):
            p.frame_derivative(direction, a)
    with pytest.raises(ValueError, match="no frame vector 1 on 3 base coordinates"):
        TrigPoly(3, {(0, 0, 0): 1.0}).frame_derivative("e", 1)
