from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerpart.poly import IntPoly, interpolate_int_poly
from oracles import poly_from_roots

coeff_lists = st.lists(st.integers(min_value=-30, max_value=30), max_size=6)


def test_normalization_and_zero():
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly((1, 0)).coeffs == (1,)
    assert IntPoly.zero().degree == -1
    assert not IntPoly.zero()


def test_str_forms():
    t = IntPoly.t()
    assert str(t**3 + 3 * t**2 + 2 * t) == "t^3 + 3*t^2 + 2*t"
    assert str(IntPoly.zero()) == "0"
    assert str(t - 1) == "t - 1"
    assert str(-t) == "-t"


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(a, b, c):
    p, q, r = IntPoly(a), IntPoly(b), IntPoly(c)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(coeff_lists, st.integers(min_value=-5, max_value=5))
def test_evaluation_is_ring_hom(a, x):
    p = IntPoly(a)
    q = p * p + 3
    assert q(x) == p(x) * p(x) + 3


def test_compose():
    t = IntPoly.t()
    s = t**2 + 1
    assert s.compose(t - 1) == (t - 1) ** 2 + 1
    assert s.compose(IntPoly.zero()) == IntPoly.one()


def test_exact_division_monic():
    t = IntPoly.t()
    p = (t + 1) * (t + 2) * t
    q, r = divmod(p, t + 1)
    assert r.is_zero() and q == t * (t + 2)
    q, r = divmod(p + 1, t + 1)
    assert r == IntPoly((1,)) and q == t * (t + 2)


def test_inexact_division_raises():
    t = IntPoly.t()
    with pytest.raises(ValueError):
        divmod(t, 2 * t)
    assert not t.divides_exactly(2 * t)


def test_poly_from_roots():
    t = IntPoly.t()
    assert poly_from_roots([1, 2, 3]) == (t - 1) * (t - 2) * (t - 3)


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=5, unique=True))
def test_interpolation_recovers_poly(xs):
    p = IntPoly((3, -2, 1, 5)[: len(xs)])
    points = [(x, p(x)) for x in xs]
    assert interpolate_int_poly(points) == p


def test_interpolation_rejects_fractional():
    with pytest.raises(ValueError):
        interpolate_int_poly([(0, 0), (2, 1)])
    assert interpolate_int_poly([(0, 0), (2, 4)]) == 2 * IntPoly.t()


def test_interpolation_refuses_nodes_that_are_not_ints():
    for node in (Fraction(1, 2), Fraction(1), 1.0):
        with pytest.raises(ValueError, match="must be ints"):
            interpolate_int_poly([(0, 0), (node, 1)])
    with pytest.raises(ValueError, match="must be ints"):
        interpolate_int_poly([(0, 0), (1, 0.5)])


def test_horner_with_fractions():
    p = IntPoly((1, 2, 1))
    assert p(Fraction(1, 2)) == Fraction(9, 4)
