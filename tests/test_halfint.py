import pytest
from hypothesis import given, strategies as st

from maslovkit.halfint import HalfInt

halves = st.integers(min_value=-10**9, max_value=10**9)


@given(halves, halves)
def test_addition_closed_and_commutative(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert x + y == HalfInt(a + b) == y + x


@given(halves, halves, halves)
def test_addition_associative(a, b, c):
    x, y, z = HalfInt(a), HalfInt(b), HalfInt(c)
    assert (x + y) + z == x + (y + z)


@given(halves)
def test_negation_and_subtraction(a):
    x = HalfInt(a)
    assert x - x == HalfInt(0)
    assert -x + x == HalfInt(0)


@given(halves, st.integers(min_value=-1000, max_value=1000))
def test_integer_scaling(a, k):
    assert HalfInt(a) * k == HalfInt(a * k) == k * HalfInt(a)


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_from_int_roundtrip(k):
    h = HalfInt.from_int(k)
    assert h.is_integer() and h.as_integer() == k and float(h) == k


def test_strict_half_rejects_as_integer():
    h = HalfInt(3)
    assert not h.is_integer()
    assert float(h) == 1.5
    assert str(h) == "3/2"
    with pytest.raises(ValueError):
        h.as_integer()


def test_float_halves_rejected():
    with pytest.raises(TypeError):
        HalfInt(1.0)


def test_json_roundtrip():
    h = HalfInt(-7)
    assert HalfInt.from_json(h.to_json()) == h
    assert h.to_json() == {"halves": -7}


def test_ordering():
    assert HalfInt(1) < HalfInt(2) < HalfInt(4)


def test_arithmetic_with_a_non_halfint_is_a_type_error():
    for other in (1, 1.5, None):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: b + a, lambda a, b: b - a):
            with pytest.raises(TypeError):
                op(HalfInt(3), other)
    assert HalfInt(3) + HalfInt.from_int(1) == HalfInt(5)
