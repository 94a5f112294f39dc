from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisect import FieldElement, make_field
from cisect.errors import BudgetExceeded, FieldMismatch, NotIrreducible, NotPrime


def test_prime_field_basics():
    f5 = make_field(5)
    assert f5.q == 5
    a = f5.element(2)
    b = f5.element(4)
    assert (a + b).idx == 1
    assert (a - b).idx == 3
    assert (a * b).idx == 3
    assert (-a).idx == 3
    assert a.inverse().idx == 3  # 2*3 = 6 = 1 mod 5
    assert (a / b).idx == 3  # 2 * 4^{-1} = 2*4 = 8 = 3


def test_known_inverses():
    assert make_field(5).element(2).inverse().idx == 3
    assert make_field(7).element(3).inverse().idx == 5
    f4 = make_field(2, 2)
    g = f4.element((0, 1))
    assert g.inverse().coeffs == (1, 1)  # g * (g+1) = g^2 + g = 1


def test_modulus_selection_is_smallest_lexicographic():
    # ordering compares the constant coefficient first
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    # x^3 + x^2 + 1 precedes x^3 + x + 1 under constant-first comparison
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    # x^2 + 1 = (x+2)(x+3) over F_5, so the search moves on to x^2 + x + 1
    assert make_field(5, 2).modulus == (1, 1, 1)


def test_explicit_modulus_accepted_and_checked():
    f9 = make_field(3, 2, modulus=(2, 2, 1))  # x^2 + 2x + 2, irreducible
    x = f9.element((0, 1))
    # x^2 = -2x - 2 = x + 1
    assert (x * x).coeffs == (1, 1)
    with pytest.raises(NotIrreducible):
        make_field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_validation_errors():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(BudgetExceeded):
        make_field(2, 21)  # 2^21 > 2^20 cap
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_field_mismatch():
    a = make_field(5).element(1)
    b = make_field(7).element(1)
    with pytest.raises(FieldMismatch):
        a + b
    f9a = make_field(3, 2)
    f9b = make_field(3, 2, modulus=(2, 2, 1))
    with pytest.raises(FieldMismatch):
        f9a.element((1, 0)) + f9b.element((1, 0))


def test_division_by_zero():
    f7 = make_field(7)
    with pytest.raises(ZeroDivisionError):
        f7.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f7.element(3) / f7.zero


def test_enumeration_order_and_index_round_trip():
    f4 = make_field(2, 2)
    elems = list(f4.elements())
    assert [e.coeffs for e in elems] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [e.idx for e in elems] == [0, 1, 2, 3]
    for q in (2, 3, 4, 5, 8, 9, 25):
        p = 2 if q in (2, 4, 8) else (3 if q in (3, 9) else 5)
        k = {2: 1, 3: 1, 4: 2, 5: 1, 8: 3, 9: 2, 25: 2}[q]
        f = make_field(p, k)
        for idx in range(q):
            assert f.from_index(idx).idx == idx


def test_constant_embedding_keeps_index():
    f8 = make_field(2, 3)
    one = f8.element(1)
    assert one.idx == 1
    assert one.coeffs == (1, 0, 0)
    f25 = make_field(5, 2)
    assert f25.element(3).idx == 3


def test_pow_and_fermat():
    f9 = make_field(3, 2)
    for e in f9.elements():
        if not e.is_zero:
            assert (e ** 8).idx == 1  # multiplicative group order q-1
        assert (e ** 9).idx == e.idx  # Frobenius^k is the identity


def test_repr_formats():
    assert repr(make_field(5).element(3)) == "F5(3)"
    assert repr(make_field(2, 2).element((1, 1))) == "F2^2(1, 1)"


@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
@settings(max_examples=200, deadline=None)
def test_axioms_f49(ia, ib, ic):
    f = make_field(7, 2)
    a, b, c = f.from_index(ia), f.from_index(ib), f.from_index(ic)
    assert (a + b).idx == (b + a).idx
    assert (a * b).idx == (b * a).idx
    assert ((a + b) + c).idx == (a + (b + c)).idx
    assert ((a * b) * c).idx == (a * (b * c)).idx
    assert (a * (b + c)).idx == (a * b + a * c).idx
    assert (a - a).is_zero
    if not a.is_zero:
        assert (a * a.inverse()).idx == 1


@given(st.integers(0, 31), st.integers(1, 31))
@settings(max_examples=120, deadline=None)
def test_div_mul_round_trip_f32(ia, ib):
    f = make_field(2, 5)
    a, b = f.from_index(ia), f.from_index(ib)
    assert ((a / b) * b).idx == a.idx
