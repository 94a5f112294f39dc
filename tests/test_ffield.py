from __future__ import annotations

import itertools
import operator
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisect import FieldElement, make_field, parse_variety
from cisect.errors import BudgetExceeded, FieldMismatch, NotIrreducible, NotPrime
from cisect.extfield import (
    ZERO_LOG,
    _is_irreducible,
    _poly_divmod,
    _poly_mul,
    _smallest_irreducible,
    _trim,
)
from cisect.ffield import _prime_factors, is_prime
from cisect.variety import extension_spec


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


def reference_smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Every monic candidate of degree k, the constant term varying slowest,
    zero constant terms included."""
    for tail in itertools.product(range(p), repeat=k):
        if _is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


SMALL_EXTENSIONS = [
    (p, k) for p in range(2, 32) if is_prime(p) for k in range(2, 11) if p**k <= 1 << 10
]


@pytest.mark.parametrize(
    "p, k",
    [(2, 20), (3, 12), (5, 8), (7, 7), (2, 16), (1021, 2), (13, 5)] + SMALL_EXTENSIONS,
)
def test_modulus_search_skips_zero_constant_terms(p, k):
    # X divides every candidate with a zero constant term, so skipping them
    # leaves the default modulus, and every element index, unchanged
    assert _smallest_irreducible(p, k) == reference_smallest_irreducible(p, k)


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


def test_is_prime_and_prime_factors_match_naive_division():
    def naive_prime(n):
        return n > 1 and all(n % d for d in range(2, n))

    assert [n for n in range(-3, 400) if is_prime(n)] == [n for n in range(400) if naive_prime(n)]
    for n in itertools.chain(range(1, 400), [2**20 - 1, 2**20 - 3, 3**12 - 1, 1021 * 1031]):
        factors = _prime_factors(n)
        assert factors == sorted(set(factors)) and all(is_prime(f) for f in factors)
        rest = n
        for f in factors:
            while rest % f == 0:
                rest //= f
        assert rest == 1


def test_field_order_cap_refuses_huge_degree_at_once():
    # p^k is never formed when k alone passes the cap
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"13\^100000000 exceeds the cap 2\^20"):
        make_field(13, 10**8)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(NotPrime):
        make_field(1, 10**8)


# each operator with its value at 2 and 4 in F_5: 4 is its own inverse there
ARITH = [(operator.add, 1), (operator.sub, 3), (operator.mul, 3), (operator.truediv, 3)]


@pytest.mark.parametrize("op,value", ARITH, ids=["add", "sub", "mul", "div"])
def test_operand_checks(op, value):
    f5, f7 = make_field(5), make_field(7)
    a = f5.element(2)
    assert op(a, f5.element(4)) == f5.element(value)
    for other in (3, 3.0, "x", None):
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)
    with pytest.raises(FieldMismatch):
        op(a, f7.element(1))
    f9a = make_field(3, 2)
    f9b = make_field(3, 2, modulus=(2, 2, 1))
    with pytest.raises(FieldMismatch):
        op(f9a.element((1, 0)), f9b.element((1, 0)))


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


# ---------------------------------------------------------------------------
# the log/Zech tables against polynomial arithmetic mod the modulus


def _poly_inv_mod(a, modulus, p):
    """Inverse of a modulo the modulus via the extended Euclidean algorithm."""
    r0, r1 = _trim(list(modulus)), _trim(list(a))
    t0, t1 = [0], [1]
    while r1 != [0]:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        prod = _poly_mul(q, t1, p)
        width = max(len(t0), len(prod))
        nxt = [(t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0) for i in range(width)]
        t0, t1 = t1, _trim([c % p for c in nxt])
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    scale = pow(r0[0], p - 2, p)
    return _trim([c * scale % p for c in t0])


def _ref_mul(f, a, b):
    prod = _poly_mul(f.coeffs_of(a), f.coeffs_of(b), f.p)
    return f.idx_of(_poly_divmod(prod, f.modulus, f.p)[1])


def _ref_digitwise(f, a, b, sign):
    return f.idx_of([(x + sign * y) % f.p for x, y in zip(f.coeffs_of(a), f.coeffs_of(b))])


def _check_against_reference(f, pairs):
    p = f.p
    for a, b in pairs:
        assert f.mul_idx(a, b) == _ref_mul(f, a, b)
        assert f.add_idx(a, b) == _ref_digitwise(f, a, b, 1)
        assert f.sub_idx(a, b) == _ref_digitwise(f, a, b, -1)
    for a in {a for a, _ in pairs}:
        assert f.neg_idx(a) == f.idx_of([(-x) % p for x in f.coeffs_of(a)])
        if a:
            assert f.inv_idx(a) == f.idx_of(_poly_inv_mod(f.coeffs_of(a), f.modulus, p))
        power = 1
        for e in range(5):
            assert f.pow_idx(a, e) == power
            power = _ref_mul(f, power, a)
        assert f.pow_idx(a, f.q) == a  # Frobenius^k
    rng = random.Random(f.q)
    for width in (1, 2, 5):
        for _ in range(20):
            u = [rng.randrange(f.q) for _ in range(width)]
            w = [rng.randrange(f.q) for _ in range(width)]
            acc = 0
            for x, y in zip(u, w):
                acc = _ref_digitwise(f, acc, _ref_mul(f, x, y), 1)
            assert f.dot_idx(u, w) == acc


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 1)])
def test_term_evaluation_matches_per_term_sums(p, k):
    """eval_terms and eval_nonzero against the direct sum, term by term, of
    c * prod x_i^(e_i) in polynomial arithmetic mod the modulus: several
    term lists at one point, points with zero coordinates, exponents 0."""
    f = make_field(p, k)
    rng = random.Random(100 * p + k)

    def direct(terms, point):
        acc = 0
        for c, exps in terms:
            for x, e in zip(point, exps):
                for _ in range(e):
                    c = _ref_mul(f, c, x)
            acc = _ref_digitwise(f, acc, c, 1)
        return acc

    for _ in range(300):
        n = rng.randint(1, 4)
        point = tuple(rng.choice([0, 1, rng.randrange(f.q)]) for _ in range(n))
        groups = [
            (key, [(rng.randrange(1, f.q), tuple(rng.randint(0, 4) for _ in range(n)))
                   for _ in range(rng.randint(0, 5))])
            for key in range(rng.randint(1, 4))
        ]
        values = [direct(terms, point) for _, terms in groups]
        assert [f.eval_terms(terms, point) for _, terms in groups] == values
        assert f.eval_nonzero(groups, point) == [
            (c, key) for (key, _), c in zip(groups, values) if c
        ]


@pytest.mark.parametrize(
    "p,k,modulus",
    [(2, 2, None), (2, 3, None), (3, 2, None), (3, 2, (2, 2, 1)), (2, 4, None), (5, 2, None),
     (3, 3, None), (2, 5, None), (7, 2, None), (2, 6, None)],
)
def test_tables_match_polynomial_arithmetic_exhaustively(p, k, modulus):
    f = make_field(p, k, modulus)
    _check_against_reference(f, [(a, b) for a in range(f.q) for b in range(f.q)])


@pytest.mark.parametrize("p,k", [(3, 4), (2, 8), (5, 4), (17, 3), (2, 16)])
def test_tables_match_polynomial_arithmetic_on_a_sample(p, k):
    # F_81, F_256 and F_625 have no primitive X + c under the default modulus
    f = make_field(p, k)
    rng = random.Random(p * 1000 + k)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(400)]
    _check_against_reference(f, pairs + [(0, 0), (0, 1), (1, 0), (f.q - 1, f.q - 1)])


@pytest.mark.parametrize("p,k", [(3, 9), (5, 6)])
def test_odd_powers_step_by_g_exhaustively(p, k):
    # these fields build their powers from chunk tables of 3 and 2 digits
    f = make_field(p, k)
    n, exp, _, _ = f.tables
    g = exp[1]
    assert all(exp[i + 1] == _ref_mul(f, exp[i], g) for i in range(n - 1))
    assert exp[n] == exp[0] == 1
    assert sorted(exp[:n]) == list(range(1, f.q))


def test_table_edge_cases():
    for f in (make_field(5), make_field(2, 3), make_field(3, 2)):
        assert f.pow_idx(0, 0) == 1
        assert f.pow_idx(0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            f.inv_idx(0)
        assert f.dot_idx([], []) == 0
    f16 = make_field(2, 4)
    assert all(f16.neg_idx(a) == a for a in range(16))
    f9 = make_field(3, 2)
    assert f9.tables.log[0] == ZERO_LOG
    assert f9.tables.exp[f9.tables.log[2]] == 2


def test_make_field_returns_one_spec_per_field():
    assert make_field(2, 2) is make_field(2, 2)
    assert make_field(2, 2) is make_field(2, 2, [1, 1, 1])  # list moduli still accepted
    assert make_field(3, 2, (2, 2, 1)) is not make_field(3, 2)
    assert make_field(7) is make_field(7, 1, (0, 1))
    with pytest.raises(TypeError):
        make_field(2.0)
    with pytest.raises(NotIrreducible):
        make_field(2, 2, [1, 0, 1])
    v = parse_variety(
        "[field]\np = 3\n[variety]\nnvars = 3\ndim = 1\nsingdim = -1\npoly = 1:2,0,0 + 1:0,1,1\n"
    )
    assert extension_spec(v, 3) is extension_spec(v, 3)


def test_pickled_spec_carries_no_tables():
    f = make_field(2, 16)
    f.mul_idx(3, 5)  # build the tables
    data = pickle.dumps(f)
    assert len(data) < 1000
    clone = pickle.loads(data)
    assert clone == f and hash(clone) == hash(f)
    assert "tables" not in vars(clone)
    assert clone.mul_idx(3, 5) == f.mul_idx(3, 5)
