from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisect import (
    SparsePolynomial,
    VariableGrouping,
    check_homogeneous,
    check_multihomogeneous,
    count_affine_zeros,
    eval_poly,
    format_poly,
    lift_to,
    make_field,
    parse_poly,
    partial_derivative,
    random_multihomogeneous,
    random_polynomial,
)
from cisect.errors import (
    ArityMismatch,
    BudgetExceeded,
    CoefficientOutOfRange,
    ExponentArityMismatch,
    FieldMismatch,
    PolyParseError,
)
from cisect.mpoly import (
    ANY_DEGREE,
    MAX_TERM_DEGREE,
    NOT_HOMOGENEOUS,
    NOT_MULTIHOMOGENEOUS,
    eval_idx,
)

from conftest import field_of

F5 = make_field(5)
F2 = make_field(2)
F4 = make_field(2, 2)


def test_parse_format_round_trip():
    text = "1:1,1,0,0 + 4:0,0,2,0"
    f = parse_poly(text, 4, F5)
    assert format_poly(f) == text
    assert parse_poly(format_poly(f), 4, F5) == f


def test_parse_canonicalizes_term_order():
    # parser accepts any order, formatter emits lex-descending exponents
    assert format_poly(parse_poly("4:0,0,2,0 + 1:1,1,0,0", 4, F5)) == "1:1,1,0,0 + 4:0,0,2,0"


def test_parse_combines_duplicate_terms():
    f = parse_poly("2:1,0 + 4:1,0", 2, F5)
    assert format_poly(f) == "1:1,0"
    assert format_poly(parse_poly("2:1,0 + 3:1,0", 2, F5)) == "0:0,0"


def test_zero_polynomial_format():
    assert format_poly(SparsePolynomial.zero(F5, 3)) == "0:0,0,0"
    assert format_poly(SparsePolynomial.zero(F4, 2)) == "0;0:0,0"


def test_extension_coefficient_grammar():
    text = "1;1:2,0 + 0;1:0,1"
    f = parse_poly(text, 2, F4)
    assert format_poly(f) == text
    g = F4.element((0, 1))
    # evaluate (g+1)X0^2 + g X1 at (1, 1)
    val = eval_poly(f, (F4.one, F4.one))
    assert val == F4.element((1, 1)) + g


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(PolyParseError) as info:
        parse_poly("1:1,0 + :0,1", 2, F5)
    assert info.value.offset == 8
    with pytest.raises(CoefficientOutOfRange):
        parse_poly("5:1,0", 2, F5)
    with pytest.raises(ExponentArityMismatch):
        parse_poly("1:1", 2, F5)
    with pytest.raises(PolyParseError):
        parse_poly("1: 1,0", 2, F5)  # stray whitespace inside a term
    with pytest.raises(PolyParseError):
        parse_poly("", 2, F5)


def test_arithmetic_matches_pointwise():
    rng = random.Random(11)
    pts = [tuple(F5.from_index(rng.randrange(5)) for _ in range(3)) for _ in range(20)]
    for _ in range(25):
        f = random_polynomial(F5, 3, 3, rng)
        g = random_polynomial(F5, 3, 2, rng)
        fg = f * g
        fpg = f + g
        for x in pts:
            assert eval_poly(fg, x) == eval_poly(f, x) * eval_poly(g, x)
            assert eval_poly(fpg, x) == eval_poly(f, x) + eval_poly(g, x)
            assert eval_poly(f - g, x) == eval_poly(f, x) - eval_poly(g, x)


def test_scalar_multiplication():
    f = parse_poly("1:2,0 + 2:0,1", 2, F5)
    assert format_poly(F5.element(2) * f) == "2:2,0 + 4:0,1"
    assert (F5.zero * f).is_zero


def test_total_degree():
    assert parse_poly("1:2,3", 2, F5).total_degree() == 5
    assert SparsePolynomial.zero(F5, 2).total_degree() == -1
    assert parse_poly("3:0,0", 2, F5).total_degree() == 0


def test_partial_derivative_basics():
    f = parse_poly("1:3,0", 2, F5)  # X0^3
    assert format_poly(partial_derivative(f, 0)) == "3:2,0"
    assert partial_derivative(f, 1).is_zero
    with pytest.raises(IndexError):
        partial_derivative(f, 2)


def test_characteristic_kills_derivative():
    f3 = make_field(3)
    f = parse_poly("1:3,0", 2, f3)
    assert partial_derivative(f, 0).is_zero


def test_homogeneity_checks():
    assert check_homogeneous(parse_poly("1:1,1,0 + 4:0,0,2", 3, F5)) == 2
    assert check_homogeneous(parse_poly("1:1,0,0 + 1:1,1,0", 3, F5)) is NOT_HOMOGENEOUS
    assert check_homogeneous(SparsePolynomial.zero(F5, 3)) is ANY_DEGREE


def test_multihomogeneity_checks():
    grouping = VariableGrouping((2, 2))
    # Gamma_{1,0} * Gamma_{2,0}: multidegree (1, 1)
    f = parse_poly("1:1,0,1,0", 4, F2)
    assert check_multihomogeneous(f, grouping) == (1, 1)
    g = parse_poly("1:1,0,1,0 + 1:0,1,0,0", 4, F2)
    assert check_multihomogeneous(g, grouping) is NOT_MULTIHOMOGENEOUS
    assert check_multihomogeneous(SparsePolynomial.zero(F2, 4), grouping) is ANY_DEGREE
    with pytest.raises(ArityMismatch):
        check_multihomogeneous(f, VariableGrouping((2, 3)))


def test_count_affine_zeros_brute_cross_check():
    rng = random.Random(7)
    for _ in range(10):
        f = random_polynomial(F5, 3, 2, rng)
        naive = 0
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    x = (F5.element(a), F5.element(b), F5.element(c))
                    if eval_poly(f, x).is_zero:
                        naive += 1
        assert count_affine_zeros(f) == naive


def test_count_affine_zeros_known_values():
    # X0 * X2 over F_2 in four variables: zero iff x0 = 0 or x2 = 0
    f = parse_poly("1:1,0,1,0", 4, F2)
    assert count_affine_zeros(f) == 12
    assert count_affine_zeros(SparsePolynomial.zero(F2, 3)) == 8


def test_count_affine_zeros_extension_field():
    # X0^2 + g X1 over F_4: rows of block monomials over an extension field
    f = parse_poly("1;0:2,0 + 0;1:0,1", 2, F4)
    naive = sum(
        1
        for a in range(4)
        for b in range(4)
        if eval_poly(f, (F4.from_index(a), F4.from_index(b))).is_zero
    )
    assert count_affine_zeros(f) == naive == 4


def test_count_affine_zeros_budget():
    f = parse_poly("1:" + ",".join(["1"] + ["0"] * 11), 12, make_field(7))
    with pytest.raises(BudgetExceeded):
        count_affine_zeros(f)


def test_count_affine_zeros_runs_without_numpy():
    # a None entry in sys.modules makes every "import numpy" raise ImportError
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys; sys.modules['numpy'] = None\n"
        "from cisect import count_affine_zeros, make_field, parse_poly\n"
        "print(count_affine_zeros(parse_poly('1:1,0,1,0', 4, make_field(2))),"
        " count_affine_zeros(parse_poly('1:2,0,0 + 4:0,1,1', 3, make_field(5))),"
        " count_affine_zeros(parse_poly('1;0:2,0 + 0;1:0,1', 2, make_field(2, 2))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    # X0 X2 over F_2^4; X0^2 = X1 X2 over F_5^3 (x0 = 0: 9 points, else 4 x0 * 4); F_4 as above
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "12 25 4\n", "")


@st.composite
def small_affine_polynomials(draw):
    """A random polynomial, the zero one included, in 1-6 variables over a
    field of order at most 16, with q^n <= 4096: the block of the walker
    spans all, some or one of the coordinates.  Exponents reach q + 1, so
    x^q = x and 0^0 = 1 both matter."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    f = field_of(q)
    nvars = draw(st.integers(1, max(n for n in range(1, 7) if q**n <= 4096)))
    terms = draw(st.lists(
        st.tuples(st.integers(1, q - 1), st.tuples(*[st.integers(0, q + 1)] * nvars)),
        max_size=8,
    ))
    return SparsePolynomial.from_terms(f, nvars, [(f.from_index(c), e) for c, e in terms])


@settings(max_examples=120, deadline=None)
@given(small_affine_polynomials())
def test_count_affine_zeros_matches_pointwise_walk(f):
    q = f.field.q
    naive = sum(
        1 for x in itertools.product(range(q), repeat=f.nvars) if eval_idx(f, x) == 0
    )
    assert count_affine_zeros(f) == naive


def test_lift_to_extension():
    f = parse_poly("1:2,0 + 1:0,1", 2, F2)
    lifted = lift_to(f, F4)
    assert lifted.field.q == 4
    for idx_a in range(4):
        for idx_b in range(4):
            x = (F4.from_index(idx_a), F4.from_index(idx_b))
            direct = x[0] * x[0] + x[1]
            assert eval_poly(lifted, x) == direct
    with pytest.raises(FieldMismatch):
        lift_to(parse_poly("1;0:1,0", 2, F4), make_field(2, 4))


def test_random_polynomial_determinism_and_shape():
    a = random_polynomial(F5, 3, 3, random.Random(42))
    b = random_polynomial(F5, 3, 3, random.Random(42))
    assert a == b
    h = random_polynomial(F5, 3, 3, random.Random(1), homogeneous=True)
    assert check_homogeneous(h) == 3
    m = random_multihomogeneous(F2, VariableGrouping((1, 1)), (1, 1), random.Random(3))
    assert check_multihomogeneous(m, VariableGrouping((1, 1))) == (1, 1)


@given(st.integers(0, 5**4 - 1), st.integers(0, 5**4 - 1))
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_homomorphism(seed_a, seed_b):
    rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
    f = random_polynomial(F5, 2, 2, rng_a)
    g = random_polynomial(F5, 2, 2, rng_b)
    x = (F5.element(seed_a % 5), F5.element(seed_b % 5))
    assert eval_poly(f * g, x) == eval_poly(f, x) * eval_poly(g, x)
    assert eval_poly(f + g, x) == eval_poly(f, x) + eval_poly(g, x)


def _eval_term_by_term(f, point, spec):
    """The scalar evaluator eval_idx replaced: one power and product per
    factor, one addition per term."""
    acc = 0
    for cidx, exps in f.idx_terms:
        term = cidx
        for x, e in zip(point, exps):
            term = spec.mul_idx(term, spec.pow_idx(x, e))
        acc = spec.add_idx(acc, term)
    return acc


@pytest.mark.parametrize(
    "p,k", [(2, 1), (5, 1), (31, 1), (1048573, 1), (2, 2), (3, 2), (2, 5), (3, 5), (2, 16)]
)
def test_log_domain_eval_matches_term_by_term(p, k):
    """Both classes' eval_terms, through eval_idx, against one multiplication
    and power per factor: prime fields as integers mod p, extensions in the
    log domain."""
    spec = make_field(p, k)
    rng = random.Random(p * 100 + k)
    polys = [random_polynomial(spec, 3, degree, rng, max_terms=5) for degree in (1, 3, 40, 900)]
    # the largest term degree the grammar allows, times the largest log,
    # with the zero factor of smallest exponent
    top = MAX_TERM_DEGREE - 1
    polys.append(SparsePolynomial.from_terms(
        spec, 3, [(spec.one, (top, 1, 0)), (spec.from_index(spec.q - 1), (1, 0, 0))]
    ))
    coords = [0, 0, 1, spec.q - 1, spec.q - 2] + [rng.randrange(spec.q) for _ in range(5)]
    for f in polys:
        for _ in range(60):
            point = tuple(rng.choice(coords) for _ in range(3))
            assert eval_idx(f, point) == _eval_term_by_term(f, point, spec)
