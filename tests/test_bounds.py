from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisect import (
    BoundReport,
    bertini_degree,
    betti_b1,
    estimate_suite,
    gl_constant,
    make_field,
    trivial_bounds,
    verify_variety,
    zero_bound,
)
from cisect.errors import BadSingularDim, BudgetExceeded, InvalidInput, MissingBetti
from cisect.radicals import RootSum, display_12, display_30

from conftest import make_cone, make_smooth_quadric


# ---------------------------------------------------------------------------
# RootSum


def test_rootsum_perfect_squares_fold_into_constant():
    r = RootSum.of(3, [(1, 4), (2, 9)])
    assert r.const == 11
    assert r.roots == ()
    assert r.is_integer


def test_rootsum_duplicate_radicands_merge():
    r = RootSum.of(0, [(1, 2), (3, 2)])
    assert r.roots == ((2, 4),)
    assert r.floor() == 5  # 4*sqrt(2) = 5.656...
    assert r.ceil() == 6


def test_rootsum_floor_ceil_and_geq():
    root2 = RootSum.of(0, [(1, 2)])
    assert root2.floor() == 1
    assert root2.ceil() == 2
    assert root2.geq_int(1)
    assert not root2.geq_int(2)
    five = RootSum.of(5, [])
    assert five.floor() == five.ceil() == 5
    assert five.geq_int(5)
    assert not five.geq_int(6)
    assert five.geq_int(-3)


def test_rootsum_display():
    root2 = RootSum.of(0, [(1, 2)])
    assert display_30(root2) == "1.41421356237309504880168872420969808"
    assert display_12(root2) == "1.41421356237E+0"
    assert display_30(RootSum.of(5, [])) == "5"
    assert display_12(RootSum.of(5, [])) == "5"


def test_rootsum_floor_agrees_with_float_on_small_values():
    import math

    for const, coef, rad in itertools.product(range(6), range(1, 5), range(2, 20)):
        r = RootSum.of(const, [(coef, rad)])
        assert r.floor() == math.floor(const + coef * math.sqrt(rad))


# ---------------------------------------------------------------------------
# closed-form helpers


def test_zero_bound_frozen_values():
    assert zero_bound(2, (1, 1), (1, 1)) == 12
    assert zero_bound(5, (2,), (2,)) == 50
    assert zero_bound(3, (2, 1), (1, 1)) == 63


def test_zero_bound_factorized_complement():
    # inclusion-exclusion sum equals the product form of the complement
    for q in (2, 3, 4, 5):
        for degs in itertools.product(range(1, 4), repeat=2):
            for dims in itertools.product(range(1, 3), repeat=2):
                total = q ** (sum(dims) + 2)
                comp = 1
                for d, n in zip(degs, dims):
                    comp *= q ** (n + 1) - d * q**n
                assert zero_bound(q, degs, dims) == total - comp


def _inclusion_exclusion(q: int, degrees, dims) -> int:
    # the cap as the paper sums it: over each nonempty set S of groups,
    # (-1)^(|S|+1) * q^(sum of (n_i + 1) - |S|) * prod_{i in S} d_i
    size = sum(dims) + len(dims)
    total = 0
    for bits in range(1, 1 << len(degrees)):
        chosen = [d for i, d in enumerate(degrees) if bits >> i & 1]
        term = q ** (size - len(chosen))
        for d in chosen:
            term *= d
        total += term if len(chosen) % 2 else -term
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), min_size=1, max_size=6),
)
def test_zero_bound_matches_inclusion_exclusion(q, groups):
    # degrees run past q, where the cap is no bound but still the same sum
    degrees, dims = zip(*groups)
    assert zero_bound(q, degrees, dims) == _inclusion_exclusion(q, degrees, dims)


def test_zero_bound_with_forty_groups():
    # 2^40 subsets: only the product form gets here
    t0 = time.perf_counter()
    assert zero_bound(3, (1,) * 40, (2,) * 40) == 3**80 * (3**40 - 2**40)
    # one degree equal to q zeroes the product
    assert zero_bound(5, range(40), [1] * 40) == 5**80
    assert time.perf_counter() - t0 < 1.0


def test_zero_bound_refuses_caps_too_long_to_print():
    assert zero_bound(10, (1,), (4298,)) == 10**4298
    with pytest.raises(BudgetExceeded, match="about 5001 digits"):
        zero_bound(10, (1,), (5000,))
    # a huge degree makes a huge cap however small q and n are
    with pytest.raises(BudgetExceeded):
        zero_bound(2, (10**1500,) * 3, (0, 0, 0))


def test_zero_bound_monotone_in_degree():
    for d in range(1, 5):
        assert zero_bound(5, (d,), (2,)) <= zero_bound(5, (d + 1,), (2,))


def test_zero_bound_rejects_mismatch():
    with pytest.raises(InvalidInput):
        zero_bound(2, (1, 1), (1,))
    with pytest.raises(InvalidInput):
        zero_bound(2, (), ())


def test_bertini_degree_values():
    assert bertini_degree(1, 2, 0, 2) == 6
    assert bertini_degree(2, 3, 0, 4) == 80
    assert bertini_degree(0, 2, 0, 1) == 0  # all-linear system
    with pytest.raises(BadSingularDim):
        bertini_degree(1, 2, 1, 2)  # s must stay <= r-2


def test_betti_b1_values():
    assert betti_b1(2, 3) == 2
    assert betti_b1(1, 2) == 0
    assert betti_b1(3, 1) == 3
    with pytest.raises(InvalidInput):
        betti_b1(1, 5)  # formula would go negative


def test_gl_constant_value():
    assert gl_constant(3, 2, 2) == 11250


def test_trivial_bounds_values():
    assert trivial_bounds(5, 2, 2) == (62, 50)
    assert trivial_bounds(2, 1, 3) == (9, 6)
    assert trivial_bounds(7, 0, 1) == (1, 1)


# ---------------------------------------------------------------------------
# estimate suites


def cone13_suite() -> BoundReport:
    return estimate_suite(13, 3, 2, 0, (2,))


def test_suite_rows_sorted_and_complete():
    suite = cone13_suite()
    names = [row.name for row in suite.rows]
    assert names == sorted(names)
    assert names == [
        "cmp",
        "ghorpade-lachaud",
        "hooley-katz",
        "normal-ci",
        "trivial-projective",
    ]
    assert suite.degree == 2
    assert suite.minor_degree == 1
    assert suite.betti_index == 1
    assert suite.betti == 0  # auto-filled from the b_1 formula
    assert suite.trivial_projective == 366
    assert suite.trivial_affine == 338


def test_suite_frozen_rhs_values():
    suite = cone13_suite()
    assert display_30(suite.row("cmp").rhs) == "728"
    assert display_30(suite.row("ghorpade-lachaud").rhs) == "146250"
    assert suite.row("hooley-katz").rhs.floor() == 179
    assert display_30(suite.row("hooley-katz").rhs).startswith("179.446673934")
    assert suite.row("normal-ci").rhs.floor() == 1124
    assert all(row.applicable for row in suite.rows)
    assert suite.row("hooley-katz").condition == "requires q > 2*(s+1)*6 = 12"


def test_suite_dominance_at_cone13():
    suite = cone13_suite()
    hk = suite.row("hooley-katz").rhs
    cmp_rhs = suite.row("cmp").rhs
    nci = suite.row("normal-ci").rhs
    gl = suite.row("ghorpade-lachaud").rhs
    assert hk.floor() < cmp_rhs.floor() < nci.floor() < gl.floor()


def test_suite_applicability_flags():
    # small q turns hooley-katz off but leaves the row in the report
    suite = estimate_suite(5, 3, 2, 0, (2,))
    assert not suite.row("hooley-katz").applicable
    assert suite.row("ghorpade-lachaud").applicable
    assert suite.row("cmp").applicable  # s == r-2 here


def test_suite_nonsingular_uses_deligne():
    suite = estimate_suite(3, 3, 2, -1, (2,), betti=1)
    names = [row.name for row in suite.rows]
    assert names == ["deligne", "trivial-projective"]
    assert display_30(suite.row("deligne").rhs) == "3"
    assert display_30(suite.row("trivial-projective").rhs) == "26"


def test_suite_missing_betti():
    with pytest.raises(MissingBetti):
        estimate_suite(5, 4, 3, 0, (2,))  # needs b'_2, no formula built in
    suite = estimate_suite(5, 4, 3, 0, (2,), betti=7)
    assert suite.betti == 7
    assert suite.betti_index == 2


def test_suite_input_validation():
    with pytest.raises(BadSingularDim):
        estimate_suite(5, 3, 2, 1, (2,))  # s beyond r-2
    with pytest.raises(InvalidInput):
        estimate_suite(5, 3, 2, 0, (1, 2))  # unsorted multidegree
    with pytest.raises(InvalidInput):
        estimate_suite(5, 3, 2, 0, (2, 2))  # wrong codimension
    with pytest.raises(InvalidInput):
        estimate_suite(5, 3, 3, 0, (2,))  # dim must stay below ambient
    with pytest.raises(InvalidInput):
        estimate_suite(1, 3, 2, 0, (2,))  # q >= 2


# ---------------------------------------------------------------------------
# verification against actual point counts


def test_verify_cone5():
    rep = verify_variety(make_cone(5))
    assert rep.point_count == 31
    assert rep.deviation == 0
    assert rep.all_pass
    assert rep.row("hooley-katz").verdict == "N-A"
    for name in ("cmp", "ghorpade-lachaud", "normal-ci", "trivial-projective"):
        assert rep.row(name).verdict == "PASS"
    assert rep.row("trivial-projective").lhs == 31  # bounds N, not the deviation


def test_verify_smooth_quadric_boundary():
    # |N - p_r| = |16 - 13| = 3 and the deligne bound is exactly sqrt(9) = 3
    rep = verify_variety(make_smooth_quadric(3, sing_dim=-1), betti=1)
    assert rep.point_count == 16
    assert rep.deviation == 3
    row = rep.row("deligne")
    assert row.lhs == 3
    assert row.rhs.geq_int(3)
    assert row.verdict == "PASS"
    assert rep.all_pass


def test_verify_cone13_all_pass():
    rep = verify_variety(make_cone(13))
    assert rep.point_count == 183
    assert rep.expected == 183
    assert rep.all_pass
    assert all(row.verdict == "PASS" for row in rep.rows if row.applicable)
