from __future__ import annotations

import itertools

import pytest

from cisect import count_affine, count_projective, enumerate_affine, enumerate_projective, make_field
from cisect.errors import BudgetExceeded
from cisect.linalg import nullspace_idx, rank_idx, rref_idx
from cisect.space import (
    ProjPoint,
    count_grassmannian,
    iter_affine_idx,
    iter_projective_idx,
    iter_rref_idx,
    projective_tuple_at,
)

from conftest import field_of


def test_projective_counts():
    assert count_projective(13, 3) == 2380
    assert count_projective(5, 2) == 31
    assert count_projective(2, 0) == 1
    assert count_projective(7, -1) == 0
    assert count_affine(3, 4) == 81


def test_affine_enumeration_order():
    # last coordinate varies fastest
    pts = list(iter_affine_idx(2, 2))
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_projective_enumeration_order():
    # strata by pivot position: leading-1 representatives first
    pts = list(iter_projective_idx(2, 1))
    assert pts == [(1, 0), (1, 1), (0, 1)]
    pts3 = list(iter_projective_idx(3, 1))
    assert pts3 == [(1, 0), (1, 1), (1, 2), (0, 1)]


def test_enumeration_cardinalities():
    for q, k in [(2, 1), (3, 1), (4, 2), (5, 1), (7, 1), (8, 3), (9, 2)]:
        p = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3}[q]
        spec = make_field(p, k)
        for n in range(4):
            got = sum(1 for _ in enumerate_projective(spec, n))
            assert got == count_projective(q, n)
            assert sum(1 for _ in enumerate_affine(spec, n)) == q**n


def test_canonical_representatives_are_unique():
    # every projective point over F_9 appears exactly once, leading entry 1
    seen = set()
    for tup in iter_projective_idx(9, 2):
        first = next(c for c in tup if c != 0)
        assert first == 1
        assert tup not in seen
        seen.add(tup)
    assert len(seen) == count_projective(9, 2)


def test_projpoint_normalization():
    f5 = make_field(5)
    pt = ProjPoint.from_coords((f5.element(0), f5.element(2), f5.element(4)))
    assert str(pt) == "(0:1:2)"
    with pytest.raises(ValueError):
        ProjPoint.from_coords((f5.zero, f5.zero, f5.zero))


def test_projpoint_rejects_non_canonical():
    f5 = make_field(5)
    with pytest.raises(ValueError):
        ProjPoint((f5.element(2), f5.element(1)))


def test_extension_field_point_format():
    f4 = make_field(2, 2)
    pts = list(enumerate_projective(f4, 1))
    assert len(pts) == 5
    assert str(pts[0]) == "(1;0:0;0)"


def test_enumeration_budget():
    f2 = make_field(2)
    with pytest.raises(BudgetExceeded):
        next(enumerate_affine(f2, 30))


def test_grassmannian_counts():
    assert count_grassmannian(2, 2, 4) == 35
    assert count_grassmannian(5, 2, 5) == 20306
    assert count_grassmannian(3, 2, 5) == 1210
    for q, n in [(2, 1), (13, 3), (4, 4)]:
        assert count_grassmannian(q, 1, n + 1) == count_projective(q, n)
    assert count_grassmannian(3, 0, 4) == count_grassmannian(3, 4, 4) == 1
    assert count_grassmannian(3, 5, 4) == 0


def test_rref_one_row_is_projective_order():
    for q, n in [(2, 1), (3, 2), (4, 3), (5, 2)]:
        rows = [form for (form,) in iter_rref_idx(q, 1, n + 1)]
        assert rows == [projective_tuple_at(q, n, i) for i in range(count_projective(q, n))]


@pytest.mark.parametrize("q, k, m", [(2, 2, 4), (3, 2, 3), (4, 2, 3), (2, 3, 4), (3, 1, 3)])
def test_rref_forms_are_the_subspaces(q, k, m):
    """Every independent k-tuple of vectors reduces to exactly one of the
    enumerated forms, and every form is its own reduction."""
    spec = field_of(q)
    forms = list(iter_rref_idx(q, k, m))
    assert len(forms) == len(set(forms)) == count_grassmannian(q, k, m)
    assert all(rref_idx(f, spec) == f for f in forms)
    vectors = list(itertools.product(range(q), repeat=m))
    reduced = set()
    for rows in itertools.product(vectors, repeat=k):
        form = rref_idx(rows, spec)
        assert (form is None) == (rank_idx(rows, spec) < k)
        if form is not None:
            reduced.add(form)
    assert reduced == set(forms)


def test_rref_of_canonical_rows_costs_no_inversion(monkeypatch):
    f4 = make_field(2, 2)

    def no_inverse(self, a):
        raise AssertionError("inverted a field element")

    forms = list(iter_rref_idx(4, 2, 4))
    monkeypatch.setattr(type(f4), "inv_idx", no_inverse)
    assert rref_idx([(1, 2, 3, 0)], f4) == ((1, 2, 3, 0),)
    assert all(rref_idx(f, f4) == f for f in forms)
    monkeypatch.undo()
    # a scaled row needs its pivot inverted: 2 * 3 = 1 in F_4
    assert rref_idx([(0, 2, 1, 3)], f4) == ((0, 1, 3, 2),)


@pytest.mark.parametrize("q, rows", [(2, 3), (3, 2), (4, 2)])
def test_nullspace_is_the_annihilator(q, rows):
    """For every matrix of ``rows`` rows over F_q^3, including dependent and
    zero ones, the null space basis is independent, vanishes on the rows and
    has dimension 3 - rank; and the brute-force annihilator is its span."""
    spec = field_of(q)
    vectors = list(itertools.product(range(q), repeat=3))
    for matrix in itertools.product(vectors, repeat=rows):
        basis = nullspace_idx(matrix, spec, 3)
        assert len(basis) == 3 - rank_idx(matrix, spec)
        assert not basis or rref_idx(basis, spec) is not None
        kernel = {y for y in vectors if all(spec.dot_idx(r, y) == 0 for r in matrix)}
        span = {
            tuple(spec.dot_idx(c, col) for col in zip(*basis)) if basis else (0, 0, 0)
            for c in itertools.product(range(q), repeat=len(basis))
        }
        assert span == kernel, matrix
