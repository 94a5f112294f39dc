from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from cisect import (
    VarietyDescriptor,
    count_points,
    jacobian_rank_at,
    load_variety,
    make_field,
    parse_variety,
    rational_points,
    rational_singular_points,
)
from cisect.errors import (
    ArityMismatch,
    BadSingularDim,
    DimensionDriftWarning,
    DimensionMismatch,
    FieldMismatch,
    InvalidGenerator,
    NotHomogeneousGenerator,
    ParseError,
    PointNotOnVariety,
    UnsupportedExtension,
    ZeroGenerator,
)
from cisect.space import ProjPoint

from conftest import (
    VARIETY_DIR,
    make_cone,
    make_empty,
    make_fermat_cubic,
    make_single_point,
    make_smooth_quadric,
    poly,
)


def test_descriptor_derived_quantities():
    v = make_cone(13)
    assert v.multidegree == (2,)
    assert v.degree == 2
    assert v.minor_degree == 1
    assert v.ambient_dim == 3
    assert v.codim == 1
    f5 = make_field(5)
    two_quadrics = [
        poly(f5, 5, [(1, (2, 0, 0, 0, 0)), (1, (0, 0, 2, 0, 0))]),
        poly(f5, 5, [(1, (0, 2, 0, 0, 0)), (4, (0, 0, 0, 2, 0))]),
    ]
    w = VarietyDescriptor.build(f5, 5, two_quadrics, dim=2, sing_dim=0)
    assert w.multidegree == (2, 2)
    assert w.degree == 4
    assert w.minor_degree == 2


def test_build_validation():
    f5 = make_field(5)
    quad = poly(f5, 4, [(1, (1, 1, 0, 0)), (4, (0, 0, 2, 0))])
    with pytest.raises(DimensionMismatch):
        VarietyDescriptor.build(f5, 4, [quad, quad], dim=2, sing_dim=0)
    with pytest.raises(BadSingularDim):
        VarietyDescriptor.build(f5, 4, [quad], dim=2, sing_dim=3)
    with pytest.raises(BadSingularDim):
        VarietyDescriptor.build(f5, 4, [quad], dim=2, sing_dim=-2)
    with pytest.raises(NotHomogeneousGenerator) as info:
        VarietyDescriptor.build(
            f5, 4, [quad, poly(f5, 4, [(1, (1, 0, 0, 0)), (1, (2, 0, 0, 0))])],
            dim=1, sing_dim=0,
        )
    assert info.value.index == 1
    with pytest.raises(ZeroGenerator):
        VarietyDescriptor.build(
            f5, 4, [quad, poly(f5, 4, [])], dim=1, sing_dim=0
        )
    with pytest.raises(InvalidGenerator):
        VarietyDescriptor.build(
            f5, 4, [quad, poly(f5, 4, [(3, (0, 0, 0, 0))])], dim=1, sing_dim=0
        )
    with pytest.raises(FieldMismatch):
        VarietyDescriptor.build(
            f5, 4, [poly(make_field(7), 4, [(1, (2, 0, 0, 0))])], dim=2, sing_dim=0
        )
    with pytest.raises(ArityMismatch):
        VarietyDescriptor.build(
            f5, 4, [poly(f5, 3, [(1, (2, 0, 0))])], dim=2, sing_dim=0
        )


def test_known_point_counts():
    assert count_points(make_cone(5)) == 31
    assert count_points(make_smooth_quadric(3)) == 16
    assert count_points(make_fermat_cubic(2)) == 3
    assert count_points(make_single_point(3)) == 1


def test_cone_count_matches_closed_form():
    # cone over a conic: vertex plus q points on each of q+1 conic lines
    for q in (2, 3, 5, 7, 13):
        assert count_points(make_cone(q)) == 1 + (q + 1) * q


def test_extension_counts():
    v = make_cone(5)
    assert count_points(v, 2) == 651  # p_2 over F_25
    q = make_smooth_quadric(2)
    assert count_points(q, 1) == 9
    assert count_points(q, 2) == 25  # (4+1)^2
    f4 = make_field(2, 2)
    w = VarietyDescriptor.build(
        f4, 3, [poly(f4, 3, [(1, (1, 0, 1)), (1, (0, 2, 0))])], dim=1, sing_dim=-1
    )
    assert count_points(w) == 5
    with pytest.raises(UnsupportedExtension):
        count_points(w, 2)


def test_fermat_curve_counts_follow_weil():
    # genus 1: N_e = q^e + 1 - (alpha^e + conj(alpha)^e), where the power
    # sums obey s_e = a s_{e-1} - q s_{e-2} with s_0 = 2 and a = q + 1 - N_1
    v = load_variety(VARIETY_DIR / "fermat5.var")
    q = v.field.q
    a = q + 1 - count_points(v)
    sums = [2, a]
    for e in range(2, 4):
        sums.append(a * sums[-1] - q * sums[-2])
    for e in (1, 2, 3):
        assert count_points(v, e) == q**e + 1 - sums[e]


def l_polynomial_counts(q: int, genus: int, first: list[int], upto: int) -> list[int]:
    """N_1..N_upto of a smooth curve of the given genus from N_1..N_genus.

    L(T) = sum a_j T^j = prod (1 - alpha_i T) has degree 2g, and the power
    sums S_e = sum alpha_i^e = q^e + 1 - N_e obey Newton's identities
    S_e + a_1 S_{e-1} + ... + a_{e-1} S_1 + e a_e = 0 (a_j = 0 past 2g).
    N_1..N_g fix a_1..a_g; the functional equation a_{2g-j} = q^{g-j} a_j
    fixes the rest (Deligne, Weil I, for the curve's b_1 = 2g)."""
    sums = [q**e + 1 - n for e, n in enumerate(first, start=1)]
    a = [1]
    for e in range(1, genus + 1):
        value = Fraction(-(sums[e - 1] + sum(a[i] * sums[e - 1 - i] for i in range(1, e))), e)
        assert value.denominator == 1
        a.append(int(value))
    a += [q ** (genus - j) * a[j] for j in range(genus - 1, -1, -1)]
    a += [0] * upto
    for e in range(genus + 1, upto + 1):
        sums.append(-sum(a[i] * sums[e - 1 - i] for i in range(1, e)) - e * a[e])
    return [q**e + 1 - s for e, s in enumerate(sums, start=1)]


def test_klein_quartic_counts_follow_its_l_polynomial():
    # X0^3 X1 + X1^3 X2 + X2^3 X0 is smooth of genus 3 over F_2, and
    # L(T) = 1 + 5T^3 + 8T^6; e = 8 is F_256, which has no primitive X + c
    v = parse_variety(
        "[field]\np = 2\n[variety]\nnvars = 3\ndim = 1\nsingdim = -1\n"
        "poly = 1:3,1,0 + 1:0,3,1 + 1:1,0,3\n"
    )
    first = [count_points(v, e) for e in (1, 2, 3)]
    assert first == [3, 5, 24]
    predicted = l_polynomial_counts(2, 3, first, 8)
    assert predicted[3:] == [17, 33, 38, 129, 257]
    assert [count_points(v, e) for e in range(4, 9)] == predicted[3:]


def test_empty_variety_warns_on_dimension_drift():
    v = make_empty(2)
    with pytest.warns(DimensionDriftWarning):
        assert count_points(v) == 0


def test_rational_points_lie_on_variety():
    v = make_cone(5)
    pts = list(rational_points(v))
    assert len(pts) == 31
    from cisect.mpoly import eval_poly

    for pt in pts:
        for gen in v.generators:
            assert eval_poly(gen, pt.coords).is_zero


def test_singular_locus_of_cone():
    v = make_cone(5)
    sing = rational_singular_points(v)
    assert len(sing) == 1
    assert str(sing[0].point) == "(0:0:0:1)"
    assert sing[0].jacobian_rank == 0
    assert not sing[0].smooth
    assert rational_singular_points(make_smooth_quadric(3)) == ()


def test_jacobian_rank_at_points():
    v = make_cone(5)
    f5 = v.field
    vertex = ProjPoint(tuple(f5.element(c) for c in (0, 0, 0, 1)))
    assert jacobian_rank_at(v, vertex) == 0
    smooth_pt = ProjPoint(tuple(f5.element(c) for c in (1, 0, 0, 0)))
    assert jacobian_rank_at(v, smooth_pt) == 1
    off = ProjPoint(tuple(f5.element(c) for c in (1, 1, 0, 0)))
    with pytest.raises(PointNotOnVariety):
        jacobian_rank_at(v, off)
    with pytest.raises(ArityMismatch):
        jacobian_rank_at(v, ProjPoint((f5.one, f5.zero)))


def test_parse_variety_round_trip():
    text = (VARIETY_DIR / "cone13.var").read_text()
    v = parse_variety(text)
    assert v.field.q == 13
    assert v.asserted_dim == 2
    assert v.asserted_sing_dim == 0
    assert count_points(v) == 183


def test_load_variety_accepts_path_and_text():
    v1 = load_variety(VARIETY_DIR / "cone2.var")
    v2 = load_variety(str(VARIETY_DIR / "cone2.var"))
    v3 = load_variety((VARIETY_DIR / "cone2.var").read_text())
    assert v1 == v2 == v3


def test_parse_variety_error_lines():
    bad_poly = "[field]\np = 5\n\n[variety]\nnvars = 2\ndim = 0\nsingdim = -1\npoly = 1:1\n"
    with pytest.raises(ParseError) as info:
        parse_variety(bad_poly)
    assert info.value.line == 8
    with pytest.raises(ParseError):
        parse_variety("[field]\np = 5\np = 7\n")  # duplicate key
    with pytest.raises(ParseError):
        parse_variety("[variety]\nnvars = 2\n")  # missing field section
    with pytest.raises(ParseError):
        parse_variety("[field]\np = 5\nwhat = 1\n")  # unknown key


def test_parse_variety_extension_field():
    text = (
        "[field]\np = 2\nk = 2\n\n"
        "[variety]\nnvars = 3\ndim = 1\nsingdim = -1\npoly = 1;0:1,0,1 + 1;0:0,2,0\n"
    )
    v = parse_variety(text)
    assert v.field.q == 4
    assert count_points(v) == 5


def test_parse_variety_explicit_modulus():
    text = (
        "[field]\np = 3\nk = 2\nmod = 2,2,1\n\n"
        "[variety]\nnvars = 2\ndim = 0\nsingdim = -1\npoly = 1;0:0,1\n"
    )
    v = parse_variety(text)
    assert v.field.modulus == (2, 2, 1)
    assert count_points(v) == 1
