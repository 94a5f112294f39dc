from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cisect import (
    SparsePolynomial,
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
from cisect import points
from cisect.mpoly import eval_idx
from cisect.points import _points_idx
from cisect.polytools import lift_to
from cisect.space import ProjPoint, count_projective, iter_projective_idx
from cisect.variety import extension_spec

from conftest import (
    VARIETY_DIR,
    field_of,
    make_conic,
    make_cone,
    make_cone_p4,
    make_cubic_surface,
    make_empty,
    make_fermat_cubic,
    make_quadric_pair_p4,
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
    from cisect.polytools import eval_poly

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


# ---------------------------------------------------------------------------
# block enumeration against a per-point walk


def oracle_points(v: VarietyDescriptor, ext: int) -> tuple[tuple[int, ...], ...]:
    """Every generator evaluated from scratch at every point of P^n(F_{q^e}),
    in enumeration order."""
    spec = extension_spec(v, ext)
    gens = [lift_to(g, spec) for g in v.generators]
    return tuple(
        x for x in iter_projective_idx(spec.q, v.ambient_dim)
        if all(eval_idx(g, x, spec) == 0 for g in gens)
    )


def corpus_levels(cap: int = 25_000):
    for path in sorted(VARIETY_DIR.glob("*.var")):
        v = load_variety(path)
        for e in (1, 2, 3) if v.field.k == 1 else (1,):
            if count_projective(v.field.q**e, v.ambient_dim) <= cap:
                yield pytest.param(v, e, id=f"{path.stem}-e{e}")


@pytest.mark.parametrize("v,ext", corpus_levels())
def test_points_match_oracle_on_corpus(v, ext):
    assert _points_idx(v, ext) == oracle_points(v, ext)


def make_points17() -> VarietyDescriptor:
    """Three points of P^1 over F_17: X0^2 X1 + 3 X0 X1^2."""
    f = field_of(17)
    return VarietyDescriptor.build(
        f, 2, [poly(f, 2, [(1, (2, 1)), (3, (1, 2))])], dim=0, sing_dim=-1
    )


def make_fermat_surface5() -> VarietyDescriptor:
    """X0^3 + 2 X1^3 + 3 X2^3 + 4 X3^3 over F_5."""
    f = field_of(5)
    terms = [(c, tuple(int(i == j) * 3 for j in range(4))) for i, c in enumerate((1, 2, 3, 4))]
    return VarietyDescriptor.build(f, 4, [poly(f, 4, terms)], dim=2, sing_dim=-1)


def make_product_lines(q: int) -> VarietyDescriptor:
    """X0 X1 in P^2: it vanishes on the whole stratum X0 = 0."""
    f = field_of(q)
    return VarietyDescriptor.build(
        f, 3, [poly(f, 3, [(1, (1, 1, 0))])], dim=1, sing_dim=1
    )


def make_no_last_coordinate(q: int) -> VarietyDescriptor:
    """X0 X2 - X1^2 + X0^2 in P^3: no generator term holds X3."""
    f = field_of(q)
    gen = poly(f, 4, [(1, (1, 0, 1, 0)), (-1, (0, 2, 0, 0)), (1, (2, 0, 0, 0))])
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=0)


def make_last_coordinate_factor(q: int) -> VarietyDescriptor:
    """X2 (X0^2 + X0 X1 + X1 X2 + X2^2) in P^2: on X0 = 1 a power of t = X2
    divides it, and the rest has three terms in t."""
    f = field_of(q)
    gen = poly(f, 3, [(1, (2, 0, 1)), (1, (1, 1, 1)), (1, (0, 1, 2)), (1, (0, 0, 3))])
    return VarietyDescriptor.build(f, 3, [gen], dim=1, sing_dim=1)


def make_binary_cubic(q: int) -> VarietyDescriptor:
    """X0^3 + 2 X0^2 X1 + X0 X1^2 + X1^3 in P^1: one prefix per stratum, and
    three or four terms in t."""
    f = field_of(q)
    gen = poly(f, 2, [(1, (3, 0)), (2, (2, 1)), (1, (1, 2)), (1, (0, 3))])
    return VarietyDescriptor.build(f, 2, [gen], dim=0, sing_dim=-1)


def make_quadric_cubic(q: int) -> VarietyDescriptor:
    """X0 X3 - X1 X2 = X0^3 + X1^2 X3 + 2 X2 X3^2 + X3^3 = 0 in P^3: the
    quadric leaves one t = X3 per prefix of the stratum X0 = 1, and the
    cubic is evaluated at the positions that the quadric leaves."""
    f = field_of(q)
    gens = [
        poly(f, 4, [(1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0))]),
        poly(f, 4, [(1, (3, 0, 0, 0)), (1, (0, 2, 0, 1)), (2, (0, 0, 1, 2)), (1, (0, 0, 0, 3))]),
    ]
    return VarietyDescriptor.build(f, 4, gens, dim=1, sing_dim=1)


SHAPES = {
    "conic-f128": (make_conic(2), 7),  # p = 2, XOR rows
    "points17-f4913": (make_points17(), 3),  # odd p, n = 1
    "fermat-surface-f25": (make_fermat_surface5(), 2),
    "hyperbolic-f25": (make_smooth_quadric(5), 2),
    "cubic-surface-f27": (load_variety(VARIETY_DIR / "cubic_surface3.var"), 3),
    "quadric-pair-f3": (make_quadric_pair_p4(3), 1),
    "quadric-pair-f9": (make_quadric_pair_p4(3), 2),
    "cone-f4": (make_cone(4), 1),
    "fermat-cubic-f4": (make_fermat_cubic(4), 1),
    "conic-f4": (make_conic(4), 1),
    "no-last-coordinate-f7": (make_no_last_coordinate(7), 1),
    "no-last-coordinate-f8": (make_no_last_coordinate(2), 3),
    "product-lines-f5": (make_product_lines(5), 1),
    "product-lines-f9": (make_product_lines(3), 2),
    "product-lines-f4": (make_product_lines(4), 1),
    "last-coordinate-factor-f7": (make_last_coordinate_factor(7), 1),
    "last-coordinate-factor-f8": (make_last_coordinate_factor(2), 3),
    "last-coordinate-factor-f9": (make_last_coordinate_factor(3), 2),
    "binary-cubic-f7": (make_binary_cubic(7), 1),
    "binary-cubic-f32": (make_binary_cubic(2), 5),
    "binary-cubic-f243": (make_binary_cubic(3), 5),
    "quadric-cubic-f17": (make_quadric_cubic(17), 1),  # codimension 2: ts filters
    "quadric-cubic-f25": (make_quadric_cubic(5), 2),
    "quadric-cubic-f25-base": (make_quadric_cubic(25), 1),
    "quadric-cubic-f32": (make_quadric_cubic(2), 5),
}


@pytest.mark.parametrize("case", SHAPES)
def test_points_match_oracle_on_shapes(case):
    v, ext = SHAPES[case]
    assert _points_idx(v, ext) == oracle_points(v, ext)


def make_hyperbolic_quadric_p5() -> VarietyDescriptor:
    """X0 X1 + X2 X3 + X4 X5 in P^5 over F_2."""
    f = field_of(2)
    terms = [(1, tuple(int(j in (i, i + 1)) for j in range(6))) for i in (0, 2, 4)]
    return VarietyDescriptor.build(f, 6, [poly(f, 6, terms)], dim=4, sing_dim=-1)


# fields of order at most 16, where a block holds two or more coordinates
BLOCK_SHAPES = {
    "hyperbolic-p5-f2": make_hyperbolic_quadric_p5(),
    "cone-p4-f4": make_cone_p4(4),
    "cone-p4-f8": make_cone_p4(8),
    "cubic-surface-f9": make_cubic_surface(9),
    "cubic-surface-f16": make_cubic_surface(16),
}


@pytest.mark.parametrize("case", BLOCK_SHAPES)
def test_points_match_oracle_on_block_shapes(case):
    v = BLOCK_SHAPES[case]
    assert _points_idx(v, 1) == oracle_points(v, 1)


@st.composite
def random_varieties(draw):
    """A complete intersection of one or two random forms in P^1..P^3 over
    F_2, F_3, F_4 or F_5; the asserted singular dimension is its dimension,
    which is always sound."""
    f = field_of(draw(st.sampled_from([2, 3, 4, 5])))
    nvars = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, min(2, nvars - 1)))):
        degree = draw(st.integers(1, 3))
        monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
        terms = draw(st.lists(
            st.tuples(st.integers(1, f.q - 1), st.sampled_from(monomials)), min_size=1, max_size=6,
        ))
        gen = SparsePolynomial.from_terms(f, nvars, [(f.from_index(c), e) for c, e in terms])
        assume(not gen.is_zero)
        gens.append(gen)
    dim = nvars - 1 - len(gens)
    return VarietyDescriptor.build(f, nvars, gens, dim=dim, sing_dim=dim)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(v=random_varieties(), ext=st.sampled_from([1, 2]))
def test_points_match_oracle_on_random_varieties(v, ext):
    if v.field.k > 1:
        ext = 1  # extension levels need a prime base field
    assert _points_idx(v, ext) == oracle_points(v, ext)


@pytest.mark.parametrize(
    "v,ext",
    [(load_variety(VARIETY_DIR / "cone5.var"), 3), (make_quadric_pair_p4(3), 3)],
    ids=["cone5-f125", "quadric-pair-f27"],
)
def test_points_work_once_per_prefix(monkeypatch, v, ext):
    """Enumeration evaluates a generator at most once per prefix
    X_{c+1}..X_{n-1}, not once per point: eval_idx serves only the last
    stratum, and the field's scalar arithmetic stays within two calls per
    prefix and generator, against q points per prefix."""
    calls = {"eval_idx": 0, "arith": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(points, "eval_idx", counting("eval_idx", eval_idx))
    arith = type(extension_spec(v, ext))
    for name in ("sum_logs", "add_idx", "sub_idx", "neg_idx", "mul_idx", "inv_idx", "pow_idx"):
        monkeypatch.setattr(arith, name, counting("arith", getattr(arith, name)))
    _points_idx.cache_clear()
    q, n, gens = v.field.q**ext, v.ambient_dim, v.codim
    # one prefix per point of P^{n-1}, and the last stratum's single point
    prefixes = count_projective(q, n - 1) + 1
    _points_idx(v, ext)
    assert calls["eval_idx"] <= gens
    assert calls["arith"] <= 2 * gens * prefixes


def test_points_on_a_line_keep_no_power_rows():
    """P^1 has one prefix per stratum, so enumerating it keeps no row of
    powers of t: the traced peak stays below one byte per element of F_q,
    where a kept row of q - 1 ints takes about 36 bytes per element."""
    v = make_binary_cubic(2)
    spec = extension_spec(v, 13)
    assert spec.tables  # built before tracing starts
    _points_idx.cache_clear()
    tracemalloc.start()
    try:
        _points_idx(v, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spec.q


def test_cone_counts_over_large_extensions():
    """Cones over a conic have q^2 + q + 1 points; at q = 256 that is a
    walk over the 16.8M points of P^3(F_256)."""
    assert count_points(load_variety(VARIETY_DIR / "cone2.var"), 8) == 256**2 + 256 + 1 == 65793
    assert count_points(load_variety(VARIETY_DIR / "cone5.var"), 3) == 125**2 + 125 + 1 == 15751
