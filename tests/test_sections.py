from __future__ import annotations

import itertools
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cisect import (
    SectionClass,
    SectionTuple,
    SparsePolynomial,
    VarietyDescriptor,
    bertini_scan,
    count_points,
    eval_poly,
    hooley_condition_census,
    lift_to,
    load_variety,
    make_field,
    rational_points,
    second_moment,
    section_count,
    section_smooth_check,
)
from cisect import sections
from cisect.errors import ArityMismatch, BadSingularDim, BudgetExceeded, FieldMismatch
from cisect.linalg import rank_idx, rref_idx
from cisect.mpoly import eval_idx
from cisect.sections import _incidence_mask, _mask_counts
from cisect.space import count_grassmannian, iter_rref_idx
from cisect.variety import _points_idx, extension_spec

from conftest import (
    VARIETY_DIR,
    field_of,
    make_cone,
    make_cone_p4,
    make_cubic_surface,
    make_quadric_pair_p4,
    make_quadric_pair_p5,
    make_smooth_quadric,
    poly,
)


def gamma_of(v, *rows):
    return SectionTuple.from_ints(v.field, rows)


def make_x0x1_p4(q: int) -> VarietyDescriptor:
    """The hyperplane pair X0*X1 = 0 in P^4, singular along the plane
    X0 = X1 = 0 (asserted as s = 1 so that the scan runs), which every plane
    of P^4 meets: every s = 1 section fails."""
    f = field_of(q)
    return VarietyDescriptor.build(f, 5, [poly(f, 5, [(1, (1, 1, 0, 0, 0))])], dim=3, sing_dim=1)


def make_cone_p5(q: int) -> VarietyDescriptor:
    """The cone X0*X1 - X2^2 in P^5, singular along the plane X0 = X1 = X2 =
    0; s = 2 makes its scan mark 3-dimensional subspaces of covectors."""
    f = field_of(q)
    gen = poly(f, 6, [(1, (1, 1, 0, 0, 0, 0)), (-1, (0, 0, 2, 0, 0, 0))])
    return VarietyDescriptor.build(f, 6, [gen], dim=4, sing_dim=2)


def make_line_singular_surface(q: int) -> VarietyDescriptor:
    """X0^2 X2 + X1^2 X3 in P^3, singular along the line X0 = X1 = 0 but
    asserted to have isolated singularities: every point of that line, at
    every level, is a singular point of the s = 0 scan."""
    f = field_of(q)
    gen = poly(f, 4, [(1, (2, 0, 1, 0)), (1, (0, 2, 0, 1))])
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=0)


def make_conjugate_nodes_surface() -> VarietyDescriptor:
    """A cubic surface over F_3 smooth at its rational points, with four
    singular points over F_9 (two conjugate pairs): at level 2 the scan marks
    new hyperplanes both from singular points and from smooth ones."""
    f = field_of(3)
    gen = poly(f, 4, [(2, (0, 0, 2, 1)), (1, (0, 1, 0, 2)), (1, (2, 0, 0, 1)),
                      (2, (2, 1, 0, 0)), (2, (0, 2, 0, 1))])
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=0)


def test_section_count_known_values():
    v = make_cone(5)
    # plane X3 = 0 misses the vertex: smooth conic, q+1 points
    assert section_count(v, gamma_of(v, (0, 0, 0, 1))) == 6
    # plane X0 = 0 forces X2 = 0: the line {X0 = X2 = 0}, q+1 points
    assert section_count(v, gamma_of(v, (1, 0, 0, 0))) == 6
    # the all-zero covector imposes nothing
    assert section_count(v, gamma_of(v, (0, 0, 0, 0))) == count_points(v)


def test_section_count_extension():
    v = make_cone(5)
    assert section_count(v, gamma_of(v, (0, 0, 0, 1)), ext=2) == 26  # conic over F_25


def test_section_tuple_validation():
    f5 = make_field(5)
    with pytest.raises(ArityMismatch):
        SectionTuple(())
    with pytest.raises(ArityMismatch):
        SectionTuple.from_ints(f5, [(1, 0), (1, 0, 0)])
    with pytest.raises(FieldMismatch):
        SectionTuple(
            (
                (f5.one, f5.zero),
                (make_field(7).one, make_field(7).zero),
            )
        )
    v = make_cone(5)
    with pytest.raises(ArityMismatch):
        section_count(v, gamma_of(v, (1, 0, 0)))  # wrong width
    with pytest.raises(FieldMismatch):
        section_count(v, SectionTuple.from_ints(make_field(7), [(1, 0, 0, 0)]))


def test_smooth_check_pass_and_fail():
    v = make_cone(13)
    good = section_smooth_check(v, gamma_of(v, (0, 0, 0, 1)))
    assert good.classification is SectionClass.PASS
    assert good.witness is None
    assert good.point_count == 14  # smooth conic over F_13

    bad = section_smooth_check(v, gamma_of(v, (1, 0, 0, 0)))
    assert bad.classification is SectionClass.RANK_FAIL
    assert str(bad.witness) == "(0:1:0:0)"
    assert bad.witness_ext == 1


def test_smooth_check_degenerate_pair():
    f3 = make_field(3)
    threefold = VarietyDescriptor.build(
        f3, 5,
        [poly(f3, 5, [(1, (1, 1, 0, 0, 0)), (-1, (0, 0, 1, 1, 0))])],
        dim=3, sing_dim=1,
    )
    dup = section_smooth_check(
        threefold, SectionTuple.from_ints(f3, [(1, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    )
    assert dup.classification is SectionClass.DEGENERATE
    # scalar multiples are just as dependent
    dup2 = section_smooth_check(
        threefold, SectionTuple.from_ints(f3, [(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)])
    )
    assert dup2.classification is SectionClass.DEGENERATE
    # independent pair cutting through the cone vertex fails at the vertex
    cross = section_smooth_check(
        threefold, SectionTuple.from_ints(f3, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    )
    assert cross.classification is SectionClass.RANK_FAIL
    assert str(cross.witness) == "(0:0:0:0:1)"


def test_smooth_check_arity_window():
    v = make_cone(5)  # r = 2 allows only s = 0
    with pytest.raises(BadSingularDim):
        section_smooth_check(v, gamma_of(v, (1, 0, 0, 0), (0, 1, 0, 0)))


def test_scan_cone_f2_exact():
    v = make_cone(2)
    rep = bertini_scan(v, mode="affine")
    assert (rep.total, rep.pass_count, rep.rank_fail_count, rep.degenerate_count) == (
        16, 8, 7, 1,
    )
    assert rep.pass_count + rep.not_pass_count == rep.total
    assert not rep.floor_applicable  # q = 2 <= section degree bound 6
    assert rep.pass_floor == 0

    proj = bertini_scan(v, mode="projective")
    assert (proj.total, proj.pass_count, proj.rank_fail_count, proj.degenerate_count) == (
        15, 8, 7, 0,
    )
    w = proj.witnesses[0]
    assert (w.index, w.gamma, w.point, w.ext) == (0, ((1, 0, 0, 0),), (0, 1, 0, 0), 1)


def test_scan_cone_f5_exact():
    # a hyperplane section of the cone is singular iff it passes through the
    # vertex, i.e. iff the X3 coefficient vanishes
    rep = bertini_scan(make_cone(5), mode="affine")
    assert rep.total == 625
    assert rep.pass_count == 500
    assert rep.rank_fail_count == 124
    assert rep.degenerate_count == 1


def test_scan_worker_invariance():
    v = make_smooth_quadric(3)
    solo = bertini_scan(v, workers=1)
    multi = bertini_scan(v, workers=3)
    assert solo == multi
    proj1 = bertini_scan(v, mode="projective", workers=1)
    proj4 = bertini_scan(v, mode="projective", workers=4)
    assert proj1 == proj4


def test_scan_extension_depth_changes_verdicts():
    # the cyclic cubic surface over F_3 has hyperplane sections whose singular
    # points are only rational over F_9
    v = make_cubic_surface(3)
    e1 = bertini_scan(v, max_ext=1)
    e2 = bertini_scan(v, max_ext=2)
    e3 = bertini_scan(v, max_ext=3)
    assert (e1.pass_count, e1.rank_fail_count, e1.degenerate_count) == (54, 26, 1)
    assert (e2.pass_count, e2.rank_fail_count, e2.degenerate_count) == (40, 40, 1)
    assert (e3.pass_count, e3.rank_fail_count) == (e2.pass_count, e2.rank_fail_count)
    first_deeper = next(w for w in e2.witnesses if w.ext == 2)
    assert first_deeper.index == 11
    assert first_deeper.gamma == ((0, 1, 0, 2),)


def test_scan_rejects_bad_arguments():
    v = make_cone(5)
    with pytest.raises(ValueError):
        bertini_scan(v, mode="sideways")
    with pytest.raises(ValueError):
        bertini_scan(v, workers=0)
    with pytest.raises(ValueError):
        bertini_scan(v, max_ext=0)
    smooth_curve = VarietyDescriptor.build(
        v.field, 3,
        [poly(v.field, 3, [(1, (1, 0, 1)), (-1, (0, 2, 0))])],
        dim=1, sing_dim=-1,
    )
    with pytest.raises(BadSingularDim):
        bertini_scan(smooth_curve)  # r = 1 leaves no room for s >= 0


def naive_tuple_stats(v, s):
    """Literal definition: walk every affine covector tuple, count section
    points, accumulate the squared deviation and the census."""
    q = v.field.q
    n_points = count_points(v)
    qs = q ** (s + 1)
    threshold = 2 * n_points * (qs - 1)
    moment = satisfying = 0
    for rows in itertools.product(
        itertools.product(range(q), repeat=v.nvars), repeat=s + 1
    ):
        n_gamma = section_count(v, gamma_of(v, *rows))
        dev = n_points - qs * n_gamma
        moment += dev * dev
        if dev * dev <= threshold:
            satisfying += 1
    return moment, satisfying


@pytest.mark.parametrize("s", [0, 1])
def test_moment_matches_naive_sum(s):
    v = make_cone(2)
    naive_moment, naive_sat = naive_tuple_stats(v, s)
    res = second_moment(v, s)
    assert res.computed == naive_moment
    assert res.computed == res.closed_form
    census = hooley_condition_census(v, s)
    assert census.satisfying == naive_sat
    assert census.total == 2 ** (4 * (s + 1))


def test_moment_closed_form_shape():
    v = make_cone(3)
    res = second_moment(v, 0)
    n = count_points(v)
    assert n == 13
    assert res.closed_form == n * 3**4 * (3 - 1)
    assert res.computed == res.closed_form


def test_moment_rejects_negative_s_and_budget():
    v = make_cone(2)
    with pytest.raises(BadSingularDim):
        second_moment(v, -1)
    with pytest.raises(BudgetExceeded):
        second_moment(v, 6)  # 2^28 tuples
    with pytest.raises(BudgetExceeded):
        second_moment(make_cone(13), 1)  # 13^8 tuples
    with pytest.raises(BudgetExceeded):
        hooley_condition_census(make_cone(13), 1)


def test_census_half_mass_on_smooth_quadric():
    v = make_smooth_quadric(3)
    census = hooley_condition_census(v, 0)
    assert 2 * census.satisfying >= census.total
    assert census.half_mass


# ---------------------------------------------------------------------------
# slow oracles: one covector against one point, with FieldElement arithmetic


def annihilates(w, x):
    """True iff sum w_i x_i == 0; w holds indices of elements of x's field."""
    spec = x.field
    acc = spec.zero
    for c, xc in zip(w, x.coords):
        acc = acc + spec.from_index(c) * xc
    return acc.is_zero


def scan_covectors(v, mode):
    """The covectors a scan's tuples draw from, in scan order."""
    covectors = list(itertools.product(range(v.field.q), repeat=v.nvars))
    if mode == "affine":
        return covectors
    covectors = [w for w in covectors if any(w) and next(c for c in w if c) == 1]
    return sorted(covectors, key=lambda w: (w.index(1), w))  # pivot strata first


def scan_data(v, max_ext):
    """Per extension level: (ext, spec, points, evaluated Jacobian rows, mask
    memo keyed by covector)."""
    out = []
    for e in range(1, max_ext + 1):
        spec = extension_spec(v, e)
        pts = _points_idx(v, e)
        jac = v.jacobian
        evaluated = [[[eval_idx(d, x, spec) for d in row] for row in jac] for x in pts]
        out.append((e, spec, pts, evaluated, {}))
    return out


def classify(rows, data, full_rank):
    """(PASS or RANK_FAIL, witness point, witness ext) for linearly
    independent covectors; the witness is the first failing point in
    enumeration order.  Masks are memoised per covector, so rows scaled to a
    leading 1, such as a reduced row-echelon form, share one mask per
    projective class."""
    for e, spec, pts, jacrows, memo in data:
        on = (1 << len(pts)) - 1
        for w in rows:
            mask = memo.get(w)
            if mask is None:
                mask = memo[w] = _incidence_mask(w, pts, spec)
            on &= mask
        while on:
            low = on & -on
            on ^= low
            i = low.bit_length() - 1
            if rank_idx([*jacrows[i], *rows], spec) < full_rank:
                return SectionClass.RANK_FAIL, pts[i], e
    return SectionClass.PASS, None, None


def sweep_marks(v, max_ext=1):
    """(number passing, {form: (witness point, ext)} for those failing) by
    classifying every (s+1)-subspace, as a reduced form, against the points
    on it."""
    s = v.asserted_sing_dim
    data = scan_data(v, max_ext)
    passing = 0
    failing = {}
    for form in iter_rref_idx(v.field.q, s + 1, v.nvars):
        kind, pt, e = classify(form, data, v.codim + s + 1)
        if kind is SectionClass.PASS:
            passing += 1
        else:
            failing[form] = (pt, e)
    return passing, failing


def sweep_scan(v, mode, max_ext=1):
    """(pass, rank_fail, degenerate, first ten witnesses) from the subspace
    sweep, each subspace weighted by the tuples that span it; witnesses by
    looking tuples up in scan order."""
    s = v.asserted_sing_dim
    q = v.field.q
    passing, failing = sweep_marks(v, max_ext)
    covectors = scan_covectors(v, mode)
    weight = prod(q ** (s + 1) - q**i for i in range(s + 1))
    if mode == "projective":
        weight //= (q - 1) ** (s + 1)
    witnesses = []
    for index, rows in enumerate(itertools.product(covectors, repeat=s + 1)):
        if len(witnesses) == 10:
            break
        hit = failing.get(rref_idx(rows, v.field))
        if hit is not None:
            witnesses.append((index, rows, *hit))
    degenerate = len(covectors) ** (s + 1) - weight * (passing + len(failing))
    return weight * passing, weight * len(failing), degenerate, witnesses


def tuple_walk_scan(v, mode, max_ext=1):
    """(pass, rank_fail, degenerate, first ten witnesses) by classifying every
    covector tuple in enumeration order, one at a time, with no grouping of
    tuples by the subspace they span."""
    s = v.asserted_sing_dim
    data = scan_data(v, max_ext)
    counts = {kind: 0 for kind in SectionClass}
    witnesses = []
    for index, rows in enumerate(itertools.product(scan_covectors(v, mode), repeat=s + 1)):
        if rank_idx(rows, v.field) < len(rows):
            counts[SectionClass.DEGENERATE] += 1
            continue
        kind, pt, e = classify(rows, data, v.codim + s + 1)
        counts[kind] += 1
        if kind is SectionClass.RANK_FAIL and len(witnesses) < 10:
            witnesses.append((index, rows, pt, e))
    return (
        counts[SectionClass.PASS],
        counts[SectionClass.RANK_FAIL],
        counts[SectionClass.DEGENERATE],
        witnesses,
    )


def oracle_scan(v, mode, max_ext=1):
    """(pass, rank_fail, degenerate, first ten witnesses) by walking every
    tuple in enumeration order and every point at every extension level."""
    s = v.asserted_sing_dim
    covectors = scan_covectors(v, mode)
    levels = []
    for e in range(1, max_ext + 1):
        spec = extension_spec(v, e)
        jac = [[lift_to(d, spec) for d in row] for row in v.jacobian]
        levels.append((e, spec, list(rational_points(v, e)), jac))
    passed = failed = degenerate = 0
    witnesses = []
    for index, rows in enumerate(itertools.product(covectors, repeat=s + 1)):
        if rank_idx(rows, v.field) < len(rows):
            degenerate += 1
            continue
        witness = None
        for e, spec, points, jac in levels:
            for x in points:
                if not all(annihilates(w, x) for w in rows):
                    continue
                stacked = [[eval_poly(d, x.coords).idx for d in row] for row in jac]
                if rank_idx(stacked + [list(w) for w in rows], spec) < v.codim + s + 1:
                    witness = (index, rows, tuple(c.idx for c in x.coords), e)
                    break
            if witness is not None:
                break
        if witness is None:
            passed += 1
        else:
            failed += 1
            witnesses.append(witness)
    return passed, failed, degenerate, witnesses[:10]


def test_section_count_matches_oracle_over_f4():
    v = make_cone(4)
    points = list(rational_points(v))
    for w in itertools.product(range(4), repeat=v.nvars):
        expected = sum(annihilates(w, x) for x in points)
        assert section_count(v, gamma_of(v, w)) == expected, w


def test_mask_counts_match_all_covectors_over_f4():
    v = make_cone(4)
    points = list(rational_points(v))
    counts = {}
    for w in itertools.product(range(4), repeat=v.nvars):
        mask = sum(1 << i for i, x in enumerate(points) if annihilates(w, x))
        counts[mask] = counts.get(mask, 0) + 1
    assert _mask_counts(v) == tuple(sorted(counts.items()))


def report_tuple(rep):
    witnesses = [(w.index, w.gamma, w.point, w.ext) for w in rep.witnesses]
    return rep.pass_count, rep.rank_fail_count, rep.degenerate_count, witnesses


# test ids read mode-variety
SCAN_CASES = {
    "affine-cone-f4": (make_cone(4), 1, "affine"),
    "projective-cone-f4": (make_cone(4), 1, "projective"),
    "affine-cubic-surface-f3-x2": (make_cubic_surface(3), 2, "affine"),
    "projective-cubic-surface-f3-x2": (make_cubic_surface(3), 2, "projective"),
    "affine-cone-p4-f2-s1": (make_cone_p4(2), 1, "affine"),
    "projective-cone-p4-f2-s1": (make_cone_p4(2), 1, "projective"),
    "projective-cone-p4-f3-s1": (make_cone_p4(3), 1, "projective"),
}
# the FieldElement walk needs tens of seconds on the P^4 cone over F_3
FIELDELEMENT_CASES = [c for c in SCAN_CASES if c != "projective-cone-p4-f3-s1"]

# s >= 1 at deeper levels, in codimension 2 and at s = 2, and a variety on
# which every plane fails
SCAN_CASES["projective-cone-p4-f2-s1-x3"] = (make_cone_p4(2), 3, "projective")
SCAN_CASES["affine-quadric-pair-p5-f2-s1-x2"] = (make_quadric_pair_p5(2), 2, "affine")
# the tuple walk needs 7 to 90 s on these; the subspace sweep checks them
SWEPT_CASES = {
    "projective-cone-p4-f4-s1": (make_cone_p4(4), 1, "projective"),
    "projective-cone-p4-f5-s1": (make_cone_p4(5), 1, "projective"),
    "projective-cone-p4-f3-s1-x2": (make_cone_p4(3), 2, "projective"),
    "projective-cone-p5-f2-s2": (make_cone_p5(2), 1, "projective"),
    "projective-x0x1-p4-f3-s1": (make_x0x1_p4(3), 1, "projective"),
}
SCAN_CASES.update(SWEPT_CASES)

# every s = 0 file of the corpus at max_ext 1 and 2, except cone13 at
# max_ext 2, whose forward walk over the 28 731 points of V(F_169) takes
# minutes; then a surface singular along a line, one with singular points
# only over F_9, and a codimension-2 intersection in P^4
CORPUS = {path.stem: load_variety(path) for path in sorted(VARIETY_DIR.glob("*.var"))}
S0_CASES = {name: v for name, v in CORPUS.items() if v.asserted_sing_dim == 0}
S0_CASES["line-singular-f5"] = make_line_singular_surface(5)
S0_CASES["conjugate-nodes-f3"] = make_conjugate_nodes_surface()
S0_CASES["quadric-pair-p4-f3"] = make_quadric_pair_p4(3)
for name, v in S0_CASES.items():
    for max_ext in (1, 2):
        if (name, max_ext) != ("cone13", 2):
            for mode in ("affine", "projective"):
                SCAN_CASES[f"{mode}-{name}-x{max_ext}"] = (v, max_ext, mode)


@pytest.mark.parametrize("case", SCAN_CASES)
def test_scan_matches_oracle_walk(case):
    v, max_ext, mode = SCAN_CASES[case]
    oracle = sweep_scan if case in SWEPT_CASES else tuple_walk_scan
    rep = report_tuple(bertini_scan(v, max_ext=max_ext, mode=mode))
    assert rep == oracle(v, mode, max_ext)


@pytest.mark.parametrize("case", [
    "affine-cone-p4-f2-s1",
    "projective-cone-p4-f3-s1",
    "projective-cone-p4-f2-s1-x3",
    "affine-quadric-pair-p5-f2-s1-x2",
    "affine-cubic-surface-f3-x2",
])
def test_sweep_matches_tuple_walk(case):
    v, max_ext, mode = SCAN_CASES[case]
    assert sweep_scan(v, mode, max_ext) == tuple_walk_scan(v, mode, max_ext)


@pytest.mark.parametrize("case", FIELDELEMENT_CASES)
def test_tuple_walk_matches_fieldelement_oracle(case):
    v, max_ext, mode = SCAN_CASES[case]
    assert tuple_walk_scan(v, mode, max_ext) == oracle_scan(v, mode, max_ext)


@st.composite
def random_surfaces(draw):
    """A random surface in P^3 over F_2, F_3 or F_4, asserted to have at
    most isolated singularities so that its scan runs with s = 0."""
    f = field_of(draw(st.sampled_from([2, 3, 4])))
    degree = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree]
    terms = draw(st.lists(
        st.tuples(st.integers(1, f.q - 1), st.sampled_from(monomials)), min_size=1, max_size=5,
    ))
    gen = SparsePolynomial.from_terms(f, 4, [(f.from_index(c), e) for c, e in terms])
    assume(not gen.is_zero)
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=0)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    v=random_surfaces(),
    mode=st.sampled_from(["affine", "projective"]),
    max_ext=st.sampled_from([1, 2]),
)
def test_scan_factorisation_matches_tuple_walk(v, mode, max_ext):
    if v.field.k > 1:
        max_ext = 1  # extension levels need a prime base field
    rep = report_tuple(bertini_scan(v, max_ext=max_ext, mode=mode))
    assert rep == tuple_walk_scan(v, mode, max_ext)


@st.composite
def random_threefolds(draw):
    """A random hypersurface in P^4 or codimension-2 intersection in P^5 over
    F_2 or F_3, asserted to have a singular locus of dimension at most 1, so
    that its scan runs with s = 1."""
    f = field_of(draw(st.sampled_from([2, 3])))
    nvars = draw(st.sampled_from([5, 6]))
    gens = []
    for _ in range(nvars - 4):
        degree = draw(st.integers(1, 3))
        monomials = [
            e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree
        ]
        terms = draw(st.lists(
            st.tuples(st.integers(1, f.q - 1), st.sampled_from(monomials)),
            min_size=1, max_size=4,
        ))
        gen = SparsePolynomial.from_terms(f, nvars, [(f.from_index(c), e) for c, e in terms])
        assume(not gen.is_zero)
        gens.append(gen)
    return VarietyDescriptor.build(f, nvars, gens, dim=3, sing_dim=1)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(v=random_threefolds(), max_ext=st.sampled_from([1, 2]))
def test_plane_marks_match_subspace_sweep(v, max_ext):
    assert sections._mark_subspaces(v, max_ext) == sweep_marks(v, max_ext)


def count_calls(monkeypatch, names):
    """Counters for calls to the named functions of the sections module."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in names:
        monkeypatch.setattr(sections, name, counting(name, getattr(sections, name)))
    return calls


@pytest.mark.parametrize(
    "v,max_ext",
    [(make_cone(13), 1), (make_cone(5), 2), (make_cone(17), 1)],
    ids=["cone13", "cone5-x2", "cone17"],
)
def test_hyperplane_scan_works_from_the_points(monkeypatch, v, max_ext):
    """An s = 0 scan builds no incidence mask and makes no rank test: it
    reduces the Jacobian once at each point of each level."""
    calls = count_calls(monkeypatch, ["_incidence_mask", "rank_idx", "echelon_idx"])
    points = sum(len(_points_idx(v, e)) for e in range(1, max_ext + 1))
    for mode in ("affine", "projective"):
        calls.update(dict.fromkeys(calls, 0))
        bertini_scan(v, max_ext=max_ext, mode=mode, workers=2)
        assert calls == {"_incidence_mask": 0, "rank_idx": 0, "echelon_idx": points}


@pytest.mark.parametrize(
    "v",
    [make_cone_p4(3), make_cone_p4(5), make_quadric_pair_p5(2), make_cone_p5(2)],
    ids=["cone-p4-f3", "cone-p4-f5", "quadric-pair-p5-f2", "cone-p5-f2-s2"],
)
def test_subspace_scan_works_from_the_points(monkeypatch, v):
    """At s >= 1 a level-1 scan classifies no subspace either: no incidence
    mask, no rank test, and one Jacobian reduction at each point."""
    calls = count_calls(monkeypatch, ["_incidence_mask", "rank_idx", "echelon_idx"])
    bertini_scan(v, mode="projective")
    assert calls == {"_incidence_mask": 0, "rank_idx": 0, "echelon_idx": len(_points_idx(v, 1))}


def test_scan_cone_p4_f5_counts():
    # q^6 of the 20306 planes of covectors pass, each spanned by q(q+1) = 30
    # products of canonical representatives
    rep = bertini_scan(make_cone_p4(5), mode="projective")
    closed = (5**6 * 30, (count_grassmannian(5, 2, 5) - 5**6) * 30)
    assert (rep.pass_count, rep.rank_fail_count) == closed == (468750, 140430)


def test_scan_starts_no_process():
    """A scan asked for two workers runs in this process and never imports
    multiprocessing."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    probe = (
        "import sys; from conftest import make_cone_p4; from cisect import bertini_scan; "
        "bertini_scan(make_cone_p4(5), mode='projective', workers=2); "
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_scan_witnesses_round_trip_over_f4(mode):
    v = make_cone(4)
    rep = bertini_scan(v, mode=mode)
    assert len(rep.witnesses) == 10
    for w in rep.witnesses:
        verdict = section_smooth_check(v, SectionTuple.from_ints(v.field, w.gamma))
        assert verdict.classification is SectionClass.RANK_FAIL, w
        assert tuple(c.idx for c in verdict.witness.coords) == w.point
        assert verdict.witness_ext == w.ext


def test_moment_and_census_over_f4():
    v = make_cone(4)
    res = second_moment(v, 0)
    assert res.equal
    naive_moment, naive_sat = naive_tuple_stats(v, 0)
    assert res.computed == naive_moment
    assert hooley_condition_census(v, 0).satisfying == naive_sat
