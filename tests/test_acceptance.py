"""Acceptance gate: every numbered criterion prints one [PASS]/[FAIL] line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines
as they are produced.  Each criterion is exact: integer identities, frozen
counts, or enclosure comparisons, never floating-point tolerances.
"""
from __future__ import annotations

import itertools
import random
import time

from cisect import (
    SectionClass,
    SectionTuple,
    VarietyDescriptor,
    bertini_scan,
    betti_b1,
    count_points,
    count_projective,
    hooley_condition_census,
    load_variety,
    make_field,
    second_moment,
    section_smooth_check,
    verify_variety,
    zero_bound,
)
from cisect.cli import main
from cisect.mpoly import SparsePolynomial, partial_derivative
from cisect.polytools import (
    VariableGrouping,
    count_affine_zeros,
    random_multihomogeneous,
    random_polynomial,
)
from cisect.space import iter_projective_idx
from cisect.variety import _jacobian_rank_idx

from conftest import (
    VARIETY_DIR,
    field_of,
    make_cone,
    make_cubic_surface,
    make_fermat_cubic,
    make_smooth_quadric,
    moment_corpus,
)

MOMENT_CAP = 1 << 22
TUPLE_CAP = 1 << 26


def _finish(name: str, detail: str, problems: list[str], t0: float, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    verdict = "FAIL" if problems else "PASS"
    clock = f"{elapsed:.2f}s" + (f", budget {budget:.0f}s" if budget else "")
    print(f"[{verdict}] {name} {detail} ({clock})", flush=True)
    assert not problems, f"{name}: " + "; ".join(problems[:5])


def test_criterion_1_second_moment_identity():
    t0 = time.perf_counter()
    problems: list[str] = []
    cases = 0
    for q in (2, 3, 5):
        for v in moment_corpus(q):
            s = 0
            while q ** (v.nvars * (s + 1)) <= MOMENT_CAP:
                res = second_moment(v, s)
                cases += 1
                if res.computed != res.closed_form:
                    problems.append(
                        f"q={q} nvars={v.nvars} s={s}: "
                        f"{res.computed} != {res.closed_form}"
                    )
                s += 1
    if cases < 18:
        problems.append(f"only {cases} (variety, s) cases exercised")
    _finish(
        "criterion-1", f"second-moment identity exact on {cases} cases",
        problems, t0, budget=60,
    )


def test_criterion_2_zero_cap_never_exceeded():
    t0 = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(20260821)
    width_menu = [
        (2,), (3,), (4,), (5,), (6,),
        (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
        (2, 2, 2),
    ]
    samples = 200
    for i in range(samples):
        q = rng.choice((3, 5, 7))
        widths = rng.choice(width_menu)
        grouping = VariableGrouping(widths)
        degrees = tuple(rng.randrange(1, q) for _ in widths)
        f = random_multihomogeneous(field_of(q), grouping, degrees, rng, max_terms=5)
        zeros = count_affine_zeros(f)
        cap = zero_bound(q, degrees, tuple(w - 1 for w in widths))
        if zeros > cap:
            problems.append(
                f"sample {i}: q={q} widths={widths} d={degrees}: {zeros} > {cap}"
            )
    # tightness witness: the product of one coordinate from each of two
    # blocks over F_2 meets its cap exactly
    f2 = field_of(2)
    witness = SparsePolynomial.from_terms(f2, 4, [(f2.one, (1, 0, 1, 0))])
    if count_affine_zeros(witness) != 12 or zero_bound(2, (1, 1), (1, 1)) != 12:
        problems.append("bilinear witness no longer attains the cap 12")
    _finish(
        "criterion-2", f"zero cap respected on {samples} seeded samples + sharp witness",
        problems, t0, budget=120,
    )


def test_criterion_3_factorized_complement():
    t0 = time.perf_counter()
    problems: list[str] = []
    combos = 0

    def check(q: int, degs: tuple[int, ...], dims: tuple[int, ...]):
        nonlocal combos
        combos += 1
        total = q ** (sum(dims) + len(dims))
        product = 1
        for d, n in zip(degs, dims):
            product *= q ** (n + 1) - d * q**n
        if zero_bound(q, degs, dims) != total - product:
            problems.append(f"q={q} d={degs} n={dims}")

    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1, 5):
            for n in range(1, 4):
                check(q, (d,), (n,))
        for degs in itertools.product((1, 2, 3), repeat=2):
            for dims in itertools.product((1, 2, 3), repeat=2):
                check(q, degs, dims)
        for degs in itertools.product((1, 2), repeat=3):
            check(q, degs, (1, 1, 1))
    if combos < 500:
        problems.append(f"grid too small: {combos} combos")
    _finish(
        "criterion-3", f"complement product identity exact on {combos} combos",
        problems, t0, budget=5,
    )


def test_criterion_4_hasse_bound_fermat_cubic():
    t0 = time.perf_counter()
    problems: list[str] = []
    counts = {}
    for q in (5, 7, 11, 13):
        n_points = count_points(make_fermat_cubic(q))
        counts[q] = n_points
        if (n_points - (q + 1)) ** 2 > 4 * q:
            problems.append(f"q={q}: N={n_points} violates |N-(q+1)|^2 <= 4q")
    if betti_b1(2, 3) != 2:
        problems.append(f"betti_b1(2,3) = {betti_b1(2, 3)} != 2")
    detail = ", ".join(f"N({q})={n}" for q, n in counts.items())
    _finish("criterion-4", f"Hasse bound exact by squaring: {detail}", problems, t0, budget=5)


def test_criterion_5_bertini_scan_cone13():
    t0 = time.perf_counter()
    problems: list[str] = []
    v = make_cone(13)
    aff = bertini_scan(v, mode="affine")
    if aff.total != 28561:
        problems.append(f"affine total {aff.total} != 13^4")
    if aff.pass_count + aff.rank_fail_count + aff.degenerate_count != aff.total:
        problems.append("affine counts do not partition the tuple space")
    if aff.not_pass_count != 2197:
        problems.append(f"affine fail set {aff.not_pass_count} != 13^3")
    if (aff.rank_fail_count, aff.degenerate_count) != (2196, 1):
        problems.append(
            f"fail split ({aff.rank_fail_count}, {aff.degenerate_count}) != (2196, 1)"
        )
    if not aff.floor_applicable or aff.pass_floor != 15379:
        problems.append(f"floor 7*13^3 expected, got {aff.pass_floor}")
    if aff.pass_count < aff.pass_floor:
        problems.append(f"pass count {aff.pass_count} below floor {aff.pass_floor}")

    # the fail set should be exactly the covectors annihilating the vertex
    # (0:0:0:1), i.e. those with last coefficient zero: spot-check both sides
    rng = random.Random(5)
    for _ in range(20):
        gamma = [rng.randrange(13) for _ in range(3)] + [0]
        if sum(gamma) == 0:
            gamma[0] = 1
        rep = section_smooth_check(v, SectionTuple.from_ints(v.field, [tuple(gamma)]))
        if rep.classification is SectionClass.PASS:
            problems.append(f"vertex-annihilating {gamma} unexpectedly passes")
        gamma = [rng.randrange(13) for _ in range(3)] + [rng.randrange(1, 13)]
        rep = section_smooth_check(v, SectionTuple.from_ints(v.field, [tuple(gamma)]))
        if rep.classification is not SectionClass.PASS:
            problems.append(f"vertex-avoiding {gamma} unexpectedly fails")

    proj = bertini_scan(v, mode="projective")
    if proj.total != 2380:
        problems.append(f"projective total {proj.total} != p_3(13)")
    if proj.rank_fail_count + proj.degenerate_count != 183:
        problems.append(f"projective fail count {proj.not_pass_count} != 183")
    if proj.fail_ceiling != 13182:
        problems.append(f"projective ceiling {proj.fail_ceiling} != 13182")
    if proj.not_pass_count > proj.fail_ceiling:
        problems.append("projective fail count exceeds the eta ceiling")
    _finish(
        "criterion-5",
        f"cone13 scan: affine {aff.pass_count}/{aff.total} pass >= floor "
        f"{aff.pass_floor}, projective fails {proj.not_pass_count} <= {proj.fail_ceiling}",
        problems, t0, budget=120,
    )


def test_criterion_6_estimate_verification(capsys):
    t0 = time.perf_counter()
    problems: list[str] = []
    code = main(["verify", str(VARIETY_DIR / "cone13.var")])
    out = capsys.readouterr().out
    if code != 0:
        problems.append(f"verify cone13 exited {code}")
    if "deviation=0" not in out:
        problems.append("cone13 deviation is not zero")

    configs = [
        (make_cone(2), None),
        (make_cone(5), None),
        (make_cone(13), None),
        (make_smooth_quadric(3), None),
        (make_smooth_quadric(3, sing_dim=-1), 1),
        (load_variety(VARIETY_DIR / "fermat5.var"), None),
        (load_variety(VARIETY_DIR / "conic5.var"), None),
        (load_variety(VARIETY_DIR / "point2.var"), 0),
        (load_variety(VARIETY_DIR / "empty2.var"), 1),
    ]
    rows_checked = 0
    for v, betti in configs:
        rep = verify_variety(v, betti=betti)
        for row in rep.rows:
            if row.applicable:
                rows_checked += 1
                if row.verdict != "PASS":
                    problems.append(
                        f"q={v.field.q} dim={v.asserted_dim} "
                        f"{row.name}: {row.verdict}"
                    )
    _finish(
        "criterion-6",
        f"verify exit {code}; {rows_checked} applicable estimate rows PASS "
        f"over {len(configs)} corpus configs",
        problems, t0, budget=10,
    )


def test_criterion_7_hooley_census_half_mass():
    t0 = time.perf_counter()
    problems: list[str] = []
    cases = 0
    for q in (2, 3, 5):
        for v in moment_corpus(q):
            s = 0
            while q ** (v.nvars * (s + 1)) <= TUPLE_CAP:
                census = hooley_condition_census(v, s)
                cases += 1
                if not census.half_mass:
                    problems.append(
                        f"q={q} nvars={v.nvars} s={s}: "
                        f"{census.satisfying}/{census.total}"
                    )
                s += 1
    _finish(
        "criterion-7", f"half-mass census holds on {cases} (variety, s) cases",
        problems, t0, budget=60,
    )


def _prime_powers(limit: int):
    for q in range(2, limit + 1):
        n, p = q, None
        for cand in range(2, q + 1):
            if cand * cand > n and p is None:
                p = n
            if n % cand == 0:
                p = cand
                break
        while n % p == 0:
            n //= p
        if n == 1:
            yield q


def test_criterion_8_infrastructure():
    t0 = time.perf_counter()
    problems: list[str] = []

    # exhaustive field axioms at table level for every prime power up to 49
    axiom_fields = list(_prime_powers(49))
    for q in axiom_fields:
        f = field_of(q)
        add, mul, inv = f.add_idx, f.mul_idx, f.inv_idx
        one, zero = f.one.idx, f.zero.idx
        ok = True
        for a in range(q):
            if add(a, zero) != a or mul(a, one) != a or add(a, f.neg_idx(a)) != zero:
                ok = False
            if a != zero and mul(a, inv(a)) != one:
                ok = False
            for b in range(q):
                if add(a, b) != add(b, a) or mul(a, b) != mul(b, a):
                    ok = False
                for c in range(q):
                    if add(add(a, b), c) != add(a, add(b, c)):
                        ok = False
                    if mul(mul(a, b), c) != mul(a, mul(b, c)):
                        ok = False
                    if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                        ok = False
        if not ok:
            problems.append(f"field axioms broken for q={q}")

    # Euler relation and Leibniz rule on random polynomial pairs
    rng = random.Random(1729)
    pair_budget = 1000
    for _ in range(pair_budget):
        q = rng.choice((2, 3, 5, 7, 9))
        f = field_of(q)
        nvars = rng.choice((2, 3))
        deg = rng.randrange(1, 4)
        homog = random_polynomial(f, nvars, deg, rng, max_terms=4, homogeneous=True)
        coordinates = [
            SparsePolynomial.from_terms(
                f, nvars, [(f.one, tuple(int(j == i) for j in range(nvars)))]
            )
            for i in range(nvars)
        ]
        euler = coordinates[0] * partial_derivative(homog, 0)
        for i in range(1, nvars):
            euler = euler + coordinates[i] * partial_derivative(homog, i)
        if euler != f.element(deg % f.p) * homog:
            problems.append(f"Euler relation fails: q={q} f={homog}")
            break
        g = random_polynomial(f, nvars, rng.randrange(1, 4), rng, max_terms=4)
        i = rng.randrange(nvars)
        lhs = partial_derivative(homog * g, i)
        rhs = homog * partial_derivative(g, i) + g * partial_derivative(homog, i)
        if lhs != rhs:
            problems.append(f"Leibniz rule fails: q={q} var={i}")
            break

    # projective enumeration cardinalities
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(4):
            seen = sum(1 for _ in iter_projective_idx(q, n))
            if seen != count_projective(q, n) or seen != sum(q**i for i in range(n + 1)):
                problems.append(f"projective cardinality q={q} n={n}: {seen}")

    # Jacobian rank is invariant under rescaling a representative
    rng = random.Random(99)
    scale_pairs = 0
    for v in (make_cone(5), make_smooth_quadric(3), make_cubic_surface(3)):
        q = v.field.q
        for _ in range(40):
            coords = [rng.randrange(q) for _ in range(v.nvars)]
            if not any(coords):
                coords[rng.randrange(v.nvars)] = 1
            lam = rng.randrange(1, q)
            scaled = [v.field.mul_idx(c, lam) for c in coords]
            scale_pairs += 1
            if _jacobian_rank_idx(v, coords, 1) != _jacobian_rank_idx(v, scaled, 1):
                problems.append(f"rank changed under scaling: q={q} x={coords} lam={lam}")

    # scan output is byte-identical across worker counts 1 and 8
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for workers, tag in (("1", "a"), ("8", "b")):
            path = Path(tmp) / f"scan_{tag}.csv"
            main([
                "bertini-scan", str(VARIETY_DIR / "cone5.var"),
                "--workers", workers, "-o", str(path),
            ])
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            problems.append("affine scan CSV differs between 1 and 8 workers")
        outs = []
        for workers, tag in (("1", "c"), ("8", "d")):
            path = Path(tmp) / f"scan_{tag}.csv"
            main([
                "bertini-scan", str(VARIETY_DIR / "smooth_quadric3.var"),
                "--mode", "projective", "--workers", workers, "-o", str(path),
            ])
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            problems.append("projective scan CSV differs between 1 and 8 workers")

    _finish(
        "criterion-8",
        f"axioms exhaustive on {len(axiom_fields)} fields, {pair_budget} "
        f"derivative pairs, {scale_pairs} scaling pairs, CSV worker-stable",
        problems, t0,
    )
