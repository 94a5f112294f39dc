"""Linear sections of a complete intersection and their statistics.

A section tuple gamma is s+1 covectors cutting V down to V intersect L with
L = {x : gamma_i . x = 0 for all i}.  The transversality test at a rational
point stacks the generator Jacobian on top of the covectors and asks for full
rank; a tuple Passes when every rational point over F_{q^e}, e <= max_ext,
passes that test, RankFails at the first witness otherwise, and is Degenerate
when the covectors are linearly dependent.  Checking rational points up to a
finite extension level is a proxy for geometric smoothness: it is exact
whenever the singular locus of the section is rational at the levels checked,
which holds for the bundled corpus but not in general.

A tuple's verdict depends only on the subspace W its rows span: so do the
points on the section and the rank of the Jacobian stacked on the rows.  The
scan therefore decides each subspace of G(s+1, n+1)(F_q) once and weights
it by the number of tuples that span it: |GL_{s+1}(F_q)| = prod_{i=0}^{s}
(q^{s+1} - q^i) ordered bases in affine mode, and that divided by
(q-1)^{s+1} in projective mode, whose rows are canonical representatives.
Degenerate tuples are the total minus the rest.

The failing subspaces are listed from the points, for every s.  At a point
x of V over F_{q^e}, let X be the rational covectors that vanish at x and
R_x the row space of the Jacobian there, which Euler's relation puts inside
x^perp.  A W inside X fails at x when x is singular, and at a smooth x iff
its span over F_{q^e} meets R_x.  So one walk over the points of each
level, in enumeration order, marks every failing W with its first witness,
and no incidence mask or per-section rank test is needed.  Witnesses come
in tuple enumeration order (affine coefficient tuples, or products of
canonical projective representatives): a walk from index 0 looks each
tuple's reduced form up among the failing subspaces and stops at the tenth
hit, without classifying anything.

A section count and a one-tuple verdict keep, for each row of the tuple in
turn, the points on its hyperplane, in enumeration order.

The second moment and the census live in ``census``, whose public names
resolve here too, so a scan and a census each compile only their own half.
"""
from __future__ import annotations

import itertools
from enum import Enum
from math import prod
from typing import Iterator, Sequence

from . import _lazy
from ._record import record
from .bounds import bertini_degree, zero_bound
from .errors import ArityMismatch, BadSingularDim, BudgetExceeded, FieldMismatch, _decimal
from .ffield import FieldElement, FieldSpec
from .linalg import echelon_idx, nullspace_idx, rank_idx, rref_idx
from .points import _points_idx
from .space import BUDGET, ProjPoint, count_grassmannian, count_projective, iter_affine_idx
from .space import iter_projective_idx, iter_rref_idx
from .variety import VarietyDescriptor, _jacobian_rows, extension_spec


class SectionClass(Enum):
    PASS = "Pass"
    RANK_FAIL = "RankFail"
    DEGENERATE = "Degenerate"


@record
class SectionTuple:
    """s+1 covectors over the variety's base field."""

    covectors: tuple[tuple[FieldElement, ...], ...]

    def __post_init__(self):
        if not self.covectors:
            raise ArityMismatch("a section tuple needs at least one covector")
        width = len(self.covectors[0])
        spec = self.covectors[0][0].field if width else None
        for row in self.covectors:
            if len(row) != width or width == 0:
                raise ArityMismatch("covectors must all have the same positive length")
            for c in row:
                if c.field != spec:
                    raise FieldMismatch("mixed fields inside a section tuple")

    @classmethod
    def from_ints(cls, spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "SectionTuple":
        """A tuple from packed element indices, the inverse of ``idx_rows``;
        it reads ``ScanWitness.gamma`` back for any base field."""
        return cls(tuple(tuple(spec.from_index(c) for c in row) for row in rows))

    @property
    def s(self) -> int:
        return len(self.covectors) - 1

    def idx_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c.idx for c in row) for row in self.covectors)


@record
class SectionVerdict:
    gamma: SectionTuple
    point_count: int
    classification: SectionClass
    witness: ProjPoint | None
    witness_ext: int | None
    checked_extensions: int


# ---------------------------------------------------------------------------
# one tuple: the points on its section, and its verdict


def _check_gamma(v: VarietyDescriptor, gamma: SectionTuple) -> tuple[tuple[int, ...], ...]:
    rows = gamma.idx_rows()
    if len(rows[0]) != v.nvars:
        raise ArityMismatch(f"covectors have {len(rows[0])} entries, expected {v.nvars}")
    if gamma.covectors[0][0].field != v.field:
        raise FieldMismatch("section tuple over a different field than the variety")
    return rows


def _points_on(rows: Sequence[Sequence[int]], pts: Sequence, spec: FieldSpec) -> Sequence:
    """The points of the list pts on every hyperplane of the tuple, in order."""
    dot = spec.dot_idx
    for w in rows:
        pts = [x for x in pts if not dot(w, x)]
    return pts


def section_count(v: VarietyDescriptor, gamma: SectionTuple, ext: int = 1) -> int:
    """|{x in V(F_{q^e}) : gamma . x = 0}| counted projectively."""
    rows = _check_gamma(v, gamma)
    return len(_points_on(rows, _points_idx(v, ext), extension_spec(v, ext)))


def section_smooth_check(
    v: VarietyDescriptor, gamma: SectionTuple, max_ext: int = 1
) -> SectionVerdict:
    """Classify a single tuple, checking rational points up to F_{q^max_ext}."""
    s = gamma.s
    r = v.asserted_dim
    if not 0 <= s <= r - 2:
        raise BadSingularDim(f"tuple arity s={s} must satisfy 0 <= s <= r-2 = {r - 2}")
    if max_ext < 1:
        raise ValueError("max_ext must be >= 1")
    rows = _check_gamma(v, gamma)
    form = rref_idx(rows, v.field)
    kind, witness, ext = SectionClass.DEGENERATE, None, None
    if form is not None:
        kind = SectionClass.PASS
        full = v.codim + s + 1
        for e in range(1, max_ext + 1):
            spec = extension_spec(v, e)
            for x in _points_on(form, _points_idx(v, e), spec):
                if rank_idx([*_jacobian_rows(v, x, spec), *form], spec) < full:
                    kind, ext = SectionClass.RANK_FAIL, e
                    witness = ProjPoint(tuple(spec.from_index(i) for i in x))
                    break
            if witness is not None:
                break
    return SectionVerdict(
        gamma=gamma,
        point_count=len(_points_on(rows, _points_idx(v, 1), v.field)),
        classification=kind,
        witness=witness,
        witness_ext=ext,
        checked_extensions=max_ext,
    )


# ---------------------------------------------------------------------------
# exhaustive scan: every tuple counted, each subspace classified once


@record
class ScanWitness:
    index: int
    gamma: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]
    ext: int


@record
class ScanReport:
    q: int
    ambient_dim: int
    s: int
    mode: str
    max_ext: int
    total: int
    pass_count: int
    rank_fail_count: int
    degenerate_count: int
    bertini_deg: int
    pass_floor: int
    floor_applicable: bool
    fail_ceiling: int
    witnesses: tuple[ScanWitness, ...]

    @property
    def not_pass_count(self) -> int:
        return self.rank_fail_count + self.degenerate_count

    @property
    def floor_satisfied(self) -> bool | None:
        """Affine-mode guarantee pass_count >= floor; None when not applicable."""
        if self.mode != "affine" or not self.floor_applicable:
            return None
        return self.pass_count >= self.pass_floor

    @property
    def ceiling_satisfied(self) -> bool | None:
        """Projective-mode guarantee rank_fail <= ceiling; None when not applicable."""
        if self.mode != "projective" or not self.floor_applicable:
            return None
        return self.rank_fail_count <= self.fail_ceiling


def _iter_tuples(
    v: VarietyDescriptor, mode: str, s: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Covector tuples in scan order: the (s+1)-fold product of the mode's
    covector stream (affine tuples, or canonical projective points)."""
    q = v.field.q
    if mode == "affine":
        covectors = iter_affine_idx(q, v.nvars)
    else:
        covectors = iter_projective_idx(q, v.ambient_dim)
    if s == 0:
        # product() holds its input in memory, and this stream can hold
        # 2^26 covectors; for s >= 1 the scan cap keeps it below 2^13
        return zip(covectors)
    return itertools.product(covectors, repeat=s + 1)


def _digit_rows(x: Sequence[int], e: int, spec: FieldSpec):
    """x itself at e = 1; for e >= 2 the base-p digit vectors of x, whose
    common annihilator among rational covectors is that of x."""
    return [x] if e == 1 else list(zip(*map(spec.coeffs_of, x)))


def _span_forms(k: int, basis: Sequence[Sequence[int]], base: FieldSpec):
    """The k-dimensional subspaces of the span of independent rows, one
    product C . basis for each reduced k-row form C.  When the basis is
    reduced so is each product, and no elimination runs."""
    cols = list(zip(*basis))
    # every row of a reduced form is a canonical vector: combine each once
    image = {
        c: tuple(base.dot_idx(c, col) for col in cols)
        for (c,) in iter_rref_idx(base.q, 1, len(basis))
    }
    for form in iter_rref_idx(base.q, k, len(basis)):
        yield tuple(map(image.__getitem__, form))


def _mark_subspaces(v: VarietyDescriptor, max_ext: int):
    """(number passing, {reduced form: (witness point, ext)} for those
    failing) over the (s+1)-subspaces W of covectors, from one walk over the
    points.

    Let J be the Jacobian at a point x of V over F_{q^e}, R its row space and
    X the rational covectors that vanish at x.  For e >= 2 the base field is
    F_p and a rational w has only a constant base-p digit, so w . x = 0 holds
    iff w vanishes on each base-p digit vector of x.  A rational W fails at x
    iff W lies in X and rank [J; W] < codim + s + 1.  At a singular x (rank
    J < codim) that is every W in X.  At a smooth x it is every W in X whose
    span over F_{q^e} meets R.  A nonzero mu of R lies in that span iff W
    holds the digit vectors of mu, which span U_mu, the least rational
    subspace whose span holds mu.  So the failing W at x are the W in X that
    contain U_mu for some mu in R that vanishes on x's digit vectors: U_mu
    plus an (s + 1 - dim U_mu)-subspace of the rows of X whose pivots lead no
    row of U_mu.  At e = 1 Euler's relation puts R inside X, and U_mu is the
    line through mu.  Walking the levels, then the points, in enumeration
    order and keeping each W's first mark gives the first point at which W
    fails; the walk stops once every W has failed.
    """
    base = v.field
    s = v.asserted_sing_dim
    subspaces = count_grassmannian(base.q, s + 1, v.nvars)
    failing = {}
    for e in range(1, max_ext + 1):
        spec = extension_spec(v, e)
        for x in _points_idx(v, e):
            if len(failing) == subspaces:
                return 0, failing
            form = echelon_idx(_jacobian_rows(v, x, spec), spec)[0]
            smooth = len(form) == v.codim
            digits = _digit_rows(x, e, spec)
            if s or not smooth:
                perp = rref_idx(nullspace_idx(digits, base, v.nvars), base)
            if not smooth:
                for w in _span_forms(s + 1, perp, base):
                    failing.setdefault(w, (x, e))
                continue
            if e == 1:
                meet = form  # Euler's relation puts R inside X
            else:
                # the combinations a . J that vanish on every digit vector of x
                on_digits = [[spec.dot_idx(r, d) for r in form] for d in digits]
                meet = rref_idx([
                    tuple(spec.dot_idx(a, col) for col in zip(*form))
                    for a in nullspace_idx(on_digits, spec, len(form))
                ], spec)
            for (mu,) in _span_forms(1, meet, spec):
                # U_mu in reduced form: mu is canonical, so U_mu is a line iff
                # mu is rational
                if e == 1 or max(mu) < base.q:
                    least = [mu]
                elif s:
                    least = echelon_idx(_digit_rows(mu, e, spec), base)[0]
                else:
                    continue
                if len(least) == s + 1:
                    failing.setdefault(tuple(map(tuple, least)), (x, e))
                elif len(least) <= s:
                    # the leading entry of a reduced row is 1
                    leads = {row.index(1) for row in least}
                    rest = [row for row in perp if row.index(1) not in leads]
                    for w in _span_forms(s + 1 - len(least), rest, base):
                        failing.setdefault(rref_idx((*least, *w), base), (x, e))
    return subspaces - len(failing), failing


def _earliest_witnesses(
    v: VarietyDescriptor, mode: str, failing: dict, limit: int
) -> list[ScanWitness]:
    """The first ``limit`` failing tuples in scan order, found by looking each
    tuple's reduced form up among the failing subspaces."""
    witnesses: list[ScanWitness] = []
    for index, rows in enumerate(_iter_tuples(v, mode, v.asserted_sing_dim)):
        if len(witnesses) == limit:
            break
        hit = failing.get(rref_idx(rows, v.field))
        if hit is not None:
            witnesses.append(ScanWitness(index, rows, *hit))
    return witnesses


def bertini_scan(
    v: VarietyDescriptor,
    max_ext: int = 1,
    mode: str = "affine",
) -> ScanReport:
    """Classify every covector tuple for s = asserted_sing_dim.

    Affine mode counts all q^{(n+1)(s+1)} coefficient tuples; projective mode
    counts products of canonical representatives.  Each (s+1)-dimensional
    subspace stands for every tuple spanning it, and one walk over the points
    of each level marks the failing subspaces with their first witnesses.
    Reports the count of passing tuples together with the closed-form floor
    on passing affine tuples (when q exceeds the section degree bound) and
    the hypersurface ceiling on failures.
    """
    if mode not in ("affine", "projective"):
        raise ValueError(f"mode must be 'affine' or 'projective', got {mode!r}")
    if max_ext < 1:
        raise ValueError("max_ext must be >= 1")
    s = v.asserted_sing_dim
    r = v.asserted_dim
    if not 0 <= s <= r - 2:
        raise BadSingularDim(
            f"scan needs 0 <= asserted_sing_dim <= dim-2, got s={s}, r={r}"
        )
    n = v.ambient_dim
    q = v.field.q
    if mode == "affine":
        total = q ** (v.nvars * (s + 1))
    else:
        total = count_projective(q, n) ** (s + 1)
    if total > BUDGET:
        count = _decimal(total, "the section tuple count")
        raise BudgetExceeded(f"{count} section tuples exceed the 2^26 scan cap")

    d_bert = bertini_degree(v.minor_degree, r, s, v.degree)
    floor_applicable = q > d_bert
    pass_floor = (q - d_bert) ** (s + 1) * q ** (n * (s + 1)) if floor_applicable else 0
    fail_ceiling = zero_bound(q, (d_bert,) * (s + 1), (n,) * (s + 1))

    passing, failing = _mark_subspaces(v, max_ext)
    # tuples spanning one subspace: its ordered bases, up to scaling each row
    # in projective mode
    weight = prod(q ** (s + 1) - q**i for i in range(s + 1))
    if mode == "projective":
        weight //= (q - 1) ** (s + 1)
    pass_count = weight * passing
    rank_fail = weight * len(failing)
    witnesses = _earliest_witnesses(v, mode, failing, min(10, rank_fail))
    return ScanReport(
        q=q,
        ambient_dim=n,
        s=s,
        mode=mode,
        max_ext=max_ext,
        total=total,
        pass_count=pass_count,
        rank_fail_count=rank_fail,
        degenerate_count=total - pass_count - rank_fail,
        bertini_deg=d_bert,
        pass_floor=pass_floor,
        floor_applicable=floor_applicable,
        fail_ceiling=fail_ceiling,
        witnesses=tuple(witnesses),
    )


__getattr__ = _lazy(globals(), ("census",))
