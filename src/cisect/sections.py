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

The scan sweeps the whole tuple space (affine coefficient tuples, or products
of canonical projective representatives) in a fixed enumeration order, so its
reports are deterministic and splittable across workers by index range.

Everything here rests on one predicate: does the covector w vanish at the
point x?  A covector's incidence mask over a point list has bit i set iff w
annihilates the i-th point, and the points of a section are the AND of its
rows' masks.  Scaling w by a nonzero constant leaves its mask unchanged, so
masks are built once per projective covector class and shared by section
counts, the scan's "which points lie on this section" filter and the census.

Second-moment and census sums run over ALL affine covector tuples, including
linearly dependent ones, and count section points projectively; that reading
makes the moment identity exact, which is the cross-check the acceptance
suite pins.  Instead of re-walking the tuple space, both sums take the mask
distribution over all q^{n+1} covectors (each projective class weighted
q - 1, plus the zero covector with the full mask) and fold it s+1 times;
this is the same sum reorganized term-by-term, not a closed form.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

from .bounds import bertini_degree, zero_bound
from .errors import (
    ArityMismatch,
    BadSingularDim,
    BudgetExceeded,
    FieldMismatch,
)
from .ffield import FieldElement, FieldSpec
from .linalg import rank_idx
from .mpoly import eval_idx
from .space import (
    BUDGET,
    ProjPoint,
    count_projective,
    iter_affine_idx,
    iter_projective_idx,
)
from .variety import VarietyDescriptor, _jacobian_idx, _points_idx, extension_spec

_PARALLEL_THRESHOLD = 1 << 12


class SectionClass(Enum):
    PASS = "Pass"
    RANK_FAIL = "RankFail"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
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
        return cls(tuple(tuple(spec.element(c) for c in row) for row in rows))

    @property
    def s(self) -> int:
        return len(self.covectors) - 1

    def idx_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c.idx for c in row) for row in self.covectors)


@dataclass(frozen=True)
class SectionVerdict:
    gamma: SectionTuple
    point_count: int
    classification: SectionClass
    witness: ProjPoint | None
    witness_ext: int | None
    checked_extensions: int


# ---------------------------------------------------------------------------
# shared low-level helpers


def _check_gamma(v: VarietyDescriptor, gamma: SectionTuple) -> tuple[tuple[int, ...], ...]:
    rows = gamma.idx_rows()
    if len(rows[0]) != v.nvars:
        raise ArityMismatch(f"covectors have {len(rows[0])} entries, expected {v.nvars}")
    if gamma.covectors[0][0].field != v.field:
        raise FieldMismatch("section tuple over a different field than the variety")
    return rows


def _incidence_mask(
    w: Sequence[int], pts: Sequence[tuple[int, ...]], spec: FieldSpec
) -> int:
    """Bit i is set iff the covector w annihilates pts[i]."""
    dot = spec.dot_idx
    return sum(1 << i for i, x in enumerate(pts) if not dot(w, x))


def _section_mask(
    rows: Sequence[Sequence[int]], pts: Sequence[tuple[int, ...]], spec: FieldSpec
) -> int:
    """Bit i is set iff pts[i] lies on every hyperplane of the tuple."""
    mask = (1 << len(pts)) - 1
    for w in rows:
        mask &= _incidence_mask(w, pts, spec)
    return mask


def _projective_key(w: tuple[int, ...], spec: FieldSpec) -> tuple[int, ...]:
    """w scaled so that its first nonzero entry is 1; zero stays zero."""
    for c in w:
        if c == 1:
            return w
        if c:
            inv = spec.inv_idx(c)
            return tuple(spec.mul_idx(inv, a) for a in w)
    return w


def section_count(v: VarietyDescriptor, gamma: SectionTuple, ext: int = 1) -> int:
    """|{x in V(F_{q^e}) : gamma . x = 0}| counted projectively."""
    rows = _check_gamma(v, gamma)
    spec = extension_spec(v, ext)
    return _section_mask(rows, _points_idx(v, ext), spec).bit_count()


def _scan_data(v: VarietyDescriptor, max_ext: int):
    """Per extension level: (ext, spec, points, evaluated Jacobian rows, mask
    memo keyed by projective covector class)."""
    out = []
    for e in range(1, max_ext + 1):
        spec = extension_spec(v, e)
        pts = _points_idx(v, e)
        jac = _jacobian_idx(v, e)
        evaluated = [
            [[eval_idx(d, x, spec) for d in row] for row in jac] for x in pts
        ]
        out.append((e, spec, pts, evaluated, {}))
    return out


def _classify(
    v: VarietyDescriptor,
    rows: Sequence[Sequence[int]],
    data,
    full_rank: int,
):
    """(classification, witness point, witness ext) for one covector tuple;
    the witness is the first failing point in enumeration order."""
    if rank_idx(rows, v.field) < len(rows):
        return SectionClass.DEGENERATE, None, None
    keys = [_projective_key(w, v.field) for w in rows]
    for e, spec, pts, jacrows, memo in data:
        on = (1 << len(pts)) - 1
        for key in keys:
            mask = memo.get(key)
            if mask is None:
                mask = memo[key] = _incidence_mask(key, pts, spec)
            on &= mask
        while on:
            low = on & -on
            on ^= low
            i = low.bit_length() - 1
            if rank_idx([*jacrows[i], *rows], spec) < full_rank:
                return SectionClass.RANK_FAIL, pts[i], e
    return SectionClass.PASS, None, None


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
    data = _scan_data(v, max_ext)
    kind, pt, e = _classify(v, rows, data, v.codim + s + 1)
    witness = None
    if pt is not None:
        spec = extension_spec(v, e)
        witness = ProjPoint(tuple(spec.from_index(i) for i in pt))
    return SectionVerdict(
        gamma=gamma,
        point_count=_section_mask(rows, _points_idx(v, 1), v.field).bit_count(),
        classification=kind,
        witness=witness,
        witness_ext=e,
        checked_extensions=max_ext,
    )


# ---------------------------------------------------------------------------
# exhaustive scan over the tuple space


@dataclass(frozen=True)
class ScanWitness:
    index: int
    gamma: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]
    ext: int


@dataclass(frozen=True)
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
    v: VarietyDescriptor, mode: str, s: int, start: int, stop: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    n1 = v.nvars
    q = v.field.q
    if mode == "affine":
        slices = [slice(i * n1, (i + 1) * n1) for i in range(s + 1)]
        for flat in iter_affine_idx(q, n1 * (s + 1), start, stop):
            yield tuple(flat[sl] for sl in slices)
    else:
        reps = tuple(iter_projective_idx(q, n1 - 1))
        base = len(reps)
        digits = [0] * (s + 1)
        index = start
        for j in range(s, -1, -1):
            index, digits[j] = divmod(index, base)
        for _ in range(stop - start):
            yield tuple(reps[d] for d in digits)
            for j in range(s, -1, -1):
                digits[j] += 1
                if digits[j] < base:
                    break
                digits[j] = 0


def _scan_chunk(args) -> tuple[int, int, int, list[ScanWitness]]:
    v, mode, data, start, stop = args
    s = v.asserted_sing_dim
    full = v.codim + s + 1
    pass_count = rank_fail = degenerate = 0
    witnesses: list[ScanWitness] = []
    for offset, rows in enumerate(_iter_tuples(v, mode, s, start, stop)):
        kind, pt, e = _classify(v, rows, data, full)
        if kind is SectionClass.PASS:
            pass_count += 1
        elif kind is SectionClass.RANK_FAIL:
            rank_fail += 1
            if len(witnesses) < 10:
                witnesses.append(ScanWitness(start + offset, rows, pt, e))
        else:
            degenerate += 1
    return pass_count, rank_fail, degenerate, witnesses


def bertini_scan(
    v: VarietyDescriptor,
    max_ext: int = 1,
    mode: str = "affine",
    workers: int = 1,
) -> ScanReport:
    """Exhaustively classify every covector tuple for s = asserted_sing_dim.

    Affine mode sweeps all q^{(n+1)(s+1)} coefficient tuples; projective mode
    sweeps products of canonical representatives.  Reports the count of
    passing tuples together with the closed-form floor on passing affine
    tuples (when q exceeds the section degree bound) and the hypersurface
    ceiling on failures.
    """
    if mode not in ("affine", "projective"):
        raise ValueError(f"mode must be 'affine' or 'projective', got {mode!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
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
        raise BudgetExceeded(f"{total} section tuples exceed the 2^26 scan cap")

    d_bert = bertini_degree(v.minor_degree, r, s, v.degree)
    floor_applicable = q > d_bert
    pass_floor = (q - d_bert) ** (s + 1) * q ** (n * (s + 1)) if floor_applicable else 0
    fail_ceiling = zero_bound(q, (d_bert,) * (s + 1), (n,) * (s + 1))

    data = _scan_data(v, max_ext)
    if workers == 1 or total < _PARALLEL_THRESHOLD:
        parts = [_scan_chunk((v, mode, data, 0, total))]
    else:
        step = -(-total // workers)
        ranges = [
            (v, mode, data, lo, min(lo + step, total))
            for lo in range(0, total, step)
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=len(ranges)) as pool:
            parts = pool.map(_scan_chunk, ranges)

    pass_count = sum(p[0] for p in parts)
    rank_fail = sum(p[1] for p in parts)
    degenerate = sum(p[2] for p in parts)
    witnesses = sorted(
        (w for p in parts for w in p[3]), key=lambda w: w.index
    )[:10]
    return ScanReport(
        q=q,
        ambient_dim=n,
        s=s,
        mode=mode,
        max_ext=max_ext,
        total=total,
        pass_count=pass_count,
        rank_fail_count=rank_fail,
        degenerate_count=degenerate,
        bertini_deg=d_bert,
        pass_floor=pass_floor,
        floor_applicable=floor_applicable,
        fail_ceiling=fail_ceiling,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# moment identity and census via mask folding


@lru_cache(maxsize=64)
def _mask_counts(v: VarietyDescriptor) -> tuple[tuple[int, int], ...]:
    """Distribution of incidence masks over every covector w of F_q^{n+1}:
    one mask per projective class, weighted by its q - 1 nonzero multiples,
    plus the zero covector, which annihilates every point."""
    pts = _points_idx(v, 1)
    spec = v.field
    counts = {(1 << len(pts)) - 1: 1}
    for w in iter_projective_idx(spec.q, v.ambient_dim):
        m = _incidence_mask(w, pts, spec)
        counts[m] = counts.get(m, 0) + spec.q - 1
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=64)
def _folded_masks(v: VarietyDescriptor, s: int) -> tuple[tuple[int, int], ...]:
    """Distribution of intersection masks over all (s+1)-tuples of covectors."""
    counts = _mask_counts(v)
    n_points = len(_points_idx(v, 1))
    acc = {(1 << n_points) - 1: 1}
    for _ in range(s + 1):
        nxt: dict[int, int] = {}
        for m1, c1 in acc.items():
            for m2, c2 in counts:
                key = m1 & m2
                nxt[key] = nxt.get(key, 0) + c1 * c2
        acc = nxt
    return tuple(sorted(acc.items()))


def _check_moment_args(v: VarietyDescriptor, s: int) -> int:
    if s < 0:
        raise BadSingularDim(f"moment order s must be >= 0, got {s}")
    total = v.field.q ** (v.nvars * (s + 1))
    if total > BUDGET:
        raise BudgetExceeded(f"{total} covector tuples exceed the 2^26 moment cap")
    return total


@dataclass(frozen=True)
class SecondMomentResult:
    s: int
    n_points: int
    computed: int
    closed_form: int

    @property
    def equal(self) -> bool:
        return self.computed == self.closed_form


def second_moment(v: VarietyDescriptor, s: int) -> SecondMomentResult:
    """Exact sum of (N - q^{s+1} N(gamma))^2 over every affine covector tuple,
    next to its closed form N q^{(n+1)(s+1)} (q^{s+1} - 1)."""
    total = _check_moment_args(v, s)
    q = v.field.q
    n_points = len(_points_idx(v, 1))
    qs = q ** (s + 1)
    computed = 0
    for mask, count in _folded_masks(v, s):
        dev = n_points - qs * mask.bit_count()
        computed += count * dev * dev
    closed = n_points * total * (qs - 1)
    return SecondMomentResult(s=s, n_points=n_points, computed=computed, closed_form=closed)


@dataclass(frozen=True)
class HooleyCensus:
    s: int
    n_points: int
    satisfying: int
    total: int

    @property
    def half_mass(self) -> bool:
        return 2 * self.satisfying >= self.total


def hooley_condition_census(v: VarietyDescriptor, s: int) -> HooleyCensus:
    """Count tuples with (N - q^{s+1} N(gamma))^2 <= 2 N (q^{s+1} - 1); the
    square-root condition is decided by exact integer squaring."""
    total = _check_moment_args(v, s)
    q = v.field.q
    n_points = len(_points_idx(v, 1))
    qs = q ** (s + 1)
    threshold = 2 * n_points * (qs - 1)
    satisfying = 0
    for mask, count in _folded_masks(v, s):
        dev = n_points - qs * mask.bit_count()
        if dev * dev <= threshold:
            satisfying += count
    return HooleyCensus(s=s, n_points=n_points, satisfying=satisfying, total=total)
