"""The second moment of section counts and the square-root census.

Second-moment and census sums run over ALL affine covector tuples, including
linearly dependent ones, and count section points projectively; that reading
makes the moment identity exact, which is the cross-check the acceptance
suite pins.  Both read one histogram of N(gamma) over the q^{(n+1)(s+1)}
tuples.  N(gamma) depends only on the subspace U the rows span, and a
j-dimensional U is spanned by prod_{i<j} (q^{s+1} - q^i) tuples, so the
histogram is a sum over j <= s+1 and the reduced forms of U of that weight
at the popcount of the AND of the rows' incidence masks (bit i set iff the
row vanishes at the i-th point); j = 0 is the zero tuple,
with every point.  The masks of all canonical covectors come from one
depth-first walk over their coordinates on bit-sliced points, with no
per-point dot product; at s = 0 the walk's leaves give N(w) and no mask
table is kept.
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterator

from ._record import record
from .errors import BadSingularDim, BudgetExceeded
from .points import _points_idx
from .space import BUDGET, iter_rref_idx
from .variety import VarietyDescriptor


def _hyperplane_masks(v: VarietyDescriptor) -> Iterator[tuple[tuple[int, ...], int]]:
    """(w, mask of the points on w . x = 0) for each canonical covector w, in
    iter_projective_idx order.

    The points are bit-sliced: slices[k] maps a to the mask of the points
    whose k-th coordinate is a.  The walk fixes w's coordinates one at a
    time and keeps {partial value sum_{i<k} w_i x_i: mask of the points with
    it}; the step with coefficient c sends the points of value u and k-th
    coordinate a to u + c a.  At the last coordinate only the points of
    value 0 are kept: those of value -c a and last coordinate a."""
    pts = _points_idx(v, 1)
    spec = v.field
    q, last = spec.q, v.ambient_dim
    slices = [{} for _ in range(last + 1)]
    for i, x in enumerate(pts):
        for k, a in enumerate(x):
            slices[k][a] = slices[k].get(a, 0) | 1 << i

    def table(op):
        """Rows of the q x q table of op, each built on first use, so that a
        walk over few points builds few rows."""
        return lru_cache(maxsize=None)(lambda a: [op(a, b) for b in range(q)])

    add, mul = table(spec.add_idx), table(spec.mul_idx)
    # row[c] = -c a for the last coordinate's values a
    tail = [(mul(spec.neg_idx(a)), m) for a, m in slices[last].items()]
    field = range(q)

    def walk(prefix, parts, k, coeffs):
        if k == last:
            for c in coeffs:
                mask = 0
                for row, m in tail:
                    hit = parts.get(row[c])
                    if hit:
                        mask |= hit & m
                yield (*prefix, c), mask
            return
        hits = [
            (add(u), mul(a), hit)
            for u, part in parts.items()
            for a, m in slices[k].items()
            if (hit := part & m)
        ]
        for c in coeffs:
            nxt: dict[int, int] = {}
            for shift, scale, hit in hits:
                u = shift[scale[c]]
                nxt[u] = nxt.get(u, 0) | hit
            yield from walk((*prefix, c), nxt, k + 1, field)

    # a canonical covector is zeros, a leading 1, then any coefficients
    for pivot in range(last + 1):
        yield from walk((0,) * pivot, {0: (1 << len(pts)) - 1}, pivot, (1,))


@lru_cache(maxsize=64)
def _section_histogram(v: VarietyDescriptor, s: int) -> tuple[tuple[int, int], ...]:
    """(N, number of affine (s+1)-tuples gamma with N(gamma) = N), summed
    over the subspaces U the tuples span: a j-dimensional U is spanned by
    prod_{i<j} (q^{s+1} - q^i) tuples, and N(U) is the popcount of the AND of
    the masks of its reduced rows."""
    q = v.field.q
    qs = q ** (s + 1)
    hist = {len(_points_idx(v, 1)): 1}  # the zero tuple
    lines = _hyperplane_masks(v)
    if s:  # subspaces of dimension 2 and up AND the masks of their rows
        masks = dict(lines)
        lines = masks.items()
    for _, mask in lines:
        n = mask.bit_count()
        hist[n] = hist.get(n, 0) + qs - 1
    for j in range(2, s + 2):
        weight = prod(qs - q**i for i in range(j))
        for form in iter_rref_idx(q, j, v.nvars):
            mask = masks[form[0]]
            for row in form[1:]:
                mask &= masks[row]
            n = mask.bit_count()
            hist[n] = hist.get(n, 0) + weight
    return tuple(sorted(hist.items()))


def _squared_deviations(v: VarietyDescriptor, s: int):
    """(number of tuples, N, q^{s+1}, [((N - q^{s+1} N(gamma))^2, number of
    tuples gamma)]) over every affine (s+1)-tuple, refused past the cap."""
    if s < 0:
        raise BadSingularDim(f"moment order s must be >= 0, got {s}")
    total = v.field.q ** (v.nvars * (s + 1))
    if total > BUDGET:
        raise BudgetExceeded(f"{total} covector tuples exceed the 2^26 moment cap")
    n_points = len(_points_idx(v, 1))
    qs = v.field.q ** (s + 1)
    devs = [((n_points - qs * n_gamma) ** 2, count) for n_gamma, count in _section_histogram(v, s)]
    return total, n_points, qs, devs


@record
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
    total, n_points, qs, devs = _squared_deviations(v, s)
    computed = sum(dev2 * count for dev2, count in devs)
    closed = n_points * total * (qs - 1)
    return SecondMomentResult(s=s, n_points=n_points, computed=computed, closed_form=closed)


@record
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
    total, n_points, qs, devs = _squared_deviations(v, s)
    threshold = 2 * n_points * (qs - 1)
    satisfying = sum(count for dev2, count in devs if dev2 <= threshold)
    return HooleyCensus(s=s, n_points=n_points, satisfying=satisfying, total=total)
