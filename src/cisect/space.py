"""Point enumeration for affine and projective coordinate spaces.

Affine tuples stream in odometer order with the last coordinate moving
fastest.  Subspaces of F_q^m stream as reduced row-echelon forms (RREF)
stratified by their pivot columns, in itertools.combinations order; within
one stratum the free entries, read row by row, follow the affine odometer.
Projective points are the one-row case: canonical representatives (first
nonzero coordinate scaled to 1), pivot 0 first, then pivot 1, and so on;
``projective_tuple_at`` gives the point at an index of that order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ArityMismatch, BudgetExceeded, FieldMismatch
from .ffield import FieldElement, FieldSpec

# the one cap on every exhaustive enumeration: points, tuples, covectors
BUDGET = 1 << 26


def count_projective(q: int, r: int) -> int:
    """Number of points of r-dimensional projective space over F_q."""
    if r < 0:
        return 0
    return sum(q**i for i in range(r + 1))


def count_grassmannian(q: int, k: int, m: int) -> int:
    """Number of k-dimensional subspaces of F_q^m (the Gaussian binomial)."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_affine(q: int, n: int) -> int:
    return q**n


@dataclass(frozen=True)
class ProjPoint:
    """Canonical projective point: the first nonzero coordinate equals 1."""

    coords: tuple[FieldElement, ...]

    def __post_init__(self):
        if not self.coords:
            raise ArityMismatch("a projective point needs at least one coordinate")
        spec = self.coords[0].field
        for c in self.coords:
            if c.field != spec:
                raise FieldMismatch("mixed fields in one projective point")
        for c in self.coords:
            if not c.is_zero:
                if c != spec.one:
                    raise ValueError("not canonical: first nonzero coordinate must be 1")
                return
        raise ValueError("the zero tuple is not a projective point")

    @classmethod
    def from_coords(cls, coords: Sequence[FieldElement]) -> "ProjPoint":
        """Normalize an arbitrary nonzero coordinate tuple."""
        for c in coords:
            if not c.is_zero:
                inv = c.inverse()
                return cls(tuple(x * inv for x in coords))
        raise ValueError("the zero tuple is not a projective point")

    @property
    def field(self) -> FieldSpec:
        return self.coords[0].field

    def __str__(self) -> str:
        return "(" + ":".join(";".join(map(str, c.coeffs)) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# index-level iteration (packed element indices, no object wrapping)


def affine_tuple_at(q: int, n: int, index: int) -> tuple[int, ...]:
    digits = [0] * n
    for j in range(n - 1, -1, -1):
        index, digits[j] = divmod(index, q)
    return tuple(digits)


def iter_affine_idx(q: int, n: int) -> Iterator[tuple[int, ...]]:
    """Odometer over F_q^n, the last coordinate moving fastest."""
    return itertools.product(range(q), repeat=n)


def projective_tuple_at(q: int, n: int, index: int) -> tuple[int, ...]:
    """Canonical representative of the index-th point of P^n in scan order."""
    for pivot in range(n + 1):
        size = q ** (n - pivot)
        if index < size:
            return (0,) * pivot + (1,) + affine_tuple_at(q, n - pivot, index)
        index -= size
    raise ValueError("projective index out of range")


def iter_rref_idx(q: int, k: int, m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Reduced row-echelon forms of the k-dimensional subspaces of F_q^m, as
    tuples of k rows."""
    for pivots in itertools.combinations(range(m), k):
        # row i: zeros, its pivot's 1, then runs of free entries separated by
        # the 0 in each later pivot column; a run is (prefix, lo, hi) with
        # lo:hi its slice of the stratum's free entries
        runs, width = [], 0
        for i, c in enumerate(pivots):
            prefix, prev, row = (0,) * c + (1,), c, []
            for nxt in (*pivots[i + 1:], m):
                row.append((prefix, width, width + nxt - prev - 1))
                width += nxt - prev - 1
                prefix, prev = (0,), nxt
            runs.append(row)
        for free in iter_affine_idx(q, width):
            form = []
            for row in runs:
                entries = ()
                for prefix, lo, hi in row:
                    entries += prefix + free[lo:hi]
                form.append(entries)
            yield tuple(form)


def iter_projective_idx(q: int, n: int) -> Iterator[tuple[int, ...]]:
    """Canonical representatives of P^n(F_q) in stratified odometer order."""
    for (row,) in iter_rref_idx(q, 1, n + 1):
        yield row


# ---------------------------------------------------------------------------
# public element-level enumeration


def enumerate_affine(spec: FieldSpec, n: int) -> Iterator[tuple[FieldElement, ...]]:
    """All coordinate tuples of F_q^n; raises BudgetExceeded past 2^26 points."""
    if n < 0:
        raise ValueError("negative dimension")
    if spec.q**n > BUDGET:
        raise BudgetExceeded(f"affine enumeration of {spec.q}^{n} points exceeds the 2^26 cap")
    for point in iter_affine_idx(spec.q, n):
        yield tuple(spec.from_index(i) for i in point)


def enumerate_projective(spec: FieldSpec, n: int) -> Iterator[ProjPoint]:
    """All canonical points of P^n(F_q); raises BudgetExceeded past 2^26 points."""
    if n < 0:
        raise ValueError("negative dimension")
    if count_projective(spec.q, n) > BUDGET:
        raise BudgetExceeded(f"projective enumeration of P^{n} over F_{spec.q} exceeds the 2^26 cap")
    for point in iter_projective_idx(spec.q, n):
        yield ProjPoint(tuple(spec.from_index(i) for i in point))
