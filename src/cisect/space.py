"""Point enumeration for affine and projective coordinate spaces.

Affine tuples stream in odometer order with the last coordinate moving
fastest.  Projective points stream as canonical representatives (first
nonzero coordinate scaled to 1) stratified by pivot position: pivot 0 first,
then pivot 1, and so on; within one stratum the free tail follows the affine
odometer.  Both orders are resumable from an integer index, which is the
range-splitting seam used by parallel scans.
"""
from __future__ import annotations

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
        if self.field.k == 1:
            return "(" + ":".join(str(c.coeffs[0]) for c in self.coords) + ")"
        return "(" + ":".join(";".join(str(d) for d in c.coeffs) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# index-level iteration (packed element indices, no object wrapping)


def affine_tuple_at(q: int, n: int, index: int) -> tuple[int, ...]:
    digits = [0] * n
    for j in range(n - 1, -1, -1):
        index, digits[j] = divmod(index, q)
    return tuple(digits)


def iter_affine_idx(q: int, n: int, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, ...]]:
    """Odometer over F_q^n from ``start`` (inclusive) to ``stop`` (exclusive)."""
    total = q**n
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) for {q}^{n} tuples")
    if n == 0:
        if start == 0 and stop == 1:
            yield ()
        return
    digits = list(affine_tuple_at(q, n, start))
    for _ in range(stop - start):
        yield tuple(digits)
        for j in range(n - 1, -1, -1):
            digits[j] += 1
            if digits[j] < q:
                break
            digits[j] = 0


def projective_tuple_at(q: int, n: int, index: int) -> tuple[int, ...]:
    """Canonical representative of the index-th point of P^n in scan order."""
    for pivot in range(n + 1):
        size = q ** (n - pivot)
        if index < size:
            return (0,) * pivot + (1,) + affine_tuple_at(q, n - pivot, index)
        index -= size
    raise ValueError("projective index out of range")


def iter_projective_idx(q: int, n: int, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, ...]]:
    """Canonical representatives of P^n(F_q) in stratified odometer order."""
    total = count_projective(q, n)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) for P^{n} over F_{q}")
    remaining = stop - start
    index = start
    for pivot in range(n + 1):
        size = q ** (n - pivot)
        if index >= size:
            index -= size
            continue
        head = (0,) * pivot + (1,)
        for tail in iter_affine_idx(q, n - pivot, index, min(size, index + remaining)):
            yield head + tail
            remaining -= 1
        if remaining == 0:
            return
        index = 0


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
