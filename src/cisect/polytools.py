"""Polynomial helpers that no subcommand runs: formatting, element-level
evaluation, lifting into an extension, multihomogeneity, affine zero counts
and random sampling.  The command line never loads this module; each name
also resolves as an attribute of ``mpoly``.
"""
from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from ._record import record
from .errors import ArityMismatch, BudgetExceeded, FieldMismatch
from .ffield import FieldElement, FieldSpec
from .mpoly import ANY_DEGREE, NOT_MULTIHOMOGENEOUS, SparsePolynomial, eval_idx
from .points import _Line, _stratum_zeros
from .space import BUDGET

if TYPE_CHECKING:
    import random


@record
class VariableGrouping:
    """Partition of the variable list into consecutive blocks."""

    groups: tuple[int, ...]

    def __post_init__(self):
        if not self.groups or any(g < 1 for g in self.groups):
            raise ValueError("every group must contain at least one variable")

    @property
    def nvars(self) -> int:
        return sum(self.groups)

    def ranges(self) -> list[range]:
        return [range(stop - g, stop) for g, stop in zip(self.groups, accumulate(self.groups))]


def format_poly(f: SparsePolynomial) -> str:
    """Canonical text form; inverse of parse_poly on canonical input."""
    terms = f.terms or ((f.field.zero, (0,) * f.nvars),)
    return " + ".join(
        ";".join(map(str, coeff.coeffs)) + ":" + ",".join(map(str, exps)) for coeff, exps in terms
    )


def eval_poly(f: SparsePolynomial, point: Sequence[FieldElement]) -> FieldElement:
    if len(point) != f.nvars:
        raise ArityMismatch(f"point has {len(point)} coordinates, expected {f.nvars}")
    for v in point:
        if v.field != f.field:
            raise FieldMismatch("point coordinate from a different field")
    return f.field.from_index(eval_idx(f, [v.idx for v in point]))


def lift_to(f: SparsePolynomial, ext: FieldSpec) -> SparsePolynomial:
    """Reinterpret a prime-field polynomial over an extension of the same
    characteristic; constants embed with unchanged packed index."""
    if ext == f.field:
        return f
    if f.field.k != 1 or ext.p != f.field.p:
        raise FieldMismatch("can only lift from the prime field into its extensions")
    return SparsePolynomial(
        ext,
        f.nvars,
        tuple((ext.element(c.coeffs[0]), e) for c, e in f.terms),
    )


def check_multihomogeneous(f: SparsePolynomial, grouping: VariableGrouping):
    """Per-group degree vector, ANY_DEGREE for zero, NOT_MULTIHOMOGENEOUS otherwise."""
    if grouping.nvars != f.nvars:
        raise ArityMismatch(
            f"grouping covers {grouping.nvars} variables, polynomial has {f.nvars}"
        )
    if f.is_zero:
        return ANY_DEGREE
    ranges = grouping.ranges()
    vecs = {tuple(sum(exps[r.start:r.stop]) for r in ranges) for _, exps in f.terms}
    return vecs.pop() if len(vecs) == 1 else NOT_MULTIHOMOGENEOUS


def count_affine_zeros(f: SparsePolynomial) -> int:
    """Number of points of F_q^nvars where f vanishes.

    F_q^nvars is the stratum with no pivot of the block walker that also
    lists projective points (``points._points_idx``): the zeros are
    summed over the prefixes of the first nvars - b coordinates, each
    found among all q^b values of the block at once.
    """
    q = f.field.q
    n = f.nvars
    if q**n > BUDGET:
        raise BudgetExceeded(f"affine scan of {q}^{n} points exceeds the 2^26 cap")
    line = _Line(f.field, keep=n > 1)
    b = min(line.width, n)
    return sum(len(hits) for _, hits in _stratum_zeros([f], -1, b, line))


# ---------------------------------------------------------------------------
# random sampling (deterministic given the caller's rng)


def _random_monomial(rng: random.Random, width: int, degree: int) -> tuple[int, ...]:
    exps = [0] * width
    for _ in range(degree):
        exps[rng.randrange(width)] += 1
    return tuple(exps)


def random_polynomial(
    field: FieldSpec,
    nvars: int,
    degree: int,
    rng: random.Random,
    max_terms: int = 6,
    homogeneous: bool = False,
) -> SparsePolynomial:
    """Random nonzero polynomial with term degrees up to (or exactly) ``degree``."""
    pairs = []
    for _ in range(max(1, max_terms)):
        d = degree if homogeneous else rng.randint(0, degree)
        cidx = rng.randrange(1, field.q)
        pairs.append((field.from_index(cidx), _random_monomial(rng, nvars, d)))
    poly = SparsePolynomial.from_terms(field, nvars, pairs)
    if poly.is_zero:
        # collision wiped every term; force a deterministic nonzero one
        exps = _random_monomial(rng, nvars, degree if homogeneous else 0)
        poly = SparsePolynomial.from_terms(field, nvars, [(field.one, exps)])
    return poly


def random_multihomogeneous(
    field: FieldSpec,
    grouping: VariableGrouping,
    multidegree: Sequence[int],
    rng: random.Random,
    max_terms: int = 6,
) -> SparsePolynomial:
    """Random nonzero polynomial whose every term has the given per-group degrees."""
    if len(multidegree) != len(grouping.groups):
        raise ArityMismatch("one degree per variable group is required")
    nvars = grouping.nvars

    def monomial() -> tuple[int, ...]:
        exps: list[int] = []
        for width, d in zip(grouping.groups, multidegree):
            exps.extend(_random_monomial(rng, width, d))
        return tuple(exps)

    pairs = []
    for _ in range(max(1, max_terms)):
        cidx = rng.randrange(1, field.q)
        pairs.append((field.from_index(cidx), monomial()))
    poly = SparsePolynomial.from_terms(field, nvars, pairs)
    if poly.is_zero:
        poly = SparsePolynomial.from_terms(field, nvars, [(field.one, monomial())])
    return poly
