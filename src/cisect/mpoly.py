"""Sparse multivariate polynomials over a finite field.

Canonical form: a tuple of (coefficient, exponent-vector) terms with no zero
coefficients, distinct exponent vectors, sorted lexicographically descending
on the exponent vector.  Two polynomials are equal iff their canonical term
tuples are equal, and the text grammar below round-trips bit-exactly:

    polynomial := term (" + " term)*
    term       := coeff ":" e0 "," e1 "," ... (one exponent per variable)
    coeff      := c            (prime fields, c in [0, p))
                | c0 ";" c1 ";" ... ";" c_{k-1}     (extension fields)

Whitespace appears only around "+".  The zero polynomial formats as a single
zero-coefficient term so that parse(format(f)) == f holds for every f.
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CoefficientOutOfRange,
    ExponentArityMismatch,
    FieldMismatch,
    PolyParseError,
)
from .ffield import FieldElement, FieldSpec
from .space import BUDGET

if TYPE_CHECKING:
    import numpy as np

MAX_TERM_DEGREE = 1 << 16
_NUMPY_CHUNK = 1 << 18


class _Verdict:
    """Singleton markers returned by the homogeneity checks."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


ANY_DEGREE = _Verdict("AnyDegree")
NOT_HOMOGENEOUS = _Verdict("NotHomogeneous")
NOT_MULTIHOMOGENEOUS = _Verdict("NotMultihomogeneous")


@dataclass(frozen=True)
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
        out = []
        start = 0
        for g in self.groups:
            out.append(range(start, start + g))
            start += g
        return out


@dataclass(frozen=True)
class SparsePolynomial:
    """Canonical sparse polynomial; construct via ``from_terms`` or ``parse_poly``."""

    field: FieldSpec
    nvars: int
    terms: tuple[tuple[FieldElement, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("a polynomial needs at least one variable")
        seen = None
        for coeff, exps in self.terms:
            if coeff.field != self.field:
                raise FieldMismatch("term coefficient from a different field")
            if coeff.is_zero:
                raise ValueError("canonical form excludes zero coefficients")
            if len(exps) != self.nvars:
                raise ArityMismatch(f"exponent vector {exps} does not have {self.nvars} entries")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if sum(exps) > MAX_TERM_DEGREE:
                raise ValueError("term degree exceeds the 2^16 cap")
            if seen is not None and not exps < seen:
                raise ValueError("terms must be strictly descending in lex order")
            seen = exps

    @classmethod
    def from_terms(
        cls,
        field: FieldSpec,
        nvars: int,
        pairs: Iterable[tuple[FieldElement, Sequence[int]]],
    ) -> "SparsePolynomial":
        """Canonicalize arbitrary (coefficient, exponents) pairs: combine like
        terms, drop zeros, sort descending."""
        acc: dict[tuple[int, ...], int] = {}
        for coeff, exps in pairs:
            if coeff.field != field:
                raise FieldMismatch("term coefficient from a different field")
            key = tuple(exps)
            acc[key] = field.add_idx(acc.get(key, 0), coeff.idx)
        terms = tuple(
            (field.from_index(cidx), exps)
            for exps, cidx in sorted(acc.items(), reverse=True)
            if cidx != 0
        )
        return cls(field, nvars, terms)

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "SparsePolynomial":
        return cls(field, nvars, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def idx_terms(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((coeff.idx, exps) for coeff, exps in self.terms)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for _, e in self.terms), default=-1)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "SparsePolynomial") -> None:
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        if self.nvars != other.nvars:
            raise ArityMismatch("polynomials with different variable counts")

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check(other)
        return SparsePolynomial.from_terms(
            self.field, self.nvars, list(self.terms) + list(other.terms)
        )

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(
            self.field,
            self.nvars,
            tuple((-c, e) for c, e in self.terms),
        )

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("scalar from a different field")
            if other.is_zero:
                return SparsePolynomial.zero(self.field, self.nvars)
            return SparsePolynomial(
                self.field,
                self.nvars,
                tuple((c * other, e) for c, e in self.terms),
            )
        self._check(other)
        spec = self.field
        pairs = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                pairs.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
        return SparsePolynomial.from_terms(spec, self.nvars, pairs)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_poly(self)


# ---------------------------------------------------------------------------
# text grammar


def _parse_int(text: str, offset: int, what: str) -> int:
    # isdigit() admits text int() rejects: superscripts, or over 4300 digits
    if text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    raise PolyParseError(f"expected a nonnegative integer {what}, got {text!r}", offset)


def parse_poly(text: str, nvars: int, field: FieldSpec) -> SparsePolynomial:
    """Parse the term grammar; raises subclasses of PolyParseError with the
    byte offset of the first problem."""
    if not text:
        raise PolyParseError("empty polynomial text", 0)
    pairs = []
    offset = 0
    for part in text.split(" + "):
        if not part or " " in part or "\t" in part:
            raise PolyParseError("stray whitespace or empty term", offset)
        coeff_str, sep, exps_str = part.partition(":")
        if not sep:
            raise PolyParseError("term is missing the ':' separator", offset)
        if field.k == 1:
            c = _parse_int(coeff_str, offset, "coefficient")
            if c >= field.p:
                raise CoefficientOutOfRange(
                    f"coefficient {c} is outside [0, {field.p})", offset
                )
            coeffs = (c,)
        else:
            parts = coeff_str.split(";")
            if len(parts) != field.k:
                raise CoefficientOutOfRange(
                    f"expected {field.k} ';'-separated coefficients, got {len(parts)}",
                    offset,
                )
            sub = offset
            vals = []
            for piece in parts:
                c = _parse_int(piece, sub, "coefficient")
                if c >= field.p:
                    raise CoefficientOutOfRange(
                        f"coefficient {c} is outside [0, {field.p})", sub
                    )
                vals.append(c)
                sub += len(piece) + 1
            coeffs = tuple(vals)
        exp_offset = offset + len(coeff_str) + 1
        exp_parts = exps_str.split(",")
        if len(exp_parts) != nvars:
            raise ExponentArityMismatch(
                f"expected {nvars} exponents, got {len(exp_parts)}", exp_offset
            )
        exps = []
        sub = exp_offset
        for piece in exp_parts:
            exps.append(_parse_int(piece, sub, "exponent"))
            sub += len(piece) + 1
        if sum(exps) > MAX_TERM_DEGREE:
            raise PolyParseError("term degree exceeds the 2^16 cap", exp_offset)
        pairs.append((FieldElement(field, coeffs), tuple(exps)))
        offset += len(part) + 3
    return SparsePolynomial.from_terms(field, nvars, pairs)


def _format_coeff(coeff: FieldElement) -> str:
    if coeff.field.k == 1:
        return str(coeff.coeffs[0])
    return ";".join(str(c) for c in coeff.coeffs)


def format_poly(f: SparsePolynomial) -> str:
    """Canonical text form; inverse of parse_poly on canonical input."""
    if f.is_zero:
        zero_term = _format_coeff(f.field.zero) + ":" + ",".join("0" for _ in range(f.nvars))
        return zero_term
    chunks = []
    for coeff, exps in f.terms:
        chunks.append(_format_coeff(coeff) + ":" + ",".join(str(e) for e in exps))
    return " + ".join(chunks)


# ---------------------------------------------------------------------------
# evaluation


def eval_idx(f: SparsePolynomial, point: Sequence[int], spec: FieldSpec | None = None) -> int:
    """Evaluate on packed indices; ``spec`` defaults to the polynomial's field."""
    fld = spec if spec is not None else f.field
    if fld.k == 1:
        p = fld.p
        acc = 0
        for cidx, exps in f.idx_terms:
            term = cidx
            for x, e in zip(point, exps):
                if e:
                    term = term * pow(x, e, p) % p
                    if term == 0:
                        break
            acc += term
        return acc % p
    # log domain: a term's log is log c + sum e_i log x_i, negative when a
    # factor is zero, so each term costs one Zech addition
    log = fld.tables.log
    logs = [log[x] for x in point]
    return fld.sum_logs(
        log[cidx] + sum(map(operator.mul, exps, logs)) for cidx, exps in f.idx_terms
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


# ---------------------------------------------------------------------------
# calculus and homogeneity


def partial_derivative(f: SparsePolynomial, var: int) -> SparsePolynomial:
    """Formal partial derivative; characteristic-divisible exponents vanish."""
    if not 0 <= var < f.nvars:
        raise IndexError(f"variable index {var} out of range for nvars={f.nvars}")
    fld = f.field
    pairs = []
    for coeff, exps in f.terms:
        e = exps[var]
        if e == 0:
            continue
        factor = fld.element(e)
        if factor.is_zero:
            continue
        new = list(exps)
        new[var] = e - 1
        pairs.append((coeff * factor, tuple(new)))
    return SparsePolynomial.from_terms(fld, f.nvars, pairs)


def check_homogeneous(f: SparsePolynomial):
    """Total degree d if every term has degree d; ANY_DEGREE for the zero
    polynomial; NOT_HOMOGENEOUS otherwise."""
    if f.is_zero:
        return ANY_DEGREE
    degrees = {sum(e) for _, e in f.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return NOT_HOMOGENEOUS


def check_multihomogeneous(f: SparsePolynomial, grouping: VariableGrouping):
    """Per-group degree vector, ANY_DEGREE for zero, NOT_MULTIHOMOGENEOUS otherwise."""
    if grouping.nvars != f.nvars:
        raise ArityMismatch(
            f"grouping covers {grouping.nvars} variables, polynomial has {f.nvars}"
        )
    if f.is_zero:
        return ANY_DEGREE
    ranges = grouping.ranges()
    seen = None
    for _, exps in f.terms:
        vec = tuple(sum(exps[i] for i in r) for r in ranges)
        if seen is None:
            seen = vec
        elif vec != seen:
            return NOT_MULTIHOMOGENEOUS
    return seen


# ---------------------------------------------------------------------------
# zero counting over the full affine coordinate space


def _pow_mod_vec(base: np.ndarray, e: int, p: int) -> np.ndarray:
    import numpy as np

    result = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            result = result * b % p
        b = b * b % p
        e >>= 1
    return result


def count_affine_zeros(f: SparsePolynomial) -> int:
    """Number of points of F_q^nvars where f vanishes.

    Prime fields go through vectorized int64 arithmetic; every product of two
    residues stays below p^2 < 2^40, so the computation is exact.
    """
    q = f.field.q
    n = f.nvars
    total = q**n
    if total > BUDGET:
        raise BudgetExceeded(f"affine scan of {q}^{n} points exceeds the 2^26 cap")
    if f.is_zero:
        return total
    if f.field.k == 1:
        # numpy serves only this branch; importing it lazily keeps it out of
        # every command that never counts affine zeros
        import numpy as np

        p = f.field.p
        weights = [q ** (n - 1 - j) for j in range(n)]
        zeros = 0
        for start in range(0, total, _NUMPY_CHUNK):
            idxs = np.arange(start, min(start + _NUMPY_CHUNK, total), dtype=np.int64)
            cols = [(idxs // w) % q for w in weights]
            vals = np.zeros_like(idxs)
            for cidx, exps in f.idx_terms:
                term = np.full_like(idxs, cidx)
                for col, e in zip(cols, exps):
                    if e:
                        term = term * _pow_mod_vec(col, e, p) % p
                vals = (vals + term) % p
            zeros += int(np.count_nonzero(vals == 0))
        return zeros
    from .space import iter_affine_idx

    zeros = 0
    for point in iter_affine_idx(q, n):
        if eval_idx(f, point) == 0:
            zeros += 1
    return zeros


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
