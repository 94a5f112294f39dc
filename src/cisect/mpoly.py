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

The helpers no subcommand runs live in ``polytools``; their names resolve
here too, loading it on first use.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from . import _lazy
from ._record import record
from .errors import (
    ArityMismatch,
    CoefficientOutOfRange,
    ExponentArityMismatch,
    FieldMismatch,
    PolyParseError,
)
from .ffield import FieldElement, FieldSpec

MAX_TERM_DEGREE = 1 << 16


class _Verdict:
    """Singleton markers returned by the homogeneity checks."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


ANY_DEGREE = _Verdict("AnyDegree")
NOT_HOMOGENEOUS = _Verdict("NotHomogeneous")
NOT_MULTIHOMOGENEOUS = _Verdict("NotMultihomogeneous")


@record
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
        from .polytools import format_poly

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


# ---------------------------------------------------------------------------
# evaluation


def eval_idx(f: SparsePolynomial, point: Sequence[int], spec: FieldSpec | None = None) -> int:
    """Evaluate on packed indices; ``spec`` defaults to the polynomial's field."""
    return (spec if spec is not None else f.field).eval_terms(f.idx_terms, point)


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


__getattr__ = _lazy(globals(), ("polytools",))
