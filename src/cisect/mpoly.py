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

import operator
import random
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, islice, product, repeat
from typing import Iterable, Iterator, Sequence

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


def format_poly(f: SparsePolynomial) -> str:
    """Canonical text form; inverse of parse_poly on canonical input."""
    terms = f.terms or ((f.field.zero, (0,) * f.nvars),)
    return " + ".join(
        ";".join(map(str, coeff.coeffs)) + ":" + ",".join(map(str, exps)) for coeff, exps in terms
    )


# ---------------------------------------------------------------------------
# evaluation


def eval_idx(f: SparsePolynomial, point: Sequence[int], spec: FieldSpec | None = None) -> int:
    """Evaluate on packed indices; ``spec`` defaults to the polynomial's field."""
    return (spec if spec is not None else f.field).eval_terms(f.idx_terms, point)


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
# zeros on a stratum of coordinate space, a block of coordinates at a time

# a block of b coordinates has at most this many values: q^b <= 2^8
_BLOCK_VALUES = 1 << 8
# a polynomial on a stratum: (J, [(coefficient index, prefix exponents)]) for
# each exponent vector J of the block, ascending in J
_Restricted = list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]]


def _zech_roots(rows: list[Iterable[int]], n: int, zech: Sequence[int], target: int) -> list[int]:
    """The positions t = 1, 2, ... where the sum of g^s, over one s from
    each row, is g^target."""
    out = []
    for t, logs in enumerate(zip(*rows), 1):
        acc = -1  # the log of the sum so far; -1 while it is zero
        for s in logs:
            if acc < 0:
                acc = s % n
            else:
                z = zech[(s - acc) % n]
                acc = (acc + z) % n if z >= 0 else -1
        if acc == target:
            out.append(t)
    return out


class _Line:
    """Polynomials in the block, the last b coordinates, evaluated at every
    value of the block at once.

    A polynomial is a list of (c, J): the coefficient index c != 0 of the
    block monomial with exponents J, ascending in J.  A block value's
    position is its rank in odometer order (for one coordinate, its index t).
    ``width`` is the widest block with q^b <= 2^8, so blocks of two or more
    coordinates occur only for q <= 16.

    For q <= 16 a row is a monomial's value at every block value, c times
    it is a lookup in the product table, and rows add as an XOR of indices
    when p = 2 and through the sum table for odd p.  For q >= 17 the block
    is one coordinate t and a row holds t^j for t = 1, ..., q - 1: its
    index over a prime field, its discrete log over an extension.  With
    ``keep`` set, such a row is kept as a list of q - 1 ints and serves
    every later prefix; otherwise it is a one-pass iterator, for an
    enumeration with one prefix per stratum (P^1, where q may reach 2^20).
    """

    def __init__(self, spec: FieldSpec, keep: bool):
        self.spec = spec
        self.keep = keep
        self.rows: dict = {}
        q = spec.q
        self.width = 1
        while q ** (self.width + 1) <= _BLOCK_VALUES:
            self.width += 1
        if self.width > 1:
            self.times = [[spec.mul_idx(a, x) for x in range(q)] for a in range(q)]
            if spec.p == 2:
                self.plus = partial(map, operator.xor)
            else:
                sums = [[spec.add_idx(a, x) for x in range(q)] for a in range(q)]
                self.plus = lambda acc, terms: map(
                    operator.getitem, map(sums.__getitem__, acc), terms
                )

    def row(self, j: int) -> Iterable[int]:
        """t^j for t = 1, ..., q - 1: its index over a prime field, its
        discrete log over an extension."""
        row = self.rows.get(j)
        if row is None:
            spec = self.spec
            if spec.k == 1:
                row = map(pow, range(1, spec.q), repeat(j), repeat(spec.p))
            else:
                n, _, log, _ = spec.tables
                row = map(n.__rmod__, map(j.__mul__, islice(log, 1, None)))
            if self.keep:
                row = self.rows[j] = list(row)
        return row

    def block_row(self, exps: tuple[int, ...]) -> list[int]:
        """The index of the block monomial with exponents ``exps`` at every
        block value (q <= 16)."""
        row = self.rows.get(exps)
        if row is None:
            spec, times = self.spec, self.times
            row = [1]
            for j in exps:
                powers = [spec.pow_idx(x, j) for x in range(spec.q)]
                row = [times[a][x] for a in row for x in powers]
            self.rows[exps] = row
        return row

    def roots(self, poly: list[tuple[int, tuple[int, ...]]], ts: list[int] | None) -> list[int] | None:
        """The positions, ascending, among ``ts`` where ``poly`` vanishes;
        None stands for every block value, and the zero polynomial keeps
        ``ts``."""
        if not poly:
            return ts
        if self.width > 1:
            acc = None
            for c, exps in poly:
                row = self.block_row(exps)
                if ts is not None:
                    row = map(row.__getitem__, ts)
                terms = row if c == 1 else map(self.times[c].__getitem__, row)
                acc = terms if acc is None else self.plus(acc, terms)
            every = range(self.spec.q ** len(poly[0][1]))
            return list(compress(every if ts is None else ts, map(operator.not_, acc)))
        spec, q = self.spec, self.spec.q
        if ts is not None:
            return [t for t in ts if not spec.eval_terms(poly, (t,))]
        # t^j0 divides poly: t = 0 is a root iff j0 > 0, and the t != 0 are
        # the roots of poly / t^j0, whose constant term c0 is nonzero
        (c0, (j0,)), *rest = poly
        out = [0] if j0 else []
        if not rest:
            return out
        if len(rest) == 1:
            # a binomial: t^(j1 - j0) = -c0 / c1
            c1, (j1,) = rest[0]
            a = spec.mul_idx(spec.neg_idx(c0), spec.inv_idx(c1))
            key = a if spec.k == 1 else spec.tables.log[a]
            hits = map(key.__eq__, self.row(j1 - j0))
        elif spec.k == 1:
            acc = repeat(c0)
            for c, (j,) in rest:
                acc = map(operator.add, acc, map(c.__mul__, self.row(j - j0)))
            hits = map(operator.not_, map(spec.p.__rmod__, acc))
        elif spec.p == 2:
            exp, log = spec.tables.exp, spec.tables.log
            acc = repeat(c0)
            for c, (j,) in rest:
                terms = map(exp.__getitem__, map(log[c].__add__, self.row(j - j0)))
                acc = map(operator.xor, acc, terms)
            hits = map(operator.not_, acc)
        else:
            # Zech sums in the log domain, one t at a time, against log(-c0)
            n, _, log, zech = spec.tables
            rows = [map(log[c].__add__, self.row(j - j0)) for c, (j,) in rest]
            return out + _zech_roots(rows, n, zech, (log[c0] + n // 2) % n)
        return out + list(compress(range(1, q), hits))


def _restrict(g: SparsePolynomial, c: int, b: int) -> _Restricted:
    """g on the stratum whose first nonzero coordinate is X_c = 1, with the
    block X_{m-b}..X_{m-1} and the prefix X_{c+1}..X_{m-b-1}, m = g.nvars;
    c = -1 is the stratum with no pivot, all of F_q^m.

    Terms with a positive exponent in X_0..X_{c-1} drop out.
    """
    cut = g.nvars - b
    groups: dict = {}
    for cidx, exps in g.idx_terms:
        if not any(exps[:max(c, 0)]):
            groups.setdefault(exps[cut:], []).append((cidx, exps[c + 1:cut]))
    return sorted(groups.items())


def _coefficients(
    restricted: _Restricted, prefix: tuple[int, ...], spec: FieldSpec
) -> list[tuple[int, tuple[int, ...]]]:
    """The nonzero coefficients (c_J, J) of a restricted generator at one
    prefix, in one pass over its terms."""
    out = []
    for exps, terms in restricted:
        c = spec.eval_terms(terms, prefix)
        if c:
            out.append((c, exps))
    return out


def _stratum_zeros(
    gens: Sequence[SparsePolynomial], c: int, b: int, line: _Line
) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
    """Each prefix of the stratum of pivot c (see ``_restrict``), in
    odometer order, with the positions of the block values where every
    generator vanishes.

    A generator is restricted once per stratum, its coefficients in the
    block are computed once per prefix, and its zeros among all block
    values are found at once from rows of block monomials.  A generator
    that vanishes on the whole stratum cuts nothing, and a later generator
    is evaluated only at the positions that the earlier ones leave.
    """
    spec = line.spec
    restricted = [r for r in (_restrict(g, c, b) for g in gens) if r]
    every = range(spec.q**b)
    for prefix in product(range(spec.q), repeat=gens[0].nvars - 1 - c - b):
        hits = None
        for r in restricted:
            hits = line.roots(_coefficients(r, prefix, spec), hits)
            if hits == []:
                break
        yield prefix, every if hits is None else hits


def count_affine_zeros(f: SparsePolynomial) -> int:
    """Number of points of F_q^nvars where f vanishes.

    F_q^nvars is the stratum with no pivot of the block walker that also
    lists projective points (``variety._points_idx``): the zeros are
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
