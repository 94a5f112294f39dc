"""Projective complete intersections: descriptors, point counts, Jacobians.

A descriptor packages homogeneous generators over F_q together with the
asserted dimension r (which must equal nvars - 1 - #generators) and the
asserted singular dimension s.  The s value is an upper-bound assertion on
the dimension of the singular locus: s = -1 claims a nonsingular variety,
and claiming some s >= dim(Sing V) is always sound.  Every downstream report
is conditional on these assertions being correct; nothing here certifies
them beyond the rational sanity checks exposed below.

Rational points over F_{q^e} are canonical projective representatives; the
smoothness test at a point is the rank of the (#generators) x nvars matrix
of formal partials, with full rank meaning smooth.

Points are found a block at a time, never by evaluating a generator at each
point.  P^n is listed stratum by stratum (the first nonzero coordinate X_c
is 1), and within a stratum each prefix X_{c+1}..X_{n-1} is followed by all
q values of t = X_n.  On a stratum a generator is a polynomial in the
prefix and t; at each prefix it is a polynomial in t alone, whose
coefficients cost one pass over the generator's terms and whose zeros come
from rows of the powers t^j over all t at once.
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, islice, product, repeat
from math import prod
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    BadSingularDim,
    BudgetExceeded,
    CisectError,
    DimensionDriftWarning,
    DimensionMismatch,
    FieldMismatch,
    InvalidGenerator,
    NotHomogeneousGenerator,
    ParseError,
    PointNotOnVariety,
    PolyParseError,
    UnsupportedExtension,
    ZeroGenerator,
)
from .ffield import FieldSpec, make_field
from .linalg import rank_idx
from .mpoly import (
    ANY_DEGREE,
    NOT_HOMOGENEOUS,
    SparsePolynomial,
    check_homogeneous,
    eval_idx,
    lift_to,
    parse_poly,
    partial_derivative,
)
from .space import (
    BUDGET,
    ProjPoint,
    count_projective,
)


@dataclass(frozen=True)
class VarietyDescriptor:
    field: FieldSpec
    nvars: int
    generators: tuple[SparsePolynomial, ...]
    asserted_dim: int
    asserted_sing_dim: int
    multidegree: tuple[int, ...]
    degree: int
    minor_degree: int

    @property
    def ambient_dim(self) -> int:
        return self.nvars - 1

    @property
    def codim(self) -> int:
        return len(self.generators)

    @classmethod
    def build(
        cls,
        field: FieldSpec,
        nvars: int,
        generators: Sequence[SparsePolynomial],
        dim: int,
        sing_dim: int,
    ) -> "VarietyDescriptor":
        if nvars < 2:
            raise DimensionMismatch("a projective variety needs at least two coordinates")
        if not generators:
            raise DimensionMismatch("at least one generator is required")
        degrees = []
        for i, g in enumerate(generators):
            if g.field != field:
                raise FieldMismatch(f"generator {i} lives over a different field")
            if g.nvars != nvars:
                raise ArityMismatch(f"generator {i} has {g.nvars} variables, expected {nvars}")
            verdict = check_homogeneous(g)
            if verdict is ANY_DEGREE:
                raise ZeroGenerator(i)
            if verdict is NOT_HOMOGENEOUS:
                raise NotHomogeneousGenerator(i)
            if verdict == 0:
                raise InvalidGenerator(i)
            degrees.append(verdict)
        if dim != nvars - 1 - len(generators):
            raise DimensionMismatch(
                f"asserted dimension {dim} != {nvars - 1} - {len(generators)} generators"
            )
        if not -1 <= sing_dim <= dim:
            raise BadSingularDim(
                f"asserted singular dimension {sing_dim} must lie in [-1, {dim}]"
            )
        multidegree = tuple(sorted(degrees, reverse=True))
        return cls(
            field=field,
            nvars=nvars,
            generators=tuple(generators),
            asserted_dim=dim,
            asserted_sing_dim=sing_dim,
            multidegree=multidegree,
            degree=prod(multidegree),
            minor_degree=sum(d - 1 for d in multidegree),
        )

    @cached_property
    def jacobian(self) -> tuple[tuple[SparsePolynomial, ...], ...]:
        """Formal partials, one row per generator in the order given."""
        return tuple(
            tuple(partial_derivative(g, j) for j in range(self.nvars))
            for g in self.generators
        )


# ---------------------------------------------------------------------------
# variety file format


def parse_variety(text: str) -> VarietyDescriptor:
    """Parse the line-oriented variety format (see README for the grammar)."""
    section = None
    fields: dict[str, str] = {}
    body: dict[str, str] = {}
    polys: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("field", "variety"):
                raise ParseError(f"unknown section [{section}]", lineno)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("expected 'key = value'", lineno)
        key = key.strip()
        value = value.strip()
        if section == "field":
            if key in fields:
                raise ParseError(f"duplicate key {key!r}", lineno)
            fields[key] = value
        elif section == "variety":
            if key == "poly":
                polys.append((lineno, value))
            elif key in body:
                raise ParseError(f"duplicate key {key!r}", lineno)
            else:
                body[key] = value
        else:
            raise ParseError("content before any section header", lineno)

    def need(table: dict[str, str], key: str, where: str) -> str:
        if key not in table:
            raise ParseError(f"missing {key!r} in [{where}]")
        return table[key]

    def as_int(value: str, key: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"{key!r} must be an integer, got {value!r}") from None

    p = as_int(need(fields, "p", "field"), "p")
    k = as_int(fields.get("k", "1"), "k")
    modulus = None
    if "mod" in fields:
        try:
            modulus = tuple(int(c) for c in fields["mod"].split(","))
        except ValueError:
            raise ParseError("'mod' must be a comma-separated integer list") from None
    try:
        spec = make_field(p, k, modulus)
    except CisectError:
        raise
    except ValueError as exc:
        # a bad k or modulus shape: make_field's own ValueErrors are input errors here
        raise ParseError(str(exc)) from exc

    nvars = as_int(need(body, "nvars", "variety"), "nvars")
    dim = as_int(need(body, "dim", "variety"), "dim")
    sing = as_int(need(body, "singdim", "variety"), "singdim")
    if not polys:
        raise ParseError("at least one 'poly =' line is required")
    gens = []
    for lineno, src in polys:
        try:
            gens.append(parse_poly(src, nvars, spec))
        except PolyParseError as exc:
            raise ParseError(f"bad polynomial: {exc}", lineno) from exc
    return VarietyDescriptor.build(spec, nvars, gens, dim, sing)


def load_variety(source: str | Path) -> VarietyDescriptor:
    """Load a descriptor from a file path, or parse text directly when the
    argument contains newlines or starts like the format itself."""
    if isinstance(source, str) and (
        "\n" in source or source.lstrip().startswith(("#", "["))
    ):
        return parse_variety(source)
    try:
        text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return parse_variety(text)


# ---------------------------------------------------------------------------
# extensions and cached point data


def extension_spec(v: VarietyDescriptor, ext: int) -> FieldSpec:
    if ext < 1:
        raise ValueError("extension degree must be >= 1")
    if ext == 1:
        return v.field
    if v.field.k != 1:
        raise UnsupportedExtension(
            "extension counts are only supported over prime base fields"
        )
    return make_field(v.field.p, ext)


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
    """Polynomials in the last coordinate t, evaluated at every t in F_q.

    A polynomial is a list of (j, c): the coefficient index c != 0 of t^j,
    ascending in j.  The power rows depend only on the field and an
    exponent.  With ``keep`` set, each row is kept as a list of q - 1 ints
    and serves every later prefix; otherwise it is a one-pass iterator,
    for an enumeration with one prefix per stratum (P^1, where q may reach
    2^20).
    """

    def __init__(self, spec: FieldSpec, keep: bool):
        self.spec = spec
        self.keep = keep
        self.rows: dict[int, list[int]] = {}

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

    def value(self, poly: list[tuple[int, int]], t: int) -> int:
        """The index of poly(t)."""
        spec = self.spec
        if spec.k == 1:
            return sum(c * pow(t, j, spec.p) for j, c in poly) % spec.p
        log = spec.tables.log
        return spec.sum_logs(log[c] + j * log[t] for j, c in poly)

    def roots(self, poly: list[tuple[int, int]], ts: list[int] | None) -> list[int] | None:
        """The t, ascending, among ``ts`` where ``poly`` vanishes; None
        stands for every t in F_q, and the zero polynomial keeps ``ts``."""
        if not poly:
            return ts
        if ts is not None:
            return [t for t in ts if not self.value(poly, t)]
        spec, q = self.spec, self.spec.q
        # t^j0 divides poly: t = 0 is a root iff j0 > 0, and the t != 0 are
        # the roots of poly / t^j0, whose constant term c0 is nonzero
        (j0, c0), *rest = poly
        out = [0] if j0 else []
        if not rest:
            return out
        if len(rest) == 1:
            # a binomial: t^(j1 - j0) = -c0 / c1
            j1, c1 = rest[0]
            a = spec.mul_idx(spec.neg_idx(c0), spec.inv_idx(c1))
            key = a if spec.k == 1 else spec.tables.log[a]
            hits = map(key.__eq__, self.row(j1 - j0))
        elif spec.k == 1:
            acc = repeat(c0)
            for j, c in rest:
                acc = map(operator.add, acc, map(c.__mul__, self.row(j - j0)))
            hits = map(operator.not_, map(spec.p.__rmod__, acc))
        elif spec.p == 2:
            exp, log = spec.tables.exp, spec.tables.log
            acc = repeat(c0)
            for j, c in rest:
                terms = map(exp.__getitem__, map(log[c].__add__, self.row(j - j0)))
                acc = map(operator.xor, acc, terms)
            hits = map(operator.not_, acc)
        else:
            # Zech sums in the log domain, one t at a time, against log(-c0)
            n, _, log, zech = spec.tables
            rows = [map(log[c].__add__, self.row(j - j0)) for j, c in rest]
            return out + _zech_roots(rows, n, zech, (log[c0] + n // 2) % n)
        return out + list(compress(range(1, q), hits))


def _restrict(
    g: SparsePolynomial, c: int, spec: FieldSpec
) -> list[tuple[int, list[tuple[int, tuple[int, ...]]]]]:
    """g on the stratum of pivot c, grouped by the exponent j of X_n.

    Terms with a positive exponent in X_0..X_{c-1} drop out and X_c = 1.
    Each group is (j, [(coefficient, exponents of X_{c+1}..X_{n-1})]),
    ascending in j; a coefficient is its index over a prime field and its
    discrete log over an extension.
    """
    n = g.nvars - 1
    log = spec.tables.log if spec.k > 1 else None
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for cidx, exps in g.idx_terms:
        if not any(exps[:c]):
            coeff = cidx if log is None else log[cidx]
            groups.setdefault(exps[n], []).append((coeff, exps[c + 1:n]))
    return sorted(groups.items())


def _coefficients(
    restricted: list[tuple[int, list[tuple[int, tuple[int, ...]]]]],
    prefix: tuple[int, ...],
    spec: FieldSpec,
) -> list[tuple[int, int]]:
    """The nonzero coefficients (j, c_j) of a restricted generator at one
    prefix X_{c+1}..X_{n-1}, in one pass over its terms."""
    out = []
    if spec.k == 1:
        p = spec.p
        pows = repeat(p)
        for j, terms in restricted:
            c = sum(a * prod(map(pow, prefix, exps, pows)) for a, exps in terms) % p
            if c:
                out.append((j, c))
    else:
        logs = [spec.tables.log[x] for x in prefix]
        for j, terms in restricted:
            c = spec.sum_logs(a + sum(map(operator.mul, exps, logs)) for a, exps in terms)
            if c:
                out.append((j, c))
    return out


@lru_cache(maxsize=128)
def _points_idx(v: VarietyDescriptor, ext: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives (packed indices) of V(F_{q^e}) in scan order.

    The order is that of ``iter_projective_idx``: pivot c first, then the
    free coordinates with X_n fastest.  So a stratum is a run of prefixes
    X_{c+1}..X_{n-1}, each followed by every t = X_n.  Each generator is
    restricted once per stratum (``_restrict``), its coefficients in t are
    computed once per prefix (``_coefficients``), and its zeros among all
    t are found at once (``_Line.roots``) from rows of t^j: a binomial
    compares one row with -c0 / c1, and a longer polynomial sums its rows
    mod p, XORs them when p = 2 and adds them by Zech logarithms for odd
    p.  A later generator is evaluated only at the t that the earlier ones
    leave.  The last stratum is the single point (0:...:0:1).
    """
    spec = extension_spec(v, ext)
    n, q = v.ambient_dim, spec.q
    if count_projective(q, n) > BUDGET:
        raise BudgetExceeded(
            f"enumerating P^{n} over a field of order {q} exceeds the 2^26 cap"
        )
    gens = [lift_to(g, spec) for g in v.generators]
    # with n > 1 the budget keeps q below 2^13, and many prefixes share a row
    line = _Line(spec, keep=n > 1)
    out = []
    for c in range(n):
        head = (0,) * c + (1,)
        # a generator that vanishes on the whole stratum cuts nothing
        restricted = [r for r in (_restrict(g, c, spec) for g in gens) if r]
        for prefix in product(range(q), repeat=n - 1 - c):
            ts = None
            for r in restricted:
                ts = line.roots(_coefficients(r, prefix, spec), ts)
                if ts == []:
                    break
            base = head + prefix
            out.extend([base + (t,) for t in (range(q) if ts is None else ts)])
    last = (0,) * n + (1,)
    if all(eval_idx(g, last, spec) == 0 for g in gens):
        out.append(last)
    return tuple(out)


@lru_cache(maxsize=128)
def _jacobian_idx(v: VarietyDescriptor, ext: int) -> tuple[tuple[SparsePolynomial, ...], ...]:
    spec = extension_spec(v, ext)
    return tuple(tuple(lift_to(d, spec) for d in row) for row in v.jacobian)


def count_points(v: VarietyDescriptor, ext: int = 1) -> int:
    """|V(F_{q^e})| by exhaustive canonical enumeration.

    Emits DimensionDriftWarning when the count lands outside
    [p_r / (2 * degree), 2 * degree * p_r], a cheap signal that the asserted
    dimension is probably wrong for this variety.
    """
    n_points = len(_points_idx(v, ext))
    q = extension_spec(v, ext).q
    p_r = count_projective(q, v.asserted_dim)
    if 2 * v.degree * n_points < p_r or n_points > 2 * v.degree * p_r:
        warnings.warn(
            f"count {n_points} over order-{q} field is far from the expectation "
            f"{p_r} for asserted dimension {v.asserted_dim}",
            DimensionDriftWarning,
            stacklevel=2,
        )
    return n_points


def rational_points(v: VarietyDescriptor, ext: int = 1) -> Iterator[ProjPoint]:
    spec = extension_spec(v, ext)
    for point in _points_idx(v, ext):
        yield ProjPoint(tuple(spec.from_index(i) for i in point))


# ---------------------------------------------------------------------------
# smoothness at rational points


def _jacobian_rank_idx(
    v: VarietyDescriptor, coords: Sequence[int], ext: int
) -> int:
    spec = extension_spec(v, ext)
    jac = _jacobian_idx(v, ext)
    rows = [
        [eval_idx(d, coords, spec) for d in row]
        for row in jac
    ]
    return rank_idx(rows, spec)


def jacobian_rank_at(v: VarietyDescriptor, x: ProjPoint) -> int:
    """Rank of the Jacobian at a rational point of V; full rank == smooth."""
    if len(x.coords) != v.nvars:
        raise ArityMismatch(f"point has {len(x.coords)} coordinates, expected {v.nvars}")
    spec = x.field
    if spec == v.field:
        ext = 1
    elif spec.p == v.field.p and v.field.k == 1:
        ext = spec.k
        if extension_spec(v, ext) != spec:
            raise FieldMismatch("point lives in an incompatible extension")
    else:
        raise FieldMismatch("point field does not match the variety")
    coords = tuple(c.idx for c in x.coords)
    gens = [lift_to(g, spec) for g in v.generators]
    if any(eval_idx(g, coords, spec) != 0 for g in gens):
        raise PointNotOnVariety(f"{x} is not on the variety")
    return _jacobian_rank_idx(v, coords, ext)


@dataclass(frozen=True)
class PointClassification:
    point: ProjPoint
    jacobian_rank: int
    smooth: bool


def rational_singular_points(
    v: VarietyDescriptor, ext: int = 1
) -> tuple[PointClassification, ...]:
    """Classify every rational point; returns the non-smooth ones."""
    spec = extension_spec(v, ext)
    full = v.codim
    out = []
    for coords in _points_idx(v, ext):
        rank = _jacobian_rank_idx(v, coords, ext)
        if rank < full:
            point = ProjPoint(tuple(spec.from_index(i) for i in coords))
            out.append(PointClassification(point, rank, False))
    return tuple(out)
