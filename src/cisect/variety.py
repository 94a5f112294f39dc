"""Projective complete intersections: descriptors, point counts, Jacobians.

A descriptor packages homogeneous generators over F_q together with the
asserted dimension r (which must equal nvars - 1 - #generators) and the
asserted singular dimension s.  The s value is an upper-bound assertion on
the dimension of the singular locus: s = -1 claims a nonsingular variety,
and claiming some s >= dim(Sing V) is always sound.  Every downstream report
is conditional on these assertions being correct; nothing here certifies
them beyond the rational sanity checks exposed below.

Rational points over F_{q^e} are canonical projective representatives,
found by ``points._points_idx``; the smoothness test at a point is the rank
of the (#generators) x nvars matrix of formal partials, with full rank
meaning smooth.
"""
from __future__ import annotations

import warnings
from functools import cached_property
from math import prod
from pathlib import Path
from typing import Iterator, Sequence

from ._record import record
from .errors import (
    ArityMismatch,
    BadSingularDim,
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
from .mpoly import (
    ANY_DEGREE,
    NOT_HOMOGENEOUS,
    SparsePolynomial,
    check_homogeneous,
    eval_idx,
    parse_poly,
    partial_derivative,
)
from .space import ProjPoint, count_projective


@record
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


def count_points(v: VarietyDescriptor, ext: int = 1) -> int:
    """|V(F_{q^e})| by exhaustive canonical enumeration.

    Emits DimensionDriftWarning when the count lands outside
    [p_r / (2 * degree), 2 * degree * p_r], a cheap signal that the asserted
    dimension is probably wrong for this variety.
    """
    from .points import _points_idx

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
    from .points import _points_idx

    spec = extension_spec(v, ext)
    for point in _points_idx(v, ext):
        yield ProjPoint(tuple(spec.from_index(i) for i in point))


# ---------------------------------------------------------------------------
# smoothness at rational points


def _jacobian_rows(v: VarietyDescriptor, coords: Sequence[int], spec: FieldSpec) -> list:
    """The Jacobian at a point of packed indices over spec, one row per generator."""
    return [[eval_idx(d, coords, spec) for d in row] for row in v.jacobian]


def _jacobian_rank_idx(v: VarietyDescriptor, coords: Sequence[int], ext: int) -> int:
    from .linalg import rank_idx

    spec = extension_spec(v, ext)
    return rank_idx(_jacobian_rows(v, coords, spec), spec)


def jacobian_rank_at(v: VarietyDescriptor, x: ProjPoint) -> int:
    """Rank of the Jacobian at a rational point of V; full rank == smooth."""
    if len(x.coords) != v.nvars:
        raise ArityMismatch(f"point has {len(x.coords)} coordinates, expected {v.nvars}")
    spec = x.field
    if spec != v.field:
        if spec.p != v.field.p or v.field.k != 1:
            raise FieldMismatch("point field does not match the variety")
        if extension_spec(v, spec.k) != spec:
            raise FieldMismatch("point lives in an incompatible extension")
    coords = tuple(c.idx for c in x.coords)
    if any(eval_idx(g, coords, spec) != 0 for g in v.generators):
        raise PointNotOnVariety(f"{x} is not on the variety")
    # a point over the base field has ext = 1, and one over F_{p^e} ext = e
    return _jacobian_rank_idx(v, coords, spec.k // v.field.k)


@record
class PointClassification:
    point: ProjPoint
    jacobian_rank: int
    smooth: bool


def rational_singular_points(
    v: VarietyDescriptor, ext: int = 1
) -> tuple[PointClassification, ...]:
    """Classify every rational point; returns the non-smooth ones."""
    from .points import _points_idx

    spec = extension_spec(v, ext)
    full = v.codim
    out = []
    for coords in _points_idx(v, ext):
        rank = _jacobian_rank_idx(v, coords, ext)
        if rank < full:
            point = ProjPoint(tuple(spec.from_index(i) for i in coords))
            out.append(PointClassification(point, rank, False))
    return tuple(out)
