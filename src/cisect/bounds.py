"""Closed-form bounds and the point-count estimate suite.

Everything here is a pure formula evaluator: the multihomogeneous zero cap,
the degree bound for the section-scan hypersurface, the first primitive Betti
number of a complete intersection, and the named estimates comparing |V(F_q)|
against p_r = |P^r(F_q)|.  Irrational right-hand sides are carried as exact
sums of integer square roots (see radicals), so applicability decisions and
PASS/FAIL verdicts never touch floating point.

The estimate rows are conditional on the asserted dimension and singular
dimension of the input; the suite validates the assertion ranges but cannot
check the geometry behind them.  Only the functions that need radicals or
space load them, so ``eta`` and the scan run on the formulas alone.
"""
from __future__ import annotations

from math import log10, prod
from typing import TYPE_CHECKING

from ._record import record
from .errors import BadSingularDim, BudgetExceeded, InvalidInput, MissingBetti

if TYPE_CHECKING:
    from .radicals import RootSum


def zero_bound(q: int, degrees, dims) -> int:
    """Cap on the number of zeros in F_q^{n_1+1} x ... of a multihomogeneous
    polynomial of multidegree ``degrees`` on groups of sizes ``dims[i] + 1``:
    the inclusion-exclusion sum over nonempty sets of groups, in closed form
    q^(n_1+...+n_m) * (q^m - prod(q - d_i)), so d * q^n for one group.  It is
    only a true bound when q > max(degrees); the value is returned regardless,
    unless it might pass the 4300 digits Python prints (BudgetExceeded)."""
    degrees = tuple(int(d) for d in degrees)
    dims = tuple(int(n) for n in dims)
    m = len(degrees)
    if m == 0:
        raise InvalidInput("need at least one degree/dimension pair")
    if len(dims) != m:
        raise InvalidInput(f"{m} degrees but {len(dims)} dimensions")
    if q < 1:
        raise InvalidInput(f"q must be positive, got {q}")
    if any(d < 0 for d in degrees) or any(n < 0 for n in dims):
        raise InvalidInput("degrees and dimensions must be nonnegative")
    # |q - d| <= max(q, d), so |cap| < 2 * 10^digits, which prints in at most
    # 4300 digits, Python's limit, when digits < 4299.6
    digits = log10(q) * sum(dims) + sum(log10(max(q, d)) for d in degrees)
    if digits >= 4299.6:
        raise BudgetExceeded(
            f"the zero cap has about {digits:.0f} digits, more than the 4300 Python prints"
        )
    return q ** sum(dims) * (q**m - prod(q - d for d in degrees))


def bertini_degree(minor_degree: int, dim: int, sing_dim: int, degree: int) -> int:
    """Degree (in each covector group) of the hypersurface containing every
    non-smooth section tuple: D^{r-s-1} * (D+r-s) * delta."""
    if not 0 <= sing_dim <= dim - 2:
        raise BadSingularDim(f"need 0 <= s <= r-2, got s={sing_dim}, r={dim}")
    if minor_degree < 0 or degree < 1:
        raise InvalidInput("minor_degree must be >= 0 and degree >= 1")
    return (
        minor_degree ** (dim - sing_dim - 1)
        * (minor_degree + dim - sing_dim)
        * degree
    )


def betti_b1(minor_degree: int, degree: int) -> int:
    """First primitive Betti number of a complete intersection of the given
    total degree data: (D-2)*delta + 2.  Values below zero mean the inputs
    cannot come from an actual complete intersection; those raise."""
    value = (minor_degree - 2) * degree + 2
    if value < 0:
        raise InvalidInput(
            f"(D-2)*delta+2 = {value} < 0: no complete intersection has "
            f"minor_degree {minor_degree} with degree {degree}"
        )
    return value


def gl_constant(ambient_dim: int, dim: int, d_max: int) -> int:
    """Coefficient of the lower-order term in the unconditional estimate:
    9 * 2^{n-r} * ((n-r)*d_max + 3)^{n+1}."""
    codim = ambient_dim - dim
    if codim < 1 or d_max < 1:
        raise InvalidInput("need ambient_dim > dim and d_max >= 1")
    return 9 * 2**codim * (codim * d_max + 3) ** (ambient_dim + 1)


def trivial_bounds(q: int, dim: int, degree: int) -> tuple[int, int]:
    """(delta * p_r, delta * q^r): the projective and affine counting caps."""
    from .space import count_projective

    return degree * count_projective(q, dim), degree * q ** max(dim, 0)


@record
class EstimateRow:
    name: str
    rhs: RootSum
    applicable: bool
    condition: str


@record
class BoundReport:
    q: int
    ambient_dim: int
    dim: int
    sing_dim: int
    multidegree: tuple[int, ...]
    degree: int
    minor_degree: int
    betti_index: int
    betti: int
    trivial_projective: int
    trivial_affine: int
    rows: tuple[EstimateRow, ...]

    def row(self, name: str) -> EstimateRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def _resolve_betti(index: int, minor_degree: int, degree: int, betti: int | None) -> int:
    """Primitive Betti number b'_{index} of the section type the estimates
    need.  A user-supplied value always wins; index 1 has a closed form;
    anything else must be supplied."""
    if betti is not None:
        if betti < 0:
            raise InvalidInput(f"betti must be >= 0, got {betti}")
        return betti
    if index == 1:
        return betti_b1(minor_degree, degree)
    raise MissingBetti(
        f"estimates need the primitive Betti number b'_{index}; only index 1 "
        f"has a built-in formula, pass betti= explicitly"
    )


def estimate_suite(
    q: int,
    ambient_dim: int,
    dim: int,
    sing_dim: int,
    multidegree,
    betti: int | None = None,
) -> BoundReport:
    """All estimate rows for the given parameters, sorted by row name.

    With sing_dim >= 0 the rows are the explicit singular-case bound (valid
    above a q threshold), the unconditional Ghorpade-Lachaud shape, and the
    two normal-complete-intersection refinements that require s = r-2; with
    sing_dim = -1 only the Deligne row applies.  A trivial-projective row
    (delta * p_r, a cap on N itself rather than on |N - p_r|) is always
    appended so reports stay comparable across regimes.
    """
    from .radicals import RootSum

    n, r, s = ambient_dim, dim, sing_dim
    multidegree = tuple(int(d) for d in multidegree)
    if n < 1 or not 0 <= r <= n - 1:
        raise InvalidInput(f"need 0 <= dim <= ambient_dim-1, got r={r}, n={n}")
    if len(multidegree) != n - r:
        raise InvalidInput(
            f"multidegree has {len(multidegree)} entries, codimension is {n - r}"
        )
    if any(d < 1 for d in multidegree):
        raise InvalidInput("multidegree entries must be >= 1")
    if list(multidegree) != sorted(multidegree, reverse=True):
        raise InvalidInput("multidegree must be sorted in nonincreasing order")
    if q < 2:
        raise InvalidInput(f"q must be >= 2, got {q}")
    if not (s == -1 or 0 <= s <= r - 2):
        raise BadSingularDim(
            f"estimates cover s = -1 or 0 <= s <= r-2, got s={s}, r={r}"
        )

    delta = prod(multidegree)
    minor = sum(d - 1 for d in multidegree)
    index = r - s - 1
    bprime = _resolve_betti(index, minor, delta, betti)
    rows: list[EstimateRow] = []

    if s == -1:
        rows.append(
            EstimateRow(
                name="deligne",
                rhs=RootSum.of(0, [(bprime, q**r)]),
                applicable=True,
                condition="requires asserted nonsingularity (s = -1)",
            )
        )
    else:
        d_bert = bertini_degree(minor, r, s, delta)
        threshold = 2 * (s + 1) * d_bert
        rows.append(
            EstimateRow(
                name="hooley-katz",
                rhs=RootSum.of(
                    0,
                    [(bprime + 1, q ** (r + s + 1)), (2, delta * q ** (r + s + 1))],
                ),
                applicable=q > threshold,
                condition=f"requires q > 2*(s+1)*{d_bert} = {threshold}",
            )
        )
        rows.append(
            EstimateRow(
                name="ghorpade-lachaud",
                rhs=RootSum.of(
                    0,
                    [
                        (bprime, q ** (r + s + 1)),
                        (gl_constant(n, r, multidegree[0]), q ** (r + s)),
                    ],
                ),
                applicable=True,
                condition="valid for all q",
            )
        )
        normal_regime = s == r - 2
        rows.append(
            EstimateRow(
                name="normal-ci",
                rhs=RootSum.of(
                    0, [(3 * (minor + 1), r * delta**3 * q ** (2 * r - 1))]
                ),
                applicable=normal_regime,
                condition="requires s = r-2 (normal complete intersection)",
            )
        )
        rows.append(
            EstimateRow(
                name="cmp",
                rhs=RootSum.of(
                    14 * minor**2 * delta**2 * q ** (r - 1),
                    [(betti_b1(minor, delta), q ** (2 * r - 1))],
                ),
                applicable=normal_regime,
                condition="requires s = r-2 (normal complete intersection)",
            )
        )

    triv_proj, triv_aff = trivial_bounds(q, r, delta)
    rows.append(
        EstimateRow(
            name="trivial-projective",
            rhs=RootSum.of(triv_proj),
            applicable=True,
            condition="valid for all q (bounds N itself)",
        )
    )
    rows.sort(key=lambda row: row.name)
    return BoundReport(
        q=q,
        ambient_dim=n,
        dim=r,
        sing_dim=s,
        multidegree=multidegree,
        degree=delta,
        minor_degree=minor,
        betti_index=index,
        betti=bprime,
        trivial_projective=triv_proj,
        trivial_affine=triv_aff,
        rows=tuple(rows),
    )


def _variety_suite(v, betti: int | None) -> BoundReport:
    """The estimate suite of a variety descriptor's asserted data."""
    return estimate_suite(
        v.field.q, v.ambient_dim, v.asserted_dim, v.asserted_sing_dim, v.multidegree, betti
    )


@record
class VerifyRow:
    name: str
    lhs: int
    rhs: RootSum
    applicable: bool
    verdict: str  # PASS | FAIL | N-A


@record
class VerifyReport:
    q: int
    dim: int
    point_count: int
    expected: int  # p_r
    deviation: int  # |N - p_r|
    rows: tuple[VerifyRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.verdict != "FAIL" for row in self.rows)

    def row(self, name: str) -> VerifyRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def verify_variety(v, betti: int | None = None) -> VerifyReport:
    """Count V(F_q) and check every estimate row against it.

    Estimate rows compare |N - p_r| with their right-hand side; the trivial
    row compares N itself with delta * p_r.  Rows whose preconditions do not
    hold get verdict N-A and never fail."""
    from .space import count_projective
    from .variety import count_points  # deferred; variety does not import bounds

    suite = _variety_suite(v, betti)
    n_points = count_points(v)
    expected = count_projective(v.field.q, v.asserted_dim)
    deviation = abs(n_points - expected)
    rows = []
    for row in suite.rows:
        lhs = n_points if row.name == "trivial-projective" else deviation
        if not row.applicable:
            verdict = "N-A"
        elif row.rhs.geq_int(lhs):
            verdict = "PASS"
        else:
            verdict = "FAIL"
        rows.append(
            VerifyRow(
                name=row.name,
                lhs=lhs,
                rhs=row.rhs,
                applicable=row.applicable,
                verdict=verdict,
            )
        )
    return VerifyReport(
        q=v.field.q,
        dim=v.asserted_dim,
        point_count=n_points,
        expected=expected,
        deviation=deviation,
        rows=tuple(rows),
    )
