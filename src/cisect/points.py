"""Rational points of a variety, found a block of coordinates at a time.

A generator is never evaluated point by point: on each stratum of P^n it is
a polynomial in a prefix of the free coordinates and a block, the last b of
them, and at each prefix its zeros over all q^b block values come at once
from rows of block monomials (see ``_points_idx``).  The same walker counts
the zeros of a polynomial on F_q^m (``polytools.count_affine_zeros``).
``bounds`` parses a variety but walks no points, so it never loads this.
"""
from __future__ import annotations

import operator
from functools import lru_cache, partial
from itertools import compress, product
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded
from .ffield import FieldSpec
from .mpoly import SparsePolynomial, eval_idx
from .space import BUDGET, count_projective
from .variety import VarietyDescriptor, extension_spec

# a block of b coordinates has at most this many values: q^b <= 2^8
_BLOCK_VALUES = 1 << 8
# a polynomial on a stratum: (J, [(coefficient index, prefix exponents)]) for
# each exponent vector J of the block, ascending in J
_Restricted = list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]]


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
    is one coordinate t, a row holds t^j for t = 1, ..., q - 1 in the form
    the field gives it, and the field finds the roots (``FieldSpec.row_zeros``).
    With ``keep`` set, such a row is kept as a list of q - 1 ints and serves
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
        """t^j for t = 1, ..., q - 1, as the field's rows store it."""
        row = self.rows.get(j)
        if row is None:
            row = self.spec.power_row(j)
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
        spec = self.spec
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
            key = spec.row_entry(spec.mul_idx(spec.neg_idx(c0), spec.inv_idx(c1)))
            return out + list(compress(range(1, spec.q), map(key.__eq__, self.row(j1 - j0))))
        return out + spec.row_zeros(c0, [(c, self.row(j - j0)) for c, (j,) in rest])


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
            # the nonzero coefficients (c_J, J) at this prefix, in one pass
            hits = line.roots(spec.eval_nonzero(r, prefix), hits)
            if hits == []:
                break
        yield prefix, every if hits is None else hits


@lru_cache(maxsize=128)
def _points_idx(v: VarietyDescriptor, ext: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives (packed indices) of V(F_{q^e}) in scan order.

    The order is that of ``iter_projective_idx``: pivot c first, then the
    free coordinates with X_n fastest.  So a stratum is a run of prefixes,
    each followed by every value of the block, its last b coordinates,
    where b is the widest with q^b <= 2^8 (b = 1 for q >= 17) and at most
    n - c.  ``_stratum_zeros`` finds the zeros of all generators
    among the q^b block values at once, at each prefix, from rows of block
    monomials; when b = 1 a binomial compares one row of t^j with
    -c0 / c1.  The last stratum is the single point (0:...:0:1).
    """
    spec = extension_spec(v, ext)
    n, q = v.ambient_dim, spec.q
    if count_projective(q, n) > BUDGET:
        raise BudgetExceeded(
            f"enumerating P^{n} over a field of order {q} exceeds the 2^26 cap"
        )
    # with n > 1 the budget keeps q below 2^13, and many prefixes share a row
    line = _Line(spec, keep=n > 1)
    out = []
    for c in range(n):
        head = (0,) * c + (1,)
        b = min(line.width, n - c)
        # the block values by position; zip makes the 1-tuples of one coordinate
        block = None if b == 1 else list(product(range(q), repeat=b))
        for prefix, hits in _stratum_zeros(v.generators, c, b, line):
            values = zip(hits) if block is None else map(block.__getitem__, hits)
            out.extend(map((head + prefix).__add__, values))
    last = (0,) * n + (1,)
    if all(eval_idx(g, last, spec) == 0 for g in v.generators):
        out.append(last)
    return tuple(out)
