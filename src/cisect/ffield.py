"""Exact arithmetic in finite fields F_q with q = p^k up to 2**20.

Elements of F_{p^k} are residue polynomials modulo a monic irreducible
modulus of degree k, stored as coefficient tuples ascending from the constant
term.  Packing the coefficients as a base-p integer gives each element a
stable index in [0, q); all hot loops work on these indices and only the
public surface wraps them in FieldElement objects.

make_field decides a field's arithmetic once, by its class.  A prime field
is a FieldSpec, which computes on the indices directly, as integers mod p.
An extension field is a FieldSpec subclass, extfield._LogField, that
computes through discrete-log tables; make_field loads that module only
for k > 1, so a prime-field process never compiles it.  Each class also
evaluates terms at a point (``eval_terms``, or ``eval_nonzero`` for several
term lists) and finds a one-coordinate polynomial's roots t != 0 from rows
of t^j over all t (``power_row``, ``row_zeros``): indices summed mod p in a
prime field, logs in an extension.  So the polynomial code never asks which
field it is in.
make_field returns one spec per (p, k, modulus), so each field builds its
tables once per process.
"""
from __future__ import annotations

import operator
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Iterator, Sequence

from ._record import record
from .errors import BudgetExceeded, FieldMismatch, NotIrreducible, NotPrime

MAX_ORDER = 1 << 20


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 2 if f > 2 else 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division."""
    return n > 1 and _prime_factors(n) == [n]


@record
class FieldSpec:
    """Immutable description of F_{p^k}; also the arithmetic context.

    The ``*_idx`` methods operate on packed element indices (the coefficient
    tuple read as a base-p integer).  Index 0 is the zero element and index 1
    is the multiplicative identity.  This class computes in a prime field,
    as integers mod p.  Build specs with make_field, which returns an
    ``extfield._LogField`` for k > 1.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.k

    def __hash__(self) -> int:
        # the record's hash, written out: the generic one goes through
        # attrgetter, and a spec is hashed wherever a cache key holds one
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.p}^{self.k})" if self.k > 1 else f"FieldSpec(q={self.p})"

    # -- packed-index conversions ------------------------------------------

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            idx, rem = divmod(idx, self.p)
            out.append(rem)
        return tuple(out)

    def idx_of(self, coeffs: Sequence[int]) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * self.p + c
        return acc

    # -- arithmetic on packed indices --------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub_idx(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg_idx(self, a: int) -> int:
        return (-a) % self.p

    def mul_idx(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return pow(a, self.p - 2, self.p)

    def pow_idx(self, a: int, e: int) -> int:
        """a^e; e must be nonnegative, and 0^0 = 1."""
        if e < 0:
            raise ValueError("negative exponent; invert first")
        return pow(a, e, self.p)

    def dot_idx(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Dot product sum a_i * b_i of two index vectors of equal length."""
        return sum(map(operator.mul, a, b)) % self.p

    def eval_terms(self, terms: Iterable[tuple[int, Sequence[int]]], point: Sequence[int]) -> int:
        """The sum of c * prod x_i^(e_i) at ``point`` over the (coefficient
        index c, exponents e) pairs ``terms``."""
        p = self.p
        acc = 0
        for c, exps in terms:
            for x, e in zip(point, exps):
                if e:
                    c = c * pow(x, e, p) % p
                    if c == 0:
                        break
            acc += c
        return acc % p

    def eval_nonzero(self, groups: Iterable[tuple], point: Sequence[int]) -> list[tuple]:
        """(value, key) for each (key, terms) pair of ``groups``, in order,
        whose terms do not sum to zero at ``point``."""
        return [(c, key) for key, terms in groups if (c := self.eval_terms(terms, point))]

    def power_row(self, j: int) -> Iterator[int]:
        """t^j for t = 1, ..., q - 1, each stored as ``row_entry`` stores it."""
        return map(pow, range(1, self.q), repeat(j), repeat(self.p))

    def row_entry(self, a: int) -> int:
        """How a row stores the nonzero element a: as its index."""
        return a

    def row_zeros(self, c0: int, terms: Iterable[tuple[int, Iterable[int]]]) -> list[int]:
        """The t in 1, ..., q - 1, ascending, where c0 + sum c * r_t vanishes,
        the sum over the pairs (c, r) of ``terms``, each r a ``power_row``."""
        acc = repeat(c0)
        for c, row in terms:
            acc = map(operator.add, acc, map(c.__mul__, row))
        return list(compress(range(1, self.q), map(operator.not_, map(self.p.__rmod__, acc))))

    # -- element construction ----------------------------------------------

    def element(self, value: int | Sequence[int]) -> "FieldElement":
        """Build an element: an int is the image of that integer (reduced mod p),
        a sequence is a full coefficient vector (entries reduced mod p)."""
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.k - 1)
        else:
            if len(value) != self.k:
                raise ValueError(f"expected {self.k} coefficients, got {len(value)}")
            coeffs = tuple(c % self.p for c in value)
        return FieldElement(self, coeffs)

    def from_index(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise ValueError(f"element index {idx} out of range for q={self.q}")
        return FieldElement(self, self.coeffs_of(idx))

    @property
    def zero(self) -> "FieldElement":
        return self.from_index(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_index(1)

    def elements(self) -> Iterator["FieldElement"]:
        for idx in range(self.q):
            yield self.from_index(idx)


@record
class FieldElement:
    """A field element: an owning spec plus its coefficient tuple."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]) -> None:
        # the record's __init__, written out: the generic one binds *args and
        # **kwargs and loops over the names, about 1.6x the cost per element
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def idx(self) -> int:
        return self.field.idx_of(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _apply(self, op, other) -> "FieldElement":
        # the one operand path of + - * /: a non-element is NotImplemented,
        # an element of another field a FieldMismatch
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(f"operands live in {self.field} and {other.field}")
        return self.field.from_index(op(self.idx, other.idx))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self._apply(self.field.add_idx, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self._apply(self.field.sub_idx, other)

    def __neg__(self) -> "FieldElement":
        return self.field.from_index(self.field.neg_idx(self.idx))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self._apply(self.field.mul_idx, other)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return self._apply(lambda a, b: f.mul_idx(a, f.inv_idx(b)), other)

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        return self.field.from_index(self.field.pow_idx(self.idx, e))

    def inverse(self) -> "FieldElement":
        return self.field.from_index(self.field.inv_idx(self.idx))

    def __repr__(self) -> str:
        if self.field.k == 1:
            return f"F{self.field.p}({self.coeffs[0]})"
        return f"F{self.field.p}^{self.field.k}{self.coeffs}"


# ---------------------------------------------------------------------------


_FIELDS: dict[tuple[int, int, tuple[int, ...]], FieldSpec] = {}


def make_field(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct F_{p^k}, validating primality, the order budget, and the
    modulus; every call for one (p, k, modulus) returns the same FieldSpec."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise TypeError("p and k must be integers")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    # p >= 2, so k > 20 alone passes the cap, and p**k need not be formed
    if k > 20 or p**k > MAX_ORDER:
        raise BudgetExceeded(f"field order {p}^{k} exceeds the cap 2^20")
    if k == 1:
        if modulus is not None and tuple(modulus) != (0, 1):
            raise ValueError("for k = 1 the modulus is fixed to the formal polynomial X")
        mod, cls = (0, 1), FieldSpec
    else:
        from .extfield import _LogField as cls, _is_irreducible, _smallest_irreducible

        if modulus is None:
            mod = _smallest_irreducible(p, k)
        else:
            mod = tuple(modulus)
            if len(mod) != k + 1:
                raise ValueError(f"modulus must have {k + 1} coefficients, got {len(mod)}")
            if any(not 0 <= c < p for c in mod):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if mod[-1] != 1:
                raise NotIrreducible("modulus must be monic")
    spec = _FIELDS.get((p, k, mod))
    if spec is None:
        # only irreducible moduli are memoised, so a hit needs no test
        if modulus is not None and k > 1 and not _is_irreducible(mod, p):
            raise NotIrreducible(f"modulus {mod} is reducible over F_{p}")
        spec = _FIELDS[(p, k, mod)] = cls(p, k, mod)
    return spec
