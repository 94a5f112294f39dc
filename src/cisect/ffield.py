"""Exact arithmetic in finite fields F_q with q = p^k up to 2**20.

Elements of F_{p^k} are residue polynomials modulo a monic irreducible
modulus of degree k, stored as coefficient tuples ascending from the constant
term.  Packing the coefficients as a base-p integer gives each element a
stable index in [0, q); all hot loops work on these indices and only the
public surface wraps them in FieldElement objects.

When no modulus is supplied the lexicographically smallest monic irreducible
polynomial of degree k is selected (coefficients compared ascending from the
constant term), so two independently built specs for the same (p, k) are
interchangeable.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    NotIrreducible,
    NotPrime,
)

MAX_ORDER = 1 << 20
# build q x q lookup tables for extension fields only up to this order
_TABLE_LIMIT = 256


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (n is at most 2**20 here)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, coefficients ascending, trailing zeros
# trimmed but never below length 1


def _trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])

def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    b = _trim(list(b))
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [c % p for c in a]
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quo = [0] * max(1, len(rem) - db)
    while len(_trim(rem)) - 1 >= db and _trim(rem) != [0]:
        rem = _trim(rem)
        shift = len(rem) - 1 - db
        factor = rem[-1] * lead_inv % p
        quo[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bc) % p
    return _trim(quo), _trim(rem)


def _poly_eval(c: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for coeff in reversed(c):
        acc = (acc * x + coeff) % p
    return acc


def _poly_inv_mod(a: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """Inverse of a modulo the modulus via the extended Euclidean algorithm."""
    r0, r1 = _trim(list(modulus)), _trim(list(a))
    t0, t1 = [0], [1]
    while r1 != [0]:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        prod = _poly_mul(q, t1, p)
        width = max(len(t0), len(prod))
        nxt = [(t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0) for i in range(width)]
        t0, t1 = t1, _trim([c % p for c in nxt])
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    scale = pow(r0[0], p - 2, p)
    return _trim([c * scale % p for c in t0])


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Full trial-division irreducibility test for a monic polynomial.

    A root search rules out linear factors; trial division by every monic
    polynomial of degree up to deg/2 covers the rest.  Within the q <= 2**20
    cap there are at most ~2**10 candidate divisors, so this stays cheap.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    if any(_poly_eval(coeffs, x, p) == 0 for x in range(p)):
        return False
    if k <= 3:
        return True
    for deg in range(2, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            _, rem = _poly_divmod(coeffs, tail + (1,), p)
            if rem == [0]:
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # itertools.product yields coefficient tuples in ascending lexicographic
    # order with the constant term compared first
    for tail in itertools.product(range(p), repeat=k):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise NotIrreducible(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of F_{p^k}; also the arithmetic context.

    The ``*_idx`` methods operate on packed element indices (the coefficient
    tuple read as a base-p integer).  Index 0 is the zero element and index 1
    is the multiplicative identity.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.k

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.p}^{self.k})" if self.k > 1 else f"FieldSpec(q={self.p})"

    # -- packed-index conversions ------------------------------------------

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        if self.k == 1:
            return (idx,)
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

    @cached_property
    def _digits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.coeffs_of(i) for i in range(self.q))

    @cached_property
    def _mul_table(self) -> list[int] | None:
        q = self.q
        if self.k == 1 or q > _TABLE_LIMIT:
            return None
        table = [0] * (q * q)
        digits = self._digits
        for i in range(q):
            row = i * q
            for j in range(i, q):
                prod = _poly_mul(digits[i], digits[j], self.p)
                if len(prod) >= len(self.modulus):
                    _, prod = _poly_divmod(prod, self.modulus, self.p)
                v = self.idx_of(prod)
                table[row + j] = v
                table[j * q + i] = v
        return table

    # -- arithmetic on packed indices --------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits[a], self._digits[b]
        return self.idx_of([(x + y) % self.p for x, y in zip(da, db)])

    def sub_idx(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        da, db = self._digits[a], self._digits[b]
        return self.idx_of([(x - y) % self.p for x, y in zip(da, db)])

    def neg_idx(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.idx_of([(-x) % self.p for x in self._digits[a]])

    def mul_idx(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        table = self._mul_table
        if table is not None:
            return table[a * self.q + b]
        prod = _poly_mul(self._digits[a], self._digits[b], self.p)
        if len(prod) >= len(self.modulus):
            _, prod = _poly_divmod(prod, self.modulus, self.p)
        return self.idx_of(prod)

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        inv = _poly_inv_mod(self._digits[a], self.modulus, self.p)
        return self.idx_of(inv)

    def pow_idx(self, a: int, e: int) -> int:
        """Exponentiation by repeated squaring; e must be nonnegative."""
        if e < 0:
            raise ValueError("negative exponent; invert first")
        if self.k == 1:
            return pow(a, e, self.p)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_idx(result, base)
            base = self.mul_idx(base, base)
            e >>= 1
        return result

    def dot_idx(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Dot product sum a_i * b_i of two index vectors of equal length."""
        if self.k == 1:
            return sum(map(operator.mul, a, b)) % self.p
        acc = 0
        for x, y in zip(a, b):
            acc = self.add_idx(acc, self.mul_idx(x, y))
        return acc

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


@dataclass(frozen=True)
class FieldElement:
    """A field element: an owning spec plus its coefficient tuple."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    @cached_property
    def idx(self) -> int:
        return self.field.idx_of(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "FieldElement") -> None:
        if other.field != self.field:
            raise FieldMismatch(f"operands live in {self.field} and {other.field}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self.field.from_index(self.field.add_idx(self.idx, other.idx))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self.field.from_index(self.field.sub_idx(self.idx, other.idx))

    def __neg__(self) -> "FieldElement":
        return self.field.from_index(self.field.neg_idx(self.idx))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self.field.from_index(self.field.mul_idx(self.idx, other.idx))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self.field.from_index(
            self.field.mul_idx(self.idx, self.field.inv_idx(other.idx))
        )

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


def make_field(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct F_{p^k}, validating primality, the order budget, and the modulus."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise TypeError("p and k must be integers")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p**k > MAX_ORDER:
        raise BudgetExceeded(f"field order {p}^{k} exceeds the cap 2^20")
    if k == 1:
        if modulus is not None and tuple(modulus) != (0, 1):
            raise ValueError("for k = 1 the modulus is fixed to the formal polynomial X")
        return FieldSpec(p, 1, (0, 1))
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
        if not _is_irreducible(mod, p):
            raise NotIrreducible(f"modulus {mod} is reducible over F_{p}")
    return FieldSpec(p, k, mod)
