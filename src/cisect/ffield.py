"""Exact arithmetic in finite fields F_q with q = p^k up to 2**20.

Elements of F_{p^k} are residue polynomials modulo a monic irreducible
modulus of degree k, stored as coefficient tuples ascending from the constant
term.  Packing the coefficients as a base-p integer gives each element a
stable index in [0, q); all hot loops work on these indices and only the
public surface wraps them in FieldElement objects.

make_field decides a field's arithmetic once, by its class.  A prime field
is a FieldSpec, which computes on the indices directly, as integers mod p.
An extension field is a _LogField, a FieldSpec subclass that overrides every
arithmetic method to compute through discrete-logarithm tables (Lidl and
Niederreiter, Finite Fields, section 9.2) over g, the smallest index of
multiplicative order q - 1:

    exp[i]  = g^i for 0 <= i < 2(q - 1), so exp[log a + log b] needs no reduction
    log[a]  = the i in [0, q - 1) with g^i = a; a negative sentinel at a = 0
    zech[d] = log(1 + g^d), the sentinel where 1 + g^d = 0 (odd p only)

A product, inverse or power is one lookup, and a sum one Zech lookup, or an
XOR of the indices when p = 2.  The tables are built on the first arithmetic
operation that needs them, not by make_field, by repeated multiplication by g
(a shift and XOR when p = 2, a sum of chunk-table lookups when p is odd).
They are flat arrays of about 16 bytes per element (24 when p is odd) and
take 1 to 2 s to build at q = 2^20.
Each class also evaluates a polynomial's terms at a point (``eval_terms``),
so the polynomial code calls one evaluator and never asks which field it
is in.
make_field returns one spec per (p, k, modulus), so each field builds its
tables once per process; a pickled _LogField carries none and rebuilds them
on demand.

When no modulus is supplied the lexicographically smallest monic irreducible
polynomial of degree k is selected (coefficients compared ascending from the
constant term), so two independently built specs for the same (p, k) are
interchangeable.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    NotIrreducible,
    NotPrime,
)

if TYPE_CHECKING:
    from array import array

MAX_ORDER = 1 << 20
# the most entries, summed over its chunk tables, that an odd-p field's
# power build may use
_CHUNK_ENTRIES = 1 << 14
# the discrete log of 0: so negative that a term with a zero factor keeps a
# negative log, whatever its other logs (each below 2^20, times a degree of
# at most 2^16) add
ZERO_LOG = -(1 << 62)


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


def _poly_powmod(a: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    result, base = [1], list(a)
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, p), modulus, p)[1]
        base = _poly_divmod(_poly_mul(base, base, p), modulus, p)[1]
        e >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


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


@cache
def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # itertools.product yields coefficient tuples in ascending lexicographic
    # order with the constant term compared first; for k > 1 that term starts
    # at 1, since X divides every candidate without one
    lows = range(1 if k > 1 else 0, p)
    for tail in itertools.product(lows, *[range(p)] * (k - 1)):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise NotIrreducible(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


def _odd_powers(
    p: int, k: int, low: Sequence[int], g: Sequence[int], n: int
) -> Iterator[int]:
    """Indices of g^0, ..., g^(n-1) in F_p[X]/(X^k + low(X)) for odd p; g is
    given by its k digits, lowest first.

    Multiplication by g is F_p-linear, so g times x is a sum of one table
    entry per chunk of c digits of x.  The running power keeps its digits in
    lanes of ``lane`` bits of one integer (SWAR), unreduced: a lane holds a
    sum of one reduced digit per chunk, and each table, indexed by the raw
    bits of its chunk's lanes, reduces them mod p itself.  An entry also
    carries its chunk's share of x's packed index in the low ``shift`` bits,
    so one sum of lookups gives the index of this power and the lanes of the
    next: a step is a few integer operations per chunk.
    """
    # c: the widest chunk whose tables stay small next to the field
    limit = min(_CHUNK_ENTRIES, p**k // 8)
    for c in range(k, 0, -1):
        chunks = -(-k // c)
        lane = (chunks * (p - 1)).bit_length()
        if chunks << (c * lane) <= limit:
            break
    # times[i]: the digits of g * X^i
    times, x = [], list(g)
    for _ in range(k):
        times.append(x)
        # times X: shift the digits up; X^k is -low
        x = [(a - x[-1] * b) % p for a, b in zip([0, *x[:-1]], low)]
    shift = (p**k).bit_length()
    parts = []
    for start in range(0, k, c):
        width = min(c, k - start)
        # g times each chunk value b (base-p digits, lowest first), reduced
        reduced = [[0] * k]
        for col in times[start:start + width]:
            reduced = [[(a + d * b) % p for a, b in zip(r, col)] for d in range(p) for r in reduced]
        packed = [
            (sum(a << (lane * i) for i, a in enumerate(r)) << shift) + b * p**start
            for b, r in enumerate(reduced)
        ]
        # the chunk value of each raw lane pattern, lane 0 lowest
        code = [0]
        for j in range(width):
            code = [b + v % p * p**j for v in range(1 << lane) for b in code]
        parts.append(([packed[b] for b in code], start * lane))
    mask, low_bits = (1 << (c * lane)) - 1, (1 << shift) - 1
    lanes = 1
    for _ in range(n):
        t = 0
        for table, at in parts:
            t += table[lanes >> at & mask]
        yield t & low_bits
        lanes = t >> shift


# ---------------------------------------------------------------------------


class LogTables(NamedTuple):
    """Discrete-log tables of F_{p^k} over a generator g of its
    multiplicative group; see the module docstring."""

    n: int  # q - 1, the order of g
    exp: array  # g^i for 0 <= i < 2n
    log: array  # log_g of each index; ZERO_LOG at 0
    zech: array | None  # log(1 + g^d) for 0 <= d < n; None when p = 2


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of F_{p^k}; also the arithmetic context.

    The ``*_idx`` methods operate on packed element indices (the coefficient
    tuple read as a base-p integer).  Index 0 is the zero element and index 1
    is the multiplicative identity.  This class computes in a prime field,
    as integers mod p.  Build specs with make_field, which returns a
    ``_LogField`` for k > 1.
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


class _LogField(FieldSpec):
    """F_{p^k} with k > 1: arithmetic through discrete-log tables, built on
    first use; see the module docstring."""

    def __getstate__(self) -> dict:
        # the log tables are rebuilt on demand; a pickle carries the field only
        return {"p": self.p, "k": self.k, "modulus": self.modulus}

    @cached_property
    def tables(self) -> LogTables:
        """The discrete-log tables; see the module docstring."""
        # loading array's extension module costs 128 KiB of RSS, so only a
        # process that builds tables pays it
        from array import array

        p, k, n = self.p, self.k, self.q - 1
        modulus = list(self.modulus)
        factors = _prime_factors(n)
        # g has order n iff g^(n/r) != 1 for every prime r dividing n
        g = next(
            g for g in range(2, n + 1)
            if all(_poly_powmod(self.coeffs_of(g), n // r, modulus, p) != [1] for r in factors)
        )
        exp = array("i")
        if p == 2:
            # indices are bit vectors: times X is a shift, reduced by an XOR
            overflow, mod_bits, x = 1 << k, self.idx_of(modulus), 1
            for _ in range(n):
                exp.append(x)
                acc = x if g & 1 else 0
                for bit in range(1, g.bit_length()):
                    x <<= 1
                    if x & overflow:
                        x ^= mod_bits
                    if g >> bit & 1:
                        acc ^= x
                x = acc
        else:
            exp.extend(_odd_powers(p, k, modulus[:k], self.coeffs_of(g), n))
        log = array("q", [ZERO_LOG]) * self.q
        for i, a in enumerate(exp):
            log[a] = i
        exp *= 2
        zech = None
        if p != 2:
            # 1 + a adds one to the constant digit of a's index
            zech = array(
                "q", (log[a - p + 1 if a % p == p - 1 else a + 1] for a in exp[:n])
            )
        return LogTables(n, exp, log, zech)

    def sum_logs(self, logs: Iterable[int]) -> int:
        """Index of the sum of g^s over ``logs``; a negative s stands for a
        zero term, and s may exceed q - 1."""
        n, exp, _, zech = self.tables
        if zech is None:  # p = 2: a sum is an XOR of indices
            acc = 0
            for s in logs:
                if s >= 0:
                    acc ^= exp[s % n]
            return acc
        acc = -1
        for s in logs:
            if s >= 0:
                if acc < 0:
                    acc = s % n
                else:
                    z = zech[(s - acc) % n]
                    acc = (acc + z) % n if z >= 0 else -1
        return exp[acc] if acc >= 0 else 0

    def add_idx(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        log = self.tables.log
        return self.sum_logs((log[a], log[b]))

    def sub_idx(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        n, _, log, _ = self.tables
        return self.sum_logs((log[a], log[b] + n // 2))

    def neg_idx(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        n, exp, log, _ = self.tables
        return exp[log[a] + n // 2]

    def mul_idx(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        _, exp, log, _ = self.tables
        return exp[log[a] + log[b]]

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        n, exp, log, _ = self.tables
        return exp[n - log[a]]

    def pow_idx(self, a: int, e: int) -> int:
        """a^e; e must be nonnegative, and 0^0 = 1."""
        if e < 0:
            raise ValueError("negative exponent; invert first")
        if not a:
            return 0 if e else 1
        n, exp, log, _ = self.tables
        return exp[log[a] * e % n]

    def dot_idx(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Dot product sum a_i * b_i of two index vectors of equal length."""
        log = self.tables.log
        return self.sum_logs(log[x] + log[y] for x, y in zip(a, b))

    def eval_terms(self, terms: Iterable[tuple[int, Sequence[int]]], point: Sequence[int]) -> int:
        """The sum of c * prod x_i^(e_i), as in FieldSpec.eval_terms, in the
        log domain: a term's log is log c + sum e_i log x_i, negative when a
        factor is zero, so each term costs one Zech addition."""
        log = self.tables.log
        logs = [log[x] for x in point]
        return self.sum_logs(log[c] + sum(map(operator.mul, e, logs)) for c, e in terms)


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
    if p**k > MAX_ORDER:
        raise BudgetExceeded(f"field order {p}^{k} exceeds the cap 2^20")
    if k == 1:
        if modulus is not None and tuple(modulus) != (0, 1):
            raise ValueError("for k = 1 the modulus is fixed to the formal polynomial X")
        mod = (0, 1)
    elif modulus is None:
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
        spec = _FIELDS[(p, k, mod)] = (_LogField if k > 1 else FieldSpec)(p, k, mod)
    return spec
