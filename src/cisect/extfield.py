"""Extension fields F_{p^k}, k > 1: moduli and discrete-log arithmetic.

An extension field is a _LogField, a FieldSpec subclass that overrides
every arithmetic method to compute through discrete-logarithm tables (Lidl
and Niederreiter, Finite Fields, section 9.2) over g, the smallest index of
multiplicative order q - 1:

    exp[i]  = g^i for 0 <= i < 2(q - 1), so exp[log a + log b] needs no reduction
    log[a]  = the i in [0, q - 1) with g^i = a; a negative sentinel at a = 0
    zech[d] = log(1 + g^d), the sentinel where 1 + g^d = 0 (odd p only)

A product, inverse or power is one lookup, and a sum one Zech lookup, or an
XOR of the indices when p = 2.  The tables are built on the first arithmetic
operation that needs them, not by make_field, by repeated multiplication by g
(a shift and XOR when p = 2, a sum of chunk-table lookups when p is odd).
They are flat arrays of about 16 bytes per element (24 when p is odd) and
take 1 to 2 s to build at q = 2^20.  A pickled _LogField carries none and
rebuilds them on demand.

When no modulus is supplied make_field takes the lexicographically smallest
monic irreducible polynomial of degree k (coefficients compared ascending
from the constant term), so two independently built specs for the same
(p, k) are interchangeable.
"""
from __future__ import annotations

import operator
from functools import cache, cached_property
from itertools import compress, islice, product, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import NotIrreducible
from .ffield import FieldSpec, _prime_factors

if TYPE_CHECKING:
    from array import array

# the most entries, summed over its chunk tables, that an odd-p field's
# power build may use
_CHUNK_ENTRIES = 1 << 14
# the discrete log of 0: so negative that a term with a zero factor keeps a
# negative log, whatever its other logs (each below 2^20, times a degree of
# at most 2^16) add
ZERO_LOG = -(1 << 62)


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
        for tail in product(range(p), repeat=deg):
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
    for tail in product(lows, *[range(p)] * (k - 1)):
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

    def eval_nonzero(self, groups: Iterable[tuple], point: Sequence[int]) -> list[tuple]:
        """As FieldSpec.eval_nonzero, with the point's logs taken once for
        every group."""
        log, sum_logs = self.tables.log, self.sum_logs
        logs = [log[x] for x in point]
        return [
            (c, key) for key, terms in groups
            if (c := sum_logs(log[a] + sum(map(operator.mul, e, logs)) for a, e in terms))
        ]

    def power_row(self, j: int) -> Iterator[int]:
        """t^j for t = 1, ..., q - 1, as discrete logs."""
        n, _, log, _ = self.tables
        return map(n.__rmod__, map(j.__mul__, islice(log, 1, None)))

    def row_entry(self, a: int) -> int:
        """How a row stores the nonzero element a: as its discrete log."""
        return self.tables.log[a]

    def row_zeros(self, c0: int, terms: Iterable[tuple[int, Iterable[int]]]) -> list[int]:
        """As FieldSpec.row_zeros; a term c * t^j is g^(log c + r_t)."""
        n, exp, log, zech = self.tables
        if zech is None:  # p = 2: the terms' indices add as an XOR
            acc = repeat(c0)
            for c, row in terms:
                acc = map(operator.xor, acc, map(exp.__getitem__, map(log[c].__add__, row)))
            return list(compress(range(1, self.q), map(operator.not_, acc)))
        # sum_logs' Zech loop inline (a call per t costs 1.4x), against log(-c0)
        target, out = (log[c0] + n // 2) % n, []
        for t, logs in enumerate(zip(*[map(log[c].__add__, row) for c, row in terms]), 1):
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
