"""Exact arithmetic with sums of integer square roots.

Estimate right-hand sides all have the shape  c + sum_i a_i * sqrt(m_i)  with
nonnegative integers a_i, m_i.  Comparing an integer against such a value must
not go through floating point, so this module computes exact floors via
integer square roots at increasing decimal scale.  The refinement terminates
because a sum with at least one genuine (non-square) radical is irrational:
square roots of distinct non-square integers are linearly independent over
the rationals, so the sum can never land exactly on an integer boundary.

Decimal output is for display only and never feeds a verdict.
"""
from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

from ._record import record

if TYPE_CHECKING:
    from decimal import Decimal


@record
class RootSum:
    """Value ``const + sum(a * sqrt(m) for a, m in roots)``; all entries >= 0
    except possibly ``const``, and every stored radicand is a non-square."""

    const: int = 0
    roots: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, const: int = 0, roots: tuple | list = ()) -> "RootSum":
        """Build a RootSum, folding perfect-square radicands into the constant."""
        total = const
        kept: dict[int, int] = {}
        for a, m in roots:
            if a < 0 or m < 0:
                raise ValueError("RootSum terms must be nonnegative")
            if a == 0 or m == 0:
                continue
            s = isqrt(m)
            if s * s == m:
                total += a * s
            else:
                kept[m] = kept.get(m, 0) + a
        return cls(total, tuple(sorted(kept.items())))

    @property
    def is_integer(self) -> bool:
        return not self.roots

    def floor(self) -> int:
        if not self.roots:
            return self.const
        digits = 16
        while True:
            scale = 10**digits
            sq = scale * scale
            lo = sum(a * isqrt(m * sq) for m, a in self.roots)
            hi = lo + sum(a for _, a in self.roots)
            if lo // scale == hi // scale:
                return self.const + lo // scale
            digits *= 2

    def ceil(self) -> int:
        # a surviving radical makes the value irrational, so ceil = floor + 1
        return self.const if not self.roots else self.floor() + 1

    def geq_int(self, x: int) -> bool:
        """Exact test ``value >= x`` for an integer x."""
        return self.floor() >= x

    def to_decimal(self, prec: int = 40) -> Decimal:
        # only display needs decimal, so a run that prints no radical skips it
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = prec
            total = Decimal(self.const)
            for m, a in self.roots:
                total += Decimal(a) * Decimal(m).sqrt()
            return +total


def display_30(value: RootSum) -> str:
    """Decimal rendering with at least 30 significant digits (exact for integers)."""
    if value.is_integer:
        return str(value.const)
    return str(value.to_decimal(prec=36))


def display_12(value: RootSum) -> str:
    """CSV rendering: exact decimal for integers, 12 significant digits otherwise."""
    if value.is_integer:
        return str(value.const)
    return format(value.to_decimal(prec=40), ".11E")
