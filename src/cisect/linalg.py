"""Exact row-echelon rank and reduced row-echelon forms over a finite field.

Rows are sequences of packed element indices (see ffield.FieldSpec).  One
elimination, ``echelon_idx``, serves everything here: the rank is its pivot
count, the reduced form keys a subspace by its spanning rows, and the null
space lists the covectors that vanish on them.
"""
from __future__ import annotations

from typing import Sequence

from .ffield import FieldSpec


def echelon_idx(
    rows: Sequence[Sequence[int]], spec: FieldSpec
) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row-echelon form of ``rows``, and their
    pivot columns; a pivot that is already 1 costs no inversion."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        if rank == len(work):
            break
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        if prow[col] != 1:
            inv = spec.inv_idx(prow[col])
            prow[col:] = [spec.mul_idx(inv, a) for a in prow[col:]]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != rank:
                row[col:] = [
                    spec.sub_idx(a, spec.mul_idx(f, b)) for a, b in zip(row[col:], prow[col:])
                ]
        pivots.append(col)
    return work[: len(pivots)], pivots


def rank_idx(rows: Sequence[Sequence[int]], spec: FieldSpec) -> int:
    """Rank of the matrix whose entries are packed field-element indices."""
    return len(echelon_idx(rows, spec)[1])


def rref_idx(
    rows: Sequence[Sequence[int]], spec: FieldSpec
) -> tuple[tuple[int, ...], ...] | None:
    """Reduced row-echelon form of independent rows, or None when the rows
    are linearly dependent.  Two independent tuples span the same subspace
    iff their forms are equal, so the form is the subspace's key."""
    form, _ = echelon_idx(rows, spec)
    return tuple(map(tuple, form)) if len(form) == len(rows) else None


def nullspace_idx(
    rows: Sequence[Sequence[int]], spec: FieldSpec, ncols: int
) -> list[tuple[int, ...]]:
    """A basis of {y in F^ncols : r . y = 0 for every row r}: one vector per
    non-pivot column f, with 1 at f and 0 at the other non-pivot columns."""
    form, pivots = echelon_idx(rows, spec)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        y = [0] * ncols
        y[f] = 1
        for row, c in zip(form, pivots):
            y[c] = spec.neg_idx(row[f])
        basis.append(tuple(y))
    return basis
