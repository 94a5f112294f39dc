"""Shared corpus builders for the test suite, and a fresh-interpreter runner.

Each builder returns a fresh descriptor; the corpus deliberately spans the
interesting shapes: a singular surface (cone), a smooth surface, a smooth
curve, a genus-0 curve, a zero-dimensional variety, and a pointless one.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from cisect import SparsePolynomial, VarietyDescriptor, make_field

VARIETY_DIR = Path(__file__).resolve().parent.parent / "varieties"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def prime_power(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if q % p == 0:
            k = 0
            while q > 1:
                q //= p
                k += 1
            return p, k
    raise ValueError(f"not a small prime power: {q}")


def field_of(q: int):
    p, k = prime_power(q)
    return make_field(p, k)


def poly(field, nvars, terms):
    return SparsePolynomial.from_terms(
        field, nvars, [(field.element(c), tuple(e)) for c, e in terms]
    )


def make_cone(q: int, sing_dim: int = 0) -> VarietyDescriptor:
    """Quadric cone X0*X1 - X2^2 in P^3; vertex (0:0:0:1)."""
    f = field_of(q)
    gen = poly(f, 4, [(1, (1, 1, 0, 0)), (-1, (0, 0, 2, 0))])
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=sing_dim)


def make_smooth_quadric(q: int, sing_dim: int = 0) -> VarietyDescriptor:
    """X0*X1 - X2*X3 in P^3, nonsingular; sing_dim 0 is a valid upper bound
    and lets the section scan run."""
    f = field_of(q)
    gen = poly(f, 4, [(1, (1, 1, 0, 0)), (-1, (0, 0, 1, 1))])
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=sing_dim)


def make_fermat_cubic(q: int) -> VarietyDescriptor:
    """X0^3 + X1^3 + X2^3 in P^2; smooth when char is not 3, a triple line
    in characteristic 3 (every point singular, so sing_dim = dim there)."""
    f = field_of(q)
    gen = poly(f, 3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])
    sing = 1 if f.p == 3 else -1
    return VarietyDescriptor.build(f, 3, [gen], dim=1, sing_dim=sing)


def make_conic(q: int) -> VarietyDescriptor:
    """Smooth plane conic X0*X2 - X1^2."""
    f = field_of(q)
    gen = poly(f, 3, [(1, (1, 0, 1)), (-1, (0, 2, 0))])
    return VarietyDescriptor.build(f, 3, [gen], dim=1, sing_dim=-1)


def make_single_point(q: int) -> VarietyDescriptor:
    """The point (1:0) in P^1, cut out by X1."""
    f = field_of(q)
    gen = poly(f, 2, [(1, (0, 1))])
    return VarietyDescriptor.build(f, 2, [gen], dim=0, sing_dim=-1)


def make_empty(q: int) -> VarietyDescriptor:
    """A pointless zero-dimensional scheme in P^1: the homogenization of the
    lex-smallest irreducible quadratic over F_q has no rational zeros."""
    p, k = prime_power(q)
    if k != 1:
        raise ValueError("empty-corpus helper only set up for prime fields")
    c0, c1, _ = make_field(p, 2).modulus
    f = make_field(p)
    gen = poly(f, 2, [(1, (2, 0)), (c1, (1, 1)), (c0, (0, 2))])
    return VarietyDescriptor.build(f, 2, [gen], dim=0, sing_dim=-1)


def make_cubic_surface(q: int = 3) -> VarietyDescriptor:
    """Cyclic cubic surface X0^2X1 + X1^2X2 + X2^2X3 + X3^2X0, smooth over
    F_3 and F_9; some singular sections only show up at extension level 2."""
    f = field_of(q)
    gen = poly(
        f, 4,
        [(1, (2, 1, 0, 0)), (1, (0, 2, 1, 0)), (1, (0, 0, 2, 1)), (1, (1, 0, 0, 2))],
    )
    return VarietyDescriptor.build(f, 4, [gen], dim=2, sing_dim=0)


def make_quadric_pair_p4(q: int) -> VarietyDescriptor:
    """The surface X0 X1 - X2 X3 = X0^2 + X2 X4 - X3^2 = 0 in P^4: a
    codimension-2 complete intersection, whose Jacobian has two rows."""
    f = field_of(q)
    gens = [
        poly(f, 5, [(1, (1, 1, 0, 0, 0)), (-1, (0, 0, 1, 1, 0))]),
        poly(f, 5, [(1, (2, 0, 0, 0, 0)), (1, (0, 0, 1, 0, 1)), (-1, (0, 0, 0, 2, 0))]),
    ]
    return VarietyDescriptor.build(f, 5, gens, dim=2, sing_dim=0)


def make_cone_p4(q: int) -> VarietyDescriptor:
    """The cone X0*X1 - X2^2 in P^4 over a conic, singular along the line
    X0 = X1 = X2 = 0; s = 1 makes its scan mark planes of covectors."""
    f = field_of(q)
    gen = poly(f, 5, [(1, (1, 1, 0, 0, 0)), (-1, (0, 0, 2, 0, 0))])
    return VarietyDescriptor.build(f, 5, [gen], dim=3, sing_dim=1)


def make_quadric_pair_p5(q: int) -> VarietyDescriptor:
    """The threefold X0 X1 - X2 X3 = X0^2 + X2 X4 - X3 X5 = 0 in P^5: a
    codimension-2 intersection whose s = 1 scan marks planes of covectors."""
    f = field_of(q)
    gens = [
        poly(f, 6, [(1, (1, 1, 0, 0, 0, 0)), (-1, (0, 0, 1, 1, 0, 0))]),
        poly(f, 6, [(1, (2, 0, 0, 0, 0, 0)), (1, (0, 0, 1, 0, 1, 0)), (-1, (0, 0, 0, 1, 0, 1))]),
    ]
    return VarietyDescriptor.build(f, 6, gens, dim=3, sing_dim=1)


def moment_corpus(q: int) -> list[VarietyDescriptor]:
    """The six-variety corpus used by the moment and census suites."""
    return [
        make_cone(q),
        make_smooth_quadric(q),
        make_fermat_cubic(q),
        make_conic(q),
        make_single_point(q),
        make_empty(q),
    ]
