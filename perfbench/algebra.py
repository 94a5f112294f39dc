"""The benchmark's own finite-field algebra, written apart from cisect.

Everything the checks compare against is computed here: polynomial expansion
under a change of coordinates, a small GF(p^k) built from its own modulus,
projective point enumeration, brute-force point counts, and brute-force
section statistics over every covector tuple.  Nothing imports cisect, so a
fault in the program cannot leak into the expected values.

Polynomials are dicts ``{exponent tuple: coefficient in [0, p)}`` with
coefficients in the prime field.
"""
from __future__ import annotations

import itertools
import random

import numpy as np


# ---------------------------------------------------------------------------
# polynomials over F_p


def poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def substitute(f: dict, matrix: list[list[int]], p: int) -> dict:
    """f(A y): every X_i becomes the linear form sum_j A[i][j] Y_j."""
    nv = len(matrix)
    forms = [
        {tuple(int(j == k) for k in range(nv)): c % p for j, c in enumerate(row) if c % p}
        for row in matrix
    ]
    out: dict = {}
    for exps, coeff in f.items():
        term = {(0,) * nv: coeff % p}
        for i, e in enumerate(exps):
            for _ in range(e):
                term = poly_mul(term, forms[i], p)
        for m, c in term.items():
            out[m] = (out.get(m, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def det_mod(matrix: list[list[int]], p: int) -> int:
    a = [row[:] for row in matrix]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def random_gl(rng: random.Random, n: int, p: int) -> list[list[int]]:
    """A uniformly random element of GL_n(F_p)."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if det_mod(m, p):
            return m


def random_monomial(rng: random.Random, n: int, p: int) -> list[list[int]]:
    """A random permutation matrix times a random invertible diagonal; it keeps
    the number of terms of every polynomial, so the cost of evaluating it too."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.randrange(1, p)
    return m


def format_poly(f: dict, k: int = 1) -> str:
    """cisect's term grammar; over F_{p^k} a prime-field constant c is 'c;0;...'."""
    pad = ";0" * (k - 1)
    return " + ".join(
        f"{c}{pad}:" + ",".join(str(e) for e in exps)
        for exps, c in sorted(f.items(), reverse=True)
    )


def var_text(p: int, k: int, nvars: int, dim: int, singdim: int, polys: list[dict]) -> str:
    lines = ["[field]", f"p = {p}"]
    if k > 1:
        lines.append(f"k = {k}")
    lines += ["[variety]", f"nvars = {nvars}", f"dim = {dim}", f"singdim = {singdim}"]
    lines += [f"poly = {format_poly(f, k)}" for f in polys]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# GF(p^k) as F_p[t]/(m) with the benchmark's own modulus


class GF:
    """Addition and multiplication tables of F_{p^k} on packed indices.

    The modulus is the first monic polynomial (in this module's own search
    order, highest coefficients first) whose quotient ring has no zero
    divisors.  Which modulus is used does not matter: counts do not depend on
    the model of the field."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p**k
        q = self.q
        idx = np.arange(q)
        digits = np.stack([(idx // p**i) % p for i in range(k)], axis=1)
        weights = p ** np.arange(k)
        self.add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        if k == 1:
            self.mul = np.outer(idx, idx) % p
        else:
            for tail in itertools.product(range(p), repeat=k):
                mul = self._mul_table(digits, weights, list(tail) + [1])
                if np.count_nonzero(mul[1:, 1:] == 0) == 0:
                    break
            self.mul = mul

    def _mul_table(self, digits, weights, modulus):
        p, k, q = self.p, self.k, self.q
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                prod[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
        prod %= p
        for top in range(2 * k - 2, k - 1, -1):
            lead = prod[:, :, top].copy()
            for i in range(k + 1):
                prod[:, :, top - k + i] -= lead * modulus[i]
            prod %= p
        return prod[:, :, :k] @ weights

    def pow(self, x: np.ndarray, e: int) -> np.ndarray:
        out = np.ones_like(x)
        for _ in range(e):
            out = self.mul[out, x]
        return out


def projective_points(q: int, n: int) -> np.ndarray:
    """Canonical representatives of P^n(F_q), one row each."""
    blocks = []
    for pivot in range(n + 1):
        free = n - pivot
        tail = np.array(list(itertools.product(range(q), repeat=free)), dtype=np.int64)
        tail = tail.reshape(q**free, free)
        head = np.zeros((len(tail), pivot + 1), dtype=np.int64)
        head[:, pivot] = 1
        blocks.append(np.hstack([head, tail]))
    return np.vstack(blocks)


def affine_vectors(q: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64).reshape(q**n, n)


def evaluate(f: dict, pts: np.ndarray, gf: GF) -> np.ndarray:
    acc = np.zeros(len(pts), dtype=np.int64)
    for exps, c in f.items():
        term = np.full(len(pts), c, dtype=np.int64)
        for j, e in enumerate(exps):
            if e:
                term = gf.mul[term, gf.pow(pts[:, j], e)]
        acc = gf.add[acc, term]
    return acc


def rational_points(polys: list[dict], nvars: int, gf: GF) -> np.ndarray:
    pts = projective_points(gf.q, nvars - 1)
    keep = np.ones(len(pts), dtype=bool)
    for f in polys:
        keep &= evaluate(f, pts, gf) == 0
    return pts[keep]


def count_points(polys: list[dict], nvars: int, p: int, k: int = 1) -> int:
    return len(rational_points(polys, nvars, GF(p, k)))


def count_projective(q: int, n: int) -> int:
    return sum(q**i for i in range(n + 1))


# ---------------------------------------------------------------------------
# closed forms


def gl_order(q: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def gaussian_binomial(n: int, m: int, q: int) -> int:
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def weil_count(q: int, n1: int, e: int) -> int:
    """N_e = q^e + 1 - (alpha^e + conj(alpha)^e) for a genus-1 curve with N_1 points."""
    a = q + 1 - n1
    s_prev, s = 2, a
    for _ in range(e - 1):
        s_prev, s = s, a * s - q * s_prev
    return q**e + 1 - s


def cone_scan(q: int, n: int, s: int, mode: str) -> dict:
    """Scan counts for a quadric cone over a smooth conic whose vertex is a
    linear space of projective dimension s: a section by s+1 covectors is
    smooth exactly when its codimension-(s+1) subspace misses the vertex, and
    q^{(n-s)(s+1)} subspaces do.  Each subspace has |GL_{s+1}| affine bases,
    |GL_{s+1}| / (q-1)^{s+1} of them in canonical projective form."""
    m = s + 1
    good = q ** ((n - s) * m)
    bad = gaussian_binomial(n + 1, m, q) - good
    weight = gl_order(q, m)
    if mode == "projective":
        weight //= (q - 1) ** m
        total = count_projective(q, n) ** m
    else:
        total = q ** ((n + 1) * m)
    return {"total": total, "pass": good * weight, "rank_fail": bad * weight,
            "degenerate": total - (good + bad) * weight}


def smooth_quadric_scan(q: int, mode: str) -> dict:
    """Plane sections of a smooth quadric surface in P^3: a section is singular
    exactly at the tangent planes, one per point, (q+1)^2 of them."""
    total = count_projective(q, 3) if mode == "projective" else q**4
    scale = 1 if mode == "projective" else q - 1
    fail = (q + 1) ** 2 * scale
    return {"total": total, "pass": (count_projective(q, 3) - (q + 1) ** 2) * scale,
            "rank_fail": fail, "degenerate": 1 if mode == "affine" else 0}


def eta(q: int, degrees: tuple[int, ...], dims: tuple[int, ...]) -> int:
    full = q ** sum(n + 1 for n in dims)
    rest = 1
    for d, n in zip(degrees, dims):
        rest *= q ** (n + 1) - d * q**n
    return full - rest


# ---------------------------------------------------------------------------
# brute force over every covector tuple


def section_counts(polys: list[dict], nvars: int, gf: GF, s: int) -> np.ndarray:
    """N(gamma) for every (s+1)-tuple of covectors of F_q^nvars, counted
    projectively; tuple order is irrelevant to the sums taken from it."""
    pts = rational_points(polys, nvars, gf)
    covs = affine_vectors(gf.q, nvars)
    dots = np.zeros((len(covs), len(pts)), dtype=np.int64)
    for j in range(nvars):
        dots = gf.add[dots, gf.mul[covs[:, j][:, None], pts[:, j][None, :]]]
    incidence = (dots == 0).astype(np.int64)
    if s == 0:
        return incidence.sum(axis=1)
    if s == 1:
        return (incidence @ incidence.T).ravel()
    raise ValueError("brute force covers s = 0 and s = 1")


def moment_stats(polys: list[dict], nvars: int, gf: GF, s: int) -> dict:
    """Sum of squared deviations, the square-root census, and their closed form."""
    n_points = len(rational_points(polys, nvars, gf))
    counts = section_counts(polys, nvars, gf, s)
    qs = gf.q ** (s + 1)
    dev = n_points - qs * counts
    sq = dev * dev
    total = gf.q ** (nvars * (s + 1))
    if len(counts) != total:
        raise ValueError(f"{len(counts)} section counts for {total} tuples")
    return {
        "n_points": n_points,
        "sum_sq": int(sq.sum()),
        "closed_form": n_points * total * (qs - 1),
        "satisfying": int(np.count_nonzero(sq <= 2 * n_points * (qs - 1))),
        "total": total,
    }
