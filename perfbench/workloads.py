"""Workload definitions: the seeded inputs, the job list, and what each job
must print.

Every generated family is a fixed polynomial moved by a change of
coordinates drawn from the seed.  Point counts, scan totals and the
distribution of section counts do not change under a change of coordinates,
so each expected value is a closed form or a brute force from ``algebra``,
never a stored copy of an earlier output.  The bundled corpus is used
verbatim.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import algebra as alg


@dataclass
class Job:
    name: str
    argv: list[str]
    kind: str  # count | verify | bounds | eta | scan | moment | census
    points: int = 0  # |P^n(F_{q^e})| a count job enumerates
    tuples: int = 0  # size of the covector-tuple space a scan or moment walks
    expect: dict = field(default_factory=dict)


@dataclass
class Family:
    name: str
    p: int
    k: int
    nvars: int
    dim: int
    singdim: int
    polys: list[dict]
    path: str = ""
    betti: int | None = None

    @property
    def q(self) -> int:
        return self.p**self.k

    @property
    def degree(self) -> int:
        out = 1
        for f in self.polys:
            out *= sum(next(iter(f)))
        return out


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: list[str]  # files the set-up probe loads
    fields: list[tuple[int, int]]  # extension fields the set-up probe builds


CONE = {(1, 1, 0, 0): 1, (0, 0, 2, 0): -1}  # X0 X1 - X2^2, vertex (0:0:0:1)
HYPERBOLIC = {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}  # X0 X1 - X2 X3
CONIC = {(1, 0, 1): 1, (0, 2, 0): -1}  # X0 X2 - X1^2
FERMAT_CURVE = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
FERMAT_SURFACE = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}
CONE_P4 = {(1, 1, 0, 0, 0): 1, (0, 0, 2, 0, 0): -1}  # vertex line X0 = X1 = X2 = 0
THREE_POINTS = {(2, 1): 1, (1, 2): 1}  # X0 X1 (X0 + X1) in P^1

CORPUS_BETTI = {"point2": 0, "empty2": 1, "smooth_quadric3_nonsing": 1}


def _family(rng, name, base, p, nvars, dim, singdim, *, k=1, betti=None, moves="any"):
    """Move ``base`` by a change of coordinates drawn from ``rng``.

    The kind of change is chosen so that the cost of each job does not move
    with the seed.  "any" is a uniform element of GL_nvars(F_p): it suits jobs
    whose work is fixed by the counts alone.  "monomial" is a permutation
    times a diagonal, for count families: a dense change triples the terms of
    a Fermat cubic and with them the cost of every evaluation.  "cone" is
    uniform on the first three coordinates and fixes the rest, so the vertex
    of a cone over a conic stays last in enumeration order; a scan stops at
    the first singular point of a failing section, and a vertex moved to the
    front would halve the cost of the P^4 cone scan on some seeds."""
    base = {e: c % p for e, c in base.items()}
    if moves == "monomial":
        matrix = alg.random_monomial(rng, nvars, p)
    elif moves == "cone":
        block = alg.random_gl(rng, 3, p)
        matrix = [[block[i][j] if i < 3 and j < 3 else int(i == j) for j in range(nvars)]
                  for i in range(nvars)]
    else:
        matrix = alg.random_gl(rng, nvars, p)
    poly = alg.substitute(base, matrix, p)
    return Family(name, p, k, nvars, dim, singdim, [poly], betti=betti)


def _write(fam: Family, workdir: Path) -> None:
    path = workdir / f"{fam.name}.var"
    path.write_text(alg.var_text(fam.p, fam.k, fam.nvars, fam.dim, fam.singdim, fam.polys))
    fam.path = str(path)


def _betti_args(fam: Family) -> list[str]:
    return [] if fam.betti is None else ["--betti", str(fam.betti)]


def count_job(fam: Family, n: int, ext: int = 1) -> Job:
    argv = ["count", fam.path] + (["--ext", str(ext)] if ext > 1 else [])
    label = f"count:{fam.name}" + (f":e{ext}" if ext > 1 else "")
    points = alg.count_projective(fam.q**ext, fam.nvars - 1)
    return Job(label, argv, "count", points=points, expect={"n": n})


def verify_job(fam: Family, n: int) -> Job:
    return Job(
        f"verify:{fam.name}",
        ["verify", fam.path] + _betti_args(fam),
        "verify",
        points=alg.count_projective(fam.q, fam.nvars - 1),
        expect={"n": n, "p_r": alg.count_projective(fam.q, fam.dim)},
    )


def bounds_job(fam: Family) -> Job:
    return Job(
        f"bounds:{fam.name}",
        ["bounds", fam.path] + _betti_args(fam),
        "bounds",
        expect={"trivial": fam.degree * alg.count_projective(fam.q, fam.dim)},
    )


def scan_job(fam: Family, mode: str, expect: dict, *, max_ext=1, workers=1, same_as=None) -> Job:
    argv = ["bertini-scan", fam.path, "--mode", mode]
    label = f"scan:{fam.name}:{mode}"
    if max_ext > 1:
        argv += ["--max-ext", str(max_ext)]
        label += f":x{max_ext}"
    if workers > 1:
        argv += ["--workers", str(workers)]
        label += f":w{workers}"
    expect = dict(expect)
    if same_as is not None:
        expect["same_as"] = same_as
    return Job(label, argv, "scan", tuples=expect["total"], expect=expect)


def moment_jobs(fam: Family, s: int, stats: dict, which=("moment", "census")) -> list[Job]:
    jobs = []
    if "moment" in which:
        jobs.append(Job(f"moment:{fam.name}:s{s}", ["second-moment", fam.path, "--s", str(s)],
                        "moment", tuples=stats["total"], expect=stats))
    if "census" in which:
        jobs.append(Job(f"census:{fam.name}:s{s}", ["hooley-census", fam.path, "--s", str(s)],
                        "census", tuples=stats["total"], expect=stats))
    return jobs


def _stats(fam: Family, s: int) -> dict:
    return alg.moment_stats(fam.polys, fam.nvars, alg.GF(fam.p, fam.k), s)


def _base_count(fam: Family) -> int:
    return alg.count_points(fam.polys, fam.nvars, fam.p, fam.k)


def _preflight(fams: list[Family]) -> list[Job]:
    """The `verify` a user runs on each input before the long jobs.  It also
    keeps the estimate code (bounds, radicals) in use on every workload."""
    return [verify_job(fam, _base_count(fam)) for fam in fams]


# ---------------------------------------------------------------------------


def extcount(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    fams = [
        _family(rng, "cone3", CONE, 3, 4, 2, 0, moves="monomial"),
        _family(rng, "hyperbolic5", HYPERBOLIC, 5, 4, 2, -1, betti=1, moves="monomial"),
        _family(rng, "conic2", CONIC, 2, 3, 1, -1, moves="monomial"),
        _family(rng, "conic17", CONIC, 17, 3, 1, -1, moves="monomial"),
        _family(rng, "points17", THREE_POINTS, 17, 2, 0, -1, moves="monomial"),
        _family(rng, "fermat_curve5", FERMAT_CURVE, 5, 3, 1, -1, moves="monomial"),
        _family(rng, "fermat_surface5", FERMAT_SURFACE, 5, 4, 2, -1, betti=6, moves="monomial"),
    ]
    cone, hyper, conic2, conic17, points, curve, surface = fams
    for fam in fams:
        _write(fam, workdir)
    n1 = _base_count(curve)
    # (family, e, |V(F_{p^e})| from a closed form, the Weil recurrence or a brute force)
    plan = [
        (cone, 3, 27**2 + 27 + 1),
        (hyper, 2, (25 + 1) ** 2),
        (conic2, 7, 128 + 1),  # q = 128: multiplication table
        (points, 3, 3),  # q = 4913 > 256: no table
        (curve, 3, alg.weil_count(5, n1, 3)),
        (surface, 2, alg.count_points(surface.polys, 4, 5, 2)),
    ]
    jobs = _preflight([cone, conic17])
    jobs.append(scan_job(cone, "projective", alg.cone_scan(3, 3, 0, "projective")))
    jobs += moment_jobs(curve, 0, _stats(curve, 0), which=("moment",))
    jobs += [count_job(fam, n, e) for fam, e, n in plan]
    return Workload("extcount", jobs, [f.path for f in fams], [(f.p, e) for f, e, _ in plan])


def scan(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    cone = _family(rng, "cone11", CONE, 11, 4, 2, 0, moves="cone")
    quadric = _family(rng, "quadric3", HYPERBOLIC, 3, 4, 2, 0)
    cone_p4 = _family(rng, "cone_p4_3", CONE_P4, 3, 5, 3, 1, moves="cone")
    fams = [cone, quadric, cone_p4]
    for fam in fams:
        _write(fam, workdir)
    jobs = _preflight(fams)
    jobs += moment_jobs(quadric, 0, _stats(quadric, 0), which=("moment",))
    affine = scan_job(cone, "affine", alg.cone_scan(11, 3, 0, "affine"))
    jobs += [
        affine,
        scan_job(cone, "projective", alg.cone_scan(11, 3, 0, "projective")),
        scan_job(cone, "affine", alg.cone_scan(11, 3, 0, "affine"), workers=2, same_as=affine.name),
        scan_job(quadric, "affine", alg.smooth_quadric_scan(3, "affine"), max_ext=2),
        scan_job(cone_p4, "projective", alg.cone_scan(3, 4, 1, "projective")),
    ]
    return Workload("scan", jobs, [f.path for f in fams], [(3, 2)])


def census(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    cone = _family(rng, "cone7", CONE, 7, 4, 2, 0)
    cone_p4 = _family(rng, "cone_p4_4", CONE_P4, 2, 5, 3, 1, k=2)
    small = _family(rng, "cone3", CONE, 3, 4, 2, 0)
    fams = [cone, cone_p4, small]
    for fam in fams:
        _write(fam, workdir)
    jobs = _preflight(fams[:2])
    jobs.append(scan_job(small, "projective", alg.cone_scan(3, 3, 0, "projective")))
    jobs += moment_jobs(cone, 0, _stats(cone, 0))
    jobs += moment_jobs(cone_p4, 1, _stats(cone_p4, 1))
    return Workload("census", jobs, [f.path for f in fams], [])


def _read_corpus_file(path: Path) -> Family:
    """Just enough of the .var grammar for the bundled prime-field files."""
    values, polys = {}, []
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep or line.lstrip().startswith("#"):
            continue
        key, value = key.strip(), value.split("#")[0].strip()
        if key == "poly":
            polys.append(value)
        else:
            values[key] = int(value)
    p, nvars = values["p"], values["nvars"]
    parsed = []
    for text in polys:
        poly = {}
        for term in text.split(" + "):
            coeff, _, exps = term.partition(":")
            poly[tuple(int(e) for e in exps.split(","))] = int(coeff) % p
        parsed.append(poly)
    name = path.stem
    return Family(name, p, values.get("k", 1), nvars, values["dim"], values["singdim"],
                  parsed, path=str(path), betti=CORPUS_BETTI.get(name))


def corpus(seed: int, workdir: Path, root: Path) -> Workload:
    rng = random.Random(seed)
    fams = {}
    jobs = []
    for path in sorted((root / "varieties").glob("*.var")):
        fam = _read_corpus_file(path)
        fams[fam.name] = fam
        n = _base_count(fam)
        jobs += [count_job(fam, n), verify_job(fam, n), bounds_job(fam)]
    for _ in range(2):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        m = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 4) for _ in range(m))
        dims = tuple(rng.randint(1, 3) for _ in range(m))
        argv = ["eta", "--q", str(q), "--d", ",".join(map(str, degrees)),
                "--n", ",".join(map(str, dims))]
        jobs.append(Job(f"eta:{q}:{degrees}:{dims}", argv, "eta",
                        expect={"value": alg.eta(q, degrees, dims)}))
    cone2, cone5 = fams["cone2"], fams["cone5"]
    jobs += [
        scan_job(cone2, "affine", alg.cone_scan(2, 3, 0, "affine")),
        scan_job(cone5, "affine", alg.cone_scan(5, 3, 0, "affine")),
        scan_job(cone5, "projective", alg.cone_scan(5, 3, 0, "projective")),
    ]
    jobs += moment_jobs(cone2, 0, _stats(cone2, 0), which=("moment",))
    jobs += moment_jobs(cone2, 1, _stats(cone2, 1), which=("census",))
    jobs += moment_jobs(cone5, 0, _stats(cone5, 0), which=("census",))
    jobs += moment_jobs(cone5, 1, _stats(cone5, 1), which=("moment",))
    return Workload("corpus", jobs, [f.path for f in fams.values()], [])


BUILDERS = {
    "extcount": lambda seed, workdir, root: extcount(seed, workdir),
    "scan": lambda seed, workdir, root: scan(seed, workdir),
    "census": lambda seed, workdir, root: census(seed, workdir),
    "corpus": corpus,
}


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED DIR: write the inputs of one
    # run to DIR and list each job's command line with its expected values.
    import sys

    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    wl = BUILDERS[name](seed, out, Path(__file__).resolve().parent.parent)
    for job in wl.jobs:
        print("cisect " + " ".join(job.argv), job.expect)
