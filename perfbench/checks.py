"""Output checks: each job's output against the values ``workloads`` derived
apart from the program.  A check returns a list of problems; an empty list
means the output is right."""
from __future__ import annotations

import re

from workloads import Job


def _ints(pattern: str, text: str) -> list[int] | None:
    m = re.search(pattern, text)
    return [int(g) for g in m.groups()] if m else None


def check_count(job: Job, out: str, rc: int, others: dict) -> list[str]:
    lines = out.split()
    got = lines[-1] if lines else ""
    if got != str(job.expect["n"]):
        return [f"count {got!r}, expected {job.expect['n']}"]
    return []


def check_verify(job: Job, out: str, rc: int, others: dict) -> list[str]:
    got = _ints(r"^N=(\d+) p_r=(\d+) deviation=(\d+)$", out.splitlines()[0] if out else "")
    n, p_r = job.expect["n"], job.expect["p_r"]
    problems = []
    if got != [n, p_r, abs(n - p_r)]:
        problems.append(f"header {got}, expected N={n} p_r={p_r}")
    if rc != 0 or " FAIL" in out:
        problems.append(f"exit {rc}: an estimate failed against the true count")
    return problems


def check_bounds(job: Job, out: str, rc: int, others: dict) -> list[str]:
    lines = out.splitlines()
    if not lines or lines[0] != "estimate,rhs,applicable,condition":
        return ["missing CSV header"]
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    row = rows.get("trivial-projective")
    if row is None or row[1] != str(job.expect["trivial"]) or row[2] != "true":
        return [f"trivial-projective row {row}, expected rhs {job.expect['trivial']}"]
    return []


def check_eta(job: Job, out: str, rc: int, others: dict) -> list[str]:
    got = out.strip()
    if got != str(job.expect["value"]):
        return [f"eta {got!r}, expected {job.expect['value']}"]
    return []


def scan_summary(out: str) -> dict:
    summary = {}
    for line in out.splitlines():
        parts = line.split(",", 2)
        if len(parts) == 3 and parts[0] == "summary":
            summary[parts[1]] = parts[2]
    return summary


def check_scan(job: Job, out: str, rc: int, others: dict) -> list[str]:
    twin = job.expect.get("same_as")
    if twin is not None:
        if twin not in others:
            return [f"no output of {twin} to compare with"]
        if out != others[twin]:
            return [f"CSV differs from the CSV of {twin}"]
        return []
    summary = scan_summary(out)
    problems = []
    for key in ("total", "pass", "rank_fail", "degenerate"):
        if summary.get(key) != str(job.expect[key]):
            problems.append(f"{key} {summary.get(key)}, expected {job.expect[key]}")
    witnesses = sum(1 for line in out.splitlines() if line.startswith("witness,"))
    if witnesses != min(10, job.expect["rank_fail"]):
        problems.append(f"{witnesses} witness rows")
    if rc != 0:
        problems.append(f"exit {rc}: pass floor or fail ceiling violated")
    return problems


def check_moment(job: Job, out: str, rc: int, others: dict) -> list[str]:
    got = _ints(r"computed=(\d+) lemma=(\d+) EQUAL", out)
    want = [job.expect["sum_sq"], job.expect["closed_form"]]
    if got != want or job.expect["sum_sq"] != job.expect["closed_form"] or rc != 0:
        return [f"moment {got} exit {rc}, expected brute force and lemma {want}"]
    return []


def check_census(job: Job, out: str, rc: int, others: dict) -> list[str]:
    got = _ints(r"satisfying=(\d+) total=(\d+) HALF-MASS", out)
    want = [job.expect["satisfying"], job.expect["total"]]
    problems = []
    if got != want or rc != 0:
        problems.append(f"census {got} exit {rc}, expected brute force {want}")
    # Markov with the moment identity: fewer than half the tuples can have a
    # squared deviation above twice its mean N (q^{s+1} - 1).
    if 2 * job.expect["satisfying"] < job.expect["total"]:
        problems.append("half-mass fails in the brute force itself")
    return problems


CHECKS = {
    "count": check_count,
    "verify": check_verify,
    "bounds": check_bounds,
    "eta": check_eta,
    "scan": check_scan,
    "moment": check_moment,
    "census": check_census,
}


def check(job: Job, out: str, rc: int, others: dict) -> list[str]:
    """Problems with one job's output; ``others`` maps earlier job names in the
    same pass to their standard output."""
    return CHECKS[job.kind](job, out, rc, others)
