"""Checker self-test: every check must accept the program's real output and
reject a corrupted copy of it.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Runs one pass of each workload, then for every job corrupts its output the
way a faulty program might (a count off by one, pass and fail counts swapped,
a 2-worker CSV that differs from the 1-worker CSV, ...) and confirms that
the check reports a problem.  Exits 1 if any check accepts a corruption or
rejects a real output.
"""
from __future__ import annotations

import argparse
import re
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def _bump(pattern: str, text: str) -> str:
    """Add one to the first integer captured by ``pattern``."""
    m = re.search(pattern, text, flags=re.M)
    if m is None:
        raise ValueError(f"nothing matches {pattern!r}")
    start, end = m.span(1)
    return text[:start] + str(int(m.group(1)) + 1) + text[end:]


def _swap_pass_fail(text: str) -> str:
    p = re.search(r"^summary,pass,(\d+)$", text, flags=re.M).group(1)
    f = re.search(r"^summary,rank_fail,(\d+)$", text, flags=re.M).group(1)
    text = re.sub(r"^summary,pass,\d+$", f"summary,pass,{f}", text, flags=re.M)
    return re.sub(r"^summary,rank_fail,\d+$", f"summary,rank_fail,{p}", text, flags=re.M)


def corruptions(job: workloads.Job, out: str) -> list[tuple[str, str]]:
    if job.kind == "count":
        return [("count off by one", _bump(r"^(\d+)$", out))]
    if job.kind == "verify":
        return [("N off by one", _bump(r"^N=(\d+)", out)),
                ("an estimate FAILs", out.replace(" PASS", " FAIL", 1))]
    if job.kind == "bounds":
        return [("trivial bound off by one", _bump(r"^trivial-projective,(\d+),", out))]
    if job.kind == "eta":
        return [("eta off by one", _bump(r"^(-?\d+)$", out))]
    if job.kind == "scan" and "same_as" in job.expect:
        return [("worker CSV differs", _bump(r"^summary,pass,(\d+)$", out)),
                ("worker CSV loses a witness", out.rsplit("witness,", 1)[0])]
    if job.kind == "scan":
        return [("pass and fail swapped", _swap_pass_fail(out)),
                ("degenerate off by one", _bump(r"^summary,degenerate,(\d+)$", out))]
    if job.kind == "moment":
        return [("moment off by one", _bump(r"computed=(\d+)", out))]
    if job.kind == "census":
        return [("census off by one", _bump(r"satisfying=(\d+)", out))]
    raise ValueError(job.kind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(workloads.BUILDERS))
    args = parser.parse_args()
    bad = 0
    for name in args.workload:
        run.OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
        try:
            wl = workloads.BUILDERS[name](args.seed, workdir, run.ROOT)
            results = run.run_pass(wl, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outputs = {}
        for res, job in zip(results, wl.jobs):
            out = res.stdout
            real = checks.check(job, out, res.rc, outputs)
            if res.failed or real:
                print(f"REAL OUTPUT REJECTED {name} {job.name}: exit {res.rc} {real}")
                bad += 1
            for label, corrupted in corruptions(job, out):
                problems = checks.check(job, corrupted, res.rc, outputs)
                verdict = "rejects" if problems else "ACCEPTS"
                bad += not problems
                print(f"{verdict} {label:28s} {name} {job.name}: {problems[:1]}")
            outputs[job.name] = out
    print(f"selftest: {'FAIL' if bad else 'ok'} ({bad} problems)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
