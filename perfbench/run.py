"""cisect benchmark: drive the command line the way its users do.

    python3 perfbench/run.py --workload extcount|scan|census|corpus|all \
        --seed N --seconds S --trace 0|1

One client runs one cisect process per job, one after another (a closed loop
with a single client); spawn.py times each and reads its peak memory.  Every output is checked against values computed apart
from the program (see workloads.py and algebra.py).  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

--trace 0 measures the end-to-end metrics: set-up probes, then whole passes
over the job list for about ``--seconds`` (at least two passes); each job
counts with its fastest pass.  --trace 1 runs one plain pass and one traced
pass (each job under tracer.py) and reports the per-module metrics; the
traced pass's spans and counters go to .bench_out/trace_<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

import checks  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60
SETUP_SAMPLES = 7
MIN_PASSES = 2
POINT_KINDS = ("count", "verify")
TUPLE_KINDS = ("scan", "moment", "census")

ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


@dataclass
class Result:
    job: workloads.Job
    wall: float
    rc: int
    rss_mb: float
    failed: bool
    problems: list[str]
    stdout: str
    trace: dict = field(default_factory=dict)


def run_process(argv: list[str], workdir: Path) -> tuple[float, int, str, float]:
    """Wall time, exit code, standard output and peak RSS (MiB) of one
    process, run under spawn.py.  wait4 there reports the largest RSS among
    the process and the children it reaped, so scan workers are included."""
    report = workdir / "spawn.json"
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py"), str(report), *argv],
                                cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(JOB_TIMEOUT_S, kill_group)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
        out.seek(0)
        stdout = out.read().decode()
    if not report.exists():
        return JOB_TIMEOUT_S, -signal.SIGKILL, stdout, 0.0
    result = json.loads(report.read_text())
    report.unlink()
    return result["wall"], result["rc"], stdout, result["rss_mb"]


def run_pass(wl: workloads.Workload, workdir: Path, traced: bool = False) -> list[Result]:
    results, outputs = [], {}
    for job in wl.jobs:
        trace_file = workdir / "trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *job.argv]
        else:
            argv = [sys.executable, "-m", "cisect", *job.argv]
        wall, rc, out, rss = run_process(argv, workdir)
        # exit 1 is a verdict (an estimate or a bound failed) and goes to the
        # checks; anything else but 0 is a job that did not run to its end
        failed = rc not in (0, 1)
        problems = [] if failed else checks.check(job, out, rc, outputs)
        outputs[job.name] = out
        trace = {}
        if traced and trace_file.exists():
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
        results.append(Result(job, wall, rc, rss, failed, problems, out, trace))
    return results


def fastest(results: list[Result]) -> list[Result]:
    """Each job's fastest repetition, in job order.  The 2-core sandbox CPU
    switches between two speeds about 1.45x apart for stretches of 0.5 to
    30 s; the fastest repetition is the one that switching inflated least."""
    best: dict[str, Result] = {}
    for r in results:
        if r.job.name not in best or r.wall < best[r.job.name].wall:
            best[r.job.name] = r
    return list(best.values())


def run_metrics(results: list[Result]) -> dict[str, float]:
    """End-to-end figures from every pass of a run, each job counted once
    with its fastest repetition."""
    chosen = fastest(results)

    def rate(kinds: tuple[str, ...], size: str) -> float:
        picked = [r for r in chosen if r.job.kind in kinds]
        return sum(getattr(r.job, size) for r in picked) / sum(r.wall for r in picked)

    wall = sum(r.wall for r in chosen)
    return {
        "wall_s": wall,
        "jobs_per_s": len(chosen) / wall,
        "points_per_s": rate(POINT_KINDS, "points"),
        "tuples_per_s": rate(TUPLE_KINDS, "tuples"),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "jobs_per_s": "jobs/s", "points_per_s": "points/s",
    "tuples_per_s": "tuples/s", "peak_rss_mb": "MiB",
}


def setup_time(wl: workloads.Workload, workdir: Path) -> float:
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    for p, e in wl.fields:
        argv += ["--field", f"{p}:{e}"]
    argv += wl.inputs
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, rc, _, _ = run_process(argv, workdir)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}")
        samples.append(wall)
    return statistics.median(samples)


def layer_metrics(results: list[Result], plain: list[Result]) -> dict[str, tuple[float, str]]:
    """Per-module figures summed over the traced pass's job processes."""
    calls, times, items, selfs, notes = {}, {}, {}, {}, {}
    import_s = 0.0
    for r in results:
        t = r.trace
        import_s += t.get("import_s", 0.0)
        for src, dst in ((t.get("calls", {}), calls), (t.get("time", {}), times),
                         (t.get("items", {}), items), (t.get("self", {}), selfs),
                         (t.get("notes", {}), notes)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
    enumerated = notes.get("points_enumerated", 0)
    classified = notes.get("tuples_classified", 0)
    # 1-worker wall over 2-worker wall of the same scan; 0 when the workload
    # has no such pair.  Both walls are printed by run_workload.
    walls = {r.job.name: r.wall for r in plain}
    speedup = 0.0
    for r in plain:
        twin = r.job.expect.get("same_as")
        if twin is not None:
            speedup = walls[twin] / r.wall
            print(f"# workers: {twin} {walls[twin]:.3f} s, {r.job.name} {r.wall:.3f} s")
    traced_wall = sum(r.wall for r in results)
    plain_wall = sum(r.wall for r in plain)
    return {
        "ffield.make_field_s": (times.get("ffield.make_field", 0.0), "s"),
        "ffield.make_field_calls": (calls.get("ffield.make_field", 0), "count"),
        "ffield.arith_calls": (calls.get("ffield.arith", 0), "count"),
        "ffield.arith_s": (times.get("ffield.arith", 0.0), "s"),
        "mpoly.eval_calls": (calls.get("mpoly.eval", 0), "count"),
        "mpoly.eval_s": (times.get("mpoly.eval", 0.0), "s"),
        "mpoly.parse_s": (times.get("mpoly.parse", 0.0), "s"),
        "space.tuples_yielded": (items.get("space.iter", 0), "count"),
        "space.iter_s": (times.get("space.iter", 0.0), "s"),
        "linalg.rank_calls": (calls.get("linalg.rank", 0), "count"),
        "linalg.rank_s": (times.get("linalg.rank", 0.0), "s"),
        "variety.load_s": (times.get("variety.load_variety", 0.0), "s"),
        "variety.count_points_s": (times.get("variety.count_points", 0.0), "s"),
        "variety.self_s": (selfs.get("variety", 0.0), "s"),
        "variety.points_enumerated": (enumerated, "count"),
        "variety.hit_ratio": (notes.get("points_found", 0) / enumerated if enumerated else 0.0, "ratio"),
        "sections.bertini_scan_s": (times.get("sections.bertini_scan", 0.0), "s"),
        "sections.moment_s": (times.get("sections.second_moment", 0.0)
                              + times.get("sections.hooley_condition_census", 0.0), "s"),
        "sections.self_s": (selfs.get("sections", 0.0), "s"),
        "sections.tuples_classified": (classified, "count"),
        "sections.rank_calls_per_tuple": (calls.get("linalg.rank", 0) / classified if classified else 0.0, "ratio"),
        "sections.workers2_speedup": (speedup, "ratio"),
        "bounds.self_s": (selfs.get("bounds", 0.0), "s"),
        "radicals.self_s": (selfs.get("radicals", 0.0), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (selfs.get("cli", 0.0), "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }


def tally(results: list[Result]) -> tuple[int, int, bool]:
    failed = sum(r.failed for r in results)
    for r in results:
        if r.failed:
            print(f"FAILED {r.job.name}: exit {r.rc}", file=sys.stderr)
        for problem in r.problems:
            print(f"WRONG {r.job.name}: {problem}", file=sys.stderr)
    return len(results), failed, not any(r.problems for r in results)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    try:
        wl = workloads.BUILDERS[name](seed, workdir, ROOT)
        print(f"# {name}: seed {seed}, {len(wl.jobs)} jobs per pass", flush=True)
        if trace:
            plain = run_pass(wl, workdir)
            traced = run_pass(wl, workdir, traced=True)
            results = plain + traced
            metrics = layer_metrics(traced, plain)
            (OUT_DIR / f"trace_{name}.json").write_text(json.dumps(
                {r.job.name: r.trace for r in traced}, indent=1))
        else:
            setup_s = setup_time(wl, workdir)
            start = time.perf_counter()
            walls, results = [], []
            while len(walls) < MIN_PASSES or time.perf_counter() - start + walls[-1] <= seconds:
                t0 = time.perf_counter()
                results += run_pass(wl, workdir)
                walls.append(time.perf_counter() - t0)
            metrics = {"setup_s": (setup_s, "s")}
            for key, value in run_metrics(results).items():
                metrics[key] = (value, UNITS[key])
            print(f"# {len(walls)} passes of " + " ".join(f"{w:.2f}" for w in walls) + " s")
            for r in fastest(results):
                print(f"# {r.wall:8.3f} s  {r.job.name}")
        attempted, failed, correct = tally(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    print(f"{name} attempted {attempted} failed {failed} correct {correct}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/cisect/cli.py", "varieties") if not (ROOT / p).exists()]
    if missing:
        print(f"run.py: not a cisect checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
