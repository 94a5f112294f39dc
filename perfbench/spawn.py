"""Run one command and report its wall time and peak memory.

    python3 perfbench/spawn.py RESULT.json COMMAND...

Writes {"wall": seconds, "rss_mb": MiB, "rc": exit code} to RESULT.json and
exits with the command's code.  Linux carries a process's memory high-water
mark across exec into ru_maxrss, so a job forked straight from the harness
would report at least the harness's own size; forking it from this small
process keeps the figure to the job and the workers it reaped.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as handle:
        json.dump({"wall": wall, "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}, handle)
    return proc.returncode if proc.returncode >= 0 else 128 - proc.returncode


if __name__ == "__main__":
    sys.exit(main())
