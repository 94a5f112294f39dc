"""What every cisect invocation pays before it computes anything.

    python3 perfbench/setup_probe.py [--field P:E ...] FILE.var ...

Imports cisect and its command line, parses each variety file and builds
each listed field, then exits without counting.  The benchmark times the
whole process, interpreter start included.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cisect  # noqa: E402
import cisect.cli  # noqa: E402,F401


def main(argv: list[str]) -> int:
    files, fields = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--field":
            p, e = next(args).split(":")
            fields.append((int(p), int(e)))
        else:
            files.append(arg)
    for path in files:
        cisect.load_variety(Path(path))
    for p, e in fields:
        cisect.make_field(p, e)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
