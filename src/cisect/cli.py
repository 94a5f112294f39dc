"""Command-line front end.

Subcommands map one-to-one onto library entry points; all exact values print
in decimal, irrational bounds print with 12 significant digits in CSV and 30
on the terminal.  Exit codes: 0 when every applicable verdict passes, 1 when
any fails, 2 on a CisectError or OSError (one diagnostic line on stderr), 141
(128 + SIGPIPE), silently, when the reader of standard output goes away
first.  Any other exception is a bug and propagates with its traceback.
A DimensionDriftWarning prints as one line, ``cisect: warning: ...``.

``main`` loads the variety file of every subcommand that takes one, and each
handler imports the modules it runs, so a process loads the code of its own
subcommand and nothing else: ``count`` never compiles the scan or the
estimate code, and ``eta`` never compiles the polynomial code.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CisectError, DimensionDriftWarning, InvalidInput

if TYPE_CHECKING:
    from .sections import ScanReport
    from .variety import VarietyDescriptor


# ---------------------------------------------------------------------------
# CSV emission: UTF-8, LF, minimal quoting, byte-identical across runs


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_line(fields) -> str:
    return ",".join(_csv_field(str(f)) for f in fields)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _emit(lines: list[str], output: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _estimate_csv(report, columns: str) -> list[str]:
    """A bounds or verify report: each row's name, then its fields named in
    ``columns``, the right-hand side to 12 significant digits."""
    from .radicals import display_12

    show = {"rhs": display_12, "applicable": _bool}
    names = columns.split(",")
    lines = ["estimate," + columns]
    for row in report.rows:
        lines.append(_csv_line([row.name] + [show.get(n, str)(getattr(row, n)) for n in names]))
    return lines


def _scan_csv(report: ScanReport, v: VarietyDescriptor) -> list[str]:
    from .space import ProjPoint
    from .variety import extension_spec

    lines = ["kind,name,value"]
    summary = [
        ("mode", report.mode),
        ("s", report.s),
        ("max_ext", report.max_ext),
        ("total", report.total),
        ("pass", report.pass_count),
        ("rank_fail", report.rank_fail_count),
        ("degenerate", report.degenerate_count),
        ("not_pass", report.not_pass_count),
        ("pass_floor", report.pass_floor),
        ("floor_applicable", _bool(report.floor_applicable)),
        ("fail_ceiling", report.fail_ceiling),
    ]
    for name, value in summary:
        lines.append(_csv_line(["summary", name, value]))
    for w in report.witnesses:
        spec = extension_spec(v, w.ext)
        point = ProjPoint(tuple(spec.from_index(i) for i in w.point))
        gamma = "|".join(
            "(" + ",".join(str(c) for c in row) + ")" for row in w.gamma
        )
        lines.append(
            _csv_line(["witness", w.index, f"gamma={gamma} point={point} ext={w.ext}"])
        )
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers


def _resolve_s(arg_s: int | None, v: VarietyDescriptor) -> int:
    if arg_s is not None:
        if arg_s < 0:
            raise InvalidInput("--s must be >= 0")
        return arg_s
    if v.asserted_sing_dim >= 0:
        return v.asserted_sing_dim
    raise InvalidInput("variety asserts singular dimension -1; pass --s explicitly")


def _cmd_count(args) -> int:
    from .variety import count_points

    print(count_points(args.variety, args.ext))
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import _variety_suite

    report = _variety_suite(args.variety, args.betti)
    _emit(_estimate_csv(report, "rhs,applicable,condition"), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .bounds import verify_variety
    from .radicals import display_30

    report = verify_variety(args.variety, args.betti)
    print(
        f"N={report.point_count} p_r={report.expected} deviation={report.deviation}"
    )
    for row in report.rows:
        print(f"{row.name}: lhs={row.lhs} rhs={display_30(row.rhs)} {row.verdict}")
    if args.output is not None:
        _emit(_estimate_csv(report, "lhs,rhs,applicable,verdict"), args.output)
    return 0 if report.all_pass else 1


def _cmd_second_moment(args) -> int:
    from .census import second_moment

    v = args.variety
    result = second_moment(v, _resolve_s(args.s, v))
    word = "EQUAL" if result.equal else "UNEQUAL"
    print(f"computed={result.computed} lemma={result.closed_form} {word}")
    return 0 if result.equal else 1


def _cmd_hooley_census(args) -> int:
    from .census import hooley_condition_census

    v = args.variety
    census = hooley_condition_census(v, _resolve_s(args.s, v))
    word = "HALF-MASS" if census.half_mass else "NO-HALF-MASS"
    print(f"satisfying={census.satisfying} total={census.total} {word}")
    return 0 if census.half_mass else 1


def _cmd_bertini_scan(args) -> int:
    from .sections import bertini_scan

    report = bertini_scan(args.variety, max_ext=args.max_ext, mode=args.mode)
    _emit(_scan_csv(report, args.variety), args.output)
    if args.output is not None:
        print(
            f"mode={report.mode} total={report.total} pass={report.pass_count} "
            f"rank_fail={report.rank_fail_count} degenerate={report.degenerate_count}"
        )
    return 1 if False in (report.floor_satisfied, report.ceiling_satisfied) else 0


def _cmd_eta(args) -> int:
    from .bounds import zero_bound

    print(zero_bound(args.q, args.d, args.n))
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cisect",
        description="Exact point counts, linear-section scans, and estimate "
        "verification for complete intersections over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def variety_cmd(name: str, help_text: str, func) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("variety", type=Path, help="variety description file")
        sp.set_defaults(func=func)
        return sp

    sp = variety_cmd("count", "count rational points over an extension", _cmd_count)
    sp.add_argument("--ext", type=_positive, default=1, help="extension level e (default 1)")

    sp = variety_cmd("bounds", "emit the estimate right-hand sides as CSV", _cmd_bounds)
    sp.add_argument("--betti", type=int, default=None, help="primitive Betti number b'")
    sp.add_argument("-o", "--output", type=Path, default=None, help="CSV output path")

    sp = variety_cmd("verify", "count points and test every estimate", _cmd_verify)
    sp.add_argument("--betti", type=int, default=None, help="primitive Betti number b'")
    sp.add_argument("-o", "--output", type=Path, default=None, help="CSV output path")

    sp = variety_cmd(
        "second-moment", "exact second moment of section counts", _cmd_second_moment
    )
    sp.add_argument("--s", type=int, default=None, help="tuple arity minus one")

    sp = variety_cmd(
        "hooley-census", "census of the square-root deviation condition", _cmd_hooley_census
    )
    sp.add_argument("--s", type=int, default=None, help="tuple arity minus one")

    sp = variety_cmd(
        "bertini-scan", "classify every linear section tuple", _cmd_bertini_scan
    )
    sp.add_argument(
        "--mode", choices=("affine", "projective"), default="affine",
        help="sweep affine coefficient tuples or projective representatives",
    )
    sp.add_argument("--max-ext", type=_positive, default=1, help="check points up to F_{q^E}")
    sp.add_argument(
        "--workers", type=_positive, default=1,
        help="accepted for compatibility; scans run in one process",
    )
    sp.add_argument("-o", "--output", type=Path, default=None, help="CSV output path")

    sp = sub.add_parser("eta", help="multihomogeneous zero cap calculator")
    sp.add_argument("--q", type=_positive, required=True, help="field size")
    sp.add_argument("--d", type=_int_list, required=True, help="degrees, comma-separated")
    sp.add_argument("--n", type=_int_list, required=True, help="dimensions, comma-separated")
    sp.set_defaults(func=_cmd_eta)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # a drift warning is about the input, so it names no file or line of cisect
    if issubclass(category, DimensionDriftWarning):
        print(f"cisect: warning: {message}", file=sys.stderr)
    else:
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            if "variety" in args:
                from .variety import load_variety

                # handlers get the loaded descriptor in place of its path
                args.variety = load_variety(args.variety)
            code = args.func(args)
        # flush inside the try so a closed pipe is reported here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (CisectError, OSError) as exc:
        # input errors only: any other exception is a bug and keeps its traceback
        print(f"cisect: {exc}", file=sys.stderr)
        return 2
