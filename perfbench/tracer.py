"""Run one cisect command with the public functions of its modules wrapped.

    python3 perfbench/tracer.py TRACE.json <cisect arguments...>

The command runs exactly as ``python3 -m cisect <arguments>`` would, with the
same output and exit code; on exit the counters go to TRACE.json.  Wrapping
happens here, from outside the program: nothing under src/ changes.

Coarse calls (loading, counting, scans, moments, estimates, the CLI entry)
record a span each: name, start, end and the span that was open when it
started.  Fine-grained calls (FieldSpec arithmetic, eval_idx, rank_idx, the
space iterators) record only a call count and accumulated time.  A module's
self time is the time in its wrapped calls minus the time in wrapped calls
they make, so private helpers count toward the module whose public function
called them.  Scan workers are forked children: what they record dies with
them, and their time shows up as self time of the parent's bertini_scan.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter

_t0 = clock()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cisect  # noqa: E402
import cisect.cli  # noqa: E402

IMPORT_S = clock() - _t0

from cisect import bounds, ffield, linalg, mpoly, radicals, sections, space, variety  # noqa: E402

stack = [0.0]  # time spent in wrapped children of each open call
self_time: dict[str, float] = defaultdict(float)
calls: dict[str, int] = defaultdict(int)
group_time: dict[str, float] = defaultdict(float)
items: dict[str, int] = defaultdict(int)
depth: dict[str, int] = defaultdict(int)
spans: list[list] = []
open_spans: list[int] = []
notes = {"points_found": 0, "points_enumerated": 0, "tuples_classified": 0, "tuples_in_workers": 0}


def _finish(module: str, group: str, t0: float) -> float:
    dt = clock() - t0
    child = stack.pop()
    stack[-1] += dt
    self_time[module] += dt - child
    depth[group] -= 1
    if depth[group] == 0:
        group_time[group] += dt
    return dt


def wrap(fn, module: str, group: str, span: bool = False, note=None):
    """Count calls and time; a span per call when ``span`` is set."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[group] += 1
        depth[group] += 1
        stack.append(0.0)
        if span:
            open_spans.append(len(spans))
            spans.append([fn.__name__, 0.0, 0.0, open_spans[-2] if len(open_spans) > 1 else None])
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            _finish(module, group, t0)
            if span:
                record = spans[open_spans.pop()]
                record[1], record[2] = t0, clock()
        if note is not None:
            note(result, *args, **kwargs)
        return result

    return traced


def wrap_iter(fn, module: str, group: str):
    """Generators do their work inside next(), so time each step."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[group] += 1
        inner = fn(*args, **kwargs)

        def steps():
            while True:
                depth[group] += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    _finish(module, group, t0)
                if depth[group] == 0:
                    items[group] += 1
                yield item

        return steps()

    return traced


def _note_count(result, v, ext=1):
    notes["points_found"] += result
    q = v.field.q**ext
    notes["points_enumerated"] += sum(q**i for i in range(v.nvars))


def _note_scan(report, v, max_ext=1, mode="affine", workers=1):
    key = "tuples_classified"
    if workers > 1 and report.total >= sections._PARALLEL_THRESHOLD:
        key = "tuples_in_workers"
    notes[key] += report.total


def _replace(original, replacement) -> None:
    """Rebind every name under which a cisect module imported ``original``."""
    for name, mod in list(sys.modules.items()):
        if name == "cisect" or name.startswith("cisect."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


COARSE = {
    ffield: ["make_field"],
    variety: ["load_variety", "parse_variety", "count_points", "jacobian_rank_at",
              "rational_singular_points"],
    sections: ["bertini_scan", "second_moment", "hooley_condition_census",
               "section_count", "section_smooth_check"],
    bounds: ["estimate_suite", "verify_variety"],
    cisect.cli: ["main"],
}
FINE = {
    ffield: {"is_prime": "ffield.other"},
    mpoly: {"eval_idx": "mpoly.eval", "parse_poly": "mpoly.parse", "lift_to": "mpoly.other",
            "partial_derivative": "mpoly.other", "check_homogeneous": "mpoly.other",
            "format_poly": "mpoly.other", "eval_poly": "mpoly.other",
            "count_affine_zeros": "mpoly.other"},
    space: {"count_projective": "space.other", "count_affine": "space.other",
            "affine_tuple_at": "space.other", "projective_tuple_at": "space.other"},
    linalg: {"rank_idx": "linalg.rank"},
    variety: {"extension_spec": "variety.other"},
    bounds: {"zero_bound": "bounds.other", "bertini_degree": "bounds.other",
             "betti_b1": "bounds.other", "gl_constant": "bounds.other",
             "trivial_bounds": "bounds.other"},
    radicals: {"display_30": "radicals.other", "display_12": "radicals.other"},
    cisect.cli: {"build_parser": "cli.other"},
}
NOTES = {"count_points": _note_count, "bertini_scan": _note_scan}


def install() -> None:
    for mod, names in COARSE.items():
        short = mod.__name__.split(".")[-1]
        for name in names:
            fn = getattr(mod, name)
            _replace(fn, wrap(fn, short, f"{short}.{name}", span=True, note=NOTES.get(name)))
    for mod, table in FINE.items():
        short = mod.__name__.split(".")[-1]
        for name, group in table.items():
            fn = getattr(mod, name)
            _replace(fn, wrap(fn, short, group))
    for name in ("iter_affine_idx", "iter_projective_idx"):
        fn = getattr(space, name)
        _replace(fn, wrap_iter(fn, "space", "space.iter"))
    for name in ("add_idx", "sub_idx", "neg_idx", "mul_idx", "inv_idx", "pow_idx"):
        setattr(ffield.FieldSpec, name, wrap(getattr(ffield.FieldSpec, name), "ffield", "ffield.arith"))
    for name in ("floor", "ceil", "geq_int", "to_decimal"):
        setattr(radicals.RootSum, name, wrap(getattr(radicals.RootSum, name), "radicals", "radicals.other"))
    of = radicals.RootSum.__dict__["of"].__func__
    radicals.RootSum.of = classmethod(wrap(of, "radicals", "radicals.other"))


def main() -> int:
    out_path = Path(sys.argv[1])
    install()
    code = 1
    try:
        code = cisect.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        out_path.write_text(json.dumps({
            "import_s": IMPORT_S,
            "calls": calls,
            "time": group_time,
            "items": items,
            "self": self_time,
            "spans": spans,
            "notes": notes,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
