"""Exhaustive smoothness scan over every hyperplane section of a variety.

For the cone over F_5 the sweep confirms the two-sided prediction: the pass
count clears the (q-d)q^n floor, and in projective mode the fail count stays
under the zero-cap ceiling.  Witness rows pin down the first few failures.

Run as `python3 demos/05_bertini_scan.py`.
"""
from __future__ import annotations

from pathlib import Path

from cisect import bertini_scan, load_variety

HERE = Path(__file__).resolve().parent.parent

v = load_variety(HERE / "varieties" / "cone5.var")

for mode in ("affine", "projective"):
    rep = bertini_scan(v, mode=mode)
    print(f"{mode} scan of {rep.total} covector tuples:")
    print(f"  pass {rep.pass_count}, rank-fail {rep.rank_fail_count}, "
          f"degenerate {rep.degenerate_count}")
    if mode == "affine":
        floor = rep.pass_floor if rep.floor_applicable else None
        print(f"  guaranteed pass floor: {floor} "
              f"(applicable: {rep.floor_applicable})")
    else:
        print(f"  fail ceiling from the zero cap: {rep.fail_ceiling}, "
              f"observed {rep.not_pass_count}")
    print("  first failures:")
    for w in rep.witnesses[:3]:
        print(f"    index {w.index}: gamma={w.gamma} singular at {w.point} "
              f"(extension level {w.ext})")
    print()

# Deeper point searches can change verdicts: a section that looks smooth at
# rational points may reveal a conjugate singular pair over F_{q^2}.
cubic = load_variety(HERE / "varieties" / "cubic_surface3.var")
shallow = bertini_scan(cubic, max_ext=1)
deep = bertini_scan(cubic, max_ext=2)
print(f"cyclic cubic surface over F_3: pass count {shallow.pass_count} at "
      f"extension depth 1, {deep.pass_count} at depth 2")
