"""Exact point counting, linear-section scans, and estimate verification for
complete intersections in projective space over finite fields.

Importing the package loads none of its modules.  Each public name loads its
home module on first access (PEP 562), so a process that only counts points
never compiles the scan or estimate code.
"""
from __future__ import annotations

__version__ = "0.1.0"

_PUBLIC = {
    "bounds": (
        "BoundReport",
        "EstimateRow",
        "VerifyReport",
        "VerifyRow",
        "bertini_degree",
        "betti_b1",
        "estimate_suite",
        "gl_constant",
        "trivial_bounds",
        "verify_variety",
        "zero_bound",
    ),
    "ffield": ("FieldElement", "FieldSpec", "make_field"),
    "mpoly": (
        "SparsePolynomial",
        "VariableGrouping",
        "check_homogeneous",
        "check_multihomogeneous",
        "count_affine_zeros",
        "eval_poly",
        "format_poly",
        "lift_to",
        "parse_poly",
        "partial_derivative",
        "random_multihomogeneous",
        "random_polynomial",
    ),
    "radicals": ("RootSum",),
    "sections": (
        "HooleyCensus",
        "ScanReport",
        "ScanWitness",
        "SecondMomentResult",
        "SectionClass",
        "SectionTuple",
        "SectionVerdict",
        "bertini_scan",
        "hooley_condition_census",
        "second_moment",
        "section_count",
        "section_smooth_check",
    ),
    "space": (
        "ProjPoint",
        "count_affine",
        "count_projective",
        "enumerate_affine",
        "enumerate_projective",
    ),
    "variety": (
        "PointClassification",
        "VarietyDescriptor",
        "count_points",
        "jacobian_rank_at",
        "load_variety",
        "parse_variety",
        "rational_points",
        "rational_singular_points",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # only called for names not yet in globals(); an unknown name raises
    # AttributeError, which lets ``from cisect import bounds`` import the module
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
