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
    "census": ("HooleyCensus", "SecondMomentResult", "hooley_condition_census", "second_moment"),
    "ffield": ("FieldElement", "FieldSpec", "make_field"),
    "mpoly": ("SparsePolynomial", "check_homogeneous", "parse_poly", "partial_derivative"),
    "polytools": (
        "VariableGrouping",
        "check_multihomogeneous",
        "count_affine_zeros",
        "eval_poly",
        "format_poly",
        "lift_to",
        "random_multihomogeneous",
        "random_polynomial",
    ),
    "radicals": ("RootSum",),
    "sections": (
        "ScanReport",
        "ScanWitness",
        "SectionClass",
        "SectionTuple",
        "SectionVerdict",
        "bertini_scan",
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


def _lazy(namespace: dict, homes):
    """A module ``__getattr__`` (PEP 562) that binds a public name whose home
    is in ``homes`` in ``namespace``, importing its home on first access; any
    other name raises AttributeError, so ``from cisect import bounds`` works."""

    def __getattr__(name: str):
        module = _HOME.get(name)
        if module not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module

        value = namespace[name] = getattr(import_module(f".{module}", __name__), name)
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _PUBLIC)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
