"""The frozen records against ``dataclasses.dataclass(frozen=True)``.

Every record class is rebuilt here as a stdlib frozen dataclass from the same
namespace: annotations, defaults, ``__post_init__``, its own ``__repr__`` and
its other methods.  The two must agree on construction, equality, hashing,
repr, rejection, immutability and pickling.  ``__init__``, ``__eq__`` and
``__hash__`` are never copied, so the dataclass's generated methods also check
the ones a record class writes out by hand (FieldSpec.__hash__,
FieldElement.__init__).
"""
from __future__ import annotations

import dataclasses
import inspect
import pickle
import sys
import types

import pytest

from cisect import (
    SectionTuple,
    bertini_scan,
    estimate_suite,
    hooley_condition_census,
    load_variety,
    make_field,
    second_moment,
    section_smooth_check,
    verify_variety,
)
from cisect import bounds, ffield, mpoly, radicals, sections, space, variety
from cisect._record import FrozenRecordError

from conftest import VARIETY_DIR, make_cone

RECORDS = [
    bounds.EstimateRow, bounds.BoundReport, bounds.VerifyRow, bounds.VerifyReport,
    ffield.FieldSpec, ffield.FieldElement,
    mpoly.VariableGrouping, mpoly.SparsePolynomial,
    radicals.RootSum,
    sections.SectionTuple, sections.SectionVerdict, sections.ScanWitness,
    sections.ScanReport, sections.SecondMomentResult, sections.HooleyCensus,
    space.ProjPoint,
    variety.VarietyDescriptor, variety.PointClassification,
]
NOT_COPIED = {"__init__", "__eq__", "__hash__", "__match_args__", "__dict__", "__weakref__"}

# twins live in a module of their own, so that dataclass and pickle can find
# them by name while their repr keeps the record's class name
TWINS = sys.modules[f"{__name__}_twins"] = types.ModuleType(f"{__name__}_twins")


def _namespace(cls) -> dict:
    """The class body as written: what ``record`` added is left out."""
    ns = {name: value for name, value in vars(cls).items()
          if name not in NOT_COPIED and getattr(value, "__module__", "") != "cisect._record"}
    ns["__module__"] = TWINS.__name__
    return ns


def _twin(cls, bases=()):
    twin = type(cls.__name__, bases, _namespace(cls))
    if not bases:
        twin = dataclasses.dataclass(frozen=True)(twin)
    setattr(TWINS, cls.__name__, twin)
    return twin


TWIN = {cls: _twin(cls) for cls in RECORDS}
# _LogField subclasses FieldSpec without decorating; its twin does the same
LogTwin = _twin(ffield._LogField, (TWIN[ffield.FieldSpec],))


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def _samples() -> dict[type, list]:
    """Instances of every record class, as the library builds them."""
    f5, f8 = make_field(5), make_field(2, 3)
    cone = make_cone(5)
    report = bertini_scan(load_variety(VARIETY_DIR / "cone2.var"), mode="projective")
    bound = estimate_suite(5, 3, 2, 0, (2,), None)
    checked = verify_variety(cone)
    gamma = SectionTuple.from_ints(f5, [(1, 0, 0, 0)])
    verdicts = [section_smooth_check(cone, gamma), section_smooth_check(
        cone, SectionTuple.from_ints(f5, [(0, 0, 0, 1)]))]
    grouping = mpoly.VariableGrouping((2, 3))
    found = {
        ffield.FieldSpec: [f5, f8, ffield.FieldSpec(5, 1, (0, 1))],
        ffield.FieldElement: [f5.one, f5.from_index(3), f8.from_index(5), f8.one],
        mpoly.VariableGrouping: [grouping, mpoly.VariableGrouping((1,)),
                                 mpoly.VariableGrouping((2, 3))],
        mpoly.SparsePolynomial: [*cone.generators, mpoly.SparsePolynomial.zero(f5, 4)],
        radicals.RootSum: [radicals.RootSum(), radicals.RootSum(3),
                           radicals.RootSum.of(1, [(2, 3)]), *(r.rhs for r in bound.rows)],
        bounds.EstimateRow: list(bound.rows),
        bounds.BoundReport: [bound, estimate_suite(7, 5, 3, 1, (2, 2), 3)],
        bounds.VerifyRow: list(checked.rows),
        bounds.VerifyReport: [checked, verify_variety(make_cone(3))],
        sections.SectionTuple: [gamma, *(v.gamma for v in verdicts)],
        sections.SectionVerdict: verdicts,
        sections.ScanWitness: list(report.witnesses),
        sections.ScanReport: [report, bertini_scan(cone)],
        sections.SecondMomentResult: [second_moment(cone, 0), second_moment(make_cone(2), 0)],
        sections.HooleyCensus: [hooley_condition_census(cone, 0),
                                hooley_condition_census(make_cone(2), 0)],
        space.ProjPoint: [v.witness for v in verdicts if v.witness is not None]
        + [space.ProjPoint((f5.one, f5.zero))],
        variety.VarietyDescriptor: [cone, make_cone(5), make_cone(3)],
        variety.PointClassification: list(variety.rational_singular_points(cone)),
    }
    assert set(found) == set(RECORDS) and all(len(v) >= 1 for v in found.values())
    return found


SAMPLES = _samples()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    twin = TWIN[cls]
    assert cls.__match_args__ == twin.__match_args__
    recs = SAMPLES[cls]
    twins = [twin(*_fields(r)) for r in recs]
    for r, t in zip(recs, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert r != t and t != r
        # keywords bind like positions
        assert type(r)(**dict(zip(cls.__match_args__, _fields(r)))) == r
    for (r1, t1) in zip(recs, twins):
        for (r2, t2) in zip(recs, twins):
            assert (r1 == r2) == (t1 == t2)
            assert (r1 != r2) == (t1 != t2)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_arguments_and_immutability(cls):
    twin = TWIN[cls]
    params = list(inspect.signature(twin).parameters.values())
    sample = SAMPLES[cls][0]
    values = _fields(sample)
    # every prefix that covers the required fields binds the same way
    required = sum(p.default is inspect.Parameter.empty for p in params)
    for n in range(required, len(params) + 1):
        assert repr(cls(*values[:n])) == repr(twin(*values[:n]))
    bad_calls = [(values + (None,), {}), (values, {params[0].name: values[0]}),
                 (values, {"no_such_field": 1})]
    if required:
        bad_calls.append((values[:required - 1], {}))
    for bad_args, bad_kwargs in bad_calls:
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    for obj in (sample, twin(*values)):
        with pytest.raises(AttributeError):
            setattr(obj, params[0].name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, params[0].name)
    with pytest.raises(FrozenRecordError):
        sample.new_attribute = 1


def _rejections():
    f5, f8 = make_field(5), make_field(2, 3)
    one, zero, two = f5.one, f5.zero, f5.from_index(2)
    return [
        (space.ProjPoint, ((),)),
        (space.ProjPoint, ((zero, zero),)),
        (space.ProjPoint, ((two, one),)),
        (space.ProjPoint, ((one, f8.one),)),
        (mpoly.VariableGrouping, ((),)),
        (mpoly.VariableGrouping, ((2, 0),)),
        (mpoly.SparsePolynomial, (f5, 0, ())),
        (mpoly.SparsePolynomial, (f5, 2, ((f8.one, (1, 1)),))),
        (mpoly.SparsePolynomial, (f5, 2, ((zero, (1, 1)),))),
        (mpoly.SparsePolynomial, (f5, 2, ((one, (1,)),))),
        (mpoly.SparsePolynomial, (f5, 2, ((one, (-1, 1)),))),
        (mpoly.SparsePolynomial, (f5, 2, ((one, (0, 1)), (one, (1, 0))))),
        (sections.SectionTuple, ((),)),
        (sections.SectionTuple, (((one, zero), (one,)),)),
        (sections.SectionTuple, (((one, f8.one),),)),
    ]


@pytest.mark.parametrize("cls, args", _rejections())
def test_post_init_rejects_alike(cls, args):
    with pytest.raises(Exception) as reference:
        TWIN[cls](*args)
    with pytest.raises(Exception) as rejected:
        cls(*args)
    assert type(rejected.value) is type(reference.value)


def test_pickle_round_trip_matches_dataclass():
    f5, f8 = make_field(5), make_field(2, 3)
    f8.mul_idx(2, 3)  # build the log tables, which a pickle must not carry
    twin_f8 = LogTwin(*_fields(f8))
    twin_f8.mul_idx(2, 3)
    cone = make_cone(5)
    cases = [
        (f5, TWIN[ffield.FieldSpec](*_fields(f5))),
        (f8, twin_f8),
        (f8.from_index(6), TWIN[ffield.FieldElement](f8, f8.coeffs_of(6))),
        (cone, TWIN[variety.VarietyDescriptor](*_fields(cone))),
    ]
    for rec, twin in cases:
        back, twin_back = pickle.loads(pickle.dumps(rec)), pickle.loads(pickle.dumps(twin))
        assert type(back) is type(rec) and type(twin_back) is type(twin)
        assert back == rec and hash(back) == hash(rec) and repr(back) == repr(rec)
        assert twin_back == twin and hash(twin_back) == hash(back)
        assert repr(twin_back) == repr(back)
    for log_field in (f8, twin_f8):
        back = pickle.loads(pickle.dumps(log_field))
        assert "tables" not in vars(back) and back.mul_idx(2, 3) == f8.mul_idx(2, 3)


def test_subclass_instances_are_unequal():
    f8 = make_field(2, 3)
    plain, twin_plain = ffield.FieldSpec(*_fields(f8)), TWIN[ffield.FieldSpec](*_fields(f8))
    assert plain != f8 and f8 != plain and hash(plain) == hash(f8)
    assert twin_plain != LogTwin(*_fields(f8))
