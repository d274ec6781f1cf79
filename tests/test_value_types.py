"""The value types against their slotted-dataclass references, and the edges
of their stored forms.

``JobRecord`` and ``RateSample`` are tuples of their fields, and
``Timestamp`` has one slot; what a caller sees of each must be a frozen
dataclass's all the same.
"""

import copy
import dataclasses
import operator
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracebw import JobRecord, RateFlag, RateSample, Timestamp

from . import reference_model
from .conftest import job_record_args
from .test_model import VALUE_TYPES, rate_sample_args

# Each type, its reference, valid arguments, and overrides that may make
# them invalid: resource values out of range, inconsistent samples, and
# flags in any container.
_resource_overrides = st.dictionaries(
    st.sampled_from(["req_procs", "used_procs", "req_cpu_s", "used_cpu_s",
                     "req_mem_kb", "used_mem_kb"]),
    st.sampled_from([-1, -3, -0.5, float("nan"), float("inf"), float("-inf"), 0, 7, 2.5]))
_sample_overrides = st.fixed_dictionaries({}, optional={
    "n_bytes": st.integers(-3, 3),
    "duration_ms": st.integers(-3, 3),
    "rate_bytes_per_s": st.none() | st.floats() | st.sampled_from(
        [0.0, -0.0, 1000.0, float("nan"), float("inf"), float("-inf")]),
    "flags": st.sets(st.sampled_from(list(RateFlag))).flatmap(
        lambda flags: st.sampled_from([flags, frozenset(flags), sorted(flags, key=str)])),
})
TYPES = [
    (JobRecord, reference_model.JobRecord, job_record_args, _resource_overrides),
    (RateSample, reference_model.RateSample, rate_sample_args(), _sample_overrides),
]
TYPE_IDS = [cls.__name__ for cls, *_ in TYPES]
ORDERS = (operator.lt, operator.le, operator.gt, operator.ge)
COPIES = (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy)


def built(cls, args):
    """The instance, or the message of the ValueError its constructor raised."""
    try:
        return cls(**args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("cls,reference,args,overrides", TYPES, ids=TYPE_IDS)
@given(data=st.data())
def test_constructor_accepts_and_refuses_alike(cls, reference, args, overrides, data):
    args = {**data.draw(args), **data.draw(overrides)}
    ours, theirs = built(cls, args), built(reference, args)
    if isinstance(theirs, str):
        assert ours == theirs
    else:
        assert repr(ours) == repr(theirs)  # flags included: a frozenset in both


@pytest.mark.parametrize("cls,reference,args,overrides", TYPES, ids=TYPE_IDS)
@given(data=st.data())
def test_pairs_compare_and_hash_alike(cls, reference, args, overrides, data):
    # The second of a pair is the same arguments, equal copies of them, a
    # new job id or field, or another draw altogether.
    first = data.draw(args)
    other = data.draw(args)
    name = data.draw(st.sampled_from(["job_id"] if cls is RateSample else list(first)))
    second = data.draw(st.sampled_from([first, pickle.loads(pickle.dumps(first)),
                                        {**first, name: other[name]}, other]))
    ours = cls(**first), cls(**second)
    theirs = reference(**first), reference(**second)
    assert [repr(x) for x in ours] == [repr(x) for x in theirs]
    assert [hash(x) for x in ours] == [hash(x) for x in theirs]
    assert (ours[0] == ours[1]) == (theirs[0] == theirs[1])
    assert (ours[0] != ours[1]) == (theirs[0] != theirs[1])


@pytest.mark.parametrize("cls,reference,args,overrides", TYPES, ids=TYPE_IDS)
@given(data=st.data())
def test_dataclass_api_and_copies_alike(cls, reference, args, overrides, data):
    first = data.draw(args)
    other = data.draw(args)
    ours, theirs = cls(**first), reference(**first)
    assert ([(f.name, f.type, f.default) for f in dataclasses.fields(ours)]
            == [(f.name, f.type, f.default) for f in dataclasses.fields(theirs)])
    assert cls.__match_args__ == reference.__match_args__
    assert dataclasses.astuple(ours) == dataclasses.astuple(theirs)
    assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)
    changes = {"job_id": other["job_id"]}
    assert (repr(dataclasses.replace(ours, **changes))
            == repr(dataclasses.replace(theirs, **changes)))
    # Each copy is held to the same copy of the reference: a rebuilt flags
    # set may iterate in another order than the set it copies.
    for make_copy in COPIES:
        twin = make_copy(ours)
        assert type(twin) is cls and twin == ours and repr(twin) == repr(make_copy(theirs))


def test_copies_repr_alike_under_any_hash_seed():
    # Hash seeds under which a rebuilt two-flag set iterates in another order.
    code = ("import copy, pickle\n"
            "from tracebw import RateFlag, RateSample, Timestamp\n"
            "from tests import reference_model\n"
            "args = ('j', Timestamp(0), Timestamp(-1000), 5, -1000, -5.0, frozenset(RateFlag))\n"
            "ours, theirs = RateSample(*args), reference_model.RateSample(*args)\n"
            "for make_copy in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy,\n"
            "                  copy.deepcopy):\n"
            "    twin = make_copy(ours)\n"
            "    assert twin == ours and repr(twin) == repr(make_copy(theirs))\n")
    for seed in ("22", "25"):
        subprocess.run([sys.executable, "-c", code], check=True,
                       cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       env={**os.environ, "PYTHONHASHSEED": seed})


class Counted(JobRecord):
    """A JobRecord that counts its constructor's calls."""

    __slots__ = ()
    calls = 0

    def __new__(cls, *args):
        Counted.calls += 1
        return super().__new__(cls, *args)


class CountedTimestamp(Timestamp):
    """A Timestamp that counts its constructor's calls."""

    __slots__ = ()
    calls = 0

    def __init__(self, epoch_ms):
        CountedTimestamp.calls += 1
        super().__init__(epoch_ms)


@pytest.mark.parametrize("obj", [Counted("j", None, None, None, 1), CountedTimestamp(5)],
                         ids=["JobRecord", "Timestamp"])
def test_pickle_and_copy_rebuild_through_the_constructor(obj):
    for make_copy in COPIES:
        type(obj).calls = 0
        twin = make_copy(obj)
        assert type(twin) is type(obj) and twin == obj
        assert type(obj).calls == 1


@pytest.mark.parametrize("cls,args", VALUE_TYPES, ids=[cls.__name__ for cls, _ in VALUE_TYPES])
class TestStoredFormEdges:
    """Each value type's stored form shows through none of these."""

    @given(data=st.data())
    def test_fields_cannot_be_set_or_deleted(self, cls, args, data):
        obj = cls(**data.draw(args))
        for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:  # nor another name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    @given(data=st.data())
    def test_never_equal_to_a_plain_tuple_of_its_fields(self, cls, args, data):
        obj = cls(**data.draw(args))
        fields = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls))
        assert not obj == fields and not fields == obj
        assert obj != fields and fields != obj

    @given(data=st.data())
    def test_no_order_with_a_plain_tuple(self, cls, args, data):
        obj = cls(**data.draw(args))
        fields = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls))
        for left, right in ((obj, fields), (fields, obj)):
            for compare in ORDERS:
                with pytest.raises(TypeError):
                    compare(left, right)

    @given(data=st.data())
    def test_no_instance_dict(self, cls, args, data):
        obj = cls(**data.draw(args))
        assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls,args", VALUE_TYPES[1:],
                         ids=[cls.__name__ for cls, _ in VALUE_TYPES[1:]])
@given(data=st.data())
def test_records_and_samples_have_no_order(cls, args, data):
    first, second = cls(**data.draw(args)), cls(**data.draw(args))
    for compare in ORDERS:
        with pytest.raises(TypeError):
            compare(first, second)
    with pytest.raises(TypeError):
        sorted([first, second])
