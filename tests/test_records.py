"""The package's value classes against frozen-dataclass twins, and copying.

The twelve value classes are plain classes on ``model._Record``.  Each is
checked against a test-local ``@dataclass(frozen=True)`` copy of the class
it replaced, built from the same seeded arguments: constructor results and
errors (positional, keyword and default arguments), ``==`` and ``!=`` in
both orders and against other types, ``hash``, ``repr``, assignment and
deletion errors, and positional ``match`` patterns.  The values that the
classes compute are covered by the ``Fraction``-oracle tests elsewhere.

Every value, including ``Dyadic`` and the reports built lazily by
``evaluate``, must survive ``pickle`` at every protocol and ``copy``.
"""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import Mapping

import pytest

from sharedsched import engine, hardness, model, solvers, transforms
from sharedsched.dyadic import ZERO, Dyadic, as_dyadic
from sharedsched.hardness import _int_entries
from sharedsched.model import InstanceError, parse_instance

# -- the replaced classes, as they were --------------------------------------------


@dataclass(frozen=True)
class Job:
    id: str
    p: Dyadic
    w: Dyadic

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InstanceError(f"job id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.p, Dyadic):
            object.__setattr__(self, "p", as_dyadic(self.p))
        if not isinstance(self.w, Dyadic):
            object.__setattr__(self, "w", as_dyadic(self.w))
        if self.p.mantissa <= 0:
            raise InstanceError(f"job {self.id!r}: p <= 0")
        if self.w.mantissa <= 0:
            raise InstanceError(f"job {self.id!r}: w <= 0")


@dataclass(frozen=True)
class Instance:
    jobs: tuple
    m: int
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise InstanceError(f"m must be an int, got {self.m!r}")
        if self.m < 1:
            raise InstanceError("m < 1")
        by_id = {}
        for job in self.jobs:
            if job.id in by_id:
                raise InstanceError(f"duplicate id {job.id!r}")
            by_id[job.id] = job
        object.__setattr__(self, "_by_id", by_id)


@dataclass(frozen=True)
class SyncSchedule:
    sequences: tuple

    def __post_init__(self):
        sequences = tuple(tuple(seq) for seq in self.sequences)
        object.__setattr__(self, "sequences", sequences)
        seen = set()
        for seq in sequences:
            for job_id in seq:
                if job_id in seen:
                    raise InstanceError(f"job {job_id!r} appears more than once in schedule")
                seen.add(job_id)


@dataclass(frozen=True)
class ProcessorEval:
    id: int
    order: tuple
    start_times: tuple
    overlaps: tuple


@dataclass(frozen=True)
class EvalReport:
    processors: tuple
    job_overlaps: dict = field(compare=False)
    total: Dyadic = ZERO


@dataclass(frozen=True)
class SearchLimits:
    max_jobs: int = 8
    max_candidates: int = 10_000_000

    def __post_init__(self):
        if self.max_jobs < 1 or self.max_candidates < 1:
            raise ValueError("search limits must be positive")


@dataclass(frozen=True)
class PositionalWeights:
    k: int
    tail: int
    weights: tuple


@dataclass(frozen=True)
class JobPlacement:
    processor: int
    intervals: tuple
    private_completion: Dyadic

    def __post_init__(self):
        intervals = tuple((as_dyadic(a), as_dyadic(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", tuple(sorted(intervals)))
        object.__setattr__(self, "private_completion", as_dyadic(self.private_completion))


@dataclass(frozen=True)
class GeneralSchedule:
    placements: Mapping

    def __post_init__(self):
        object.__setattr__(self, "placements", dict(self.placements))


@dataclass(frozen=True)
class SynchronizeReport:
    schedule: object
    general: object
    value_before: Dyadic
    value_after: Dyadic
    rebalance_steps: int
    pass_values: tuple = ()


@dataclass(frozen=True)
class N3DMInput:
    x: tuple
    y: tuple
    z: tuple
    b: int

    def __post_init__(self):
        object.__setattr__(self, "x", _int_entries(self.x, "X"))
        object.__setattr__(self, "y", _int_entries(self.y, "Y"))
        object.__setattr__(self, "z", _int_entries(self.z, "Z"))
        if isinstance(self.b, bool) or not isinstance(self.b, int):
            raise InstanceError(f"b must be an integer, got {self.b!r}")
        if not self.x or len(self.x) != len(self.y) or len(self.x) != len(self.z):
            raise InstanceError("X, Y, Z must have equal size n >= 1")


@dataclass(frozen=True)
class HardInstance:
    instance: object
    M: int
    m_param: int
    K: int
    source: object
    provenance: Mapping


# -- seeded constructor arguments -------------------------------------------------------
# Small pools, so that equal and unequal objects both occur, with invalid
# entries mixed in so that every validation error is reached.


def number(rng):
    if rng.random() < 0.1:
        return rng.choice([0, -1, Dyadic(-1, 1), "x", 1.5, True])
    return rng.choice([Dyadic(rng.randint(1, 4), rng.randint(0, 2)), rng.randint(1, 4), "3/2", "5/2^1"])


def job_id(rng):
    return rng.choice(["", 3, None]) if rng.random() < 0.1 else rng.choice("abc")


def new_job(rng):
    return model.Job(rng.choice("abcd"), Dyadic(rng.randint(1, 4), rng.randint(0, 2)), rng.randint(1, 2))


def dyadics(rng, k):
    return tuple(Dyadic(rng.randint(0, 3), rng.randint(0, 1)) for _ in range(k))


def processor_args(rng):
    k = rng.randint(0, 2)
    return rng.randint(1, 2), tuple(rng.sample("abc", k)), dyadics(rng, k + 1), dyadics(rng, k)


def new_processor(rng):
    return engine.ProcessorEval(*processor_args(rng))


def placement(rng):
    intervals = [(rng.choice([0, "1/2", Dyadic(1)]), rng.choice([1, "3/2", 2])) for _ in range(rng.randint(0, 2))]
    return transforms.JobPlacement(rng.choice([None, 1]), intervals, rng.choice([1, "5/2"]))


def general(rng):
    return transforms.GeneralSchedule({j: placement(rng) for j in rng.sample("abc", rng.randint(0, 2))})


def entries(rng, n):
    return [rng.choice([-1, True, "1"]) if rng.random() < 0.03 else rng.randint(0, 3) for _ in range(n)]


def n3dm_args(rng):
    n = rng.randint(1, 2)
    sizes = (n, n, n) if rng.random() < 0.8 else (rng.randint(0, 2) for _ in range(3))
    return (*(entries(rng, k) for k in sizes), rng.choice([6, 6, 7, True, "6"]))


ARGS = {
    "Job": lambda rng: (job_id(rng), number(rng), number(rng)),
    "Instance": lambda rng: (
        rng.choice([tuple, list])(new_job(rng) for _ in range(rng.randint(0, 3))),
        rng.choice([1, 1, 2, 0, True, "2"]),
    ),
    "SyncSchedule": lambda rng: ([rng.sample("abcd", rng.randint(0, 2)) for _ in range(rng.randint(0, 3))],),
    "ProcessorEval": processor_args,
    "EvalReport": lambda rng: (
        tuple(new_processor(rng) for _ in range(rng.randint(0, 2))),
        {"a": Dyadic(rng.randint(0, 2))},
        Dyadic(rng.randint(0, 2)),
    ),
    "SearchLimits": lambda rng: (rng.choice([-1, 0, 1, 8, "3"]), rng.choice([0, 1, 10_000_000])),
    "PositionalWeights": lambda rng: (rng.randint(0, 2), rng.randint(0, 1), dyadics(rng, rng.randint(0, 2))),
    "JobPlacement": lambda rng: (
        rng.choice([None, 1, 2]),
        [(number(rng), number(rng)) for _ in range(rng.randint(0, 2))],
        number(rng),
    ),
    "GeneralSchedule": lambda rng: (rng.choice([dict, list])({"a": placement(rng)}.items()),),
    "SynchronizeReport": lambda rng: (
        engine.SyncSchedule([["a"]]),
        general(rng),
        Dyadic(rng.randint(0, 2)),
        Dyadic(rng.randint(0, 2)),
        rng.randint(0, 1),
        (("normalize", Dyadic(rng.randint(0, 1))),),
    ),
    "N3DMInput": n3dm_args,
    "HardInstance": lambda rng: (
        model.Instance((new_job(rng),), 1),
        rng.randint(1, 2),
        7,
        rng.randint(1, 2),
        hardness.N3DMInput([1], [2], [3], 6),
        {"A1": ("A", 1)},
    ),
}

CLASSES = [
    (model.Job, Job),
    (model.Instance, Instance),
    (engine.SyncSchedule, SyncSchedule),
    (engine.ProcessorEval, ProcessorEval),
    (engine.EvalReport, EvalReport),
    (solvers.SearchLimits, SearchLimits),
    (solvers.PositionalWeights, PositionalWeights),
    (transforms.JobPlacement, JobPlacement),
    (transforms.GeneralSchedule, GeneralSchedule),
    (transforms.SynchronizeReport, SynchronizeReport),
    (hardness.N3DMInput, N3DMInput),
    (hardness.HardInstance, HardInstance),
]


def call(fn, args, kwargs):
    try:
        return True, fn(*args, **kwargs)
    except Exception as exc:
        return False, (type(exc), str(exc))


def variant(rng, names, args):
    """``args`` as given, cut short (defaults, or a missing argument),
    with one too many, or as keywords."""
    args = list(args)
    kwargs = {}
    draw = rng.random()
    if draw < 0.2:
        del args[rng.randint(0, len(args) - 1) :]
    elif draw < 0.25:
        args.append(1)
    if rng.random() < 0.4:
        kwargs = dict(zip(names, args))
        args = []
        if rng.random() < 0.1:
            kwargs["bogus"] = 1
    return args, kwargs


def positional(obj, cls):
    """The values a positional class pattern of full length binds, or None."""
    n = len(cls.__match_args__)
    match obj:
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return (a, b)
        case cls(a, b, c) if n == 3:
            return (a, b, c)
        case cls(a, b, c, d) if n == 4:
            return (a, b, c, d)
        case cls(a, b, c, d, e, f) if n == 6:
            return (a, b, c, d, e, f)
    return None


def too_many_subpatterns(obj, cls):
    try:
        match obj:
            case cls(_, _, _, _, _, _, _):
                pass
    except TypeError as exc:
        return str(exc)


def frozen_errors(obj, names):
    out = []
    for name in (*names, "other"):
        for act in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
            with pytest.raises(FrozenInstanceError) as exc:
                act()
            out.append(str(exc.value))
    return out


@pytest.mark.parametrize("new_cls,old_cls", CLASSES, ids=[old.__name__ for _, old in CLASSES])
@pytest.mark.parametrize("seed", [0, 1])
def test_record_matches_frozen_dataclass(new_cls, old_cls, seed):
    rng = random.Random(f"{old_cls.__name__}-{seed}")
    names = [f.name for f in fields(old_cls) if f.init]
    assert new_cls.__qualname__ == old_cls.__qualname__
    assert new_cls.__match_args__ == old_cls.__match_args__ == tuple(names)
    built, errors = [], 0
    for _ in range(300):
        args, kwargs = variant(rng, names, ARGS[old_cls.__name__](rng))
        new, old = call(new_cls, args, kwargs), call(old_cls, args, kwargs)
        assert new[0] == old[0], (args, kwargs, new, old)
        if not new[0]:
            assert new[1] == old[1]
            errors += 1
            continue
        new, old = new[1], old[1]
        assert repr(new) == repr(old)
        assert call(hash, (new,), {}) == call(hash, (old,), {})
        assert frozen_errors(new, names) == frozen_errors(old, names)
        assert repr(positional(new, new_cls)) == repr(positional(old, old_cls))
        assert positional(new, old_cls) is None and positional(old, new_cls) is None
        assert too_many_subpatterns(new, new_cls) == too_many_subpatterns(old, old_cls)
        built.append((new, old))
    assert errors and len(built) > 50
    equal = 0
    another = solvers.SearchLimits() if new_cls is not solvers.SearchLimits else engine.SyncSchedule(())
    for a, a_old in built[:60]:
        # only one class compares: each side's __eq__ declines the other
        assert a.__eq__(a_old) is NotImplemented and a_old.__eq__(a) is NotImplemented
        assert not a == a_old and not a_old == a and a != a_old
        for other in (None, 1, (), object(), ZERO, another):
            assert a.__eq__(other) is NotImplemented and (a == other) is False and a != other
        for b, b_old in built[:60]:
            assert (a == b, b == a, a != b) == (a_old == b_old, b_old == a_old, a_old != b_old)
            equal += a == b and a is not b
    assert equal, "the pools should give equal objects built apart"


def test_record_defaults_and_keywords():
    assert solvers.SearchLimits() == solvers.SearchLimits(8, 10_000_000)
    assert repr(solvers.SearchLimits(max_candidates=5)) == repr(SearchLimits(max_candidates=5))
    report = engine.EvalReport((), {})
    assert report.total is ZERO and repr(report) == repr(EvalReport((), {}))
    assert transforms.SynchronizeReport(1, 2, 3, 4, 5).pass_values == ()
    inst = model.Instance(jobs=[model.Job(id="a", p="3/2", w=1)], m=1)
    assert repr(inst) == repr(Instance(jobs=[inst.jobs[0]], m=1))
    assert inst.job("a") is inst.jobs[0]
    with pytest.raises(TypeError, match="unexpected keyword argument '_by_id'"):
        model.Instance((), 1, _by_id={})


# -- pickle and copy --------------------------------------------------------------------


def copies(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.deepcopy(value)
    yield copy.copy(value)


INSTANCE = (
    '{"m": 2, "jobs": [{"id": "a", "p": "5/2", "w": "3/4"}, {"id": "b", "p": "7", "w": "1"},'
    ' {"id": "c", "p": "9/2^3", "w": "5"}, {"id": "d", "p": "3", "w": "1"}]}'
)


def test_dyadic_pickles_and_copies():
    for value in (Dyadic(-3, 4), Dyadic(0), Dyadic(1 << 200, 3), Dyadic(7, 9000)):
        for got in copies(value):
            assert type(got) is Dyadic
            assert (got.mantissa, got.exponent) == (value.mantissa, value.exponent)
            assert got == value and hash(got) == hash(value)


def test_values_pickle_and_copy():
    inst = parse_instance(INSTANCE)
    schedule = engine.SyncSchedule((("c", "a"), ("d",)))
    for value in (inst.jobs[0], inst, schedule, solvers.SearchLimits(5, 100), solvers.positional_weights(5, 2)):
        for got in copies(value):
            assert type(got) is type(value) and got == value
            assert repr(got) == repr(value) and hash(got) == hash(value)
            with pytest.raises(FrozenInstanceError):
                got.other = 1
    for got in copies(inst):
        assert got.job("c") is got.jobs[2] and not got.has_job("e")


def read(report):
    return (
        list(report.job_overlaps.items()),
        [(p.start_times, p.overlaps) for p in report.processors],
        report.total,
    )


def test_lazy_reports_pickle_and_copy():
    inst = parse_instance(INSTANCE)
    schedule = engine.SyncSchedule((("c", "a"), ("d",)))
    expected = read(engine.evaluate(schedule, inst))
    for read_first in (False, True):
        report = engine.evaluate(schedule, inst)
        if read_first:
            read(report)
        for got in copies(report):
            assert read(got) == expected
            assert got == report and hash(got) == hash(report) and repr(got) == repr(report)
        for got in copies(engine.evaluate(schedule, inst)):
            assert got == report and repr(got) == repr(report)  # compared unread


def test_canonicalization_results_pickle_and_copy():
    inst = parse_instance(INSTANCE)
    general = transforms.from_synchronized(engine.SyncSchedule((("c", "a"), ("d",))), inst)
    report = transforms.synchronize_detailed(general, inst)
    for value in (general, report):
        for got in copies(value):
            assert type(got) is type(value) and got == value and repr(got) == repr(value)
