"""Differential tests for the scaled-integer core.

``start_times``, ``check_feasible``, ``evaluate_sequence``, ``evaluate``,
``solve_equal_weights``, ``equal_weights_value`` and
``single_processor_ascending`` run on integers scaled by one power of two
and build ``Dyadic`` values only for their results (``evaluate``'s report
only when a field is first read, so it is also checked against eagerly
built reports); the inclusivity predicates evaluate through the same
halving recurrence (``engine._walk``).  Each is checked against two
references: the ``Fraction`` oracle in ``conftest``, and a test-local
copy of the code that these functions replaced (the ``dyadic_*``
functions below), which must agree on every value, every canonical form,
every error and every output schedule.
"""

import json
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from sharedsched import cli, dyadic, engine
from sharedsched.dyadic import ZERO, Dyadic, _clear_denominators
from sharedsched.engine import (
    EvalReport,
    InfeasibleScheduleError,
    ProcessorEval,
    SyncSchedule,
    _report_chunks,
    check_feasible,
    evaluate,
    evaluate_sequence,
    is_processing_time_inclusive,
    is_weight_inclusive,
    start_times,
)
from sharedsched.model import Instance, InstanceError, Job
from sharedsched.solvers import (
    equal_weights_value,
    single_processor_ascending,
    solve_equal_weights,
)

from conftest import frac, oracle_start_times, oracle_value

# -- Dyadic-object references ---------------------------------------------------


def dyadic_start_times(ps):
    result = [ZERO]
    for p in ps:
        result.append((result[-1] + p).half())
    return result


def dyadic_check_feasible(ps):
    t = ZERO
    for i, p in enumerate(ps, start=1):
        if not p > t:
            return i
        t = (t + p).half()
    return None


def dyadic_evaluate_sequence(jobs):
    t = ZERO
    total = ZERO
    for job in jobs:
        total = total + (job.p - t).half() * job.w
        t = (t + job.p).half()
    return total


def dyadic_evaluate(schedule, inst):
    if schedule.m != inst.m:
        raise InstanceError(f"schedule has {schedule.m} processors, instance has {inst.m}")
    overlaps = {job.id: ZERO for job in inst.jobs}
    processors = []
    total = ZERO
    for proc_idx, seq in enumerate(schedule.sequences, start=1):
        jobs = [inst.job(job_id) for job_id in seq]
        violation = dyadic_check_feasible([job.p for job in jobs])
        if violation is not None:
            raise InfeasibleScheduleError(violation, seq[violation - 1], proc_idx)
        times = dyadic_start_times([job.p for job in jobs])
        proc_overlaps = []
        for i, job in enumerate(jobs):
            bar = (job.p - times[i]).half()
            proc_overlaps.append(bar)
            overlaps[job.id] = bar
            total = total + bar * job.w
        processors.append(ProcessorEval(proc_idx, tuple(seq), tuple(times), tuple(proc_overlaps)))
    return EvalReport(tuple(processors), overlaps, total)


def dyadic_solve_equal_weights(inst):
    descending = sorted(sorted(inst.jobs, key=lambda j: j.id), key=lambda j: j.p, reverse=True)
    buckets = [[] for _ in range(inst.m)]
    for idx, job in enumerate(descending):
        buckets[idx % inst.m].append(job)
    return SyncSchedule(
        tuple(
            tuple(job.id for job in sorted(sorted(bucket, key=lambda j: j.id), key=lambda j: j.p))
            for bucket in buckets
        )
    )


def three_sort_solve_equal_weights(inst):
    # the deal that one descending sort replaced: rank each job in descending
    # order, then fill the processors from a third, ascending sort
    jobs = inst.jobs
    keys, _ = _clear_denominators([job.p for job in jobs])
    by_id = sorted(range(len(jobs)), key=lambda i: jobs[i].id)
    rank = [0] * len(jobs)
    for idx, i in enumerate(sorted(by_id, key=keys.__getitem__, reverse=True)):
        rank[i] = idx
    buckets = [[] for _ in range(inst.m)]
    for i in sorted(by_id, key=keys.__getitem__):
        buckets[rank[i] % inst.m].append(jobs[i].id)
    return SyncSchedule(tuple(tuple(bucket) for bucket in buckets))


def dyadic_unit_value(partition):
    total = ZERO
    for group in partition:
        for idx, p in enumerate(group, start=1):
            total = total + p.mul_pow2(-(len(group) + 1 - idx))
    return total


def dyadic_is_inclusive(values):
    values = sorted(values)
    k = len(values)
    if k <= 1:
        return True
    makespan = ZERO
    for l in range(1, k):
        makespan = makespan + values[l].mul_pow2(-(k - l))
    return makespan < values[0]


# -- Fraction-oracle helpers ----------------------------------------------------


def oracle_first_violation(ps):
    for i, (p, t) in enumerate(zip(ps, oracle_start_times(ps)), start=1):
        if p <= t:
            return i
    return None


def same(a: Dyadic, b: Dyadic) -> bool:
    """Equal value and equal canonical representation."""
    return (a.mantissa, a.exponent) == (b.mantissa, b.exponent)


def outcome(fn, *args):
    """A call's result, or its exception's type, message and location."""
    try:
        return "ok", fn(*args)
    except (InfeasibleScheduleError, InstanceError) as exc:
        where = (exc.position, exc.job_id, exc.processor) if hasattr(exc, "position") else None
        return type(exc).__name__, str(exc), where


# -- generators -----------------------------------------------------------------


def mixed_dyadic(rng: random.Random, max_exp=12) -> Dyadic:
    """Positive, with an exponent drawn independently of the mantissa."""
    return Dyadic(rng.randint(1, 1 << rng.choice((3, 10, 40))), rng.randint(0, max_exp))


def boundary_jobs(rng: random.Random, k: int) -> list[Job]:
    """A feasible prefix, then a job with ``p`` exactly its start time
    (infeasible) or one unit in the last place above it (feasible)."""
    ps = sorted(mixed_dyadic(rng) for _ in range(k))
    t = dyadic_start_times(ps)[-1]
    ulp = Dyadic(1, rng.randint(0, 3) + t.exponent)
    ps.append(t if rng.random() < 0.5 else t + ulp)
    if t.sign == 0:
        ps[-1] = ps[-1] + ulp  # p must stay positive
    ps.extend(mixed_dyadic(rng) for _ in range(rng.randint(0, 2)))
    return [Job(f"b{i}", p, mixed_dyadic(rng)) for i, p in enumerate(ps)]


def random_case(rng: random.Random):
    """An instance with mixed p and w exponents plus a schedule that may
    leave processors empty, leave jobs private and be infeasible."""
    n = rng.randint(0, 9)
    m = rng.randint(1, 4)
    jobs = [Job(f"j{i}", mixed_dyadic(rng), mixed_dyadic(rng)) for i in range(n)]
    if n and rng.random() < 0.3:
        jobs = boundary_jobs(rng, rng.randint(0, 4))
    sequences = [[] for _ in range(m)]
    for job in jobs:
        slot = rng.randint(0, m)  # 0 = private only
        if slot:
            sequences[slot - 1].append(job)
    if rng.random() < 0.6:  # ascending orders are always feasible
        for seq in sequences:
            seq.sort(key=lambda j: j.p)
    elif rng.random() < 0.5:
        for seq in sequences:
            rng.shuffle(seq)
    inst = Instance(tuple(jobs), m)
    return inst, SyncSchedule(tuple(tuple(job.id for job in seq) for seq in sequences))


CASES = [random_case(random.Random(seed)) for seed in range(400)]


# -- engine -----------------------------------------------------------------------


@pytest.mark.parametrize("start", range(0, len(CASES), 50))
def test_evaluate_matches_dyadic_recurrence(start):
    for inst, schedule in CASES[start : start + 50]:
        new, old = outcome(evaluate, schedule, inst), outcome(dyadic_evaluate, schedule, inst)
        if old[0] != "ok":
            assert new == old
            continue
        assert new[0] == "ok"
        report, expected = new[1], old[1]
        assert report == expected  # processors (start times, overlaps) and total
        assert list(report.job_overlaps.items()) == list(expected.job_overlaps.items())
        for got, want in zip(report.processors, expected.processors):
            assert all(map(same, got.start_times, want.start_times))
            assert all(map(same, got.overlaps, want.overlaps))
        assert same(report.total, expected.total)


def eager_copy(report: EvalReport) -> EvalReport:
    """The same report through the public constructors, every field given."""
    processors = tuple(ProcessorEval(p.id, p.order, p.start_times, p.overlaps) for p in report.processors)
    return EvalReport(processors, dict(report.job_overlaps), report.total)


def test_lazy_report_equals_eager_report():
    compared = 0
    for inst, schedule in CASES:
        if outcome(evaluate, schedule, inst)[0] != "ok":
            continue
        eager = eager_copy(evaluate(schedule, inst))
        # each side unread before it is compared, in both orders
        assert evaluate(schedule, inst) == eager
        assert eager == evaluate(schedule, inst)
        assert hash(evaluate(schedule, inst)) == hash(eager)
        assert repr(evaluate(schedule, inst)) == repr(eager)
        lazy = evaluate(schedule, inst)
        assert lazy.job_overlaps == eager.job_overlaps
        assert list(lazy.job_overlaps) == [job.id for job in inst.jobs]
        assert lazy.processors == eager.processors
        compared += 1
    assert compared > 200


def test_lazy_report_is_immutable():
    inst, schedule = next((i, s) for i, s in CASES if len(i) > 2 and outcome(evaluate, s, i)[0] == "ok")
    for read_first in (False, True):
        report = evaluate(schedule, inst)
        proc = report.processors[0]
        if read_first:
            eager_copy(report)
        for obj, name in ((report, "job_overlaps"), (report, "total"), (proc, "start_times"), (proc, "overlaps")):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, ())
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
    with pytest.raises(AttributeError, match="'ProcessorEval' object has no attribute 'makespan'"):
        proc.makespan


def test_total_alone_builds_one_dyadic_per_processor(monkeypatch):
    inst = Instance(tuple(Job(f"j{i}", Dyadic(3 * i + 7, i % 5), Dyadic(i + 1, 2)) for i in range(600)), 4)
    schedule = solve_equal_weights(Instance(tuple(Job(j.id, j.p, 1) for j in inst.jobs), inst.m))
    built = []
    store = dyadic._store
    monkeypatch.setattr(dyadic, "_store", lambda *args: built.append(args[1:]) or store(*args))
    report = evaluate(schedule, inst)
    total = report.total
    assert len(built) <= 2 * inst.m  # one value and one running sum per processor
    assert report.total is total
    report.processors[0].start_times
    assert len(built) <= 2 * inst.m + 151
    report.job_overlaps
    assert len(built) <= 2 * inst.m + 151 + len(inst.jobs)
    assert report == dyadic_evaluate(schedule, inst)


def test_evaluate_matches_fraction_oracle():
    infeasible = 0
    for inst, schedule in CASES:
        try:
            report = evaluate(schedule, inst)
        except InfeasibleScheduleError as exc:
            infeasible += 1
            for proc, seq in enumerate(schedule.sequences, start=1):
                ps = [frac(inst.job(j).p) for j in seq]
                bad = oracle_first_violation(ps)
                if proc < exc.processor:
                    assert bad is None
                else:
                    assert (proc, bad) == (exc.processor, exc.position)
                    assert exc.job_id == seq[bad - 1]
                    break
            continue
        expected_total = Fraction(0)
        for proc, seq in zip(report.processors, schedule.sequences):
            pairs = [(frac(inst.job(j).p), frac(inst.job(j).w)) for j in seq]
            expected_total += oracle_value(pairs)
            times = oracle_start_times([p for p, _ in pairs])
            assert [frac(t) for t in proc.start_times] == times
            assert [frac(b) for b in proc.overlaps] == [(p - t) / 2 for (p, _), t in zip(pairs, times)]
        assert frac(report.total) == expected_total
    assert 20 < infeasible < len(CASES) - 100  # both outcomes are exercised


# -- report texts -----------------------------------------------------------------


def text_cases():
    """Feasible ``(inst, schedule)`` pairs: the seeded cases, one with every
    start time an integer, one with two of three processors empty, one with
    no jobs, and one processor whose scale passes 8192."""
    cases = [(i, s) for i, s in CASES if outcome(evaluate, s, i)[0] == "ok"]
    # p_i = T_i + 2 makes every T_{i+1} = T_i + 1 and every overlap 1
    integral = Instance(tuple(Job(f"i{k}", k + 2, 1) for k in range(6)), 1)
    cases.append((integral, SyncSchedule((tuple(job.id for job in integral.jobs),))))
    sparse = Instance((Job("a", 3, 1), Job("b", 5, 2), Job("c", 1, 1)), 3)
    cases.append((sparse, SyncSchedule(((), ("a", "b"), ()))))
    cases.append((Instance((), 2), SyncSchedule(((), ()))))
    tiny = Job("tiny", Dyadic.from_string("1/2^8192"), 1)
    deep = Instance((tiny, Job("x", 1, 3), Job("y", 5, 1)), 1)
    cases.append((deep, SyncSchedule((("tiny", "x", "y"),))))
    return cases


def report_texts(report):
    """Each processor's start-time and overlap texts, and each job's
    overlap text, as the chunks of ``_report_chunks`` print them."""
    data = json.loads("".join(_report_chunks(report)))
    processors = [(proc["start_times"], proc["overlaps"]) for proc in data["processors"]]
    return processors, data["job_overlaps"]


def test_report_texts_match_str_of_fields_and_fraction_oracle():
    scales = []
    for inst, schedule in text_cases():
        lazy = evaluate(schedule, inst)
        processors, jobs = report_texts(lazy)
        scales += [proc._scale for proc in lazy.processors]
        report = evaluate(schedule, inst)  # its fields are Dyadic values, printed by str
        assert len(processors) == inst.m
        for (starts, bars), proc in zip(processors, report.processors):
            assert starts == [str(t) for t in proc.start_times]
            assert bars == [str(b) for b in proc.overlaps]
            # str of a Fraction is its lowest terms: an odd numerator, or no denominator
            ps = [frac(inst.job(j).p) for j in proc.order]
            times = oracle_start_times(ps)
            assert starts == [str(t) for t in times]
            assert bars == [str((p - t) / 2) for p, t in zip(ps, times)]
        assert jobs == {job_id: str(value) for job_id, value in report.job_overlaps.items()}
        assert list(jobs) == sorted(job.id for job in inst.jobs)
    assert max(scales) > 8192


def test_report_texts_of_integer_times_and_empty_processors():
    inst = Instance(tuple(Job(f"i{k}", k + 2, 1) for k in range(4)) + (Job("idle", 7, 1),), 3)
    schedule = SyncSchedule(((), ("i0", "i1", "i2", "i3"), ()))
    processors, jobs = report_texts(evaluate(schedule, inst))
    assert processors == [(["0"], []), (["0", "1", "2", "3", "4"], ["1"] * 4), (["0"], [])]
    assert jobs == {"i0": "1", "i1": "1", "i2": "1", "i3": "1", "idle": "0"}


def test_text_matches_str_of_the_value():
    rng = random.Random(11)
    dens = {}
    for _ in range(3000):
        e = rng.choice([0, 1, rng.randint(0, 40), rng.randint(0, 9000)])
        num = rng.choice([0, 1, -1, rng.getrandbits(60) - (1 << 59)])
        num <<= rng.choice([0, 0, rng.randint(0, e + 3)])
        text = dyadic._text(num, e, dens)
        assert text == dyadic._text(num, e) == str(dyadic._make(num, e)) == str(Fraction(num, 1 << e))
    # every denominator text is kept under its reduced exponent
    assert all(text == str(1 << e) for e, text in dens.items()) and 0 not in dens


def test_eval_command_builds_dyadic_values_per_processor_not_per_job(tmp_path, monkeypatch, capsys):
    calls = 0
    make = dyadic._make

    def counted(mantissa, exponent):
        nonlocal calls
        calls += 1
        return make(mantissa, exponent)

    monkeypatch.setattr(dyadic, "_make", counted)
    monkeypatch.setattr(engine, "_make", counted)

    def run(n, m):
        nonlocal calls
        rng = random.Random(n + m)
        jobs = [{"id": f"j{i}", "p": str(rng.randint(1, 10**6)), "w": "3"} for i in range(n)]
        order = sorted(jobs, key=lambda job: int(job["p"]))
        procs = [{"id": k + 1, "order": [job["id"] for job in order[k::m]]} for k in range(m)]
        (tmp_path / "i.json").write_text(json.dumps({"m": m, "jobs": jobs}))
        (tmp_path / "s.json").write_text(json.dumps({"processors": procs}))
        calls = 0
        assert cli.main(["eval", str(tmp_path / "i.json"), str(tmp_path / "s.json")]) == 0
        assert len(json.loads(capsys.readouterr().out)["job_overlaps"]) == n
        return calls

    base = run(400, 4)
    assert base <= 2 * 4  # one value and one running sum per processor
    assert run(800, 4) == base
    assert run(400, 8) > base


def test_sequence_functions_match_both_references():
    rng = random.Random(7)
    for trial in range(600):
        if trial % 3 == 0:
            jobs = boundary_jobs(rng, rng.randint(0, 5))
        else:
            jobs = [Job(f"j{i}", mixed_dyadic(rng), mixed_dyadic(rng)) for i in range(rng.randint(0, 8))]
        ps = [job.p for job in jobs]
        fps = [frac(p) for p in ps]
        times = start_times(jobs)
        assert all(map(same, times, dyadic_start_times(ps)))
        assert [frac(t) for t in times] == oracle_start_times(fps)
        assert check_feasible(jobs) == dyadic_check_feasible(ps) == oracle_first_violation(fps)
        value = evaluate_sequence(jobs)
        assert same(value, dyadic_evaluate_sequence(jobs))
        assert frac(value) == oracle_value([(frac(job.p), frac(job.w)) for job in jobs])


def test_boundary_p_equal_to_start_time():
    # T_2 = 2 after a job of length 4: p = 2 is infeasible, p = 2 + 2^-30 is not
    assert check_feasible([4, 2]) == 2
    assert check_feasible([4, Dyadic(2**31 + 1, 30)]) is None
    inst = Instance((Job("a", 4, 1), Job("b", 2, 1), Job("c", Dyadic(5, 1), 3)), 2)
    with pytest.raises(InfeasibleScheduleError) as exc:
        evaluate(SyncSchedule((("c",), ("a", "b"))), inst)
    assert (exc.value.processor, exc.value.position, exc.value.job_id) == (2, 2, "b")
    assert str(exc.value) == str(outcome(dyadic_evaluate, SyncSchedule((("c",), ("a", "b"))), inst)[1])


def test_errors_raised_in_processor_order():
    inst = Instance((Job("a", 4, 1), Job("b", 2, 1), Job("c", 1, 1)), 2)
    for sequences in (
        (("a", "b"), ("zz",)),  # infeasible on processor 1 before the unknown id
        (("zz",), ("a", "b")),  # unknown id on processor 1 first
    ):
        schedule = SyncSchedule(sequences)
        new, old = outcome(evaluate, schedule, inst), outcome(dyadic_evaluate, schedule, inst)
        assert new == old and new[0] != "ok"
    schedule = SyncSchedule((("a",),))
    assert outcome(evaluate, schedule, inst) == outcome(dyadic_evaluate, schedule, inst)


def test_empty_inputs():
    assert start_times([]) == [ZERO]
    assert check_feasible([]) is None
    assert same(evaluate_sequence([]), ZERO)
    for inst in (Instance((), 3), Instance((Job("a", Dyadic(3, 5), Dyadic(1, 9)),), 2)):
        schedule = SyncSchedule(((),) * inst.m)
        report = evaluate(schedule, inst)
        assert report == dyadic_evaluate(schedule, inst)
        assert same(report.total, ZERO)
        assert all(proc.start_times == (ZERO,) and proc.overlaps == () for proc in report.processors)
    assert solve_equal_weights(Instance((), 2)) == SyncSchedule(((), ()))
    assert same(equal_weights_value([]), ZERO)
    assert same(equal_weights_value([[], []]), ZERO)
    assert same(single_processor_ascending([]), ZERO)


def test_clear_denominators():
    assert _clear_denominators([]) == ([], 0)
    values = [Dyadic(3, 2), Dyadic(5), Dyadic(-7, 5), ZERO]
    ints, e = _clear_denominators(values)
    assert e == 5
    assert [Fraction(i, 2**e) for i in ints] == [frac(v) for v in values]


# -- equal-weight solver ---------------------------------------------------------


def tie_heavy_instance(rng: random.Random, max_m: int = 6) -> Instance:
    n = rng.randint(0, 40)
    pool = [mixed_dyadic(rng, max_exp=4) for _ in range(rng.randint(1, 4))]
    ids = [f"j{i}" for i in range(n)]
    rng.shuffle(ids)  # ids out of instance order, and "j10" < "j9" as strings
    w = mixed_dyadic(rng)
    return Instance(tuple(Job(job_id, rng.choice(pool), w) for job_id in ids), rng.randint(1, max_m))


def test_solve_equal_weights_matches_dyadic_sort():
    rng = random.Random(11)
    for _ in range(300):
        inst = tie_heavy_instance(rng)
        schedule = solve_equal_weights(inst)
        assert schedule == dyadic_solve_equal_weights(inst)
        report = evaluate(schedule, inst)
        # equal weights: the value is w times the sum of the makespans
        w = frac(inst.jobs[0].w) if inst.jobs else Fraction(0)
        makespans = sum(
            (oracle_start_times([frac(inst.job(j).p) for j in seq])[-1] for seq in schedule.sequences),
            Fraction(0),
        )
        assert frac(report.total) == w * makespans


def test_solve_equal_weights_matches_three_sort_deal():
    rng = random.Random(15)
    for _ in range(2_500):
        inst = tie_heavy_instance(rng, max_m=9)
        assert solve_equal_weights(inst) == three_sort_solve_equal_weights(inst)


def test_solve_equal_weights_ties_by_ascending_id():
    inst = Instance(tuple(Job(job_id, 5, 1) for job_id in ("d", "b", "e", "a", "c")), 2)
    # descending p with ties by id deals a, c, e to processor 1 and b, d to 2
    assert solve_equal_weights(inst).sequences == (("a", "c", "e"), ("b", "d"))


def test_unit_values_match_both_references():
    rng = random.Random(5)
    for _ in range(300):
        partition = [
            sorted(mixed_dyadic(rng) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 4))
        ]
        value = equal_weights_value(partition)
        assert same(value, dyadic_unit_value(partition))
        assert frac(value) == sum(
            (oracle_value([(frac(p), 1) for p in group]) for group in partition), Fraction(0)
        )
        flat = [p for group in partition for p in group]
        rng.shuffle(flat)
        best = single_processor_ascending(flat)
        assert same(best, dyadic_unit_value([sorted(flat)]))


def test_equal_weights_value_rejects_descending_lists():
    with pytest.raises(ValueError, match=r"list not ascending: 3/4 precedes 1/2"):
        equal_weights_value([[Dyadic(1, 2)], [Dyadic(3, 2), Dyadic(1, 1)]])


# -- inclusivity -----------------------------------------------------------------


def oracle_inclusive(values):
    values = sorted(frac(v) for v in values)
    return len(values) <= 1 or oracle_start_times(values[1:])[-1] < values[0]


def inclusive_candidates(rng: random.Random) -> list[Dyadic]:
    """Values in a band, so that both outcomes occur.  In about a third of
    the draws one value sits at, just below or just above the ascending
    makespan of the others: the boundary where inclusivity flips."""
    k = rng.randint(0, 7)
    base = mixed_dyadic(rng)
    values = [base + Dyadic(rng.randint(0, 1 << 12), rng.randint(0, 16)) for _ in range(k)]
    if k >= 2 and rng.random() < 0.35:
        tail = sorted(values[1:])
        makespan = dyadic_start_times(tail)[-1]
        ulp = Dyadic(1, makespan.exponent + rng.randint(0, 3))
        values[0] = makespan + rng.choice((-ulp, ZERO, ulp))
    rng.shuffle(values)
    return values


def test_inclusivity_matches_both_references():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(1500):
        ps, ws = inclusive_candidates(rng), inclusive_candidates(rng)
        got = is_processing_time_inclusive([Job(f"j{i}", p, 1) for i, p in enumerate(ps)])
        assert got == is_processing_time_inclusive(ps)
        assert got == dyadic_is_inclusive(ps) == oracle_inclusive(ps)
        weighted = [Job(f"j{i}", 1, w) for i, w in enumerate(ws)]
        assert is_weight_inclusive(weighted) == dyadic_is_inclusive(ws) == oracle_inclusive(ws)
        outcomes.add((len(ps) > 1, got))
    assert outcomes == {(False, True), (True, False), (True, True)}


def test_inclusivity_boundary():
    # ascending makespan of (8, 10) is 8/4 + 10/2 = 7: shortest 7 is not
    # inclusive, 7 + 2^-40 is, with an exponent far from the others'
    assert not is_processing_time_inclusive([10, 7, 8])
    assert is_processing_time_inclusive([10, Dyadic(7 * 2**40 + 1, 40), 8])
    assert not is_weight_inclusive([Job("a", 1, 7), Job("b", 1, 8), Job("c", 1, 10)])
    just_above = Dyadic(7 * 2**40 + 1, 40)
    assert is_weight_inclusive([Job("a", 1, just_above), Job("b", 1, 8), Job("c", 1, 10)])
    assert is_processing_time_inclusive([]) and is_weight_inclusive([])
    assert is_processing_time_inclusive([Dyadic(3, 9)]) and is_weight_inclusive([Job("a", 1, 3)])
