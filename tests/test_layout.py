"""The one integer layout of a synchronized schedule, against the paths it replaced.

``engine._layout`` puts the walk of every processor of an evaluated
schedule, and each job's private completion, on one integer scale.
``from_synchronized`` builds its general schedule from that grid, and
``gantt`` computes its columns on it.  Test-local copies of the replaced
paths check both, with the tie-break included:

* ``replaced_from_synchronized`` built ``Dyadic`` start times from the
  report and passed them to ``JobPlacement``'s public constructor.  The
  two must agree, by equality and by serialized text, on the synchronized
  results of the canonicalization corpus, the preempted schedules, the
  staircases, the staircases that empty synchronized jobs and the nested
  family, and on random synchronized schedules; they must raise the same
  errors for an ``m`` mismatch, an unknown job id and an infeasible order.
* ``replaced_gantt`` compared ``Dyadic`` columns through ``_bar_column``;
  the chart must be byte for byte the same for widths 1 to 200.

The layout's times are also checked against the ``Fraction`` recurrence
of ``tests/conftest.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sharedsched import cli, engine
from sharedsched.dyadic import Dyadic
from sharedsched.engine import (
    InfeasibleScheduleError,
    SyncSchedule,
    evaluate,
    serialize_sync_schedule,
)
from sharedsched.model import InstanceError, serialize_instance
from sharedsched.transforms import (
    GeneralSchedule,
    JobPlacement,
    from_synchronized,
    serialize_general_schedule,
    synchronize_detailed,
)

from conftest import frac, make_instance, oracle_start_times
from test_transforms_grid import PREEMPTED_CASES, REBALANCED


def replaced_from_synchronized(schedule, inst):
    """``from_synchronized`` before the layout: ``Dyadic`` start times and
    the public ``JobPlacement`` constructor."""
    report = evaluate(schedule, inst)
    placements = {}
    for proc in report.processors:
        t = proc.start_times
        for idx, job_id in enumerate(proc.order):
            placements[job_id] = JobPlacement(proc.id, ((t[idx], t[idx + 1]),), t[idx + 1])
    for job in inst.jobs:
        if job.id not in placements:
            placements[job.id] = JobPlacement(None, (), job.p)
    return GeneralSchedule(placements)


def _bar_column(t, horizon, width):
    # floor(t * width / horizon) in exact integer arithmetic
    num = (t.mantissa << horizon.exponent) * width
    den = horizon.mantissa << t.exponent
    return num // den


def replaced_gantt(inst, schedule, width):
    """The chart ``gantt`` printed with ``Dyadic`` columns."""
    report = evaluate(schedule, inst)
    private_end = {job.id: job.p for job in inst.jobs}
    for proc in report.processors:
        private_end.update(zip(proc.order, proc.start_times[1:]))
    horizon = max(private_end.values(), default=Dyadic(0))
    lines = [f"time 0..{horizon}  ({width} columns)"]
    labels = [f"M{proc.id}" for proc in report.processors]
    labels += [f"P {job.id}" for job in inst.jobs]
    pad = max((len(label) for label in labels), default=0)
    for proc in report.processors:
        cells = [" "] * width
        for start, end, job_id in zip(proc.start_times, proc.start_times[1:], proc.order):
            lo = _bar_column(start, horizon, width)
            hi = max(_bar_column(end, horizon, width), lo + 1)
            hi = min(hi, width)
            fill = (job_id * ((hi - lo) // len(job_id) + 1))[: hi - lo]
            cells[lo:hi] = list(fill)
        lines.append(f"{f'M{proc.id}'.ljust(pad)} |{''.join(cells)}|")
    for job in inst.jobs:
        cells = [" "] * width
        hi = max(_bar_column(private_end[job.id], horizon, width), 1)
        hi = min(hi, width)
        cells[0:hi] = ["="] * hi
        lines.append(f"{f'P {job.id}'.ljust(pad)} |{''.join(cells)}|")
    return "\n".join(lines) + "\n"


def random_sync_case(rng, feasible=True):
    """A random instance with dyadic ``p`` of exponents 0 to 12 and a job
    order per processor; some processors stay empty and some jobs run on
    none.  With ``feasible``, each order is ascending in ``p`` (ties by id),
    which the recurrence always accepts; otherwise it is shuffled."""
    m = rng.randint(1, 4)
    specs = []
    for idx in range(rng.randint(0, 8)):
        p = Dyadic(rng.randint(1, 64), rng.randint(0, 12))
        w = Dyadic(rng.randint(1, 9), rng.randint(0, 2))
        specs.append((f"j{idx}" + "x" * rng.randint(0, 3), p, w))
    inst = make_instance(specs, m)
    ids = [job.id for job in inst.jobs]
    rng.shuffle(ids)
    sequences = [[] for _ in range(m)]
    for job_id in ids[: rng.randint(0, len(ids))]:
        sequences[rng.randrange(m)].append(job_id)
    if feasible:
        for seq in sequences:
            seq.sort(key=lambda job_id: (inst.job(job_id).p, job_id))
    return inst, SyncSchedule(sequences)


RANDOM_CASES = [random_sync_case(random.Random(seed)) for seed in range(300)]


def _fields(general):
    return general, serialize_general_schedule(general), list(general.placements)


def _outcome(fn, schedule, inst):
    try:
        return _fields(fn(schedule, inst))
    except InfeasibleScheduleError as exc:
        return type(exc), str(exc), exc.position, exc.job_id, exc.processor
    except InstanceError as exc:
        return type(exc), str(exc)


def assert_same_layout(schedule, inst):
    new = _outcome(from_synchronized, schedule, inst)
    old = _outcome(replaced_from_synchronized, schedule, inst)
    # placements now come in instance order; equality and the text ignore the order
    assert new[:2] == old[:2]
    if isinstance(new[0], GeneralSchedule):
        assert new[2] == [job.id for job in inst.jobs]


def assert_same_result(g, inst):
    """``synchronize_detailed``'s general schedule, and ``from_synchronized``
    of its synchronized schedule, match the replaced layout."""
    report = synchronize_detailed(g, inst)
    assert_same_layout(report.schedule, inst)
    assert _fields(report.general) == _outcome(from_synchronized, report.schedule, inst)


def test_random_cases_cover_the_layouts_edges():
    seen = set()
    for inst, schedule in RANDOM_CASES:
        scales = [proc._scale for proc in evaluate(schedule, inst).processors]
        on = schedule.scheduled_ids()
        seen.add("empty processor" if () in schedule.sequences else "no empty processor")
        seen.add("job on no processor" if len(on) < len(inst) else "every job on a processor")
        if any(inst.job(job_id).p.exponent > min(scales) for job_id in on):
            seen.add("p finer than another processor's walk")
        if any(job.p.exponent > max(scales) for job in inst.jobs if job.id not in on):
            seen.add("private-only p finer than every walk")
    assert seen == {
        "empty processor",
        "no empty processor",
        "job on no processor",
        "every job on a processor",
        "p finer than another processor's walk",
        "private-only p finer than every walk",
    }


@pytest.mark.parametrize("name,g,inst", REBALANCED, ids=[case[0] for case in REBALANCED])
def test_synchronized_results_match_the_replaced_layout(name, g, inst):
    assert_same_result(g, inst)


@pytest.mark.parametrize("group", range(4))
def test_preempted_results_match_the_replaced_layout(group):
    for g, inst in PREEMPTED_CASES[group::4]:
        assert_same_result(g, inst)


def test_random_schedules_match_the_replaced_layout():
    for inst, schedule in RANDOM_CASES:
        assert_same_layout(schedule, inst)


def test_errors_match_the_replaced_layout():
    rng = random.Random(26)
    kinds = set()
    for seed in range(300):
        inst, schedule = random_sync_case(random.Random(seed), feasible=False)
        sequences = [list(seq) for seq in schedule.sequences]
        change = rng.randrange(3)
        if change == 1:  # an unknown job id
            seq = rng.choice(sequences)
            seq.insert(rng.randint(0, len(seq)), "unknown")
        elif change == 2:  # one processor more or fewer than the instance has
            sequences = sequences + [[]] if len(sequences) == 1 or rng.random() < 0.5 else sequences[:-1]
        outcome = _outcome(replaced_from_synchronized, SyncSchedule(sequences), inst)
        kinds.add(outcome[0] if isinstance(outcome[0], type) else GeneralSchedule)
        assert_same_layout(SyncSchedule(sequences), inst)
    assert kinds == {GeneralSchedule, InstanceError, InfeasibleScheduleError}


def test_layout_times_match_the_fraction_recurrence():
    for inst, schedule in RANDOM_CASES:
        scale, chunks, private = engine._layout(evaluate(schedule, inst))
        assert list(chunks) == [proc for proc, seq in enumerate(schedule.sequences, start=1) if seq]
        assert list(private) == [job.id for job in inst.jobs]
        ends = {job.id: frac(job.p) for job in inst.jobs}
        for proc, seq in enumerate(schedule.sequences, start=1):
            times = oracle_start_times([frac(inst.job(job_id).p) for job_id in seq])
            laid = [(Fraction(a, 1 << scale), Fraction(b, 1 << scale), j) for a, b, j in chunks.get(proc, [])]
            assert laid == list(zip(times, times[1:], seq))
            ends.update(zip(seq, times[1:]))
        assert {j: Fraction(c, 1 << scale) for j, c in private.items()} == ends


def test_gantt_matches_the_replaced_columns(tmp_path, capsys):
    for seed, (inst, schedule) in enumerate(RANDOM_CASES[:40]):
        inst_path, sched_path = tmp_path / f"i{seed}.json", tmp_path / f"s{seed}.json"
        inst_path.write_text(serialize_instance(inst), encoding="utf-8")
        sched_path.write_text(serialize_sync_schedule(schedule), encoding="utf-8")
        for width in range(1, 201):
            # the command itself, without building the argument parser 8,000 times
            args = SimpleNamespace(instance=str(inst_path), schedule=str(sched_path), width=width)
            assert cli._cmd_gantt(args) == 0
            assert capsys.readouterr().out == replaced_gantt(inst, schedule, width), (seed, width)
