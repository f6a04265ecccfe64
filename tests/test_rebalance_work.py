"""The work of ``synchronize_detailed``'s push/pull loop and of its
boundaries, counted.

The loop (``transforms._rebalance``) only decides which jobs stay on
each processor: it keeps each processor's synchronized tail as a job
list, compares integers on the grid the four passes leave, and writes
nothing back.  The result is walked once through ``engine._walks``, the
one route for a synchronized schedule's times, and ``engine._layout``
puts that walk on one integer grid: the exit check and the general
schedule read that grid, and the final value is the walk's total.  So a
``parse_general_schedule`` of the input's JSON followed by one
``synchronize_detailed`` call, on a staircase (one step per job) and on
the nested family below (one push per job), makes:

* at most one ``_Grid.shift`` call, the one ``compact_idle`` makes;
* no ``_ripple`` call;
* exactly one ``engine._walks`` call;
* no ``JobPlacement.__init__`` call: the parser builds each placement by
  the trusted constructor once its checks pass, and the result's
  placements are built from the grid the same way;
* no ``SyncSchedule.__init__`` call: the loop keeps each job in at most
  one order, so the schedule is built by the trusted constructor;
* exactly two ``_violations`` calls, each on an integer grid: the entry
  check and the exit check;
* no ``value_general`` call;
* exactly five ``transforms._value`` calls: the value before the passes
  and the value after each of the four; none values the result.

``brute_force`` builds its schedule by the trusted constructor too: its
search places each job at most once.  Each step of the loop still scans
the tail once, so its work stays quadratic in the jobs of a processor on
the nested family.  The module imports neither pytest nor the test
helpers, so it runs on any supported interpreter and prints the counts
and the package's traced line events on nested n = 500::

    PYTHONPATH=src python tests/test_rebalance_work.py
"""

import contextlib
import sys
from pathlib import Path

import sharedsched
from sharedsched import engine, transforms
from sharedsched.engine import SyncSchedule
from sharedsched.model import Instance, Job
from sharedsched.solvers import brute_force
from sharedsched.transforms import (
    GeneralSchedule,
    JobPlacement,
    parse_general_schedule,
    serialize_general_schedule,
    synchronize_detailed,
)

PACKAGE = str(Path(sharedsched.__file__).resolve().parent)


def nested(n: int) -> tuple[GeneralSchedule, Instance]:
    """Job ``i`` runs ``(i, i+1)`` and ``(n+i, n+i+1)`` on one processor,
    with private completion ``n+1+i`` and weight 1."""
    placements = {
        f"j{i}": JobPlacement(1, ((i, i + 1), (n + i, n + i + 1)), n + 1 + i) for i in range(n)
    }
    jobs = tuple(Job(f"j{i}", 2 + n + 1 + i, 1) for i in range(n))
    return GeneralSchedule(placements), Instance(jobs, 1)


def staircase(per_proc: int, m: int) -> tuple[GeneralSchedule, Instance]:
    """Back-to-back single chunks from 0 with rising private completions
    past their shared ends and weights of 90 to 100: already ordered, so
    only the push/pull loop has work, one step per job."""
    placements, jobs = {}, []
    for proc in range(1, m + 1):
        cursor = private = 0
        for idx in range(per_proc):
            start, cursor = cursor, cursor + 20 + (7 * idx + proc) % 21
            private = max(private, cursor) + 1 + (5 * idx) % 8
            job_id = f"q{proc}j{idx}"
            placements[job_id] = JobPlacement(proc, ((start, cursor),), private)
            jobs.append(Job(job_id, cursor - start + private, 90 + (3 * idx) % 11))
    return GeneralSchedule(placements), Instance(tuple(jobs), m)


@contextlib.contextmanager
def counting(owner, name: str):
    """Wrap ``owner.name`` for the block; yields the list of its calls' first arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def calls(g: GeneralSchedule, inst: Instance) -> dict[str, int]:
    """The calls that parsing the JSON of ``g`` and one ``synchronize_detailed``
    of the result make to each counted function; ``_violations on grids``
    counts the calls whose argument is a ``_Grid``."""
    text = serialize_general_schedule(g)
    with (
        counting(transforms._Grid, "shift") as shifts,
        counting(transforms, "_ripple") as ripples,
        counting(engine, "_walks") as walks,
        counting(JobPlacement, "__init__") as placements,
        counting(SyncSchedule, "__init__") as schedules,
        counting(transforms, "_violations") as checks,
        counting(transforms, "value_general") as values,
        counting(transforms, "_value") as grid_values,
    ):
        synchronize_detailed(parse_general_schedule(text), inst)
    return {
        "_Grid.shift": len(shifts),
        "_ripple": len(ripples),
        "engine._walks": len(walks),
        "JobPlacement.__init__": len(placements),
        "SyncSchedule.__init__": len(schedules),
        "_violations": len(checks),
        "_violations on grids": sum(isinstance(grid, transforms._Grid) for grid in checks),
        "value_general": len(values),
        "transforms._value": len(grid_values),
    }


def line_events(g: GeneralSchedule, inst: Instance) -> int:
    """Line events in the package's own code during one ``synchronize_detailed``."""
    count = 0

    def lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return lines

    def enter(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        synchronize_detailed(g, inst)
    finally:
        sys.settrace(previous)
    return count


def check(counts: dict[str, int]) -> None:
    assert counts["_Grid.shift"] <= 1 and counts["_ripple"] == 0, counts
    assert counts["engine._walks"] == 1, counts
    assert counts["JobPlacement.__init__"] == counts["SyncSchedule.__init__"] == 0, counts
    assert counts["value_general"] == 0, counts
    assert counts["_violations"] == counts["_violations on grids"] == 2, counts
    assert counts["transforms._value"] == 5, counts


def test_staircase_makes_one_walk_and_no_ripple():
    check(calls(*staircase(75, 2)))


def test_nested_makes_one_walk_and_no_ripple():
    check(calls(*nested(200)))


def test_brute_force_builds_its_schedule_trusted():
    inst = Instance(tuple(Job(f"j{i}", 1 + i, 1 + 3 * i % 4) for i in range(5)), 2)
    with counting(SyncSchedule, "__init__") as schedules:
        schedule, _ = brute_force(inst)
    assert schedules == []
    ids = [job_id for seq in schedule.sequences for job_id in seq]
    assert len(ids) == len(set(ids)) and set(ids) <= {job.id for job in inst.jobs}


if __name__ == "__main__":
    cases = {"staircase 75 x 2": staircase(75, 2), "nested n = 200": nested(200)}
    for name, case in cases.items():
        counts = calls(*case)
        print(f"{name:>18}  " + "  ".join(f"{key} {value}" for key, value in counts.items()))
        check(counts)
    print(f"{'nested n = 500':>18}  line events {line_events(*nested(500))}")
