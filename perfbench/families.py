"""Seeded input families for the CLI benchmark.

Every generator takes a ``random.Random`` and returns plain JSON-ready
dicts in the package's file formats; the program under test only ever
sees the files written from them.  The same seed always gives the same
bytes.  Processing times, weights and interval ends are integer
strings, so the inputs are exact.

Each workload draws a *pool* of cases from one seed and the benchmark
cycles through the pool in order, so every run sees the same mix of
families regardless of how many calls fit in its time budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["Case", "WORKLOADS", "SCALES", "build_pool"]


@dataclass(frozen=True)
class Case:
    """One CLI call: its subcommand, its input documents and its size."""

    label: str
    command: str
    instance: dict
    schedule: dict | None = None
    extra_args: tuple[str, ...] = ()
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.instance["jobs"]))
        object.__setattr__(self, "m", self.instance["m"])


def _job_ids(n: int) -> list[str]:
    return [f"j{idx}" for idx in range(n)]


# -- equal weights -------------------------------------------------------------


def equal_instance(rng: random.Random, n: int, m: int) -> dict:
    """Equal weights, ``p`` uniform in [1, 10^6].

    Why: the O(n log n) solver and the halving recurrence do all the
    work (parse, sort, evaluate, Dyadic arithmetic on values whose
    denominators reach 2^(n/m)); there is no search and the solve output
    is small.
    """
    w = str(rng.randint(1, 100))
    return {
        "m": m,
        "jobs": [{"id": job_id, "p": str(rng.randint(1, 10**6)), "w": w} for job_id in _job_ids(n)],
    }


def ascending_schedule(rng: random.Random, instance: dict) -> dict:
    """Jobs dealt to processors in a shuffled round robin, each processor
    ascending in ``p``.

    Why: ascending order is always feasible (every start time is below
    the previous job's length), so ``eval`` reports every start time and
    overlap of a full schedule: the same engine and Dyadic layers as
    ``solve`` but bound by formatting a large output.
    """
    m = instance["m"]
    jobs = list(instance["jobs"])
    rng.shuffle(jobs)
    buckets: list[list[dict]] = [[] for _ in range(m)]
    for idx, job in enumerate(jobs):
        buckets[idx % m].append(job)
    return {
        "processors": [
            {"id": proc, "order": [j["id"] for j in sorted(bucket, key=lambda j: (int(j["p"]), j["id"]))]}
            for proc, bucket in enumerate(buckets, start=1)
        ]
    }


# -- exhaustive search ---------------------------------------------------------


def search_instance(rng: random.Random, n: int, m: int, band: bool) -> dict:
    """Unequal weights in [1, 100]; ``p`` in a narrow band [900, 1000] or
    wide in [1, 100].

    Why: in a narrow band nearly every order is feasible, so the
    per-subset order search dominates; with wide ``p`` pruning is heavy
    and the (m+1)^n assignment sweep dominates.  Only this family runs
    the search kernel; Dyadic and engine do almost nothing here.
    """
    lo, hi = (900, 1000) if band else (1, 100)
    return {
        "m": m,
        "jobs": [
            {"id": job_id, "p": str(rng.randint(lo, hi)), "w": str(rng.randint(1, 100))}
            for job_id in _job_ids(n)
        ],
    }


# -- general schedules for canonicalization ------------------------------------


def interleaved_schedule(rng: random.Random, per_proc: int, m: int) -> tuple[dict, dict]:
    """Every job has two shared chunks, all first chunks before all second
    chunks, with an idle hole before every chunk; private completions lie
    at or past the shared completion (a normal schedule).

    Why: each hole costs ``compact_idle`` one pass over the processor and
    each preempted job costs ``merge_preemptions`` one left shift, so
    these two passes dominate.
    """
    jobs, placements = [], []
    for proc in range(1, m + 1):
        ids = [f"q{proc}j{idx}" for idx in range(per_proc)]
        chunks: dict[str, list[tuple[int, int]]] = {job_id: [] for job_id in ids}
        cursor = 0
        for _ in range(2):
            for job_id in ids:
                start = cursor + rng.randint(1, 4)
                cursor = start + rng.randint(2, 12)
                chunks[job_id].append((start, cursor))
        for job_id in ids:
            private = chunks[job_id][-1][1] + rng.randint(0, 6)
            shared = sum(b - a for a, b in chunks[job_id])
            jobs.append({"id": job_id, "p": str(shared + private), "w": str(rng.randint(1, 100))})
            placements.append(
                {
                    "id": job_id,
                    "shared_processor": proc,
                    "shared_intervals": [[str(a), str(b)] for a, b in chunks[job_id]],
                    "private_completion": str(private),
                }
            )
    return {"m": m, "jobs": jobs}, {"jobs": placements}


def staircase_schedule(rng: random.Random, per_proc: int, m: int) -> tuple[dict, dict]:
    """Back-to-back single shared chunks from time 0 whose private
    completions lie past their shared ends and rise along the order.

    Why: the schedule is already normal, gap free, non-preemptive and
    ordered, so the four passes are cheap and every job needs its own
    push/pull step, each rippling through the jobs behind it: the
    rebalancing loop dominates, with Dyadic exponents growing per ripple.
    """
    jobs, placements = [], []
    for proc in range(1, m + 1):
        cursor = 0
        private = 0
        for idx in range(per_proc):
            job_id = f"q{proc}j{idx}"
            start = cursor
            cursor = start + rng.randint(20, 40)
            private = max(private, cursor) + rng.randint(1, 8)
            jobs.append(
                {"id": job_id, "p": str(cursor - start + private), "w": str(rng.randint(90, 100))}
            )
            placements.append(
                {
                    "id": job_id,
                    "shared_processor": proc,
                    "shared_intervals": [[str(start), str(cursor)]],
                    "private_completion": str(private),
                }
            )
    return {"m": m, "jobs": jobs}, {"jobs": placements}


# -- workload pools ------------------------------------------------------------

# Sizes per scale.  "bench" keeps one CLI call at roughly 0.3-0.8 s on a
# 2-core x86 machine (CPython 3.11, pure search backend) so that a run of
# tens of seconds gathers enough calls for a median and a tail; "small"
# is for the benchmark's own tests.
SCALES = {
    "bench": {
        "equal_n": 5_000,
        "eval_n": 4_000,
        "search_n": 8,
        "interleaved_per_proc": 24,
        "staircase_per_proc": 150,
        "pool": 12,
    },
    "small": {
        "equal_n": 60,
        "eval_n": 40,
        "search_n": 5,
        "interleaved_per_proc": 6,
        "staircase_per_proc": 8,
        "pool": 4,
    },
}


def _equal_solve(rng: random.Random, size: dict) -> list[Case]:
    return [
        Case(f"equal-{idx:02d}", "solve", equal_instance(rng, size["equal_n"], 8))
        for idx in range(size["pool"])
    ]


def _equal_eval(rng: random.Random, size: dict) -> list[Case]:
    cases = []
    for idx in range(size["pool"]):
        instance = equal_instance(rng, size["eval_n"], 8)
        cases.append(Case(f"eval-{idx:02d}", "eval", instance, ascending_schedule(rng, instance)))
    return cases


def _exhaustive(rng: random.Random, size: dict) -> list[Case]:
    # m cycles 1, 2, 3; three of every four cases are narrow-band so the
    # median call falls inside the band mode rather than between modes.
    cases = []
    n = size["search_n"]
    for idx in range(size["pool"]):
        m = 1 + idx % 3
        band = idx % 4 != 3
        cases.append(
            Case(
                f"{'band' if band else 'wide'}-m{m}-{idx:02d}",
                "brute",
                search_instance(rng, n, m, band),
                extra_args=("--max-jobs", str(n)),
            )
        )
    return cases


def _canonicalize(rng: random.Random, size: dict) -> list[Case]:
    cases = []
    for idx in range(size["pool"]):
        if idx % 2 == 0:
            instance, schedule = interleaved_schedule(rng, size["interleaved_per_proc"], 2)
            label = "interleaved"
        else:
            instance, schedule = staircase_schedule(rng, size["staircase_per_proc"], 2)
            label = "staircase"
        cases.append(Case(f"{label}-{idx:02d}", "transform", instance, schedule))
    return cases


WORKLOADS = {
    "equal-solve": _equal_solve,
    "equal-eval": _equal_eval,
    "exhaustive": _exhaustive,
    "canonicalize": _canonicalize,
}


def build_pool(workload: str, seed: int, scale: str = "bench") -> list[Case]:
    """The workload's cases for one seed; deterministic in (workload, seed, scale)."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, SCALES[scale])
