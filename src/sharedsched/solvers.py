"""Schedule optimization: equal-weight exact solver, exhaustive oracle,
and exchange-based local search.

The equal-weight solver runs in O(n log n): sort jobs by descending
processing time, deal them round-robin across the m shared processors
(so any two jobs on one processor carry different positional weights
1/2, 1/4, ..., and the first ``n - (ceil(n/m) - 1) * m`` processors get
one extra job), then run each processor's jobs in ascending order.  With
unit weights an order's value telescopes to its makespan.  The
unit-weight values and the local search walk each order once, in ``engine._halving``.

``brute_force`` is the exact oracle: it finds the best assignment of
each job to {private-only, processor 1..m} with the best feasible
per-processor orders, and returns a maximizer with a deterministic
tie-break.  Its search runs in ``_permsearch`` on integers scaled by
powers of two: a dominance DP gives every job subset its best order,
then a sweep over canonical processor labellings picks the assignment.
"""

from __future__ import annotations

import math
from typing import Sequence

from .dyadic import ZERO, Dyadic, _clear_denominators, _make
from .engine import SyncSchedule, _ascending, _halving, _times, _weighted_sum, evaluate
from .model import Instance, Job, _Record

__all__ = [
    "PositionalWeights",
    "SearchLimits",
    "InstanceTooLargeError",
    "UnequalWeightsError",
    "positional_weights",
    "solve_equal_weights",
    "equal_weights_value",
    "single_processor_ascending",
    "brute_force",
    "improve_by_exchanges",
    "search_backend",
]


class InstanceTooLargeError(ValueError):
    """Exhaustive search refused: instance exceeds the search limits."""


class UnequalWeightsError(ValueError):
    """The equal-weight solver was given unequal weights."""


class SearchLimits(_Record):
    """Guard rails for exhaustive search."""

    __match_args__ = ("max_jobs", "max_candidates")

    def __init__(self, max_jobs: int = 8, max_candidates: int = 10_000_000):
        if max_jobs < 1 or max_candidates < 1:
            raise ValueError("search limits must be positive")
        self.__dict__.update(max_jobs=max_jobs, max_candidates=max_candidates)


class PositionalWeights(_Record):
    """The non-increasing weight sequence matched against sorted jobs.

    ``k`` is the largest per-processor job count, ``tail`` the number of
    processors receiving a k-th job, and ``weights`` holds exactly n
    entries: m copies each of 1/2, ..., 1/2^(k-1), then tail copies of
    1/2^k.
    """

    __match_args__ = ("k", "tail", "weights")

    def __init__(self, k: int, tail: int, weights: tuple[Dyadic, ...]):
        self.__dict__.update(k=k, tail=tail, weights=weights)


def positional_weights(n: int, m: int) -> PositionalWeights:
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if n == 0:
        return PositionalWeights(0, 0, ())
    k = math.ceil(n / m)
    tail = n - (k - 1) * m
    weights = [_make(1, depth) for depth in range(1, k) for _ in range(m)]
    weights.extend(_make(1, k) for _ in range(tail))
    return PositionalWeights(k, tail, tuple(weights))


def solve_equal_weights(inst: Instance) -> SyncSchedule:
    """Optimal schedule for equal weights; every job lands on a shared
    processor and every per-processor order is ascending."""
    if not inst.equal_weights():
        raise UnequalWeightsError("weights are not all equal; use brute_force instead")
    jobs = inst.jobs
    keys, _ = _clear_denominators([job.p for job in jobs])
    # stable two-pass sorts on the integer keys: ties broken by ascending id
    by_id = sorted(range(len(jobs)), key=lambda i: jobs[i].id)
    rank = [0] * len(jobs)
    for idx, i in enumerate(sorted(by_id, key=keys.__getitem__, reverse=True)):
        rank[i] = idx  # deal in descending order: job i goes to processor rank % m
    buckets: list[list[str]] = [[] for _ in range(inst.m)]
    for i in sorted(by_id, key=keys.__getitem__):
        buckets[rank[i] % inst.m].append(jobs[i].id)
    return SyncSchedule(tuple(tuple(bucket) for bucket in buckets))


def equal_weights_value(partition: Sequence[Sequence]) -> Dyadic:
    """Unit-weight value of ascending per-processor job lists:
    sum of p_i / 2^(size+1-i) over each list."""
    groups = [_times(group) for group in partition]  # coerce every list before any check
    total = ZERO
    for ps in groups:
        # with unit weights the total overlap telescopes to the makespan T_{k+1}
        for idx in range(1, len(ps)):
            if ps[idx] < ps[idx - 1]:
                raise ValueError(f"list not ascending: {ps[idx - 1]} precedes {ps[idx]}")
        times, s, _ = _halving(ps)
        total = total + _make(times[-1], s)
    return total


def single_processor_ascending(jobs: Sequence) -> Dyadic:
    """Best single-shared-processor value for unit weights: run jobs in
    ascending order, yielding p_n/2 + p_{n-1}/4 + ... + p_1/2^n."""
    times, s, _ = _halving(_ascending(_times(jobs)))
    return _make(times[-1], s)


def search_backend() -> str:
    """The exhaustive-search backend; always "pure" Python."""
    return "pure"


def brute_force(
    inst: Instance, limits: SearchLimits = SearchLimits()
) -> tuple[SyncSchedule, Dyadic]:
    """Exact optimum by exhaustive search.

    Every assignment of each job to {private-only, processor 1..m} is
    combined with every feasible per-processor order, up to dominated
    order prefixes and relabellings of the processors, neither of which
    can change the optimum or its tie-break.  Ties are broken
    deterministically: lexicographically smallest assignment vector (in
    instance job order), then lexicographically smallest orders.
    """
    n = len(inst)
    if n > limits.max_jobs:
        raise InstanceTooLargeError(
            f"{n} jobs exceeds the limit of {limits.max_jobs}; raise max_jobs to force"
        )
    from . import _permsearch  # only brute loads the search module
    order_work = sum(math.comb(n, k) * math.factorial(k) for k in range(n + 1))
    assign_work = _permsearch._labelling_count(n, inst.m)
    if order_work + assign_work > limits.max_candidates:
        raise InstanceTooLargeError(
            f"about {order_work + assign_work} candidates exceeds "
            f"max_candidates = {limits.max_candidates}"
        )
    ps, p_exp = _clear_denominators([job.p for job in inst.jobs])
    ws, w_exp = _clear_denominators([job.w for job in inst.jobs])
    best_num, _, orders = _permsearch.search(ps, ws, inst.m)
    schedule = SyncSchedule(
        tuple(tuple(inst.jobs[j].id for j in order) for order in orders)
    )
    return schedule, _make(best_num, n + p_exp + w_exp)


def improve_by_exchanges(schedule: SyncSchedule, inst: Instance) -> SyncSchedule:
    """Local search by adjacent transpositions.

    Applies any adjacent swap that keeps the order feasible and strictly
    increases the value, recomputing true values by full evaluation
    rather than trusting the closed-form delta outside its inclusivity
    hypothesis.  Terminates because each applied swap strictly increases
    the total and there are finitely many orders.
    """
    evaluate(schedule, inst)  # rejects infeasible input with a located error
    orders = [[inst.job(job_id) for job_id in seq] for seq in schedule.sequences]
    improved = True
    while improved:
        improved = False
        for jobs in orders:
            value = _scaled_value(jobs)
            for pos in range(len(jobs) - 1):
                swapped = jobs[:pos] + [jobs[pos + 1], jobs[pos]] + jobs[pos + 2 :]
                swapped_value = _scaled_value(swapped)
                if swapped_value is not None and swapped_value > value:
                    jobs[:] = swapped
                    value = swapped_value
                    improved = True
    return SyncSchedule(tuple(tuple(job.id for job in jobs) for jobs in orders))


def _scaled_value(jobs: list[Job]) -> int | None:
    """An order's value times ``2**(s + f)``, or None when it is infeasible;
    s and f depend only on the job set, which every order of it shares."""
    times, _, bad = _halving([job.p for job in jobs])
    if bad is not None:
        return None
    ws, _ = _clear_denominators([job.w for job in jobs])
    return _weighted_sum(times, ws)
