"""Schedule optimization: equal-weight exact solver and exhaustive oracle.

The equal-weight solver runs in O(n log n): sort jobs by descending
processing time, deal them round-robin across the m shared processors
(so any two jobs on one processor carry different positional weights
1/2, 1/4, ..., and the first ``n - (ceil(n/m) - 1) * m`` processors get
one extra job), then run each processor's jobs in ascending order.  With
unit weights an order's value telescopes to its makespan.  The
unit-weight values walk each order once, in ``engine._walk``.

``brute_force`` is the exact oracle: it finds the best assignment of
each job to {private-only, processor 1..m} with the best feasible
per-processor orders, and returns a maximizer with a deterministic
tie-break.  Its search runs in ``_permsearch`` on integers scaled by
powers of two: a dominance DP gives every job subset its best order,
then a sweep over canonical processor labellings picks the assignment.
"""

from __future__ import annotations

from typing import Sequence

from .dyadic import ZERO, Dyadic, _clear_denominators, _make
from .engine import SyncSchedule, _ascending, _field, _walk
from .model import Instance, Job, _Record, _trusted

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
    k = -(-n // m)
    tail = n - (k - 1) * m
    weights = [_make(1, depth) for depth in range(1, k) for _ in range(m)]
    weights.extend(_make(1, k) for _ in range(tail))
    return PositionalWeights(k, tail, tuple(weights))


def _deal(inst: Instance) -> list[list[Job]]:
    """Each processor's jobs in the equal-weight deal, ascending in ``p``:
    descending ``p`` with ties by ascending id, dealt round robin."""
    if not inst.equal_weights():
        raise UnequalWeightsError("weights are not all equal; use brute_force instead")
    jobs, m = inst.jobs, inst.m
    keys, _ = _clear_denominators([job.p for job in jobs])
    # descending on the integer keys; the sort is stable, so ties keep ascending id
    by_id = sorted(range(len(jobs)), key=lambda i: jobs[i].id)
    dealt = sorted(by_id, key=keys.__getitem__, reverse=True)
    return [[jobs[i] for i in sorted(dealt[q::m], key=keys.__getitem__)] for q in range(m)]


def solve_equal_weights(inst: Instance) -> SyncSchedule:
    """Optimal schedule for equal weights; every job lands on a shared
    processor and every per-processor order is ascending.  The deal places
    each job exactly once, so the schedule is built without re-validation."""
    sequences = tuple([tuple([job.id for job in share]) for share in _deal(inst)])
    return _trusted(SyncSchedule, {"sequences": sequences})


def equal_weights_value(partition: Sequence[Sequence]) -> Dyadic:
    """Unit-weight value of ascending per-processor job lists:
    sum of p_i / 2^(size+1-i) over each list."""
    groups = [_field(group, "p") for group in partition]  # coerce every list before any check
    total = ZERO
    for ps in groups:
        # with unit weights the total overlap telescopes to the makespan T_{k+1}
        for idx in range(1, len(ps)):
            if ps[idx] < ps[idx - 1]:
                raise ValueError(f"list not ascending: {ps[idx - 1]} precedes {ps[idx]}")
        times, s, *_ = _walk(ps)
        total = total + _make(times[-1], s)
    return total


def single_processor_ascending(jobs: Sequence) -> Dyadic:
    """Best single-shared-processor value for unit weights: run jobs in
    ascending order, yielding p_n/2 + p_{n-1}/4 + ... + p_1/2^n."""
    times, s, *_ = _walk(_ascending(_field(jobs, "p")))
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
    # the order prefixes, the sum of n!/(n-k)!, then the labellings the sweep
    # visits; counting stops once past the limit, since the full count is huge
    work = term = 1
    for factor in range(n, 0, -1):
        term *= factor
        work += term
        if work > limits.max_candidates:
            break
    else:
        work += _permsearch._labelling_count(n, inst.m)
    if work > limits.max_candidates:
        raise InstanceTooLargeError(
            f"more than max_candidates = {limits.max_candidates} candidates to search"
        )
    ps, p_exp = _clear_denominators([job.p for job in inst.jobs])
    ws, w_exp = _clear_denominators([job.w for job in inst.jobs])
    best_num, _, orders = _permsearch.search(ps, ws, inst.m)
    # the search places each job at most once, so the schedule needs no re-validation
    sequences = tuple([tuple([inst.jobs[j].id for j in order]) for order in orders])
    return _trusted(SyncSchedule, {"sequences": sequences}), _make(best_num, n + p_exp + w_exp)
