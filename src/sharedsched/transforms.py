"""Interval-level schedules and their canonicalization to synchronized form.

A general schedule assigns each job a private interval ``(0, c)`` plus a
set of open, disjoint intervals on at most one shared processor; the two
interval families together must cover exactly the job's processing time.
The pipeline here rewrites any valid schedule, without ever decreasing
its total weighted overlap, into a synchronized schedule in which every
shared job finishes on both of its processors at the same instant:

1. ``normalize``          - shared work past the private completion is
                            moved onto the private processor (value kept),
2. ``compact_idle``       - idle holes before the last completion are
                            filled by splitting work off the latest job
                            (value never decreases),
3. ``merge_preemptions``  - left-shifts squeeze each job into a single
                            shared interval (value kept),
4. ``reorder``            - adjacent swaps align the shared completion
                            order with the private completion order
                            (value kept),
5. a push/pull loop       - private/shared completion times are equalized
                            one job at a time, evicting a job entirely to
                            its private processor whenever that pays
                            better (value never decreases).

``pull`` and ``push`` are the two elementary rebalancing moves; each
trades work between a job's shared and private processors and ripples a
geometrically decaying correction through the jobs behind it.

All of it runs on the scaled-integer core: times become integers over one
power of two, each processor's chunk list stays in start order as moves
update it, and a halving first refines the whole grid by the digits it
needs.  ``Dyadic`` values are built only where results and messages leave.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Mapping

from .dyadic import Dyadic, _clear_denominators, _make, as_dyadic
from .engine import SyncSchedule, evaluate
from .model import Instance, InstanceError, _job_id, _load_json, _Record, json_to_dyadic

__all__ = [
    "JobPlacement",
    "GeneralSchedule",
    "InvalidScheduleError",
    "PreconditionError",
    "SynchronizeReport",
    "validate",
    "value_general",
    "normalize",
    "compact_idle",
    "merge_preemptions",
    "reorder",
    "pull",
    "push",
    "synchronize",
    "synchronize_detailed",
    "from_synchronized",
    "is_normal",
    "is_gap_free",
    "is_non_preemptive",
    "is_ordered",
    "is_synchronized",
    "parse_general_schedule",
    "serialize_general_schedule",
]


class InvalidScheduleError(ValueError):
    """A general schedule violating its structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid schedule: " + "; ".join(self.violations))


class PreconditionError(ValueError):
    """A transformation applied outside its stated precondition."""


class JobPlacement(_Record):
    """Where one job runs: shared processor, shared intervals, private span."""

    __match_args__ = ("processor", "intervals", "private_completion")

    def __init__(
        self,
        processor: int | None,
        intervals: tuple[tuple[Dyadic, Dyadic], ...],
        private_completion: Dyadic,
    ):
        intervals = tuple(sorted([(as_dyadic(a), as_dyadic(b)) for a, b in intervals]))
        self.__dict__.update(
            processor=processor,
            intervals=intervals,
            private_completion=as_dyadic(private_completion),
        )


class GeneralSchedule(_Record):
    """Immutable map from job id to its placement."""

    __match_args__ = ("placements",)

    def __init__(self, placements: Mapping[str, JobPlacement]):
        self.__dict__["placements"] = dict(placements)

    def processors(self) -> list[int]:
        return sorted(
            {p.processor for p in self.placements.values() if p.processor is not None}
        )

    def chunks_on(self, processor: int) -> list[tuple[Dyadic, Dyadic, str]]:
        """All (start, end, job id) intervals on a processor, by start time."""
        chunks = [
            (a, b, job_id)
            for job_id, placement in self.placements.items()
            if placement.processor == processor
            for a, b in placement.intervals
        ]
        chunks.sort(key=lambda c: (c[0], c[1], c[2]))
        return chunks


# -- the integer grid --------------------------------------------------------------


class _Grid:
    """A schedule's mutable working state on one integer time grid.

    Every time is an int over ``2**scale``.  ``chunks`` maps each processor
    (``None`` for intervals without one) to its ``[start, end, job_id]``
    lists in (start, end, id) order, which the passes keep rather than
    re-sort; ``private`` maps each job to its private completion, and
    ``procs`` to its processor as given (dropped on output once it has no chunks).
    """

    __slots__ = ("scale", "chunks", "private", "procs")

    def __init__(self, g: GeneralSchedule):
        placements = g.placements
        times, self.scale = _clear_denominators(
            [t for p in placements.values() for interval in p.intervals for t in interval]
            + [p.private_completion for p in placements.values()]
        )
        it = iter(times)
        self.chunks: dict = {}
        for job_id, p in placements.items():
            for _ in p.intervals:
                self.chunks.setdefault(p.processor, []).append([next(it), next(it), job_id])
        for chunks in self.chunks.values():
            chunks.sort()
        self.private = {job_id: next(it) for job_id in placements}
        self.procs = {job_id: p.processor for job_id, p in placements.items()}

    def shift(self, h: int) -> None:
        """Refine the grid by ``h`` binary digits (none when ``h <= 0``)."""
        if h > 0:
            self.scale += h
            for chunks in self.chunks.values():
                for chunk in chunks:
                    chunk[0] <<= h
                    chunk[1] <<= h
            for job_id, c in self.private.items():
                self.private[job_id] = c << h

    def lists(self) -> list[list]:
        """The chunk list of each processor, by processor id."""
        return [self.chunks[p] for p in sorted(p for p in self.chunks if p is not None)]

    def schedule(self) -> GeneralSchedule:
        s, procs, c = self.scale, self.procs, self.private
        spans: dict[str, list] = {job_id: [] for job_id in c}
        for chunks in self.chunks.values():
            for a, b, job_id in chunks:
                spans[job_id].append((_make(a, s), _make(b, s)))
        return GeneralSchedule(
            {j: JobPlacement(procs[j] if v else None, v, _make(c[j], s)) for j, v in spans.items()}
        )


def _weights(grid: _Grid, inst: Instance) -> tuple[dict, int]:
    ws, exponent = _clear_denominators([inst.job(job_id).w for job_id in grid.private])
    return dict(zip(grid.private, ws)), exponent


def _value(grid: _Grid, weights: tuple[dict, int]) -> Dyadic:
    w, exponent = weights
    private = grid.private
    total = 0
    for chunks in grid.chunks.values():
        for a, b, job_id in chunks:
            hi = min(b, private[job_id])
            if a < hi:
                total += (hi - a) * w[job_id]
    return _make(total, grid.scale + exponent)


def _last_ends(grid: _Grid) -> dict[str, int]:
    """Each job's shared completion: the end of its last chunk."""
    return {job_id: b for chunks in grid.chunks.values() for _, b, job_id in chunks}


def _normal(grid: _Grid) -> bool:
    return all(b <= grid.private[job_id] for job_id, b in _last_ends(grid).items())


def _non_preemptive(grid: _Grid) -> bool:
    ids = [job_id for chunks in grid.chunks.values() for _, _, job_id in chunks]
    return len(ids) == len(set(ids))


def _ordered(grid: _Grid) -> bool:
    c = grid.private
    pairs = [pair for chunks in grid.lists() for pair in zip(chunks, chunks[1:])]
    return _normal(grid) and _non_preemptive(grid) and all(c[x[2]] <= c[y[2]] for x, y in pairs)


# -- validation ------------------------------------------------------------------


def _violations(grid: _Grid, inst: Instance | None = None) -> list[str]:
    def t(x: int) -> Dyadic:  # the time a grid integer stands for
        return _make(x, grid.scale)

    out = []
    ids = set(grid.private)
    if inst is not None:
        inst_ids = {job.id for job in inst.jobs}
        out += [f"job {missing!r}: no placement" for missing in sorted(inst_ids - ids)]
        out += [f"job {extra!r}: not in instance" for extra in sorted(ids - inst_ids)]
    intervals: dict[str, list] = {job_id: [] for job_id in ids}
    for chunks in grid.chunks.values():
        for a, b, job_id in chunks:
            intervals[job_id].append((a, b))
    for job_id in sorted(ids):
        proc, private = grid.procs[job_id], grid.private[job_id]
        if private < 0:
            out.append(f"job {job_id!r}: private completion < 0")
        if proc is None and intervals[job_id]:
            out.append(f"job {job_id!r}: shared intervals without a processor")
        if proc is not None:
            if proc < 1:
                out.append(f"job {job_id!r}: processor {proc} < 1")
            elif inst is not None and proc > inst.m:
                out.append(f"job {job_id!r}: processor {proc} > m = {inst.m}")
        prev_end = None
        for a, b in intervals[job_id]:
            if a < 0:
                out.append(f"job {job_id!r}: interval ({t(a)}, {t(b)}) starts before 0")
            if not a < b:
                out.append(f"job {job_id!r}: empty or reversed interval ({t(a)}, {t(b)})")
            if prev_end is not None and a < prev_end:
                out.append(f"job {job_id!r}: overlapping own intervals at {t(a)}")
            prev_end = b
        if inst is not None and inst.has_job(job_id):
            total = private + sum(b - a for a, b in intervals[job_id])
            expected = inst.job(job_id).p
            if total << expected.exponent != expected.mantissa << grid.scale:
                out.append(
                    f"job {job_id!r}: length mismatch (intervals sum to {t(total)}, p = {expected})"
                )
    for proc in sorted(p for p in grid.chunks if p is not None):
        chunks = grid.chunks[proc]
        for (a1, b1, j1), (a2, b2, j2) in zip(chunks, chunks[1:]):
            if a2 < b1:
                out.append(
                    f"processor {proc}: jobs {j1!r} and {j2!r} overlap in "
                    f"({t(a2)}, {t(min(b1, b2))})"
                )
    return out


def validate(g: GeneralSchedule, inst: Instance) -> list[str]:
    """All invariant violations, each naming the job/processor/interval."""
    return _violations(_Grid(g), inst)


def _require(grid: _Grid, inst: Instance | None = None) -> None:
    violations = _violations(grid, inst)
    if violations:
        raise InvalidScheduleError(violations)


def _enter(grid: _Grid, name: str, needs: tuple[str, ...]) -> None:
    """A pass's entry checks: a valid schedule with each property needed."""
    _require(grid)
    for need in needs:
        holds = _normal if need == "normal" else _non_preemptive
        if not holds(grid):
            raise PreconditionError(f"{name} requires a {need} schedule")


def value_general(g: GeneralSchedule, inst: Instance) -> Dyadic:
    """Total weighted overlap: per job, the measure of its shared
    intervals intersected with its private span ``(0, c)``."""
    grid = _Grid(g)
    _require(grid, inst)
    return _value(grid, _weights(grid, inst))


# -- predicates -------------------------------------------------------------------


def is_normal(g: GeneralSchedule) -> bool:
    """Every job finishes on the shared processor no later than privately."""
    return _normal(_Grid(g))


def is_gap_free(g: GeneralSchedule) -> bool:
    """No idle time on any shared processor before its last completion."""
    for chunks in _Grid(g).lists():
        cursor = 0
        for a, b, _ in chunks:
            if a != cursor:
                return False
            cursor = b
    return True


def is_non_preemptive(g: GeneralSchedule) -> bool:
    return _non_preemptive(_Grid(g))


def is_ordered(g: GeneralSchedule) -> bool:
    """Normal, non-preemptive, and on each processor the private
    completions are non-decreasing along the shared order (the workable
    reading of "both completion orders agree" once ties are allowed)."""
    return _ordered(_Grid(g))


def is_synchronized(g: GeneralSchedule) -> bool:
    """Normal, non-preemptive, and every shared job finishes on both
    processors at the same instant."""
    grid = _Grid(g)
    synced = all(b == grid.private[job_id] for job_id, b in _last_ends(grid).items())
    return synced and _normal(grid) and _non_preemptive(grid)


# -- pipeline passes ---------------------------------------------------------------


def _normalize(grid: _Grid) -> None:
    private = grid.private
    cutoff = dict(private)
    for chunks in grid.chunks.values():
        kept = []
        for chunk in chunks:
            a, b, job_id = chunk
            if b > cutoff[job_id]:  # the part past the cutoff moves to the private processor
                private[job_id] += b - max(a, cutoff[job_id])
                chunk[1] = cutoff[job_id]
            if chunk[0] < chunk[1]:
                kept.append(chunk)
        chunks[:] = kept


def _compact_idle(grid: _Grid) -> None:
    private = grid.private
    for chunks in grid.lists():
        t = len(chunks) - 1
        while chunks:
            # the last hole precedes chunk t; none can open past the one just filled
            t = min(t + 1, len(chunks) - 1)
            while t >= 0 and not (chunks[t - 1][1] if t else 0) < chunks[t][0]:
                t -= 1
            if t < 0:
                break
            lo, hi = (chunks[t - 1][1] if t else 0), chunks[t][0]
            if (hi - lo) & 1:
                grid.shift(1)  # the hole's half needs one more binary digit
                continue
            last = chunks[-1]
            eps = min((hi - lo) >> 1, last[1] - last[0])
            last[1] -= eps
            private[last[2]] -= eps
            chunks.insert(t, [lo, lo + 2 * eps, last[2]])
            if last[0] == last[1]:
                chunks.pop()


def _merge_preemptions(grid: _Grid) -> None:
    for chunks in grid.lists():
        count = Counter(job_id for _, _, job_id in chunks)
        t = 0
        while True:
            # the preempted job whose first interval starts earliest
            while t < len(chunks) and count[chunks[t][2]] < 2:
                t += 1
            if t == len(chunks):
                break
            l, r, job_id = chunks[t]
            shift = r - l
            k = t + 1
            while chunks[k][2] != job_id:
                chunks[k][0] -= shift
                chunks[k][1] -= shift
                k += 1
            chunks[k][0] -= shift  # the first piece, reattached before the second
            del chunks[t]
            count[job_id] -= 1


def _reorder(grid: _Grid) -> None:
    # adjacent swaps keep every idle gap between slots and end in the
    # stable sort by private completion, so lay that order out directly
    private = grid.private
    for chunks in grid.lists():
        laid: list[list] = []
        for t, (a, b, job_id) in enumerate(sorted(chunks, key=lambda c: private[c[2]])):
            start = chunks[0][0] if t == 0 else laid[-1][1] + chunks[t][0] - chunks[t - 1][1]
            laid.append([start, start + b - a, job_id])
        chunks[:] = laid


# name -> (pass, properties its entry check requires)
_PASSES = {
    "normalize": (_normalize, ()),
    "compact_idle": (_compact_idle, ("normal",)),
    "merge_preemptions": (_merge_preemptions, ("normal",)),
    "reorder": (_reorder, ("normal", "non-preemptive")),
}


def _run_pass(g: GeneralSchedule, name: str) -> GeneralSchedule:
    run, needs = _PASSES[name]
    grid = _Grid(g)
    _enter(grid, name, needs)
    run(grid)
    return grid.schedule()


def normalize(g: GeneralSchedule) -> GeneralSchedule:
    """Move shared work past each job's private completion onto the
    private processor, extending it; the value is unchanged because the
    removed pieces never overlapped the private span."""
    return _run_pass(g, "normalize")


def compact_idle(g: GeneralSchedule) -> GeneralSchedule:
    """Fill every idle hole that precedes a later completion.

    Each move takes the latest-finishing job on the processor, clips a
    piece of length ``e`` from the end of both its private span and its
    final shared interval, and re-executes both pieces inside the hole;
    that raises the value by ``e`` times the job's weight.  Requires a
    valid normal schedule.
    """
    return _run_pass(g, "compact_idle")


def merge_preemptions(g: GeneralSchedule) -> GeneralSchedule:
    """Left-shift until every job occupies one shared interval.

    Repeatedly takes a preempted job's first two intervals, slides the
    work separating them left by the first interval's length, and
    reattaches that first piece directly before the second.  Completion
    times never grow and the value is unchanged.  Requires valid+normal.
    """
    return _run_pass(g, "merge_preemptions")


def reorder(g: GeneralSchedule) -> GeneralSchedule:
    """Adjacent swaps until each processor's shared order agrees with the
    private completion order; value and normality are preserved."""
    return _run_pass(g, "reorder")


# -- elementary rebalancing moves ----------------------------------------------
#
# ``_ripple`` assumes single intervals, a contiguous span from index i-1 to
# the end of the processor, and an in-range eps.  The public wrappers check
# the full preconditions before delegating.


def _ripple(grid: _Grid, chunks: list, i: int, eps: int, sign: int, exp: int = 0) -> None:
    """Trade ``eps / 2**exp`` of the job at index ``i - 1`` from private to
    shared time (``sign`` 1, a push) or back (``sign`` -1, a pull), and
    shift each later job by half the previous amount."""
    h = max(0, len(chunks) - i + exp - ((eps & -eps).bit_length() - 1))
    grid.shift(h)  # one refinement makes every halving below exact
    eps = (eps << h) >> exp
    private = grid.private
    prev = chunks[i - 1]
    prev[1] += sign * eps
    private[prev[2]] -= sign * eps
    end = prev[1]
    kept = [prev] if prev[0] < prev[1] else []  # a full pull evicts it
    for chunk in chunks[i:]:
        eps >>= 1
        new_end = chunk[1] + sign * eps
        private[chunk[2]] += sign * eps
        if end < new_end:
            chunk[0], chunk[1] = end, new_end
            kept.append(chunk)  # else its shared interval shrank to nothing: evicted
        end = new_end
    chunks[i - 1 :] = kept


def _move_args(grid: _Grid, name: str, proc: int, i: int, eps: Dyadic) -> tuple[list, int]:
    """The processor's chunks and ``eps`` on the grid, once position ``i``
    is in range and positions ``i-1..k`` run without idle time."""
    chunks = grid.chunks.get(proc, [])
    if not 2 <= i <= len(chunks):
        raise PreconditionError(f"{name} position {i} out of range 2..{len(chunks)}")
    for (_, end, _), (start, _, job_id) in zip(chunks[i - 2 :], chunks[i - 1 :]):
        if start != end:
            raise PreconditionError(
                f"processor {proc}: idle time before job {job_id!r}; "
                "the move's exact value accounting needs a contiguous span"
            )
    grid.shift(eps.exponent - grid.scale)
    return chunks, eps.mantissa << (grid.scale - eps.exponent)


def pull(g: GeneralSchedule, processor: int, i: int, eps) -> GeneralSchedule:
    """Pull the job at position ``i`` (1-based, ``i >= 2``) earlier by ``eps``.

    The preceding job hands ``eps`` of shared time back to its private
    processor (leaving the shared processor entirely when ``eps`` is its
    whole interval); every job from position ``i`` on slides left,
    finishing ``eps / 2**(l-i+1)`` earlier on both processors.  Requires
    an ordered schedule whose jobs at positions ``i..k`` are synchronized
    and ``0 < eps <=`` the preceding job's shared interval length.  The
    value changes by exactly ``-eps*w[i-1] + eps*sum(w[l] / 2**(l-i+1))``.
    """
    eps = as_dyadic(eps)
    grid = _Grid(g)
    _require(grid)
    if not _ordered(grid):
        raise PreconditionError("pull requires an ordered schedule")
    chunks, e = _move_args(grid, "pull", processor, i, eps)
    for _, b, job_id in chunks[i - 1 :]:
        if b != grid.private[job_id]:
            raise PreconditionError(f"job {job_id!r} at or after position {i} is not synchronized")
    a, b, prev_id = chunks[i - 2]
    if not 0 < e <= b - a:
        raise PreconditionError(
            f"eps = {eps} outside (0, {Dyadic(b - a, grid.scale)}], "
            f"the shared length of {prev_id!r}"
        )
    _ripple(grid, chunks, i - 1, e, -1)
    return grid.schedule()


def push(g: GeneralSchedule, processor: int, i: int, eps) -> GeneralSchedule:
    """Push the job at position ``i`` (1-based, ``i >= 2``) later by ``eps``.

    The inverse of :func:`pull`: the preceding job converts ``eps`` of
    private time into shared time, and every job from position ``i`` on
    slides right, finishing ``eps / 2**(l-i+1)`` later on both processors
    while its shared interval shrinks by that amount (shrinking to
    nothing evicts the job to its private processor).  Bounds: ``eps``
    may not exceed half the preceding job's private/shared completion
    slack, nor ``2**(l-i+1)`` times any later job's shared length.  The
    value changes by exactly ``+eps*w[i-1] - eps*sum(w[l] / 2**(l-i+1))``.
    """
    eps = as_dyadic(eps)
    grid = _Grid(g)
    _enter(grid, "push", ("normal", "non-preemptive"))
    chunks, e = _move_args(grid, "push", processor, i, eps)
    _, b, prev_id = chunks[i - 2]
    slack = grid.private[prev_id] - b
    if not 0 < 2 * e <= slack:
        raise PreconditionError(
            f"eps = {eps} outside (0, {Dyadic(slack, grid.scale + 1)}], "
            f"half the slack of {prev_id!r}"
        )
    for offset, (a, b, job_id) in enumerate(chunks[i - 1 :], start=1):
        if e > (b - a) << offset:
            raise PreconditionError(
                f"eps = {eps} exceeds 2^{offset} times the shared length of {job_id!r}"
            )
    _ripple(grid, chunks, i - 1, e, 1)
    return grid.schedule()


# -- full synchronization --------------------------------------------------------


class SynchronizeReport(_Record):
    """A synchronized schedule, its general form, and how the passes got there."""

    __match_args__ = (
        "schedule",
        "general",
        "value_before",
        "value_after",
        "rebalance_steps",
        "pass_values",
    )

    def __init__(
        self,
        schedule: SyncSchedule,
        general: GeneralSchedule,
        value_before: Dyadic,
        value_after: Dyadic,
        rebalance_steps: int,
        # (pass, value after it) for the four passes, then "rebalance"
        pass_values: tuple[tuple[str, Dyadic], ...] = (),
    ):
        self.__dict__.update(
            schedule=schedule,
            general=general,
            value_before=value_before,
            value_after=value_after,
            rebalance_steps=rebalance_steps,
            pass_values=pass_values,
        )


def _rebalance(grid: _Grid, w: dict, limit: int) -> int:
    """The push/pull loop; returns its step count."""
    private = grid.private
    steps = 0
    for chunks in grid.lists():
        pos = len(chunks) - 1  # jobs past the last unsynchronized one stay synchronized
        while True:
            while pos >= 0 and chunks[pos][1] == private[chunks[pos][2]]:
                pos -= 1
            if pos < 0:
                break
            if steps >= limit:  # the progress argument caps the loop; never expected
                raise RuntimeError("synchronization failed to make progress")
            steps += 1
            a, b, prev_id = chunks[pos]
            discounted = 0  # sum of w[l] / 2**(l-pos), times 2**(jobs behind pos)
            for _, _, job_id in chunks[pos + 1 :]:
                discounted = (discounted << 1) + w[job_id]
            if w[prev_id] << (len(chunks) - pos - 1) >= discounted:
                # push half the predecessor's slack, bounded by each later
                # job's shared length; with no later job this synchronizes it
                eps = private[prev_id] - b
                for offset, (a2, b2, _) in enumerate(chunks[pos + 1 :], start=2):
                    eps = min(eps, (b2 - a2) << offset)
                _ripple(grid, chunks, pos + 1, eps, 1, exp=1)
            else:
                # pushing the predecessor would lose value; evict it instead
                _ripple(grid, chunks, pos + 1, b - a, -1)
                pos -= 1
    return steps


def synchronize_detailed(g: GeneralSchedule, inst: Instance) -> SynchronizeReport:
    """Run the full pipeline and report values and the step count.

    After the four canonicalization passes, the rebalancing loop performs
    at most ``2 * len(inst)`` push/pull steps: each step either
    synchronizes one more job or permanently evicts a job to its private
    processor.  Pushing is only applied when the preceding job's weight
    is at least the discounted weight of the synchronized jobs behind it,
    so the value never decreases; otherwise the preceding job is evicted
    by a full-length pull, which strictly gains value.
    """
    grid = _Grid(g)
    _require(grid, inst)
    weights = _weights(grid, inst)
    value_before = _value(grid, weights)
    pass_values = []
    for name, (run, needs) in _PASSES.items():
        _enter(grid, name, needs)
        run(grid)
        pass_values.append((name, _value(grid, weights)))
    steps = _rebalance(grid, weights[0], 2 * len(inst))
    _require(grid, inst)
    value_after = _value(grid, weights)
    pass_values.append(("rebalance", value_after))
    sequences = tuple(tuple(c[2] for c in grid.chunks.get(p, ())) for p in range(1, inst.m + 1))
    schedule, values = SyncSchedule(sequences), tuple(pass_values)
    return SynchronizeReport(schedule, grid.schedule(), value_before, value_after, steps, values)


def synchronize(g: GeneralSchedule, inst: Instance) -> SyncSchedule:
    """Canonicalize a valid schedule into a synchronized one of no
    smaller total weighted overlap."""
    return synchronize_detailed(g, inst).schedule


def from_synchronized(schedule: SyncSchedule, inst: Instance) -> GeneralSchedule:
    """Expand per-processor job orders into explicit intervals."""
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


# -- JSON wire format ---------------------------------------------------------


def parse_general_schedule(text: bytes | str) -> GeneralSchedule:
    """Parse ``{"jobs": [{"id", "shared_processor", "shared_intervals",
    "private_completion"}, ...]}`` with dyadic-string endpoints."""
    data = _load_json(text)
    if not isinstance(data, dict) or "jobs" not in data or not isinstance(data["jobs"], list):
        raise InstanceError('general schedule must be an object with a "jobs" list')
    placements = {}
    for idx, entry in enumerate(data["jobs"]):
        job_id = _job_id(entry, idx, "shared_processor", "shared_intervals", "private_completion")
        if job_id in placements:
            raise InstanceError(f"duplicate job id {job_id!r} in schedule")
        proc = entry["shared_processor"]
        if proc is not None and (isinstance(proc, bool) or not isinstance(proc, int)):
            raise InstanceError(f"job {job_id!r}: shared_processor must be an int or null")
        raw_intervals = entry["shared_intervals"]
        if not isinstance(raw_intervals, list):
            raise InstanceError(f"job {job_id!r}: shared_intervals must be a list")
        intervals = []
        for pair in raw_intervals:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InstanceError(f"job {job_id!r}: each interval must be a [start, end] pair")
            intervals.append(
                (
                    json_to_dyadic(pair[0], f"job {job_id!r} interval start"),
                    json_to_dyadic(pair[1], f"job {job_id!r} interval end"),
                )
            )
        placements[job_id] = JobPlacement(
            proc,
            tuple(intervals),
            json_to_dyadic(entry["private_completion"], f"job {job_id!r} private completion"),
        )
    return GeneralSchedule(placements)


def serialize_general_schedule(g: GeneralSchedule) -> str:
    data = {
        "jobs": [
            {
                "id": job_id,
                "shared_processor": p.processor,
                "shared_intervals": [[str(a), str(b)] for a, b in p.intervals],
                "private_completion": str(p.private_completion),
            }
            for job_id, p in sorted(g.placements.items())
        ]
    }
    return json.dumps(data, sort_keys=True)
