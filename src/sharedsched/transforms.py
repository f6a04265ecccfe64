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
5. a push/pull loop       - right to left, each job is pushed until its
                            private and shared completions meet, or is
                            evicted entirely to its private processor
                            whenever that pays better (value never
                            decreases); it only decides which jobs stay,
                            and ``engine._layout`` lays them out.

``pull`` and ``push`` are the two elementary rebalancing moves; each
trades work between a job's shared and private processors and ripples a
geometrically decaying correction through the jobs behind it.  The loop
makes the same moves without rippling them: the synchronized jobs behind
the current one are the halving walk from its shared completion, so it
keeps them as a job list and finds where a push empties one of them.

All of it runs on the scaled-integer core: times become integers over one
power of two, and each processor's chunk list stays in start order as the
passes update it.  ``_gaps`` reads every hole in such a list.
``compact_idle`` refines the grid by at most one binary digit, before it
fills anything, and a public ``pull`` or ``push`` by the digits its
halvings need; the loop compares integers on the grid the passes leave.
All four passes are each one sweep per processor; ``compact_idle``'s
sweep fills the holes right to left, each read once.  A synchronized
schedule's grid comes from ``engine._layout``, which puts the walk of each
processor on one scale: ``from_synchronized`` returns it as a general
schedule, and ``synchronize`` runs its exit check on it and takes its
final value from the walk's total.  ``Dyadic`` values are built only
where results and messages leave.
"""

from __future__ import annotations

import json
from typing import Mapping

from .dyadic import Dyadic, _clear_denominators, _make, _quoted, as_dyadic
from .engine import EvalReport, SyncSchedule, _layout, evaluate
from .model import Instance, InstanceError, _job_id, _literal, _load_json, _Record, _trusted

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


# violations an InvalidScheduleError's message lists; the rest are only counted
_SHOWN = 20


class InvalidScheduleError(ValueError):
    """A general schedule violating its structural invariants.

    ``violations`` holds every one.  A job's interval that starts before the
    furthest end among the job's earlier intervals is named under that job.
    Under its processor, a chunk is named with the jobs of two earlier chunks
    that it overlaps, each job once: the chunk just before it, and the chunk
    of another job that ends last.  So a chunk that overlaps an earlier
    chunk of another job is always named, and a pair of one job's chunks
    only under that job.  The
    message lists the first ``_SHOWN`` and the number of the rest, so that
    it stays short however many there are.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        shown = self.violations[:_SHOWN]
        if len(self.violations) > _SHOWN:
            shown.append(f"and {len(self.violations) - _SHOWN} more")
        super().__init__("invalid schedule: " + "; ".join(shown))


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
        # trusted: in a valid grid each job's spans come sorted from one list
        s, procs, c = self.scale, self.procs, self.private
        spans: dict[str, list] = {job_id: [] for job_id in c}
        for chunks in self.chunks.values():
            for a, b, job_id in chunks:
                spans[job_id].append((_make(a, s), _make(b, s)))
        placements = {}
        for j, v in spans.items():
            fields = {"processor": procs[j] if v else None, "intervals": tuple(v)}
            fields["private_completion"] = _make(c[j], s)
            placements[j] = _trusted(JobPlacement, fields)
        return GeneralSchedule(placements)


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


def _gaps(chunks: list) -> list[int]:
    """The idle time before each chunk of one processor: its start minus the
    previous chunk's end, or minus 0 for the first (negative where they overlap)."""
    return [b[0] - a[1] for a, b in zip([[0, 0]] + chunks, chunks)]


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


def _shown(value: Dyadic) -> str:
    """``str(value)`` or, for a value longer than Python's int-to-str digit
    limit, the digit count of its numerator."""
    try:
        return str(value)
    except ValueError:
        num = abs(value.mantissa)
        digits = num.bit_length() * 1233 >> 12  # at most the count: 1233 / 4096 < log10(2)
        while num >= 10**digits:
            digits += 1
        return f"a number with a {digits}-digit numerator"


def _violations(grid: _Grid, inst: Instance | None = None) -> list[str]:
    def t(x: int) -> Dyadic:  # the time a grid integer stands for
        return _make(x, grid.scale)

    out = []
    ids = set(grid.private)
    if inst is not None:
        inst_ids = {job.id for job in inst.jobs}
        out += [f"job {_quoted(missing)}: no placement" for missing in sorted(inst_ids - ids)]
        out += [f"job {_quoted(extra)}: not in instance" for extra in sorted(ids - inst_ids)]
    intervals: dict[str, list] = {job_id: [] for job_id in ids}
    for chunks in grid.chunks.values():
        for a, b, job_id in chunks:
            intervals[job_id].append((a, b))
    for job_id in sorted(ids):
        proc, private = grid.procs[job_id], grid.private[job_id]
        if private < 0:
            out.append(f"job {_quoted(job_id)}: private completion < 0")
        if proc is None and intervals[job_id]:
            out.append(f"job {_quoted(job_id)}: shared intervals without a processor")
        if proc is not None:
            if proc < 1:
                out.append(f"job {_quoted(job_id)}: processor {_quoted(proc)} < 1")
            elif inst is not None and proc > inst.m:
                out.append(f"job {_quoted(job_id)}: processor {_quoted(proc)} > m = {inst.m}")
        reach = None  # the furthest end among the job's earlier intervals
        for a, b in intervals[job_id]:
            if a < 0:
                out.append(f"job {_quoted(job_id)}: interval ({t(a)}, {t(b)}) starts before 0")
            if not a < b:
                out.append(f"job {_quoted(job_id)}: empty or reversed interval ({t(a)}, {t(b)})")
            if reach is not None and a < reach:
                out.append(f"job {_quoted(job_id)}: overlapping own intervals at {t(a)}")
            reach = b if reach is None else max(reach, b)
        if inst is not None and inst.has_job(job_id):
            total = private + sum(b - a for a, b in intervals[job_id])
            expected = inst.job(job_id).p
            if total << expected.exponent != expected.mantissa << grid.scale:
                out.append(
                    f"job {_quoted(job_id)}: length mismatch "
                    f"(intervals sum to {_shown(t(total))}, p = {expected})"
                )
    for proc in sorted(p for p in grid.chunks if p is not None):
        chunks = grid.chunks[proc]
        # the earlier chunk that ends last, and the one of another job (or of its job: none yet)
        last = other = chunks[0] if chunks else None
        for prev, (a2, b2, j2) in zip(chunks, chunks[1:]):
            if prev[1] >= last[1]:  # on equal ends the later chunk wins
                last, other = prev, (last if last[2] != prev[2] else other)
            elif prev[2] != last[2] and (other[2] == last[2] or prev[1] >= other[1]):
                other = prev
            if a2 < last[1]:  # else no earlier chunk reaches into this one
                # a chunk is named with its neighbour and with the earlier chunk of another
                # job that ends last: each job once, the neighbour's first and at its end.
                # A job's own overlap is reported with the job
                far = other if last[2] == j2 else last
                named = {j1: b1 for _, b1, j1 in (far, prev) if a2 < b1 and j1 != j2}
                for j1, b1 in reversed(named.items()):
                    out.append(
                        f"processor {proc}: jobs {_quoted(j1)} and {_quoted(j2)} overlap in "
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
    return not any(any(_gaps(chunks)) for chunks in _Grid(g).lists())


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
    return _synchronized(_Grid(g))


def _synchronized(grid: _Grid) -> bool:
    # a job whose shared work ends with its private work is normal too
    c = grid.private
    return _non_preemptive(grid) and all(b == c[job_id] for job_id, b in _last_ends(grid).items())


def _orders(grid: _Grid, m: int) -> tuple[tuple[str, ...], ...]:
    """The job ids of each processor 1..m in shared order, one per chunk."""
    return tuple(tuple(c[2] for c in grid.chunks.get(p, ())) for p in range(1, m + 1))


def _structure(g: GeneralSchedule, inst: Instance) -> tuple[tuple, bool, bool]:
    """A valid schedule's :func:`_orders`, whether it is ordered and whether
    it is synchronized, from one grid; an invalid one raises
    :class:`InvalidScheduleError`."""
    grid = _Grid(g)
    _require(grid, inst)
    return _orders(grid, inst.m), _ordered(grid), _synchronized(grid)


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
    # a fill of 2*eps leaves the rest of its hole with the hole's parity, and it
    # moves the last chunk's end, which no hole follows: once every hole on the
    # entry grid is even, every fill is exact.  One binary digit makes them even,
    # and doubling every time commutes with the fills, so it can come first
    grid.shift(any(gap & 1 for chunks in grid.lists() for gap in _gaps(chunks)))
    # a fill takes from the end of the last chunk and lays its piece at the start
    # of what is left of the hole, so it changes no chunk or hole before that one:
    # right to left, each hole is read once and filled from the latest chunks
    private = grid.private
    for chunks in grid.lists():
        laid, d = [], 0  # the chunks from this hole on, last first; laid[d] is the donor
        for chunk, gap in zip(reversed(chunks), reversed(_gaps(chunks))):
            laid.append(chunk)
            lo, hi, fill = chunk[0] - gap, chunk[0], []
            # once the donor passes this hole's chunk, the processor ends in the hole: it stays open
            while lo < hi and d < len(laid):
                donor = laid[d]
                eps = min((hi - lo) >> 1, donor[1] - donor[0])
                donor[1] -= eps
                private[donor[2]] -= eps
                fill.append([lo, lo + 2 * eps, donor[2]])
                lo += 2 * eps
                d += donor[0] == donor[1]
            laid += reversed(fill)
        chunks[:] = laid[d:][::-1]


def _merge_preemptions(grid: _Grid) -> None:
    # merging a job's first piece into its next one slides every chunk between
    # them, and the next piece's start, left by the first piece's length.  Done
    # left to right, the slides add up: each job keeps only its last piece, which
    # grows at the front by the job's earlier pieces and, with every chunk, moves
    # left by the earlier pieces of each other job still held back at that point
    for chunks in grid.lists():
        last = {job_id: t for t, (_, _, job_id) in enumerate(chunks)}
        held: dict[str, int] = {}  # each held-back job's earlier pieces' length
        back = 0  # their sum
        laid = []
        for t, (a, b, job_id) in enumerate(chunks):
            mine = held.pop(job_id, 0)
            if last[job_id] == t:
                back -= mine
                laid.append([a - back - mine, b - back, job_id])
            else:
                held[job_id] = mine + b - a
                back += b - a
        chunks[:] = laid


def _reorder(grid: _Grid) -> None:
    # adjacent swaps keep every idle gap between slots and end in the
    # stable sort by private completion, so lay that order out directly
    private = grid.private
    for chunks in grid.lists():
        laid, end = [], 0
        for gap, (a, b, job_id) in zip(_gaps(chunks), sorted(chunks, key=lambda c: private[c[2]])):
            start, end = end + gap, end + gap + b - a
            laid.append([start, end, job_id])
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
    that raises the value by ``e`` times the job's weight.  A hole of
    length ``h`` takes ``e <= h/2``, so the times gain one binary digit
    when some hole's length has as many fractional binary digits as the
    schedule's finest time, and none otherwise.  The holes are filled
    right to left, from the latest chunks, in one sweep per processor; a
    hole stays open once the processor's end has moved into it.  Requires
    a valid normal schedule.
    """
    return _run_pass(g, "compact_idle")


def merge_preemptions(g: GeneralSchedule) -> GeneralSchedule:
    """Left-shift until every job occupies one shared interval.

    The result of repeatedly taking a preempted job's first two intervals,
    sliding the work separating them left by the first interval's length,
    and reattaching that first piece directly before the second: each job
    ends as one interval at the end of its last piece, moved left by the
    other jobs' pieces held back at that point.  It is laid out in one
    sweep per processor.  Completion times never grow and the value is
    unchanged.  Requires valid+normal.
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


def _ripple(grid: _Grid, chunks: list, i: int, eps: int, sign: int) -> None:
    """Trade ``eps`` of the job at index ``i - 1`` from private to shared
    time (``sign`` 1, a push) or back (``sign`` -1, a pull), and shift each
    later job by half the previous amount."""
    h = max(0, len(chunks) - i - ((eps & -eps).bit_length() - 1))
    grid.shift(h)  # one refinement makes every halving below exact
    eps <<= h
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
    for gap, (_, _, job_id) in zip(_gaps(chunks)[i - 1 :], chunks[i - 1 :]):
        if gap:
            raise PreconditionError(
                f"processor {proc}: idle time before job {_quoted(job_id)}; "
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
            raise PreconditionError(
                f"job {_quoted(job_id)} at or after position {i} is not synchronized"
            )
    a, b, prev_id = chunks[i - 2]
    if not 0 < e <= b - a:
        raise PreconditionError(
            f"eps = {eps} outside (0, {_make(b - a, grid.scale)}], "
            f"the shared length of {_quoted(prev_id)}"
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
            f"eps = {eps} outside (0, {_make(slack, grid.scale + 1)}], "
            f"half the slack of {_quoted(prev_id)}"
        )
    for offset, (a, b, job_id) in enumerate(chunks[i - 1 :], start=1):
        if e > (b - a) << offset:
            raise PreconditionError(
                f"eps = {eps} exceeds 2^{offset} times the shared length of {_quoted(job_id)}"
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


def _rebalance(grid: _Grid, w: dict, m: int, limit: int) -> tuple[int, tuple]:
    """The push/pull loop: its step count and the job ids that stay on each
    processor 1..m, in order.  It reads the grid and writes nothing to it.

    Each processor is gap-free from 0 and ordered, and the loop runs right
    to left over it.  The synchronized jobs behind the current job, which
    runs ``(a, b)`` with private completion ``c`` and work ``p = b - a + c``,
    are ``tail``: a synchronized job that starts at ``t`` ends at
    ``(t + p_j) / 2`` on both processors, so with no idle time the tail is
    the walk ``T_0 = b``, ``T_{j+1} = (T_j + p_j) / 2`` over its jobs, and
    its start and job list fix it.  Pushing the current job by ``x / 2``
    (``b`` up and ``c`` down by that) starts the walk ``x / 2`` later and
    moves each ``T_j`` by ``x / 2**(j+1)``.  Tail job ``j`` keeps a shared
    interval while ``p_j > T_j``; its *room*, the ``x`` at which
    ``p_j == T_j``, is ``2 * ((p_j << j) - b - sum((p_i << i) for i < j))``.
    That is where rippling the push through the chunks would shrink the
    job's chunk to nothing and evict it; an emptied job leaves the walk of
    the others as it was.  So a step pushes ``x = min(c - b, *rooms)``
    and drops the jobs whose room that is; at ``x == c - b`` the current
    job is synchronized and joins the tail.  A push is made only when the
    job's weight is at least the tail's discounted weight (the sum of
    ``w_j / 2**(j+1)``), so the value never decreases; otherwise the job
    is evicted whole to its private processor, which gains value, and the
    walk then starts at ``a``.  Every room is an even integer on the grid
    the passes leave, and a push that stops short of ``c - b`` is a room,
    so its half is exact and no step refines the grid.

    Each step synchronizes the current job, or evicts it or at least one
    tail job for good.  A job is synchronized at most once and evicted at
    most once, so there are at most ``2 * len(inst)`` steps: the ``limit``
    that only a loop making no progress would reach.
    """
    private = grid.private
    steps = 0
    orders = []
    for proc in range(1, m + 1):
        tail: list[tuple[str, int]] = []  # (job id, p) of each synchronized job, front first
        for a, b, job_id in reversed(grid.chunks.get(proc, [])):
            c = private[job_id]
            p = b - a + c
            while b < c:
                if steps >= limit:  # the progress argument caps the loop; never expected
                    raise RuntimeError("synchronization failed to make progress")
                steps += 1
                # discounted: the sum of w_j / 2**(j+1), times 2**len(tail);
                # ahead: b plus p_i << i over the jobs before j
                discounted, ahead, rooms = 0, b, []
                for j, (tail_id, tail_p) in enumerate(tail):
                    discounted = (discounted << 1) + w[tail_id]
                    rooms.append(2 * ((tail_p << j) - ahead))
                    ahead += tail_p << j
                if w[job_id] << len(tail) < discounted:
                    break  # pushing the job would lose value; evict it instead
                x = min([c - b, *rooms])
                tail = [job for job, room in zip(tail, rooms) if room != x]
                b, c = (b + x // 2, c - x // 2) if x < c - b else (c, c)
            else:
                tail.insert(0, (job_id, p))
        orders.append(tuple(job_id for job_id, _ in tail))
    return steps, tuple(orders)


def synchronize_detailed(g: GeneralSchedule, inst: Instance) -> SynchronizeReport:
    """Run the full pipeline and report values and the step count.

    After the four canonicalization passes, the rebalancing loop
    (:func:`_rebalance`) performs at most ``2 * len(inst)`` push/pull
    steps: each step either synchronizes one more job or permanently
    evicts a job to its private processor.  Pushing is only applied when
    the preceding job's weight is at least the discounted weight of the
    synchronized jobs behind it, so the value never decreases; otherwise
    the preceding job is evicted by a full-length pull, which strictly
    gains value.  The loop decides only which jobs stay where; the
    result is walked once, and that walk's total is the final value.
    ``engine._layout`` lays the walk out on one integer grid, which the
    exit check and the general schedule read.
    """
    grid = _Grid(g)
    _require(grid, inst)
    weights = _weights(grid, inst)
    value_before = _value(grid, weights)
    pass_values = []
    for name, (run, _) in _PASSES.items():
        run(grid)  # each pass's output meets the next one's entry checks
        pass_values.append((name, _value(grid, weights)))
    steps, orders = _rebalance(grid, weights[0], inst.m, 2 * len(inst))
    # the loop keeps each job in at most one order, so the schedule needs no re-validation
    schedule = _trusted(SyncSchedule, {"sequences": orders})
    report = evaluate(schedule, inst)
    grid = _laid_out(report, inst)
    _require(grid, inst)  # the exit check
    pass_values.append(("rebalance", report.total))
    values = tuple(pass_values)
    return SynchronizeReport(schedule, grid.schedule(), value_before, report.total, steps, values)


def synchronize(g: GeneralSchedule, inst: Instance) -> SyncSchedule:
    """Canonicalize a valid schedule into a synchronized one of no
    smaller total weighted overlap."""
    return synchronize_detailed(g, inst).schedule


def _laid_out(report: EvalReport, inst: Instance) -> _Grid:
    """The grid of a synchronized schedule, as :func:`engine._layout` lays out
    the report :func:`evaluate` built of it and ``inst``."""
    grid = object.__new__(_Grid)
    grid.scale, grid.chunks, grid.private = _layout(report, inst)
    grid.procs = dict.fromkeys(grid.private)
    grid.procs.update((job_id, p) for p, chunks in grid.chunks.items() for *_, job_id in chunks)
    return grid


def from_synchronized(schedule: SyncSchedule, inst: Instance) -> GeneralSchedule:
    """Expand per-processor job orders into explicit intervals; the
    placements come in instance order."""
    return _laid_out(evaluate(schedule, inst), inst).schedule()


# -- JSON wire format ---------------------------------------------------------


def parse_general_schedule(text: bytes | str) -> GeneralSchedule:
    """Parse ``{"jobs": [{"id", "shared_processor", "shared_intervals",
    "private_completion"}, ...]}`` with dyadic-string endpoints."""
    return _read_general_schedule(_load_json(text))


def _read_general_schedule(data) -> GeneralSchedule:
    """The general schedule in decoded JSON ``data``."""
    if not isinstance(data, dict) or "jobs" not in data or not isinstance(data["jobs"], list):
        raise InstanceError('general schedule must be an object with a "jobs" list')
    placements = {}
    parsed: dict[str, Dyadic] = {}
    for idx, entry in enumerate(data["jobs"]):
        job_id = _job_id(entry, idx, "shared_processor", "shared_intervals", "private_completion")
        if job_id in placements:
            raise InstanceError(f"duplicate job id {_quoted(job_id)} in schedule")
        proc = entry["shared_processor"]
        if proc is not None and (isinstance(proc, bool) or not isinstance(proc, int)):
            raise InstanceError(f"job {_quoted(job_id)}: shared_processor must be an int or null")
        raw_intervals = entry["shared_intervals"]
        if not isinstance(raw_intervals, list):
            raise InstanceError(f"job {_quoted(job_id)}: shared_intervals must be a list")
        intervals = []
        for pair in raw_intervals:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InstanceError(
                    f"job {_quoted(job_id)}: each interval must be a [start, end] pair"
                )
            start = _literal(pair[0], parsed, "job {} interval start", job_id)
            intervals.append((start, _literal(pair[1], parsed, "job {} interval end", job_id)))
        c = _literal(entry["private_completion"], parsed, "job {} private completion", job_id)
        # trusted, as parse_instance builds each Job: every endpoint is already a Dyadic
        fields = {"processor": proc, "intervals": tuple(sorted(intervals)), "private_completion": c}
        placements[job_id] = _trusted(JobPlacement, fields)
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
