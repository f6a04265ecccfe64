"""Holes read through ``transforms._gaps`` and overlaps reported once or
newly named, against the code they replaced.

``_gaps(chunks)`` is each chunk's start minus the previous chunk's end
(minus 0 for the first).  ``is_gap_free``, the idle time ``reorder``
keeps between slots and the contiguity check of ``pull`` and ``push``
read holes through it, and so do ``compact_idle``'s parity shift and its
sweep, which ``tests/test_transforms_grid.py`` checks against the loop it
replaced.  Test-local copies of the replaced forms check the others, with
the tie-break included:

* ``replaced_is_gap_free`` walked a cursor along each processor;
* ``replaced_reorder`` kept the first chunk's start and, for each later
  slot, the difference of two neighbouring chunks;
* ``replaced_move_args`` compared each start with the previous end.

Results and error texts must be identical.  ``_violations`` no longer
reports two adjacent chunks of one job as ``jobs 'x' and 'x' overlap``:
the job's own ``overlapping own intervals`` line already names that
fault.  It also names overlaps that the old list skipped: a job's
interval is compared with the furthest end among its earlier intervals,
and a chunk with the earlier chunk of another job that ends last, not
only with its neighbour.  ``replaced_violations`` is the old list; the
new one must hold its lines without those same-job lines, in order, and
every other line must name an overlap of two chunks or two intervals
that are not neighbours.  Every ``validate`` verdict must be the same.

The inputs are the canonicalization corpus, a staircase, the staircases
that empty synchronized jobs, the nested family, the 400 preempted
schedules and 400 random grids.  The random grids have holes, touching
chunks, same-job overlaps (adjacent and not), overlaps between jobs,
zero-length and reversed chunks and intervals under no processor.  200
ordered grids with holes before some chunks take ``pull`` and ``push``
to their contiguity check.  Each valid input also runs after
``normalize``, ``merge_preemptions``, ``reorder`` and ``synchronize``.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from unittest import mock

import pytest

from sharedsched import transforms
from sharedsched.dyadic import Dyadic, _make, _quoted
from sharedsched.transforms import (
    GeneralSchedule,
    InvalidScheduleError,
    JobPlacement,
    PreconditionError,
    _Grid,
    _non_preemptive,
    _normal,
    _require,
    _shown,
    _violations,
    is_gap_free,
    merge_preemptions,
    normalize,
    pull,
    push,
    reorder,
    serialize_general_schedule,
    synchronize_detailed,
    validate,
)

from conftest import make_instance, shared_chunks
from test_transforms_grid import PREEMPTED_CASES, REBALANCED

# -- the replaced code ---------------------------------------------------------


def replaced_is_gap_free(g):
    for chunks in _Grid(g).lists():
        cursor = 0
        for a, b, _ in chunks:
            if a != cursor:
                return False
            cursor = b
    return True


def replaced_reorder(grid):
    private = grid.private
    for chunks in grid.lists():
        laid = []
        for t, (a, b, job_id) in enumerate(sorted(chunks, key=lambda c: private[c[2]])):
            start = chunks[0][0] if t == 0 else laid[-1][1] + chunks[t][0] - chunks[t - 1][1]
            laid.append([start, start + b - a, job_id])
        chunks[:] = laid


def replaced_move_args(grid, name, proc, i, eps):
    chunks = grid.chunks.get(proc, [])
    if not 2 <= i <= len(chunks):
        raise PreconditionError(f"{name} position {i} out of range 2..{len(chunks)}")
    for (_, end, _), (start, _, job_id) in zip(chunks[i - 2 :], chunks[i - 1 :]):
        if start != end:
            raise PreconditionError(
                f"processor {proc}: idle time before job {_quoted(job_id)}; "
                "the move's exact value accounting needs a contiguous span"
            )
    grid.shift(eps.exponent - grid.scale)
    return chunks, eps.mantissa << (grid.scale - eps.exponent)


def replaced_violations(grid, inst=None):
    def t(x):
        return _make(x, grid.scale)

    out = []
    ids = set(grid.private)
    if inst is not None:
        inst_ids = {job.id for job in inst.jobs}
        out += [f"job {_quoted(missing)}: no placement" for missing in sorted(inst_ids - ids)]
        out += [f"job {_quoted(extra)}: not in instance" for extra in sorted(ids - inst_ids)]
    intervals = {job_id: [] for job_id in ids}
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
        prev_end = None
        for a, b in intervals[job_id]:
            if a < 0:
                out.append(f"job {_quoted(job_id)}: interval ({t(a)}, {t(b)}) starts before 0")
            if not a < b:
                out.append(f"job {_quoted(job_id)}: empty or reversed interval ({t(a)}, {t(b)})")
            if prev_end is not None and a < prev_end:
                out.append(f"job {_quoted(job_id)}: overlapping own intervals at {t(a)}")
            prev_end = b
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
        for (a1, b1, j1), (a2, b2, j2) in zip(chunks, chunks[1:]):
            if a2 < b1:
                out.append(
                    f"processor {proc}: jobs {_quoted(j1)} and {_quoted(j2)} overlap in "
                    f"({t(a2)}, {t(min(b1, b2))})"
                )
    return out


SAME_JOB = re.compile(r"processor -?\d+: jobs (.+) and \1 overlap in \(.*\)")


def non_adjacent_overlaps(grid):
    """Every line that could name an overlap the replaced list skipped: a
    chunk with an earlier chunk of another job on its processor, or a job's
    interval with one of its own, either of them not the one just before."""

    def t(x):
        return _make(x, grid.scale)

    lines, intervals = set(), {}
    for proc, chunks in grid.chunks.items():
        for u, (a1, b1, j1) in enumerate(chunks):
            intervals.setdefault(j1, []).append((a1, b1))
            for a2, b2, j2 in chunks[u + 2 :]:
                if proc is not None and a2 < b1 and j1 != j2:
                    lines.add(
                        f"processor {proc}: jobs {_quoted(j1)} and {_quoted(j2)} overlap in "
                        f"({t(a2)}, {t(min(b1, b2))})"
                    )
    for job_id, spans in intervals.items():
        for u, (_, b1) in enumerate(spans):
            lines.update(
                f"job {_quoted(job_id)}: overlapping own intervals at {t(a2)}"
                for a2, _ in spans[u + 2 :]
                if a2 < b1
            )
    return lines


def extra_lines(new, kept):
    """The lines of ``new`` left once every line of ``kept`` is matched in
    order; fails when some line of ``kept`` is missing or out of place."""
    extra, matched = [], 0
    for line in new:
        if matched < len(kept) and line == kept[matched]:
            matched += 1
        else:
            extra.append(line)
    assert matched == len(kept), (new, kept)
    return extra

# -- random grids ----------------------------------------------------------------


KINDS = ("hole", "touch", "overlap", "empty", "reversed")


def _length(rng):
    return Dyadic(rng.randint(1, 6), rng.randint(0, 2))


def random_grid(rng):
    """A general schedule on 1-3 processors, rarely valid, and its instance.

    Each processor lays chunks along a cursor: after a hole, touching the
    previous chunk, overlapping it, empty or reversed.  A chunk belongs to
    the previous chunk's job, to an earlier job or to a new one.  Some
    jobs have intervals under no processor, a few run on processor 0, and
    some lengths or private completions are off."""
    m = rng.randint(1, 3)
    placements, order = {}, []
    for proc in range(0 if rng.random() < 0.1 else 1, m + 1):
        cursor, used = Dyadic(0), []
        for _ in range(rng.randint(0, 7)):
            kind = rng.choices(KINDS, [3, 3, 3, 1, 1])[0]
            start = cursor
            if kind in ("hole", "overlap"):
                start += (1 if kind == "hole" else -1) * _length(rng)
            end = start
            if kind != "empty":
                end += (-1 if kind == "reversed" else 1) * _length(rng)
            cursor = max(cursor, end)
            draw = rng.random()
            if used and draw < 0.25:
                job_id = used[-1]
            elif used and draw < 0.45:
                job_id = rng.choice(used)
            else:
                job_id = f"q{proc}j{len(placements)}"
                placements[job_id], order = (proc, []), order + [job_id]
            used.append(job_id)
            placements[job_id][1].append((start, end))
    for idx in range(rng.randint(0, 2)):
        job_id = f"free{idx}"
        intervals = [(Dyadic(k), Dyadic(k) + _length(rng)) for k in range(rng.randint(0, 2))]
        placements[job_id], order = (None, intervals), order + [job_id]
    general, specs = {}, []
    for job_id in order:
        proc, intervals = placements[job_id]
        end = max((b for _, b in intervals), default=Dyadic(0))
        private = end + rng.choice([0, 1, -1]) * _length(rng)
        shared = sum((b - a for a, b in intervals), Dyadic(0))
        p = shared + private + (Dyadic(1) if rng.random() < 0.1 else Dyadic(0))
        specs.append((job_id, p if p.sign > 0 else Dyadic(1), rng.randint(1, 9)))
        general[job_id] = JobPlacement(proc, tuple(intervals), private)
    return GeneralSchedule(general), make_instance(specs, m)


def ordered_grid(rng):
    """A valid, normal, non-preemptive and ordered schedule: one chunk per
    job after a hole or touching the previous one.  The jobs before a cut
    keep up to 1/2 of private slack, which no later chunk's end falls
    below; the rest are synchronized, so ``pull`` and ``push`` reach
    their contiguity check at most positions."""
    m = rng.randint(1, 3)
    placements, specs = {}, []
    for proc in range(1, m + 1):
        cursor, count = Dyadic(0), rng.randint(1, 6)
        cut = rng.randint(0, count)
        for idx in range(count):
            if rng.random() < 0.4:
                cursor += _length(rng)
            start, cursor = cursor, cursor + Dyadic(1) + _length(rng)
            slack = Dyadic(rng.randint(0, 2), 2) if idx < cut else Dyadic(0)
            job_id = f"q{proc}j{idx}"
            placements[job_id] = JobPlacement(proc, ((start, cursor),), cursor + slack)
            specs.append((job_id, cursor - start + cursor + slack, rng.randint(1, 9)))
    return GeneralSchedule(placements), make_instance(specs, m)


RANDOM_GRIDS = [random_grid(random.Random(seed)) for seed in range(400)]
ORDERED_GRIDS = [ordered_grid(random.Random(seed)) for seed in range(200)]


def variants(g, inst):
    """``g`` and, while each succeeds, the schedules ``normalize``,
    ``merge_preemptions`` and ``reorder`` make of it, and its synchronized form."""
    out = [g]
    try:
        out.append(normalize(g))
        out.append(merge_preemptions(out[-1]))
        out.append(reorder(out[-1]))
    except (InvalidScheduleError, PreconditionError):
        pass
    try:
        out.append(synchronize_detailed(g, inst).general)
    except InvalidScheduleError:
        pass
    return out


# -- the comparisons -------------------------------------------------------------


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (InvalidScheduleError, PreconditionError) as exc:
        return type(exc), str(exc)
    return result, serialize_general_schedule(result), list(result.placements)


def old_reorder(g):
    needs = transforms._PASSES["reorder"][1]
    with mock.patch.dict(transforms._PASSES, reorder=(replaced_reorder, needs)):
        return reorder(g)


def old_move(move):
    def run(*args):
        with mock.patch.object(transforms, "_move_args", replaced_move_args):
            return move(*args)

    return run


def moves(g):
    """``(move, processor, position, eps)`` at some positions of each
    processor, out of range ones included: ``pull`` by half the previous
    chunk's length and ``push`` by half its private slack."""
    half = Dyadic(1, 1)
    for proc in sorted({p.processor for p in g.placements.values()} - {None}):
        chunks = shared_chunks(g, proc)
        k = len(chunks)
        for i in sorted(set(range(1, k + 2) if k <= 6 else (1, 2, 3, k // 2, k, k + 1))):
            if not 2 <= i <= k:
                yield from ((pull, proc, i, half), (push, proc, i, half))
                continue
            a, b, prev_id = chunks[i - 2]
            yield pull, proc, i, (b - a) * half
            yield push, proc, i, (g.placements[prev_id].private_completion - b) * half


def compare(g, inst, seen: Counter) -> None:
    """Assert every comparison on one input; count what the moves reached."""
    assert is_gap_free(g) == replaced_is_gap_free(g)
    assert outcome(reorder, g) == outcome(old_reorder, g)
    # a schedule that fails the moves' entry checks fails them at every position
    grid = _Grid(g)
    entered = not _violations(grid) and _normal(grid) and _non_preemptive(grid)
    for move, proc, i, eps in itertools.islice(moves(g), None if entered else 2):
        new = outcome(move, g, proc, i, eps)
        assert new == outcome(old_move(move), g, proc, i, eps)
        seen[move.__name__, "idle time" in str(new[1]), new[0] is PreconditionError] += 1
    for arg in (inst, None):
        new, old = _violations(_Grid(g), arg), replaced_violations(_Grid(g), arg)
        kept = [line for line in old if not SAME_JOB.fullmatch(line)]
        extra = extra_lines(new, kept)
        assert not extra or set(extra) <= non_adjacent_overlaps(_Grid(g)), extra
        assert bool(new) == bool(old)
        seen["same-job lines"] += len(old) - len(kept)
        for line in extra:
            seen["extra", line.split(" ", 1)[0]] += 1  # "processor" or "job"
    assert bool(validate(g, inst)) == bool(replaced_violations(_Grid(g), inst))


def _features(g):
    """Which of the random grids' edge cases ``g`` has, on its sorted grid."""
    grid, out = _Grid(g), set()
    if grid.chunks.get(None):
        out.add("no processor")
    for proc, chunks in grid.chunks.items():
        for t, (a, b, job_id) in enumerate(chunks):
            if b <= a:
                out.add("empty" if a == b else "reversed")
            if t and (a == chunks[t - 1][1]):
                out.add("touching")
            if proc is not None and a > (chunks[t - 1][1] if t else 0):
                out.add("hole")
            for u, (a2, _, other) in enumerate(chunks[t + 1 :], start=t + 1):
                if a2 < b:
                    adjacent = "adjacent" if u == t + 1 else "apart"
                    out.add(f"{'same' if other == job_id else 'two'}-job overlap {adjacent}")
    return out


def test_random_grids_cover_the_edges():
    features = Counter(f for g, _ in RANDOM_GRIDS for f in _features(g))
    want = {"no processor", "empty", "reversed", "touching", "hole"}
    want |= {f"{who}-job overlap {at}" for who in ("same", "two") for at in ("adjacent", "apart")}
    assert want <= set(features), features
    assert not any(validate(g, inst) for g, inst in ORDERED_GRIDS)
    seen = Counter()
    for g, inst in RANDOM_GRIDS:
        compare(g, inst, seen)
    assert seen["extra", "processor"] and seen["extra", "job"], seen


CASES = [(g, inst) for _, g, inst in REBALANCED] + PREEMPTED_CASES + RANDOM_GRIDS + ORDERED_GRIDS


@pytest.mark.parametrize("group", range(8))
def test_holes_and_overlaps_match_the_replaced_code(group):
    seen = Counter()
    for g, inst in CASES[group::8]:
        for v in variants(g, inst):
            compare(v, inst, seen)
    # the moves reached the contiguity check and passed it, old lines were
    # dropped and new ones added; random grids also give the job kind of new line
    assert seen["pull", True, True] and seen["push", True, True], seen
    assert seen["pull", False, False] and seen["push", False, False], seen
    assert seen["same-job lines"] and seen["extra", "processor"], seen


def test_a_same_job_overlap_is_reported_once():
    g = GeneralSchedule({"j0": JobPlacement(2, ((0, 1), (0, 2)), 0)})
    inst = make_instance([("j0", Dyadic(7, 2), 1)], 2)
    with pytest.raises(InvalidScheduleError) as caught:
        _require(_Grid(g), inst)
    assert caught.value.violations == [
        "job 'j0': overlapping own intervals at 0",
        "job 'j0': length mismatch (intervals sum to 3, p = 7/4)",
    ]


def test_a_chunk_is_named_with_an_earlier_chunk_that_spans_its_neighbour():
    placements = {"x": ((0, 10),), "y": ((1, 2),), "z": ((3, 4),)}
    g = GeneralSchedule({j: JobPlacement(1, spans, 0) for j, spans in placements.items()})
    inst = make_instance([("x", 10, 1), ("y", 1, 1), ("z", 1, 1)], 1)
    assert validate(g, inst) == [
        "processor 1: jobs 'x' and 'y' overlap in (1, 2)",
        "processor 1: jobs 'x' and 'z' overlap in (3, 4)",
    ]
    # when the neighbour and the chunk that ends last are one job's, that job is named once
    spans = {"x": ((0, 10), (1, 4)), "z": ((3, 5),)}
    g = GeneralSchedule({j: JobPlacement(1, intervals, 0) for j, intervals in spans.items()})
    assert validate(g, make_instance([("x", 13, 1), ("z", 2, 1)], 1)) == [
        "job 'x': overlapping own intervals at 1",
        "processor 1: jobs 'x' and 'z' overlap in (3, 4)",
    ]


def test_an_interval_is_checked_against_the_furthest_earlier_end():
    g = GeneralSchedule({"x": JobPlacement(1, ((0, 10), (1, 2), (3, 4)), 0)})
    assert validate(g, make_instance([("x", 12, 1)], 1)) == [
        "job 'x': overlapping own intervals at 1",
        "job 'x': overlapping own intervals at 3",
    ]
