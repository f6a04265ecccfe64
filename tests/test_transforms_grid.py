"""Differential tests for canonicalization on the scaled-integer grid.

Two oracles check every pass and the push/pull loop over one seeded
corpus of general schedules:

* ``tests/data/transforms_digests.json`` holds, per corpus input, the
  sha256 of every public pass's output, of ``synchronize_detailed``'s
  general schedule and sequence form, its values and step count, and the
  text of every error, as the ``Dyadic``-object implementation produced
  them.  It was recorded once, before the passes moved to integers, and
  is never re-recorded: a mismatch means the moves changed.
* a ``Fraction`` recomputation of values and validity from the intervals.

``compact_idle`` and ``merge_preemptions`` were search loops until each
became one sweep per processor, ``compact_idle``'s after one refinement;
test-local copies of the loops (``replaced_*`` below) check them on every
grid they can differ on and on one processor of 2,400 chunks, and the
copy of ``compact_idle``'s loop counts the cases its sweep must match.
Two contracts pin what the rewrite bought: the merge's work is linear in
the chunks, and ``compact_idle`` refines the grid by exactly one binary
digit when an entry hole has odd length and by none otherwise.

The push/pull loop rippled each step through the chunks behind the job it
moved until it became a loop over job lists that writes nothing to the
grid; ``replaced_report`` runs a test-local copy of the rippling loop and
builds the report from its grid, and every report field must match on
the corpus, the preempted schedules, a 150-job staircase, staircases that
empty synchronized jobs and the nested family up to 500 jobs.

The corpus: ``conftest.random_general_schedule``; interleaved schedules
(idle holes, two chunks per job) and staircases (a push/pull step per
job, with evictions when weights fall); endpoints with mixed dyadic
exponents; one endpoint at exponent 2001; ties in private completion.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sharedsched.dyadic import Dyadic
from sharedsched.engine import SyncSchedule, evaluate, serialize_sync_schedule
from sharedsched.transforms import (
    _PASSES,
    GeneralSchedule,
    InvalidScheduleError,
    JobPlacement,
    PreconditionError,
    _compact_idle,
    _Grid,
    _merge_preemptions,
    _orders,
    _require,
    _value,
    _weights,
    compact_idle,
    is_synchronized,
    merge_preemptions,
    normalize,
    pull,
    push,
    reorder,
    serialize_general_schedule,
    synchronize_detailed,
    validate,
)

from conftest import frac, make_instance, random_general_schedule, shared_chunks
from test_rebalance_work import nested

DIGESTS = Path(__file__).parent / "data" / "transforms_digests.json"


# -- corpus --------------------------------------------------------------------


def _build(rows, m):
    """rows: (id, processor, intervals, private, weight) -> (schedule, instance)."""
    specs, placements = [], {}
    for job_id, proc, intervals, private, weight in rows:
        intervals = tuple((Dyadic(0) + a, Dyadic(0) + b) for a, b in intervals)
        private = Dyadic(0) + private
        shared = sum((b - a for a, b in intervals), Dyadic(0))
        specs.append((job_id, shared + private, weight))
        placements[job_id] = JobPlacement(proc if intervals else None, intervals, private)
    return GeneralSchedule(placements), make_instance(specs, m)


def interleaved(rng, per_proc, m):
    """Two chunks per job, all first chunks before all second chunks, an
    idle hole before every chunk; normal."""
    rows = []
    for proc in range(1, m + 1):
        ids = [f"q{proc}j{idx}" for idx in range(per_proc)]
        chunks = {job_id: [] for job_id in ids}
        cursor = 0
        for _ in range(2):
            for job_id in ids:
                start = cursor + rng.randint(1, 4)
                cursor = start + rng.randint(2, 12)
                chunks[job_id].append((start, cursor))
        for job_id in ids:
            private = chunks[job_id][-1][1] + rng.randint(0, 6)
            rows.append((job_id, proc, chunks[job_id], private, rng.randint(1, 100)))
    return _build(rows, m)


def staircase(rng, per_proc, m, w_lo=90):
    """Back-to-back single chunks from 0 with rising private completions
    past their shared ends: already ordered, one rebalance step per job."""
    rows = []
    for proc in range(1, m + 1):
        cursor = private = 0
        for idx in range(per_proc):
            start, cursor = cursor, cursor + rng.randint(20, 40)
            private = max(private, cursor) + rng.randint(1, 8)
            weight = rng.randint(w_lo, 100)
            rows.append((f"q{proc}j{idx}", proc, [(start, cursor)], private, weight))
    return _build(rows, m)


def emptying(rng, per_proc, m):
    """Staircases with two of every three jobs synchronized already and
    chunks of 1, 2 or 20 to 40: pushing a job with long slack can empty a
    short synchronized job behind it first, so the job takes more than one
    step."""
    rows = []
    for proc in range(1, m + 1):
        cursor = private = 0
        for idx in range(per_proc):
            start, cursor = cursor, cursor + rng.choice([1, 2, rng.randint(20, 40)])
            private = max(private, cursor) + (0 if idx % 3 else rng.randint(1, 40))
            rows.append((f"e{proc}j{idx}", proc, [(start, cursor)], private, rng.randint(50, 100)))
    return _build(rows, m)


def mixed_exponents(rng, n, m):
    """Chunks, holes and private slack with exponents 0..9 mixed; some
    jobs preempted, some not normal, some private only."""
    rows = []
    cursor = {proc: Dyadic(0) for proc in range(1, m + 1)}
    for idx in range(n):
        proc = rng.choice([None] + list(range(1, m + 1)))
        intervals = []
        if proc is not None:
            for _ in range(rng.randint(1, 2)):
                start = cursor[proc] + Dyadic(rng.randint(0, 9), rng.randint(0, 6))
                cursor[proc] = start + Dyadic(rng.randint(1, 40), rng.randint(0, 9))
                intervals.append((start, cursor[proc]))
        end = intervals[-1][1] if intervals else Dyadic(0)
        private = end + Dyadic(rng.randint(-30, 20), rng.randint(0, 7))
        if private.sign <= 0:
            private = Dyadic(rng.randint(1, 5), rng.randint(0, 3))
        weight = Dyadic(rng.randint(1, 50), rng.randint(0, 4))
        rows.append((f"x{idx}", proc, intervals, private, weight))
    return _build(rows, m)


def huge_exponent():
    """One endpoint at exponent 2001, a hole behind it, a staircase after."""
    tiny = Dyadic(1, 2001)
    rows = [
        ("h0", 1, [(0, 3 + tiny)], 5, 7),
        ("h1", 1, [(4, 9)], 12, 5),
        ("h2", 1, [(9, 15)], 20, 9),
        ("h3", 2, [(tiny, 2)], 3 - tiny, 1),
        ("h4", 2, [(2, 8)], 8, 60),
    ]
    return _build(rows, 2)


def private_ties(rng, per_proc, m):
    """Back-to-back single chunks whose private completions repeat and
    come in descending runs, so reorder and the rebalance loop see ties."""
    rows = []
    for proc in range(1, m + 1):
        cursor = 0
        level = 40 * per_proc
        for idx in range(per_proc):
            start, cursor = cursor, cursor + rng.randint(2, 9)
            if rng.random() < 0.5:
                level -= rng.randint(1, 5)
            rows.append(
                (f"t{proc}j{idx}", proc, [(start, cursor)], max(level, cursor), rng.randint(1, 100))
            )
    return _build(rows, m)


def corpus():
    rng = random.Random(20260418)
    cases = []
    for idx in range(60):
        cases.append((f"random-{idx}", *random_general_schedule(rng)))
    for idx in range(6):
        per_proc, m = rng.randint(2, 6), rng.randint(1, 2)
        cases.append((f"interleaved-{idx}", *interleaved(rng, per_proc, m)))
    for idx in range(6):
        w_lo = 90 if idx % 2 == 0 else 1
        per_proc, m = rng.randint(3, 18), rng.randint(1, 2)
        cases.append((f"staircase-{idx}", *staircase(rng, per_proc, m, w_lo)))
    cases.append(("staircase-deep", *staircase(rng, 40, 2)))
    for idx in range(20):
        cases.append((f"mixed-{idx}", *mixed_exponents(rng, rng.randint(1, 9), rng.randint(1, 3))))
    cases.append(("huge-exponent", *huge_exponent()))
    for idx in range(6):
        cases.append((f"ties-{idx}", *private_ties(rng, rng.randint(2, 8), rng.randint(1, 2))))
    return cases


CORPUS = corpus()


# -- the record ----------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (InvalidScheduleError, PreconditionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return _sha(serialize_general_schedule(result))


def _moves(general, seed):
    """pull/push on the longest processor of a synchronized schedule: a
    legal pull, the push that undoes it, and two out-of-range calls."""
    rng = random.Random(seed)
    procs = sorted({p.processor for p in general.placements.values()} - {None})
    if not procs:
        return {}
    proc = max(procs, key=lambda p: (len(shared_chunks(general, p)), -p))
    chunks = shared_chunks(general, proc)
    if len(chunks) < 2:
        return {}
    i = rng.randint(2, len(chunks))
    a, b, _ = chunks[i - 2]
    eps = (b - a).mul_pow2(-rng.randint(0, 2))
    out = {
        "pull": _outcome(pull, general, proc, i, eps),
        "pull_wide": _outcome(pull, general, proc, i, (b - a) + 1),
    }
    try:
        pulled = pull(general, proc, i, eps)
    except PreconditionError:
        return out
    out["push_back"] = _outcome(push, pulled, proc, i, eps)
    out["push_wide"] = _outcome(push, pulled, proc, i, eps.mul_pow2(rng.randint(1, 3)))
    return out


def _corrupted(g, m):
    """The schedule with its first shared interval moved 1 earlier, the
    first private completion raised by 1/2, and the last job's processor
    dropped (when it has intervals) or set to m + 1: overlaps, starts
    before 0, length mismatches and bad processors for ``validate``."""
    placements = dict(g.placements)
    job_id, p = list(placements.items())[-1]
    proc = None if p.intervals else m + 1
    placements[job_id] = JobPlacement(proc, p.intervals, p.private_completion)
    for job_id, p in placements.items():
        if p.intervals:
            (a, b), *rest = p.intervals
            moved = ((a - 1, b - 1), *rest)
            placements[job_id] = JobPlacement(p.processor, moved, p.private_completion)
            break
    job_id = next(iter(placements))
    p = placements[job_id]
    placements[job_id] = JobPlacement(p.processor, p.intervals, p.private_completion + Dyadic(1, 1))
    return GeneralSchedule(placements)


def record(name, g, inst):
    out = {
        "validate": _sha("\n".join(validate(_corrupted(g, inst.m), inst))),
        "compact_idle_raw": _outcome(compact_idle, g),
        "normalize": _outcome(normalize, g),
    }
    n = normalize(g)
    out["merge_preemptions_holes"] = _outcome(merge_preemptions, n)
    out["reorder_raw"] = _outcome(reorder, n)
    out["compact_idle"] = _outcome(compact_idle, n)
    c = compact_idle(n)
    out["merge_preemptions"] = _outcome(merge_preemptions, c)
    out["reorder"] = _outcome(reorder, merge_preemptions(c))
    report = synchronize_detailed(g, inst)
    out["synchronize"] = {
        "general": _sha(serialize_general_schedule(report.general)),
        "schedule": _sha(serialize_sync_schedule(report.schedule)),
        "value_before": str(report.value_before),
        "value_after": str(report.value_after),
        "rebalance_steps": report.rebalance_steps,
    }
    out.update(_moves(report.general, name))
    return out


@pytest.mark.parametrize("name,g,inst", CORPUS, ids=[case[0] for case in CORPUS])
def test_matches_recorded_dyadic_path(name, g, inst):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert record(name, g, inst) == expected


# -- the Fraction oracle ---------------------------------------------------------


def oracle_value(g, inst) -> Fraction:
    total = Fraction(0)
    for job_id, p in g.placements.items():
        cutoff = frac(p.private_completion)
        for a, b in p.intervals:
            hi = min(frac(b), cutoff)
            if frac(a) < hi:
                total += (hi - frac(a)) * frac(inst.job(job_id).w)
    return total


def oracle_synchronized(g, inst) -> bool:
    """Every job's lengths sum to p; shared jobs run one interval ending at
    the private completion; no two intervals on a processor overlap."""
    by_proc = {}
    for job_id, p in g.placements.items():
        shared = sum((frac(b) - frac(a) for a, b in p.intervals), Fraction(0))
        if shared + frac(p.private_completion) != frac(inst.job(job_id).p):
            return False
        if p.intervals:
            ((a, b),) = p.intervals
            if not 0 <= frac(a) < frac(b) == frac(p.private_completion):
                return False
            by_proc.setdefault(p.processor, []).append((frac(a), frac(b)))
    for spans in by_proc.values():
        spans.sort()
        if any(a2 < b1 for (_, b1), (a2, _) in zip(spans, spans[1:])):
            return False
    return True


@pytest.mark.parametrize("name,g,inst", CORPUS, ids=[case[0] for case in CORPUS])
def test_against_fraction_oracle(name, g, inst):
    report = synchronize_detailed(g, inst)
    assert frac(report.value_before) == oracle_value(g, inst)
    assert frac(report.value_after) == oracle_value(report.general, inst)
    assert validate(report.general, inst) == []
    assert is_synchronized(report.general)
    assert oracle_synchronized(report.general, inst)
    assert evaluate(report.schedule, inst).total == report.value_after


@pytest.mark.parametrize("name,g,inst", CORPUS, ids=[case[0] for case in CORPUS])
def test_pass_values_never_decrease(name, g, inst):
    report = synchronize_detailed(g, inst)
    names = [step for step, _ in report.pass_values]
    assert names == ["normalize", "compact_idle", "merge_preemptions", "reorder", "rebalance"]
    chain = [report.value_before] + [value for _, value in report.pass_values]
    assert all(x <= y for x, y in zip(chain, chain[1:]))
    assert chain[-1] == report.value_after
    # each pass's value is the Fraction value of the public pass's output
    work = g
    for step, value in report.pass_values[:-1]:
        work = globals()[step](work)
        assert frac(value) == oracle_value(work, inst)


# -- the sweeps against the loops they replaced -----------------------------------


def replaced_compact_idle(grid, cases=None):
    """The search-and-insert loop.  It adds to ``cases``, a ``Counter`` when
    given, what the sweep that replaced it must match: holes at time 0, holes
    filled from several donors, fills from a piece laid in a later hole, and
    holes left open because the processor's end moved into them."""
    cases = Counter() if cases is None else cases
    private = grid.private
    for chunks in grid.lists():
        fills, right = [], None  # the fills of each hole, and the chunk after the last one
        pieces = {}  # by id, kept alive so that no other list takes one's id
        t = len(chunks) - 1
        while chunks:
            t = min(t + 1, len(chunks) - 1)
            while t >= 0 and not (chunks[t - 1][1] if t else 0) < chunks[t][0]:
                t -= 1
            if t < 0:
                break
            lo, hi = (chunks[t - 1][1] if t else 0), chunks[t][0]
            if (hi - lo) & 1:
                grid.shift(1)
                continue
            if chunks[t] is not right:
                right = chunks[t]
                fills.append(0)
            fills[-1] += 1
            last = chunks[-1]
            cases["hole at time 0"] += lo == 0
            cases["fill from a piece of a later hole"] += id(last) in pieces
            eps = min((hi - lo) >> 1, last[1] - last[0])
            last[1] -= eps
            private[last[2]] -= eps
            piece = [lo, lo + 2 * eps, last[2]]
            pieces[id(piece)] = piece
            chunks.insert(t, piece)
            if last[0] == last[1]:
                cases["hole left open"] += last is right and lo + 2 * eps < hi
                chunks.pop()
        cases["hole filled from several donors"] += sum(n > 1 for n in fills)


def replaced_merge_preemptions(grid):
    for chunks in grid.lists():
        count = Counter(job_id for _, _, job_id in chunks)
        t = 0
        while True:
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
            chunks[k][0] -= shift
            del chunks[t]
            count[job_id] -= 1


def nested_order(ids, pieces, rng):
    """The pieces of ``ids[0]`` enclose nested blocks of the other jobs."""
    if not ids:
        return []
    head, rest = ids[0], ids[1:]
    cuts = [0] + sorted(rng.randint(0, len(rest)) for _ in range(pieces[head] - 1)) + [len(rest)]
    order = [head]
    for lo, hi in zip(cuts, cuts[1:-1]):
        order += nested_order(rest[lo:hi], pieces, rng) + [head]
    return order + nested_order(rest[cuts[-2] :], pieces, rng)


def round_robin_order(ids, pieces, rng):
    return [job_id for r in range(4) for job_id in ids if pieces[job_id] > r]


def shuffled_order(ids, pieces, rng):
    order = [job_id for job_id in ids for _ in range(pieces[job_id])]
    rng.shuffle(order)
    return order


def preempted(rng):
    """1-4 pieces per job on 1-3 processors, nested, interleaved or
    shuffled, with idle gaps before some pieces.  Each processor draws its
    exponents up to its own bound, so on the common grid odd holes can sit
    on some processors and not on others.  Normal: each private completion
    is at or past the job's last piece."""
    m = rng.randint(1, 3)
    rows = []
    for proc in range(1, m + 1):
        ids = [f"q{proc}j{idx}" for idx in range(rng.randint(1, 5))]
        pieces = {job_id: rng.randint(1, 4) for job_id in ids}
        layout = rng.choice([nested_order, round_robin_order, shuffled_order])
        top = rng.randint(0, 4)
        cursor = Dyadic(0)
        spans = {job_id: [] for job_id in ids}
        for job_id in layout(ids, pieces, rng):
            if rng.random() < 0.4:
                cursor += Dyadic(rng.randint(1, 7), rng.randint(0, top))
            start, cursor = cursor, cursor + Dyadic(rng.randint(1, 9), rng.randint(0, top))
            spans[job_id].append((start, cursor))
        for job_id in ids:
            private = spans[job_id][-1][1] + Dyadic(rng.randint(0, 5), rng.randint(0, top))
            rows.append((job_id, proc, spans[job_id], private, rng.randint(1, 9)))
    return _build(rows, m)


def odd_hole_on_processor_2():
    """Processor 1 has an even hole and processor 2 an odd one, so the
    replaced loop fills processor 1 before it refines the grid."""
    return _build([("a", 1, [(2, 6)], 6, 1), ("b", 2, [(1, 4)], 4, 1)], 2)


def long_processor(n=2400, seed=7):
    """``n`` single-chunk jobs on one processor, from a hole at time 0 on,
    with an idle hole of odd or even length before about half the chunks."""
    rng = random.Random(seed)
    rows, cursor = [], rng.randint(1, 9)
    for idx in range(n):
        if idx and rng.random() < 0.5:
            cursor += rng.randint(1, 9)
        start, cursor = cursor, cursor + rng.randint(1, 9)
        rows.append((f"j{idx}", 1, [(start, cursor)], cursor + rng.randint(0, 3), 1))
    return _build(rows, 1)


def holes(chunks):
    """The length of each idle hole on one processor of a grid."""
    gaps = [b[0] - a[1] for a, b in zip([[0, 0]] + chunks, chunks)]
    return [gap for gap in gaps if gap > 0]


def state(grid):
    return grid.chunks, grid.private, grid.scale


PREEMPTED_CASES = [preempted(random.Random(seed)) for seed in range(400)]
PREEMPTED = [g for g, _ in PREEMPTED_CASES]
NORMAL = PREEMPTED + [normalize(g) for _, g, _ in CORPUS] + [odd_hole_on_processor_2()[0]]
SWEPT = NORMAL + [long_processor()[0]]


def test_preempted_corpus_covers_what_the_sweeps_must_match():
    most_pieces, odd_holes = set(), set()
    for g in PREEMPTED:
        lists = _Grid(g).lists()
        most_pieces |= {max(Counter(c[2] for c in chunks).values()) for chunks in lists}
        odd_holes.add(tuple(any(h & 1 for h in holes(chunks)) for chunks in lists))
    assert most_pieces == {1, 2, 3, 4}
    assert {(False,), (True,), (False, True), (True, False)} <= odd_holes
    assert any(len(set(odd)) == 2 for odd in odd_holes if len(odd) == 3)
    # and NORMAL meets every case of compact_idle's sweep
    cases = Counter()
    for g in NORMAL:
        replaced_compact_idle(_Grid(g), cases)
    assert set(cases) == {
        "hole at time 0",
        "hole filled from several donors",
        "fill from a piece of a later hole",
        "hole left open",
    }
    assert min(cases.values()) > 0, cases
    # SWEPT's one long processor, from a hole at time 0 on
    (chunks,) = _Grid(SWEPT[-1]).lists()
    assert len(chunks) >= 2000 and chunks[0][0] > 0
    assert len(holes(chunks)) > 1000 and {h & 1 for h in holes(chunks)} == {0, 1}


@pytest.mark.parametrize("group", range(4))
def test_sweeps_match_the_replaced_loops(group):
    for g in SWEPT[group::4]:
        new, old = _Grid(g), _Grid(g)
        _compact_idle(new)
        replaced_compact_idle(old)
        assert state(new) == state(old)
        _merge_preemptions(new)
        replaced_merge_preemptions(old)
        assert state(new) == state(old)
        # and on the holes that compact_idle would have filled
        new, old = _Grid(g), _Grid(g)
        _merge_preemptions(new)
        replaced_merge_preemptions(old)
        assert state(new) == state(old)


REFINED = [(name, normalize(g)) for name, g, _ in CORPUS]
REFINED.append(("odd-hole-on-processor-2", odd_hole_on_processor_2()[0]))


@pytest.mark.parametrize("name,g", REFINED, ids=[name for name, _ in REFINED])
def test_compact_idle_refines_by_one_digit_exactly_for_an_odd_hole(name, g):
    grid = _Grid(g)
    scale = grid.scale
    odd = any(h & 1 for chunks in grid.lists() for h in holes(chunks))
    _compact_idle(grid)
    assert grid.scale - scale == odd


def merge_line_events(n):
    """Line events inside ``_merge_preemptions`` on ``n`` jobs, job ``i``
    running ``(i, i+1)`` and ``(n+i, n+i+1)`` on one processor."""
    placements = {
        f"j{i}": JobPlacement(1, ((i, i + 1), (n + i, n + i + 1)), n + i + 1) for i in range(n)
    }
    grid = _Grid(GeneralSchedule(placements))
    count = 0

    def lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code is _merge_preemptions.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        _merge_preemptions(grid)
    finally:
        sys.settrace(previous)
    # each job's earlier pieces are held back past all later jobs' first pieces
    assert grid.chunks[1] == [[2 * i, 2 * i + 2, f"j{i}"] for i in range(n)]
    return count


def test_merge_work_is_linear_in_the_chunks():
    # a ratio, not a count: Python 3.12 traces the comprehension's lines here too
    assert merge_line_events(1000) <= 2 * merge_line_events(500) + 64


# -- the push/pull loop against the one it replaced --------------------------------


def replaced_ripple(grid, chunks, i, eps, sign, exp=0):
    h = max(0, len(chunks) - i + exp - ((eps & -eps).bit_length() - 1))
    grid.shift(h)
    eps = (eps << h) >> exp
    private = grid.private
    prev = chunks[i - 1]
    prev[1] += sign * eps
    private[prev[2]] -= sign * eps
    end = prev[1]
    kept = [prev] if prev[0] < prev[1] else []
    for chunk in chunks[i:]:
        eps >>= 1
        new_end = chunk[1] + sign * eps
        private[chunk[2]] += sign * eps
        if end < new_end:
            chunk[0], chunk[1] = end, new_end
            kept.append(chunk)
        end = new_end
    chunks[i - 1 :] = kept


def replaced_rebalance(grid, w, limit):
    """The loop that rippled every step through the chunks behind it."""
    private = grid.private
    steps = 0
    for chunks in grid.lists():
        pos = len(chunks) - 1
        while True:
            while pos >= 0 and chunks[pos][1] == private[chunks[pos][2]]:
                pos -= 1
            if pos < 0:
                break
            if steps >= limit:
                raise RuntimeError("synchronization failed to make progress")
            steps += 1
            a, b, prev_id = chunks[pos]
            discounted = 0
            for _, _, job_id in chunks[pos + 1 :]:
                discounted = (discounted << 1) + w[job_id]
            if w[prev_id] << (len(chunks) - pos - 1) >= discounted:
                eps = private[prev_id] - b
                for offset, (a2, b2, _) in enumerate(chunks[pos + 1 :], start=2):
                    eps = min(eps, (b2 - a2) << offset)
                replaced_ripple(grid, chunks, pos + 1, eps, 1, exp=1)
            else:
                replaced_ripple(grid, chunks, pos + 1, b - a, -1)
                pos -= 1
    return steps


def replaced_report(g, inst):
    """``synchronize_detailed``'s fields, with the replaced loop rewriting the grid."""
    grid = _Grid(g)
    _require(grid, inst)
    weights = _weights(grid, inst)
    value_before = _value(grid, weights)
    pass_values = []
    for name, (run, _) in _PASSES.items():
        run(grid)
        pass_values.append((name, _value(grid, weights)))
    steps = replaced_rebalance(grid, weights[0], 2 * len(inst))
    _require(grid, inst)
    value_after = _value(grid, weights)
    pass_values.append(("rebalance", value_after))
    general = serialize_general_schedule(grid.schedule())
    schedule = SyncSchedule(_orders(grid, inst.m))
    return schedule, general, value_before, value_after, steps, tuple(pass_values)


def report_fields(g, inst):
    r = synchronize_detailed(g, inst)
    general = serialize_general_schedule(r.general)
    return r.schedule, general, r.value_before, r.value_after, r.rebalance_steps, r.pass_values


REBALANCED = list(CORPUS)
REBALANCED.append(("staircase-150x2", *staircase(random.Random(150), 150, 2)))
REBALANCED += [(f"emptying-{seed}", *emptying(random.Random(seed), 30, 2)) for seed in range(10)]
REBALANCED += [(f"nested-{n}", *nested(n)) for n in (10, 100, 500)]


# no grid is left to compare scales on: the loop writes none, and every field is canonical
@pytest.mark.parametrize("name,g,inst", REBALANCED, ids=[case[0] for case in REBALANCED])
def test_rebalance_matches_the_replaced_loop(name, g, inst):
    assert report_fields(g, inst) == replaced_report(g, inst)


@pytest.mark.parametrize("group", range(4))
def test_rebalance_matches_the_replaced_loop_on_preempted_schedules(group):
    for g, inst in PREEMPTED_CASES[group::4]:
        assert report_fields(g, inst) == replaced_report(g, inst)


if __name__ == "__main__":
    # Records the digests; run once, from the repository root, against the
    # implementation the corpus is meant to pin down.
    DIGESTS.parent.mkdir(exist_ok=True)
    data = {name: record(name, g, inst) for name, g, inst in CORPUS}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
