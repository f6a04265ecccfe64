"""Shared test helpers: an independent Fraction-based oracle and
seeded random generators for instances, sequences and schedules.

The oracle deliberately re-derives everything from the halving recurrence
using ``fractions.Fraction`` so that package results (computed with the
Dyadic type and, for exhaustive search, a scaled-integer kernel) are
checked against a separate arithmetic stack.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sharedsched.dyadic import Dyadic
from sharedsched.model import Instance, Job

# -- Fraction oracle -----------------------------------------------------------


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.mantissa, 1 << d.exponent)


def oracle_start_times(ps):
    times = [Fraction(0)]
    for p in ps:
        times.append((times[-1] + p) / 2)
    return times


def oracle_feasible(ps) -> bool:
    t = Fraction(0)
    for p in ps:
        if p <= t:
            return False
        t = (t + p) / 2
    return True


def oracle_value(pairs) -> Fraction:
    """Total weighted overlap of one shared-processor order; pairs of (p, w)."""
    t = Fraction(0)
    total = Fraction(0)
    for p, w in pairs:
        total += (Fraction(p) - t) / 2 * Fraction(w)
        t = (t + p) / 2
    return total


def oracle_all_maximizers(jobs, m):
    """All (assignment, orders) pairs attaining the exact optimum.

    ``jobs`` is a list of (p, w) pairs; assignment maps job index to
    0 (private) or 1..m; orders is an m-tuple of index tuples.  Small
    inputs only: enumerates every assignment and every feasible order.
    """
    n = len(jobs)
    best = None
    winners = []
    jobs = [(Fraction(p), Fraction(w)) for p, w in jobs]
    # Every feasible order of every subset with its value, per subset in
    # lexicographic order (as permutations() lists them).  One depth-first
    # walk over order prefixes builds them all, so each prefix's start time
    # and value are computed once and shared by all its extensions, and
    # each subset's list is built once rather than once per assignment.
    orders_of = {(): [(Fraction(0), ())]}

    def grow(perm, t, value):
        for i in range(n):
            p, w = jobs[i]
            if i in perm or p <= t:
                continue  # an infeasible prefix has no feasible extension
            ext = perm + (i,)
            ext_value = value + (p - t) / 2 * w
            orders_of.setdefault(tuple(sorted(ext)), []).append((ext_value, ext))
            grow(ext, (t + p) / 2, ext_value)

    grow((), Fraction(0), Fraction(0))

    def expand(proc, assignment, orders, total):
        nonlocal best, winners
        if proc > m:
            if best is None or total > best:
                best = total
                winners = [(tuple(assignment), tuple(orders))]
            elif total == best:
                winners.append((tuple(assignment), tuple(orders)))
            return
        subset = tuple(i for i in range(n) if assignment[i] == proc)
        for value, perm in orders_of.get(subset, ()):
            orders.append(perm)
            expand(proc + 1, assignment, orders, total + value)
            orders.pop()

    for code in range((m + 1) ** n):
        assignment = []
        rest = code
        for _ in range(n):
            assignment.append(rest % (m + 1))
            rest //= m + 1
        expand(1, assignment, [], Fraction(0))
    return best, winners


# -- random generators ---------------------------------------------------------


def make_instance(specs, m) -> Instance:
    """specs: iterable of (id, p, w)."""
    return Instance(tuple(Job(i, p, w) for i, p, w in specs), m)


def random_feasible_sequence(rng: random.Random, max_k=8, max_p=100, max_w=100):
    """Random feasible order of random integer jobs (ascending fallback)."""
    k = rng.randint(1, max_k)
    jobs = [
        Job(f"j{idx}", rng.randint(1, max_p), rng.randint(1, max_w))
        for idx in range(k)
    ]
    rng.shuffle(jobs)
    t = Fraction(0)
    for job in jobs:
        if frac(job.p) <= t:
            jobs.sort(key=lambda j: (frac(j.p), j.id))  # always feasible
            break
        t = (t + frac(job.p)) / 2
    return jobs


def inclusive_band(rng: random.Random, k: int) -> list[int]:
    """k integers whose multiset passes the inclusivity test: values in a
    band [base, base + spread) with spread < base / (2**(k-1) - 1)."""
    base = rng.randint(40, 100) * (1 << k)
    spread = max(base // max((1 << (k - 1)) - 1, 1) - 1, 1)
    return [base + rng.randrange(spread) for _ in range(k)]


def random_inclusive_jobs(rng: random.Random, max_k=8, weights=None):
    """Jobs whose processing times are inclusive; weights random ints or,
    when ``weights="inclusive"``, drawn from their own inclusive band."""
    k = rng.randint(2, max_k)
    ps = inclusive_band(rng, k)
    if weights == "inclusive":
        ws = inclusive_band(rng, k)
    elif weights == "equal-p":
        ws = list(ps)
    else:
        ws = [rng.randint(1, 100) for _ in range(k)]
    jobs = [Job(f"j{idx}", p, w) for idx, (p, w) in enumerate(zip(ps, ws))]
    rng.shuffle(jobs)
    return jobs


def literal_corpus(rng: random.Random, count: int) -> list[str]:
    """Well-formed literals, near misses and character soup."""
    digits = "0123456789"
    odd = "٣５\n \t+-/^.2e_x"
    corpus = []
    for _ in range(count):
        number = "".join(rng.choice(digits) for _ in range(rng.randint(1, 4)))
        sign = rng.choice(["", "", "-", "+", "--"])
        kind = rng.randrange(5)
        if kind == 0:
            text = sign + number
        elif kind == 1:
            text = f"{sign}{number}/2^{rng.randint(0, 70)}"
        elif kind == 2:
            den = rng.choice([1 << rng.randint(0, 20), rng.randint(0, 99), 2, 24, 20, 0])
            text = f"{sign}{number}/{den}"
        elif kind == 3:
            text = "".join(rng.choice(digits + odd) for _ in range(rng.randint(0, 8)))
        else:
            text = number
        if rng.random() < 0.3:  # splice in one odd character
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(odd) + text[at:]
        corpus.append(text)
    return corpus


def random_dyadic(rng: random.Random, max_num=8, max_exp=2) -> Dyadic:
    return Dyadic(rng.randint(0, max_num), rng.randint(0, max_exp))


def random_general_schedule(rng: random.Random, max_jobs=6, max_m=3):
    """A random *valid* general schedule plus its instance.

    Jobs may be private-only, may have one or two shared chunks, idle
    holes and non-normal placements are all possible; only validity is
    guaranteed.
    """
    from sharedsched.transforms import GeneralSchedule, JobPlacement

    n = rng.randint(1, max_jobs)
    m = rng.randint(1, max_m)
    shared_plan: dict[int, list] = {proc: [] for proc in range(1, m + 1)}
    placements = {}
    specs = []
    for idx in range(n):
        job_id = f"j{idx}"
        proc = rng.choice([None] + list(range(1, m + 1)))
        pieces = []
        if proc is not None:
            for _ in range(rng.randint(1, 2)):
                length = random_dyadic(rng)
                if length.sign > 0:
                    pieces.append(length)
            if pieces:
                shared_plan[proc].append((job_id, pieces))
            else:
                proc = None
        shared_total = sum(pieces, Dyadic(0))
        private = random_dyadic(rng, max_num=12)
        p = shared_total + private
        if p.sign == 0:
            private = Dyadic(1)
            p = Dyadic(1)
        specs.append((job_id, p, rng.randint(1, 9)))
        placements[job_id] = [proc, [], private]
    for proc, entries in shared_plan.items():
        chunks = []
        for job_id, pieces in entries:
            for piece in pieces:
                chunks.append((job_id, piece))
        rng.shuffle(chunks)
        t = Dyadic(0)
        for job_id, piece in chunks:
            t = t + random_dyadic(rng, max_num=4)  # idle hole
            placements[job_id][1].append((t, t + piece))
            t = t + piece
    inst = make_instance(specs, m)
    schedule = GeneralSchedule(
        {
            job_id: JobPlacement(proc if intervals else None, tuple(intervals), private)
            for job_id, (proc, intervals, private) in placements.items()
        }
    )
    return schedule, inst


def shared_chunks(general, processor: int) -> list:
    """The (start, end, job id) intervals on one shared processor of a
    general schedule, by start time, read from its placements."""
    return sorted(
        (a, b, job_id)
        for job_id, placement in general.placements.items()
        if placement.processor == processor
        for a, b in placement.intervals
    )


@pytest.fixture
def rng():
    return random.Random(20240817)
