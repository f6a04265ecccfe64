"""``_permsearch.search``'s assignment DP against the labelling sweep it
replaced.

The sweep visited every canonical labelling of the jobs (job ``j``
private, on an opened processor, or on the next unopened one) in
lexicographic order and kept the first strict maximum.  The DP keeps, in
each cell, the best total and the smallest label tuple that reaches it,
so both routes must return the same ``(value, assignment, orders)``, tie
included.  The cases are:

* more than 300 instances with ``n <= 8`` and ``m <= 10`` from five
  families: wide, narrow-band, equal-weight, dyadic-scaled and
  tie-heavy, the last with ``_EQUAL_VALUE_ORDERS`` among them;
* one instance at each ``n = 10, 11`` and ``m = 2, 3, 4``, where the
  sweep visits up to two million labellings.

The module imports neither pytest nor the test helpers, so it runs on any
supported interpreter and prints both routes' results and times at
``n = 10, 11``::

    PYTHONPATH=src python tests/test_assignment_dp.py
"""

import random
import time

from sharedsched import _permsearch


def labelling_sweep(p, w, m):
    """The replaced assignment phase, over the subset phase's optima: a
    depth-first sweep of canonical labellings that keeps the first strict
    maximum."""
    n = len(p)
    values, perms = _permsearch._subset_optima(p, w)
    masks = [0] * (m + 1)
    assign = [0] * n
    best_total = -1
    best_assign: tuple[int, ...] = ()
    best_masks: list[int] = []

    def place(j: int, opened: int) -> None:
        nonlocal best_total, best_assign, best_masks
        if j == n:
            total = 0
            for proc in range(1, opened + 1):
                total += values[masks[proc]]
            if total > best_total:
                best_total = total
                best_assign = tuple(assign)
                best_masks = list(masks)
            return
        bit = 1 << j
        for proc in range(min(opened + 1, m) + 1):
            assign[j] = proc
            masks[proc] |= bit
            place(j + 1, max(opened, proc))
            masks[proc] ^= bit

    place(0, 0)
    return best_total, best_assign, tuple(perms[best_masks[proc]] for proc in range(1, m + 1))


# Each has a job set whose smallest optimal order ends later than another
# optimal order of it, so that order is off the set's Pareto front.
_EQUAL_VALUE_ORDERS = [
    ([2, 4, 5], [3, 3, 4], 1),
    ([4, 6, 7, 5], [2, 3, 2, 3], 2),
    ([2, 8, 2, 3, 3], [3, 3, 2, 3, 3], 3),
]


def _tie_heavy_cases(rng, count, max_n, max_m):
    """Instances built for ties: few distinct p and w, repeated jobs."""
    cases = list(_EQUAL_VALUE_ORDERS)
    for idx in range(count):
        n, m = rng.randint(0, max_n), rng.randint(1, max_m)
        if idx % 4 == 0:  # one job repeated, plus at most one other
            twin, other = (rng.randint(2, 8), rng.randint(1, 3)), (rng.randint(2, 8), 1)
            jobs = [twin if rng.random() < 0.7 else other for _ in range(n)]
        elif idx % 4 == 1:  # equal p, weights from two values
            p = rng.randint(2, 9)
            jobs = [(p, rng.choice((1, 2))) for _ in range(n)]
        elif idx % 4 == 2:  # equal w, processing times from three values
            jobs = [(rng.choice((4, 6, 8)), 3) for _ in range(n)]
        else:  # small values: equal-value orders that end at different times
            jobs = [(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(n)]
        cases.append(([p for p, _ in jobs], [w for _, w in jobs], m))
    return cases


def family_case(rng, family, n, m):
    """One instance of a non-tie family."""
    ws = [rng.randint(1, 100) for _ in range(n)]
    if family == "narrow":  # nearly every order is feasible
        ps = [rng.randint(900, 1000) for _ in range(n)]
    elif family == "wide":  # many orders infeasible
        ps = [rng.randint(1, 100) for _ in range(n)]
    elif family == "equal-weight":
        ps, ws = [rng.randint(1, 60) for _ in range(n)], [7] * n
    else:  # dyadic-scaled: cleared denominators of mixed powers of two
        ps = [rng.randint(1, 9) << rng.randint(0, 6) for _ in range(n)]
        ws = [w << rng.randint(0, 4) for w in ws]
    return ps, ws, m


FAMILIES = ("narrow", "wide", "equal-weight", "dyadic-scaled")


def small_cases():
    rng = random.Random(2031)
    cases = _tie_heavy_cases(rng, 120, 8, 10)
    for idx in range(240):
        cases.append(family_case(rng, FAMILIES[idx % 4], rng.randint(0, 8), rng.randint(1, 10)))
    return cases


def large_cases():
    """n = 10, 11 at m = 2, 3, 4: a wide, a narrow-band and a tie-heavy
    instance (equal p, weights 1 or 2) at each n."""
    rng = random.Random(1011)
    cases = []
    for n in (10, 11):
        cases.append(family_case(rng, "wide", n, 2))
        cases.append(family_case(rng, "narrow", n, 3))
        cases.append(([rng.randint(2, 9)] * n, [rng.choice((1, 2)) for _ in range(n)], 4))
    return cases


def test_search_matches_the_labelling_sweep_on_small_cases():
    cases = small_cases()
    assert len(cases) > 300
    for ps, ws, m in cases:
        assert _permsearch.search(ps, ws, m) == labelling_sweep(ps, ws, m), (ps, ws, m)


def test_search_matches_the_labelling_sweep_at_ten_and_eleven_jobs():
    for ps, ws, m in large_cases():
        assert _permsearch.search(ps, ws, m) == labelling_sweep(ps, ws, m), (ps, ws, m)


if __name__ == "__main__":
    test_search_matches_the_labelling_sweep_on_small_cases()
    print(f"{len(small_cases())} cases with n <= 8 and m <= 10: both routes agree")
    for ps, ws, m in large_cases():
        line = f"n = {len(ps)}, m = {m}:"
        results = []
        for name, route in (("DP", _permsearch.search), ("sweep", labelling_sweep)):
            start = time.perf_counter()
            results.append(route(ps, ws, m))
            line += f" {name} {time.perf_counter() - start:.3f} s,"
        print(f"{line} both value {results[0][0]}, assignment {results[0][1]}")
        assert results[0] == results[1], (ps, ws, m)
