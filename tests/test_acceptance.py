"""Acceptance suite: one test per exit criterion, exact tolerances.

Every check is exact dyadic equality (zero tolerance) unless a runtime
budget is stated.  Each test prints one ``[PASS] ...`` line on success;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random
import time
from fractions import Fraction

import pytest

from sharedsched.dyadic import Dyadic
from sharedsched.engine import (
    SyncSchedule,
    check_feasible,
    evaluate,
    evaluate_matrix,
    evaluate_sequence,
    exchange_delta,
    is_processing_time_inclusive,
    is_v_shaped,
    is_weight_inclusive,
    reverse_dual,
    start_times,
    suffix_weight,
)
from sharedsched.hardness import (
    N3DMInput,
    decide,
    equitable_diagnostic,
    equitable_schedule,
    gen_instance,
    h_value,
    is_equitable,
    processor_delta,
)
from sharedsched.model import Instance, Job
from sharedsched.solvers import SearchLimits, brute_force, solve_equal_weights
from sharedsched.transforms import (
    from_synchronized,
    is_gap_free,
    is_synchronized,
    pull,
    push,
    synchronize,
    synchronize_detailed,
    validate,
    value_general,
)

from conftest import (
    frac,
    make_instance,
    oracle_all_maximizers,
    random_feasible_sequence,
    random_general_schedule,
    random_inclusive_jobs,
)

D = Dyadic


def passed(line: str) -> None:
    print(f"[PASS] {line}")


# -- criterion: recurrence vs matrix form -------------------------------------------


def test_recurrence_matches_matrix_form():
    rng = random.Random(101)
    sequences = [random_feasible_sequence(rng, max_k=8) for _ in range(1000)]
    started = time.perf_counter()
    for jobs in sequences:
        assert evaluate_sequence(jobs) == evaluate_matrix(jobs)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"matrix-form comparison took {elapsed:.2f}s"
    passed(f"recurrence = matrix form on 1000 feasible sequences ({elapsed:.2f}s)")


# -- criterion: equal-weight solver vs exhaustive oracle -----------------------------


def test_equal_weight_solver_matches_oracle():
    rng = random.Random(202)
    started = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 7)
        m = rng.choice([1, 2, 3])
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        schedule = solve_equal_weights(inst)
        solver_value = evaluate(schedule, inst).total
        _, oracle_value = brute_force(inst)
        assert solver_value == oracle_value
        for seq in schedule.sequences:
            ps = [inst.job(j).p for j in seq]
            assert ps == sorted(ps)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    passed(f"equal-weight solver = exhaustive optimum on 200 instances ({elapsed:.1f}s)")


# -- criterion: five-job worked example ---------------------------------------------


def test_five_job_worked_example():
    inst = make_instance(
        [("a", 10, 1), ("b", 9, 1), ("c", 8, 1), ("d", 7, 1), ("e", 6, 1)], 2
    )
    schedule = solve_equal_weights(inst)
    assert evaluate(schedule, inst).total == 14
    partition = [
        sorted(frac(inst.job(j).p) for j in seq) for seq in schedule.sequences
    ]
    assert partition == [[6, 8, 10], [7, 9]]
    passed("5-job, 2-processor example: value 14, partition {6,8,10} / {7,9}")


# -- criterion: adjacent exchange delta ---------------------------------------------


def test_adjacent_exchange_delta_closed_form():
    rng = random.Random(303)
    checked = 0
    for _ in range(500):
        jobs = random_inclusive_jobs(rng, max_k=8)
        assert is_processing_time_inclusive(jobs)
        for i in range(1, len(jobs)):
            swapped = list(jobs)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert exchange_delta(jobs, i) == evaluate_sequence(jobs) - evaluate_sequence(
                swapped
            )
            checked += 1
    passed(f"exchange delta closed form exact on 500 sequences ({checked} swaps)")


# -- criterion: pull/push deltas and inverse ----------------------------------------


def _random_synchronized(rng):
    while True:
        k = rng.randint(2, 6)
        jobs = [
            Job(f"j{i}", rng.randint(4, 60), rng.randint(1, 9)) for i in range(k)
        ]
        jobs.sort(key=lambda j: (j.p, j.id))
        if check_feasible(jobs) is None and len({j.p for j in jobs}) == k:
            inst = Instance(tuple(jobs), 1)
            order = tuple(j.id for j in jobs)
            return from_synchronized(SyncSchedule((order,)), inst), inst, jobs


def test_pull_push_deltas_and_inverse():
    rng = random.Random(404)
    for _ in range(200):
        g, inst, jobs = _random_synchronized(rng)
        k = len(jobs)
        i = rng.randint(2, k)
        prev = g.placements[jobs[i - 2].id].intervals[0]
        eps = (prev[1] - prev[0]).mul_pow2(-rng.randint(1, 3))
        pulled = pull(g, 1, i, eps)
        expected = -eps * jobs[i - 2].w
        for offset, job in enumerate(jobs[i - 1 :], start=1):
            expected = expected + (eps * job.w).mul_pow2(-offset)
        assert value_general(pulled, inst) - value_general(g, inst) == expected
        # pushing by the same amount is the exact inverse
        assert push(pulled, 1, i, eps) == g
        # and the push delta is minus the pull delta
        assert value_general(push(pulled, 1, i, eps), inst) - value_general(
            pulled, inst
        ) == -expected
    passed("pull/push deltas match closed forms; push after pull is the identity (200 schedules)")


# -- criterion: synchronization contract --------------------------------------------


def test_synchronize_contract():
    rng = random.Random(505)
    cases = [random_general_schedule(rng, max_jobs=6) for _ in range(200)]
    wide = random.Random(5050)  # and six of 11 or 12 jobs, where the exhaustive optimum still runs
    while len(cases) < 206:
        g, inst = random_general_schedule(wide, max_jobs=12)
        if len(inst) >= 11:
            cases.append((g, inst))
    limits = SearchLimits(max_jobs=12, max_candidates=10_000_000)
    for g, inst in cases:
        assert validate(g, inst) == []
        report = synchronize_detailed(g, inst)
        assert report.value_after >= report.value_before
        assert report.rebalance_steps <= 2 * len(inst)
        assert is_synchronized(report.general) and is_gap_free(report.general)
        assert evaluate(report.schedule, inst).total == report.value_after
        # no general schedule beats the best synchronized one, which synchronize keeps
        best, optimum = brute_force(inst, limits)
        assert report.value_after <= optimum
        assert evaluate(synchronize(from_synchronized(best, inst), inst), inst).total == optimum
    passed(
        "synchronize: value never decreases, <= 2n rebalance steps, never above the "
        "exhaustive optimum, which it keeps (206 schedules, 6 of them of 11 or 12 jobs)"
    )


# -- criterion: V-shaped optima ------------------------------------------------------


@pytest.fixture(scope="module")
def v_shape_optima():
    rng = random.Random(606)
    collected = []
    for _ in range(100):
        jobs = random_inclusive_jobs(rng, max_k=7, weights="equal-p")
        pairs = [(frac(j.p), frac(j.w)) for j in jobs]
        best, winners = oracle_all_maximizers(pairs, 1)
        collected.append((jobs, best, winners))
    return collected


def test_optimal_orders_are_v_shaped(v_shape_optima):
    for jobs, best, winners in v_shape_optima:
        for assignment, orders in winners:
            assert is_v_shaped([jobs[i] for i in orders[0]])
    # the pinned instance: value 293/4 exactly, at (9,8,10) and (10,8,9)
    inst = make_instance([("x", 8, 8), ("y", 9, 9), ("z", 10, 10)], 1)
    _, value = brute_force(inst)
    assert value == D(293, 2)
    assert evaluate_sequence([inst.job(j) for j in ("y", "x", "z")]) == D(293, 2)
    assert evaluate_sequence([inst.job(j) for j in ("z", "x", "y")]) == D(293, 2)
    best, winners = oracle_all_maximizers(
        [(frac(j.p), frac(j.w)) for j in inst.jobs], 1
    )
    assert best == Fraction(293, 4)
    full_orders = {orders[0] for _, orders in winners}
    assert full_orders == {(1, 0, 2), (2, 0, 1)}
    passed("all exhaustive maximizers V-shaped on 100 p=w inclusive instances; pinned 293/4")


# -- criterion: reverse duality ------------------------------------------------------


def test_reverse_duality_preserves_value():
    rng = random.Random(707)
    for _ in range(100):
        jobs = random_inclusive_jobs(rng, max_k=7, weights="inclusive")
        assert is_processing_time_inclusive(jobs) and is_weight_inclusive(jobs)
        dual = reverse_dual(jobs)
        assert check_feasible(dual) is None
        assert evaluate_sequence(dual) == evaluate_sequence(jobs)
    passed("reverse duality value-preserving on 100 doubly inclusive instances")


# -- criterion: weight structure of optima -------------------------------------------


def test_optimal_order_weight_structure(v_shape_optima):
    for jobs, best, winners in v_shape_optima:
        for assignment, orders in winners:
            order = [jobs[i] for i in orders[0]]
            k = len(order)
            times = start_times(order)
            assert all(a < b for a, b in zip(times, times[1:]))
            for i in range(1, k):
                assert order[i - 1].w >= suffix_weight(order, i - 1)
            suffixes = [suffix_weight(order, i) for i in range(-1, k - 1)]
            assert all(a >= b for a, b in zip(suffixes, suffixes[1:]))
    passed("optima satisfy weight-dominance; start times increase, suffix weights decrease")


# -- criterion: matching reduction at desk scale -------------------------------------


def test_matching_reduction_desk_scale():
    started = time.perf_counter()
    inp = N3DMInput((1,), (2,), (3,), 6)
    hi = gen_instance(inp)
    assert (hi.M, hi.m_param, hi.K) == (386, 7, 1606)
    assert [str(j.p) for j in hi.instance.jobs] == ["788", "774", "876"]
    schedule = equitable_schedule(hi, [(0, 0, 0)])
    assert evaluate(schedule, hi.instance).total == 585428

    # value shift depends only on the squared deltas for zero-sum vectors
    rng = random.Random(808)
    hi2 = gen_instance(N3DMInput((1, 2, 0), (0, 3, 1), (2, 2, 2), 5))
    base = h_value([0, 0, 0], hi2)
    for _ in range(50):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        deltas = [a, b, -a - b]
        assert h_value(deltas, hi2) - base == D(-sum(d * d for d in deltas), 2)

    # the published constant term disagrees with direct evaluation and is
    # reported, not silently corrected
    diag = equitable_diagnostic(hi, [(0, 0, 0)])
    assert diag["printed_h"] == D(461239, 1)
    assert diag["direct"] == 585428
    assert diag["printed_h"] != diag["direct"]
    assert diag["derived_quadratic"] == diag["direct"]

    # exhaustive search on the generated 3-job instance is equitable
    best_schedule, best_value = brute_force(hi.instance)
    assert is_equitable(best_schedule, hi)
    assert best_value == 585428

    # decide() agrees with direct exhaustive checking on 2-element toys
    from itertools import permutations

    for _ in range(40):
        toy = N3DMInput(
            tuple(rng.randint(0, 4) for _ in range(2)),
            tuple(rng.randint(0, 4) for _ in range(2)),
            tuple(rng.randint(0, 4) for _ in range(2)),
            rng.randint(0, 12),
        )
        expected = any(
            all(toy.x[i] + toy.y[yp[i]] + toy.z[zp[i]] == toy.b for i in range(2))
            for yp in permutations(range(2))
            for zp in permutations(range(2))
        )
        got, witness = decide(toy)
        assert got == expected
        if got:
            sched = equitable_schedule(gen_instance(toy), witness)
            deltas = [
                processor_delta(sched, gen_instance(toy), p) for p in (1, 2)
            ]
            assert deltas == [0, 0]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    passed(
        "matching reduction: generated jobs 788/774/876, equitable value 585428, "
        f"h-form discrepancy documented, decide() exact ({elapsed:.1f}s)"
    )


# -- criterion: unit-weight optima use every job --------------------------------------


def test_unit_weight_optima_use_all_jobs():
    rng = random.Random(909)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.choice([1, 2])
        pairs = [(Fraction(rng.randint(1, 30)), Fraction(1)) for _ in range(n)]
        _, winners = oracle_all_maximizers(pairs, m)
        for assignment, orders in winners:
            assert 0 not in assignment, (pairs, m, assignment)
    # larger spot checks through the package's own search
    for _ in range(20):
        n = rng.randint(1, 8)
        m = rng.choice([1, 2, 3])
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        schedule, _ = brute_force(inst)
        assert schedule.scheduled_ids() == {job.id for job in inst.jobs}
    passed("every exhaustive maximizer of unit-weight instances schedules every job")
