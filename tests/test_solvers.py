"""Equal-weight solver, exhaustive oracle, search differentials."""

import random
from fractions import Fraction
from itertools import product

import pytest

from sharedsched import _permsearch
from sharedsched.dyadic import Dyadic
from sharedsched.engine import SyncSchedule, check_feasible, evaluate
from sharedsched.model import Job
from sharedsched.solvers import (
    InstanceTooLargeError,
    SearchLimits,
    UnequalWeightsError,
    brute_force,
    equal_weights_value,
    positional_weights,
    search_backend,
    single_processor_ascending,
    solve_equal_weights,
)

from conftest import frac, make_instance, oracle_all_maximizers

D = Dyadic


# -- positional weights -------------------------------------------------------


def test_positional_weights_examples():
    pw = positional_weights(5, 2)
    assert pw.k == 3 and pw.tail == 1
    assert pw.weights == (D(1, 1), D(1, 1), D(1, 2), D(1, 2), D(1, 3))
    even = positional_weights(4, 2)
    assert even.k == 2 and even.tail == 2
    assert even.weights == (D(1, 1), D(1, 1), D(1, 2), D(1, 2))
    tiny = positional_weights(2, 2)
    assert tiny.k == 1 and tiny.tail == 2
    assert tiny.weights == (D(1, 1), D(1, 1))
    assert positional_weights(0, 3).weights == ()
    for n, m in ((-1, 1), (3, 0)):
        with pytest.raises(ValueError, match="^need n >= 0 and m >= 1$"):
            positional_weights(n, m)


def test_positional_weights_shape(rng):
    for _ in range(50):
        n, m = rng.randint(0, 12), rng.randint(1, 4)
        pw = positional_weights(n, m)
        assert len(pw.weights) == n
        assert all(a >= b for a, b in zip(pw.weights, pw.weights[1:]))


# -- equal-weight solver --------------------------------------------------------


def test_solve_worked_example():
    inst = make_instance(
        [("a", 10, 1), ("b", 9, 1), ("c", 8, 1), ("d", 7, 1), ("e", 6, 1)], 2
    )
    schedule = solve_equal_weights(inst)
    groups = [
        sorted(frac(inst.job(j).p) for j in seq) for seq in schedule.sequences
    ]
    assert groups == [[6, 8, 10], [7, 9]]
    assert evaluate(schedule, inst).total == 14
    for seq in schedule.sequences:  # ascending per processor
        ps = [inst.job(j).p for j in seq]
        assert ps == sorted(ps)


def test_solve_single_job():
    inst = make_instance([("a", 4, 1)], 1)
    schedule = solve_equal_weights(inst)
    assert schedule.sequences == (("a",),)
    assert evaluate(schedule, inst).total == 2


def test_solve_splits_two_jobs():
    inst = make_instance([("a", 4, 1), ("b", 8, 1)], 2)
    schedule = solve_equal_weights(inst)
    assert evaluate(schedule, inst).total == 6
    assert {len(seq) for seq in schedule.sequences} == {1}


def test_solve_rejects_unequal_weights():
    inst = make_instance([("a", 4, 1), ("b", 8, 2)], 1)
    with pytest.raises(UnequalWeightsError):
        solve_equal_weights(inst)


def test_solve_schedules_every_job(rng):
    for _ in range(50):
        n, m = rng.randint(1, 9), rng.randint(1, 3)
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        schedule = solve_equal_weights(inst)
        assert schedule.scheduled_ids() == {f"j{i}" for i in range(n)}
        evaluate(schedule, inst)  # feasible


def test_solve_empty():
    inst = make_instance([], 2)
    assert solve_equal_weights(inst).sequences == ((), ())


def test_solve_handles_nonunit_equal_weights():
    inst = make_instance([("a", 10, "3/2"), ("b", 4, "3/2")], 1)
    schedule = solve_equal_weights(inst)
    brute_sched, brute_val = brute_force(inst)
    assert evaluate(schedule, inst).total == brute_val


# -- closed-form values ----------------------------------------------------------


def test_equal_weights_value_examples():
    assert equal_weights_value([[6, 8, 10], [7, 9]]) == 14
    assert equal_weights_value([[D(5)]]) == D(5, 1)
    with pytest.raises(ValueError):
        equal_weights_value([[8, 6, 10]])


def test_equal_weights_value_matches_evaluate(rng):
    for _ in range(50):
        n, m = rng.randint(1, 8), rng.randint(1, 3)
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        schedule = solve_equal_weights(inst)
        partition = [
            [inst.job(j).p for j in seq] for seq in schedule.sequences if seq
        ]
        assert equal_weights_value(partition) == evaluate(schedule, inst).total


def test_single_processor_ascending_examples():
    assert single_processor_ascending([4, 8]) == 5
    assert single_processor_ascending([D(7)]) == D(7, 1)
    assert single_processor_ascending([1, 1, 1]) == D(7, 3)
    assert single_processor_ascending([Job("a", 8, 1), Job("b", 4, 1)]) == 5
    # descending 10, 9, 8 is feasible, but ascending is what reaches the closed form
    inst = make_instance([("a", 10, 1), ("b", 9, 1), ("c", 8, 1)], 1)
    assert check_feasible([inst.job(j) for j in ("a", "b", "c")]) is None
    ascending = SyncSchedule((("c", "b", "a"),))
    assert evaluate(ascending, inst).total == single_processor_ascending([8, 9, 10])


# -- brute force ------------------------------------------------------------------


def test_brute_v_instance():
    inst = make_instance([("x", 8, 8), ("y", 9, 9), ("z", 10, 10)], 1)
    schedule, value = brute_force(inst)
    assert value == D(293, 2)
    assert schedule.sequences == (("y", "x", "z"),)


def test_brute_small_examples():
    inst = make_instance([("a", 4, 1), ("b", 8, 1)], 1)
    schedule, value = brute_force(inst)
    assert value == 5
    assert schedule.sequences == (("a", "b"),)
    split = make_instance([("a", 4, 1), ("b", 8, 1)], 2)
    _, split_value = brute_force(split)
    assert split_value == 6
    empty = make_instance([], 1)
    assert brute_force(empty)[1] == 0


def test_brute_respects_limits():
    inst = make_instance([(f"j{i}", i + 1, 1) for i in range(9)], 1)
    with pytest.raises(InstanceTooLargeError):
        brute_force(inst)
    small = make_instance([("a", 2, 1), ("b", 3, 1)], 1)
    with pytest.raises(InstanceTooLargeError):
        brute_force(small, SearchLimits(max_jobs=8, max_candidates=5))


def test_brute_deterministic():
    inst = make_instance([("a", 4, 2), ("b", 4, 2), ("c", 6, 1)], 2)
    first = brute_force(inst)
    second = brute_force(inst)
    assert first == second


def test_brute_matches_oracle_maximizers(rng):
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 2)
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 20), rng.randint(1, 9)) for i in range(n)], m
        )
        schedule, value = brute_force(inst)
        best, _ = oracle_all_maximizers(
            [(frac(job.p), frac(job.w)) for job in inst.jobs], m
        )
        assert frac(value) == best
        assert evaluate(schedule, inst).total == value


def test_brute_dyadic_inputs():
    inst = make_instance([("a", "7/2", "3/4"), ("b", "9/8", 2)], 1)
    schedule, value = brute_force(inst)
    best, _ = oracle_all_maximizers(
        [(frac(job.p), frac(job.w)) for job in inst.jobs], 1
    )
    assert frac(value) == best


def test_equal_weights_brute_agreement(rng):
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 3)
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        schedule = solve_equal_weights(inst)
        _, brute_value = brute_force(inst)
        assert evaluate(schedule, inst).total == brute_value


@pytest.mark.parametrize("n,m", [(9, 2), (9, 3), (9, 4), (10, 2)])
def test_equal_weights_brute_agreement_past_eight_jobs(n, m):
    rng = random.Random(n * 10 + m)
    for _ in range(2):
        w = D(rng.randint(1, 9), rng.randint(0, 2))
        jobs = [(f"j{i}", D(rng.randint(1, 10**4), rng.randint(0, 3)), w) for i in range(n)]
        inst = make_instance(jobs, m)
        _, brute_value = brute_force(inst, SearchLimits(max_jobs=10))
        assert evaluate(solve_equal_weights(inst), inst).total == brute_value


def test_equal_weight_value_is_the_positional_weights_sum(rng):
    """The paper's theorem: the optimum pairs the processing times in
    descending order with the positional weights, times the common weight."""
    sizes = [0, 1, 2, 3, 7, 8, 9, 16, 17, 64, 255, 2000]
    for idx in range(48):
        n, m = sizes[idx % len(sizes)], rng.randint(1, 8)
        pool = [D(rng.randint(1, 50), rng.randint(0, 4)) for _ in range(4)]
        ps = [
            rng.choice(pool) if idx % 2 else D(rng.randint(1, 10**6), rng.randint(0, 8))
            for _ in range(n)
        ]
        w = D(rng.randint(1, 9), rng.randint(0, 2))
        inst = make_instance([(f"j{i}", p, w) for i, p in enumerate(ps)], m)
        weights = positional_weights(n, m).weights
        p_desc = sorted((frac(p) for p in ps), reverse=True)
        expected = frac(w) * sum(p * frac(q) for p, q in zip(p_desc, weights))
        assert frac(evaluate(solve_equal_weights(inst), inst).total) == expected


# -- search differentials --------------------------------------------------------


def _product_sweep(ps, ws, m):
    """The enumeration the search replaces: every subset's orders through
    ``subset_best``, then all (m+1)^n assignments in lexicographic order,
    keeping the first strict maximum."""
    n = len(ps)
    values = [0] * (1 << n)
    perms = [()] * (1 << n)
    for mask in range(1, 1 << n):
        value, perm = _permsearch.subset_best(ps, ws, mask)
        values[mask] = value << (n - mask.bit_count())
        perms[mask] = perm
    best = (-1, (), ())
    for assign in product(range(m + 1), repeat=n):
        masks = [0] * (m + 1)
        for j, proc in enumerate(assign):
            masks[proc] |= 1 << j
        total = sum(values[mask] for mask in masks[1:])
        if total > best[0]:
            best = (total, assign, tuple(perms[mask] for mask in masks[1:]))
    return best


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


def test_search_matches_oracle_tie_break(rng):
    cases = _tie_heavy_cases(rng, 40, 6, 3)
    for _ in range(30):
        n, m = rng.randint(0, 6), rng.randint(1, 3)
        ps = [rng.randint(1, 40) for _ in range(n)]
        ws = [rng.randint(1, 9) for _ in range(n)]
        cases.append((ps, ws, m))
    for ps, ws, m in cases:
        value, assign, orders = _permsearch.search(ps, ws, m)
        best, winners = oracle_all_maximizers(list(zip(ps, ws)), m)
        assert Fraction(value, 1 << len(ps)) == best
        assert (assign, orders) == min(winners), (ps, ws, m)


def test_search_matches_product_sweep(rng):
    cases = [([], [], 1), ([], [], 3), ([5, 9], [2, 1], 4), ([7], [3], 2)]
    for idx in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 3)
        ws = [rng.randint(1, 100) for _ in range(n)]
        if idx % 3 == 0:  # narrow band: nearly every order is feasible
            ps = [rng.randint(900, 1000) for _ in range(n)]
        elif idx % 3 == 1:  # wide: many orders infeasible
            ps = [rng.randint(1, 100) for _ in range(n)]
        else:  # dyadic-scaled: cleared denominators of mixed powers of two
            ps = [rng.randint(1, 9) << rng.randint(0, 6) for _ in range(n)]
            ws = [w << rng.randint(0, 4) for w in ws]
        cases.append((ps, ws, m))
    cases += _tie_heavy_cases(rng, 40, 7, 4)
    for ps, ws, m in cases:
        assert _permsearch.search(ps, ws, m) == _product_sweep(ps, ws, m), (ps, ws, m)


def _sweep_leaves(n, m):
    """The labellings the assignment sweep visits: each job private (0),
    on an opened processor, or on the next one while fewer than m are open."""
    labellings = [()]
    for _ in range(n):
        labellings = [
            lab + (proc,) for lab in labellings for proc in range(min(max(lab, default=0) + 1, m) + 1)
        ]
    return labellings


def _partitions(n, m):
    """Distinct (private jobs, processor blocks) over all (m+1)^n assignments."""
    seen = set()
    for assign in product(range(m + 1), repeat=n):
        blocks = [frozenset(j for j in range(n) if assign[j] == proc) for proc in range(m + 1)]
        seen.add((blocks[0], frozenset(blocks[1:]) - {frozenset()}))
    return seen


def test_labelling_count_matches_enumeration():
    for n in range(8):
        for m in range(1, 10):
            leaves = _sweep_leaves(n, m)
            assert _permsearch._labelling_count(n, m) == len(leaves), (n, m)
            if n <= 4:  # one leaf per partition: relabellings are not revisited
                assert len(set(leaves)) == len(leaves) == len(_partitions(n, m))


def test_pure_kernel_tie_break():
    # equal jobs: lexicographically smallest assignment, then order
    value, assign, orders = _permsearch.search([4, 4], [1, 1], 2)
    assert assign == (1, 2)
    assert orders == ((0,), (1,))


def test_search_backend_is_pure():
    assert search_backend() == "pure"


def test_search_limits_validation():
    with pytest.raises(ValueError):
        SearchLimits(max_jobs=0)
    with pytest.raises(ValueError):
        SearchLimits(max_candidates=0)


def test_extra_job_placement_is_value_neutral(rng):
    # rotating which processors receive the deeper positional slots never
    # changes the total: per-processor values only depend on the dealt
    # multisets' ranks, not on which processor holds them
    for _ in range(30):
        n, m = rng.randint(1, 9), rng.randint(2, 3)
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        ordered = sorted(sorted(inst.jobs, key=lambda j: j.id),
                         key=lambda j: j.p, reverse=True)
        values = set()
        for shift in range(m):
            buckets = [[] for _ in range(m)]
            for idx, job in enumerate(ordered):
                buckets[(idx + shift) % m].append(job)
            seqs = tuple(
                tuple(
                    j.id
                    for j in sorted(sorted(b, key=lambda x: x.id), key=lambda x: x.p)
                )
                for b in buckets
            )
            values.add(evaluate(SyncSchedule(seqs), inst).total)
        assert len(values) == 1


def test_unit_weight_optima_are_ascending(rng):
    for _ in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 3)
        inst = make_instance(
            [(f"j{i}", rng.randint(1, 50), 1) for i in range(n)], m
        )
        schedule, _ = brute_force(inst)
        for seq in schedule.sequences:
            ps = [inst.job(j).p for j in seq]
            assert ps == sorted(ps)
