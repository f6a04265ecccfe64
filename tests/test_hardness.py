"""Hard-instance generation, equitable schedules, deltas, decision."""

import random
from itertools import permutations

import pytest

from sharedsched.dyadic import Dyadic
from sharedsched.engine import SyncSchedule, check_feasible, evaluate, start_times
from sharedsched.hardness import (
    N3DMInput,
    build_params,
    decide,
    equitable_diagnostic,
    equitable_schedule,
    gen_instance,
    h_value,
    is_equitable,
    parse_n3dm,
    processor_delta,
    serialize_provenance,
)
from sharedsched.model import InstanceError
from sharedsched.solvers import InstanceTooLargeError, SearchLimits, brute_force

from conftest import frac

D = Dyadic

EXAMPLE = N3DMInput((1,), (2,), (3,), 6)


def random_input(rng, n=2, hi=9):
    return N3DMInput(
        tuple(rng.randint(0, hi) for _ in range(n)),
        tuple(rng.randint(0, hi) for _ in range(n)),
        tuple(rng.randint(0, hi) for _ in range(n)),
        rng.randint(0, 3 * hi),
    )


def test_build_params_examples():
    assert build_params(EXAMPLE) == (7, 386)
    assert build_params(N3DMInput((0,), (0,), (0,), 0)) == (7, 344)
    assert build_params(N3DMInput((0,), (0,), (0,), 100)) == (101, 72108)


def test_params_satisfy_bounds(rng):
    for _ in range(20):
        inp = random_input(rng, n=rng.randint(1, 3), hi=50)
        m_param, big_m = build_params(inp)
        assert m_param > max(inp.b, 6)
        assert big_m > 7 * (m_param**2 + inp.b)


def test_gen_instance_example():
    hi = gen_instance(EXAMPLE)
    assert hi.m_param == 7 and hi.M == 386 and hi.K == 1606
    assert [str(j.p) for j in hi.instance.jobs] == ["788", "774", "876"]
    assert [j.id for j in hi.instance.jobs] == ["A1", "B1", "C1"]
    assert all(j.p == j.w for j in hi.instance.jobs)
    assert hi.instance.m == 1
    assert hi.provenance["C1"] == ("C", 1)


def test_gen_instance_separation(rng):
    # every B time < every A time < every C time
    for _ in range(10):
        inp = random_input(rng, n=rng.randint(1, 3), hi=20)
        hi = gen_instance(inp)
        times = {"A": [], "B": [], "C": []}
        for job in hi.instance.jobs:
            times[hi.provenance[job.id][0]].append(frac(job.p))
        assert max(times["B"]) < min(times["A"])
        assert max(times["A"]) < min(times["C"])


def test_gen_instance_allows_duplicates():
    inp = N3DMInput((2, 2), (3, 3), (1, 1), 6)
    hi = gen_instance(inp)
    assert len(hi.instance.jobs) == 6
    assert hi.instance.m == 2


def test_h_value_example():
    hi = gen_instance(EXAMPLE)
    # printed closed form: 875428 1/2 - 644809 = 230619 1/2
    assert h_value([0], hi) == D(461239, 1)
    with pytest.raises(ValueError):
        h_value([0, 0], hi)


def test_h_differences_depend_only_on_deltas(rng):
    hi = gen_instance(N3DMInput((1, 2), (0, 3), (2, 2), 5))
    base = h_value([0, 0], hi)
    for _ in range(20):
        d = rng.randint(-5, 5)
        deltas = [d, -d]  # zero-sum
        expected = -sum(x * x for x in deltas)
        assert h_value(deltas, hi) - base == D(expected, 2)
    assert all(h_value([d, -d], hi) <= base for d in range(-5, 6))


def test_equitable_schedule_example():
    hi = gen_instance(EXAMPLE)
    schedule = equitable_schedule(hi, [(0, 0, 0)])
    assert schedule.sequences == (("A1", "B1", "C1"),)
    assert evaluate(schedule, hi.instance).total == 585428


def test_equitable_always_feasible(rng):
    for _ in range(10):
        inp = random_input(rng, n=2, hi=15)
        hi = gen_instance(inp)
        for y_perm in permutations(range(2)):
            for z_perm in permutations(range(2)):
                matching = [(i, y_perm[i], z_perm[i]) for i in range(2)]
                schedule = equitable_schedule(hi, matching)
                for seq in schedule.sequences:
                    jobs = [hi.instance.job(j) for j in seq]
                    assert check_feasible(jobs) is None
                    # third start time stays below the shortest job length
                    assert start_times(jobs)[2] < 2 * hi.M


def test_equitable_schedule_rejects_bad_matching():
    hi = gen_instance(N3DMInput((1, 2), (1, 2), (1, 2), 4))
    with pytest.raises(ValueError):
        equitable_schedule(hi, [(0, 0, 0), (0, 1, 1)])  # A column not a permutation
    with pytest.raises(ValueError):
        equitable_schedule(hi, [(0, 0, 0)])


def test_is_equitable():
    hi = gen_instance(N3DMInput((1, 2), (1, 2), (1, 2), 4))
    good = equitable_schedule(hi, [(0, 0, 0), (1, 1, 1)])
    assert is_equitable(good, hi)
    two_a = SyncSchedule((("A1", "A2", "C1"), ("B1", "B2", "C2")))
    assert not is_equitable(two_a, hi)
    wrong_order = SyncSchedule((("B1", "A1", "C1"), ("A2", "B2", "C2")))
    assert not is_equitable(wrong_order, hi)
    wrong_m = SyncSchedule((("A1", "B1", "C1"),))
    assert not is_equitable(wrong_m, hi)


def test_processor_delta():
    hi = gen_instance(EXAMPLE)
    schedule = equitable_schedule(hi, [(0, 0, 0)])
    assert processor_delta(schedule, hi, 1) == 0  # 6 - (1+2+3)
    bumped = gen_instance(N3DMInput((1,), (2,), (3,), 7))
    assert processor_delta(equitable_schedule(bumped, [(0, 0, 0)]), bumped, 1) == 1
    with pytest.raises(ValueError):
        processor_delta(SyncSchedule((("A1",),)), hi, 1)


def test_zero_sum_deltas(rng):
    for _ in range(10):
        inp = random_input(rng, n=3, hi=6)
        total = sum(inp.x) + sum(inp.y) + sum(inp.z)
        # zero-sum holds exactly when n*b equals the grand total; force it
        if total % 3:
            continue
        inp = N3DMInput(inp.x, inp.y, inp.z, total // 3)
        hi = gen_instance(inp)
        for y_perm in permutations(range(3)):
            matching = [(i, y_perm[i], i) for i in range(3)]
            schedule = equitable_schedule(hi, matching)
            deltas = [processor_delta(schedule, hi, p) for p in (1, 2, 3)]
            assert sum(deltas) == 0


def test_value_decreases_with_delta_spread():
    # among equitable schedules, value is a strictly decreasing function
    # of the squared-delta sum
    inp = N3DMInput((1, 4), (2, 3), (0, 5), 8)
    hi = gen_instance(inp)
    by_spread = {}
    for y_perm in permutations(range(2)):
        for z_perm in permutations(range(2)):
            matching = [(i, y_perm[i], z_perm[i]) for i in range(2)]
            schedule = equitable_schedule(hi, matching)
            deltas = [processor_delta(schedule, hi, p) for p in (1, 2)]
            value = evaluate(schedule, hi.instance).total
            by_spread.setdefault(sum(d * d for d in deltas), set()).add(value)
    spreads = sorted(by_spread)
    assert all(len(vals) == 1 for vals in by_spread.values())
    values = [by_spread[s].pop() for s in spreads]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_decide_examples():
    solvable, witness = decide(EXAMPLE)
    assert solvable and witness == [(0, 0, 0)]
    unsolvable, none = decide(N3DMInput((1, 2), (1, 2), (1, 2), 4))
    assert not unsolvable and none is None
    # parity: grand total 3 is not 2*b for any integer b
    assert not decide(N3DMInput((0, 1), (0, 1), (0, 1), 1))[0]
    assert not decide(N3DMInput((0, 1), (0, 1), (0, 1), 2))[0]
    solvable2, witness2 = decide(N3DMInput((1, 2), (3, 4), (5, 7), 11))
    assert solvable2
    x, y, z = witness2[0]
    assert 1 + (3, 4)[y] + (5, 7)[z] == 11


def test_decide_matches_exhaustive_oracle(rng):
    for _ in range(30):
        inp = random_input(rng, n=2, hi=4)
        expected = False
        for y_perm in permutations(range(2)):
            for z_perm in permutations(range(2)):
                if all(
                    inp.x[i] + inp.y[y_perm[i]] + inp.z[z_perm[i]] == inp.b
                    for i in range(2)
                ):
                    expected = True
        assert decide(inp)[0] == expected


def test_decide_guard():
    big = N3DMInput((0,) * 5, (0,) * 5, (0,) * 5, 0)
    with pytest.raises(InstanceTooLargeError):
        decide(big)
    assert decide(big, max_n=5)[0]


def test_decide_witness_attains_max_equitable_value():
    inp = N3DMInput((1, 2), (3, 4), (5, 7), 11)
    hi = gen_instance(inp)
    solvable, witness = decide(inp)
    assert solvable
    witness_value = evaluate(equitable_schedule(hi, witness), hi.instance).total
    values = []
    for y_perm in permutations(range(2)):
        for z_perm in permutations(range(2)):
            matching = [(i, y_perm[i], z_perm[i]) for i in range(2)]
            values.append(evaluate(equitable_schedule(hi, matching), hi.instance).total)
    assert witness_value == max(values)


def test_diagnostic_documents_discrepancy():
    hi = gen_instance(EXAMPLE)
    report = equitable_diagnostic(hi, [(0, 0, 0)])
    assert report["direct"] == 585428
    assert report["printed_h"] == D(461239, 1)
    assert report["derived_quadratic"] == report["direct"]
    assert report["printed_h"] != report["direct"]  # known constant-term mismatch
    assert report["deltas"] == [0]


def test_diagnostic_derived_matches_direct(rng):
    for _ in range(10):
        inp = random_input(rng, n=2, hi=10)
        hi = gen_instance(inp)
        for y_perm in permutations(range(2)):
            matching = [(i, y_perm[i], i) for i in range(2)]
            report = equitable_diagnostic(hi, matching)
            assert report["derived_quadratic"] == report["direct"]


def test_brute_force_optimum_is_equitable():
    hi = gen_instance(EXAMPLE)
    schedule, value = brute_force(hi.instance)
    assert is_equitable(schedule, hi)
    assert value == 585428


def test_brute_force_optimum_is_equitable_n2():
    hi = gen_instance(N3DMInput((1, 2), (2, 1), (3, 3), 6))
    schedule, value = brute_force(hi.instance)
    assert is_equitable(schedule, hi)
    # the matching deltas of the optimum are all zero: both triples sum to b
    assert [processor_delta(schedule, hi, p) for p in (1, 2)] == [0, 0]


def seeded_n3dm(rng, n, kind):
    """A matching input with entries in 0..6: solvable by construction
    (kind 0), with grand total n*b so every delta sum is zero (kind 1, when
    the total divides), or with entries and b drawn independently."""
    if kind == 0:
        b = rng.randint(0, 12)
        triples = []
        for _ in range(n):
            x = rng.randint(0, min(b, 6))
            y = rng.randint(0, min(b - x, 6))
            triples.append((x, y, b - x - y))
        x, y, z = (list(column) for column in zip(*triples))
        rng.shuffle(y)
        rng.shuffle(z)
        return N3DMInput(tuple(x), tuple(y), tuple(z), b)
    inp = random_input(rng, n=n, hi=6)
    total = sum(inp.x) + sum(inp.y) + sum(inp.z)
    if kind == 1 and total % n == 0:
        return N3DMInput(inp.x, inp.y, inp.z, total // n)
    return inp


def test_reduction_optimum_is_zero_delta_exactly_when_solvable():
    # the strong NP-hardness reduction: a generated instance's optimum is
    # an equitable schedule, the best of all n!^2 equitable matchings, and
    # it reaches the value of all-zero deltas exactly when the input is solvable
    rng = random.Random(31)
    limits = SearchLimits(max_jobs=12, max_candidates=10_000_000)
    outcomes = set()
    # size 4 is 12 jobs on 4 processors: its two draws are one solvable input, one not
    for n, count in ((2, 30), (3, 10), (4, 2)):
        for idx in range(count):
            inp = seeded_n3dm(rng, n, idx % 3)
            hi = gen_instance(inp)
            schedule, value = brute_force(hi.instance, limits)
            assert is_equitable(schedule, hi), inp
            equitable = [
                evaluate(equitable_schedule(hi, list(zip(range(n), ys, zs))), hi.instance).total
                for ys in permutations(range(n))
                for zs in permutations(range(n))
            ]
            assert value == max(equitable), inp
            # the delta terms of h_value are exact: shift one matching to zero deltas
            report = equitable_diagnostic(hi, [(i, i, i) for i in range(n)])
            zero = report["direct"] - report["printed_h"] + h_value([0] * n, hi)
            solvable = decide(inp)[0]
            assert (value == zero) == solvable, inp
            outcomes.add((n, solvable))
    assert outcomes == {(n, solvable) for n in (2, 3, 4) for solvable in (True, False)}


def test_parse_n3dm():
    inp = parse_n3dm('{"X":[1],"Y":[2],"Z":[3],"b":6}')
    assert inp == EXAMPLE
    for bad in (
        '{"X":[1],"Y":[2],"Z":[3]}',
        '{"X":[1],"Y":[2],"Z":[3,4],"b":6}',
        '{"X":[-1],"Y":[2],"Z":[3],"b":6}',
        '{"X":[1.5],"Y":[2],"Z":[3],"b":6}',
        '{"X":[],"Y":[],"Z":[],"b":6}',
        '{"X":1,"Y":[2],"Z":[3],"b":6}',
        "not json",
    ):
        with pytest.raises(InstanceError):
            parse_n3dm(bad)


def test_provenance_sidecar():
    import json

    hi = gen_instance(EXAMPLE)
    data = json.loads(serialize_provenance(hi))
    assert data["M"] == 386 and data["m_param"] == 7 and data["K"] == 1606
    assert data["jobs"][0] == {
        "id": "A1",
        "group": "A",
        "index": 1,
        "source": 1,
        "time": "788",
    }
