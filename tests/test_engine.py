"""Synchronized-schedule mathematics against the Fraction oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharedsched.dyadic import Dyadic
from sharedsched.engine import (
    InfeasibleScheduleError,
    SyncSchedule,
    bilinear,
    check_feasible,
    evaluate,
    evaluate_matrix,
    evaluate_sequence,
    exchange_delta,
    is_processing_time_inclusive,
    is_v_shaped,
    is_weight_inclusive,
    lower_halving_matrix,
    parse_sync_schedule,
    reverse_dual,
    serialize_sync_schedule,
    start_times,
    suffix_weight,
    upper_halving_matrix,
)
from sharedsched.model import InstanceError, Job

from conftest import (
    frac,
    make_instance,
    oracle_value,
    random_feasible_sequence,
    random_inclusive_jobs,
)


def jobs_of(*pw):
    return [Job(f"j{i}", p, w) for i, (p, w) in enumerate(pw)]


# -- start times / feasibility ---------------------------------------------------


def test_start_times_examples():
    assert start_times(jobs_of((4, 1), (8, 1))) == [0, 2, 5]
    assert start_times([]) == [0]
    assert start_times(jobs_of((6, 1))) == [0, 3]


def test_start_times_accepts_raw_times():
    assert start_times([4, 8]) == [0, 2, 5]


def test_check_feasible_examples():
    assert check_feasible(jobs_of((4, 1), (8, 1))) is None
    assert check_feasible(jobs_of((4, 1), (2, 1))) == 2
    assert check_feasible([]) is None
    assert check_feasible(jobs_of((4, 1), (2, 1), (100, 1))) == 2


# -- evaluation -------------------------------------------------------------------


def test_evaluate_two_jobs():
    inst = make_instance([("a", 4, 1), ("b", 8, 1)], 1)
    report = evaluate(SyncSchedule((("a", "b"),)), inst)
    assert report.total == 5
    assert report.processors[0].start_times == (0, 2, 5)
    assert report.processors[0].overlaps == (2, 3)
    assert report.job_overlaps["a"] == 2


def test_evaluate_v_instance():
    inst = make_instance([("x", 8, 8), ("y", 9, 9), ("z", 10, 10)], 1)
    report = evaluate(SyncSchedule((("y", "x", "z"),)), inst)
    assert report.total == Dyadic(293, 2)


def test_evaluate_empty():
    inst = make_instance([("a", 4, 1)], 2)
    report = evaluate(SyncSchedule(((), ())), inst)
    assert report.total == 0
    assert report.job_overlaps["a"] == 0


def test_evaluate_infeasible_reports_location():
    inst = make_instance([("a", 4, 1), ("b", 2, 1)], 2)
    with pytest.raises(InfeasibleScheduleError) as err:
        evaluate(SyncSchedule(((), ("a", "b"))), inst)
    assert err.value.processor == 2
    assert err.value.position == 2
    assert err.value.job_id == "b"


def test_evaluate_rejects_unknown_and_mismatch():
    inst = make_instance([("a", 4, 1)], 1)
    with pytest.raises(InstanceError):
        evaluate(SyncSchedule((("ghost",),)), inst)
    with pytest.raises(InstanceError):
        evaluate(SyncSchedule(((), ())), inst)


def test_schedule_rejects_duplicates():
    with pytest.raises(InstanceError):
        SyncSchedule((("a",), ("a",)))


def test_evaluate_matches_oracle(rng):
    for _ in range(200):
        jobs = random_feasible_sequence(rng)
        got = evaluate_sequence(jobs)
        want = oracle_value([(frac(j.p), frac(j.w)) for j in jobs])
        assert frac(got) == want


# -- matrix form -------------------------------------------------------------------


def test_matrix_form_examples():
    assert evaluate_matrix(jobs_of((4, 1), (8, 1))) == 5
    assert evaluate_matrix(jobs_of((6, 2))) == 6


def test_matrix_entries():
    lower = lower_halving_matrix(3)
    assert lower[1][0] == Dyadic(1, 1)
    assert lower[2][0] == Dyadic(1, 2)
    assert lower[2][1] == Dyadic(1, 1)
    assert lower[0][1] == 0
    upper = upper_halving_matrix(3)
    assert upper[0][2] == Dyadic(1, 2)
    assert all(lower[i][j] == upper[j][i] for i in range(3) for j in range(3))


@given(
    st.lists(
        st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=7
    )
)
def test_matrix_transpose_identity(pw):
    # W L P^T == P U W^T on arbitrary positive vectors
    ps = [Dyadic(p) for p, _ in pw]
    ws = [Dyadic(w) for _, w in pw]
    k = len(pw)
    left = bilinear(ws, lower_halving_matrix(k), ps)
    right = bilinear(ps, upper_halving_matrix(k), ws)
    assert left == right


def test_matrix_equals_recurrence(rng):
    for _ in range(200):
        jobs = random_feasible_sequence(rng)
        assert evaluate_matrix(jobs) == evaluate_sequence(jobs)


# -- suffix weights / exchange delta ------------------------------------------------


def test_suffix_weight_examples():
    two = jobs_of((4, 1), (4, 2))
    assert suffix_weight(two, 0) == Dyadic(1)  # w_2 / 2
    with pytest.raises(IndexError):
        suffix_weight(two, 1)
    with pytest.raises(IndexError):
        suffix_weight(two, -2)
    three = jobs_of((1, 1), (1, 2), (1, 4))
    assert suffix_weight(three, -1) == Dyadic(3, 1)  # 1/2 + 2/4 + 4/8


def test_suffix_weight_singleton():
    one = jobs_of((5, 6))
    assert suffix_weight(one, -1) == Dyadic(3)  # w_1 / 2


def test_exchange_delta_examples():
    assert exchange_delta(jobs_of((3, 1), (4, 2)), 1) == Dyadic(-1, 1)
    assert exchange_delta(jobs_of((4, 1), (4, 1)), 1) == 0
    with pytest.raises(IndexError):
        exchange_delta(jobs_of((3, 1), (4, 2)), 2)
    with pytest.raises(IndexError):
        exchange_delta(jobs_of((3, 1), (4, 2)), 0)


def test_exchange_delta_matches_recomputation(rng):
    for _ in range(100):
        jobs = random_inclusive_jobs(rng)
        for i in range(1, len(jobs)):
            swapped = list(jobs)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert check_feasible(swapped) is None  # inclusivity licenses the swap
            delta = exchange_delta(jobs, i)
            assert delta == evaluate_sequence(jobs) - evaluate_sequence(swapped)


# -- inclusivity / V-shape / duality ---------------------------------------------


def test_inclusivity_examples():
    assert is_processing_time_inclusive(jobs_of((8, 1), (9, 1), (10, 1)))
    assert not is_processing_time_inclusive(jobs_of((2, 1), (4, 1)))
    assert is_processing_time_inclusive(jobs_of((7, 1)))
    assert is_processing_time_inclusive([])
    assert is_processing_time_inclusive([8, 9, 10])
    assert is_weight_inclusive(jobs_of((1, 8), (1, 9), (1, 10)))
    assert not is_weight_inclusive(jobs_of((1, 2), (1, 4)))
    assert is_weight_inclusive(jobs_of((3, 7)))


def test_inclusive_band_generator_is_inclusive(rng):
    for _ in range(50):
        jobs = random_inclusive_jobs(rng)
        assert is_processing_time_inclusive(jobs)


def test_v_shape_examples():
    assert is_v_shaped([10, 8, 9])
    assert not is_v_shaped([8, 10, 9])
    assert is_v_shaped([5, 5, 5])
    assert is_v_shaped([])
    assert is_v_shaped([3])
    assert is_v_shaped([9, 8, 10])
    assert not is_v_shaped([10, 8, 9, 8])


def test_reverse_dual_rejects_non_inclusive():
    with pytest.raises(ValueError, match="^job set is not weight-inclusive; duality not guaranteed$"):
        reverse_dual(jobs_of((3, 1), (4, 2)))  # weights {1, 2} fail the test
    with pytest.raises(
        ValueError, match="^job set is not processing-time-inclusive; duality not guaranteed$"
    ):
        reverse_dual(jobs_of((2, 8), (4, 9)))  # times {2, 4} fail it


def test_reverse_dual_p_equals_w():
    jobs = jobs_of((9, 9), (8, 8), (10, 10))
    rev = reverse_dual(jobs)
    assert [j.p for j in rev] == [10, 8, 9]
    assert evaluate_sequence(rev) == evaluate_sequence(jobs) == Dyadic(293, 2)
    asc = jobs_of((8, 8), (9, 9), (10, 10))
    assert evaluate_sequence(reverse_dual(asc)) == evaluate_sequence(asc) == 72


def test_reverse_dual_single_job():
    rev = reverse_dual([Job("a", 4, 7)])
    assert rev[0].p == 7 and rev[0].w == 4
    assert evaluate_sequence(rev) == evaluate_sequence([Job("a", 4, 7)]) == 14


def test_reverse_dual_preserves_value(rng):
    for _ in range(50):
        jobs = random_inclusive_jobs(rng, weights="inclusive")
        assert evaluate_sequence(reverse_dual(jobs)) == evaluate_sequence(jobs)


# -- structural invariants ---------------------------------------------------------


def test_start_times_strictly_increase_when_feasible(rng):
    for _ in range(100):
        jobs = random_feasible_sequence(rng)
        times = start_times(jobs)
        assert all(a < b for a, b in zip(times, times[1:]))


# -- wire format -------------------------------------------------------------------


def test_sync_schedule_roundtrip():
    text = '{"processors": [{"id": 1, "order": ["a", "b"]}, {"id": 2, "order": []}]}'
    schedule = parse_sync_schedule(text, 2)
    assert schedule.sequences == (("a", "b"), ())
    assert serialize_sync_schedule(schedule) == text


def test_sync_schedule_parse_errors():
    with pytest.raises(InstanceError):
        parse_sync_schedule('{"processors": [{"id": 3, "order": []}]}', 2)
    with pytest.raises(InstanceError):
        parse_sync_schedule('{"processors": [{"id": 1, "order": ["a"]}, {"id": 1, "order": []}]}', 2)
    with pytest.raises(InstanceError):
        parse_sync_schedule("{}", 1)
    with pytest.raises(InstanceError):
        parse_sync_schedule('{"processors": [{"id": 1, "order": [1]}]}', 1)
    with pytest.raises(InstanceError):
        parse_sync_schedule('{"processors": [{"id": true, "order": []}]}', 1)
