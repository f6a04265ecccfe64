"""Canonicalization pipeline: validation, passes, pull/push, synchronize."""

import pytest

from sharedsched.dyadic import Dyadic
from sharedsched.engine import SyncSchedule, check_feasible, evaluate
from sharedsched.model import InstanceError
from sharedsched.transforms import (
    GeneralSchedule,
    InvalidScheduleError,
    JobPlacement,
    PreconditionError,
    compact_idle,
    from_synchronized,
    is_gap_free,
    is_non_preemptive,
    is_normal,
    is_ordered,
    is_synchronized,
    merge_preemptions,
    normalize,
    parse_general_schedule,
    pull,
    push,
    reorder,
    serialize_general_schedule,
    synchronize,
    synchronize_detailed,
    validate,
    value_general,
)

from conftest import make_instance, random_general_schedule, shared_chunks

D = Dyadic


def schedule(**jobs) -> GeneralSchedule:
    """jobs: id=(processor, intervals, private_completion)."""
    return GeneralSchedule(
        {job_id: JobPlacement(*spec) for job_id, spec in jobs.items()}
    )


# -- validation ------------------------------------------------------------------


def test_validate_ok():
    inst = make_instance([("a", 4, 1)], 1)
    g = schedule(a=(None, (), 4))
    assert validate(g, inst) == []


def test_validate_overlap():
    inst = make_instance([("a", 4, 1), ("b", 4, 1)], 1)
    g = schedule(a=(1, ((0, 2),), 2), b=(1, ((1, 3),), 2))
    assert any("overlap" in v for v in validate(g, inst))


def test_validate_length_mismatch():
    inst = make_instance([("a", 4, 1)], 1)
    g = schedule(a=(None, (), 3))
    assert any("length mismatch" in v for v in validate(g, inst))


def test_validate_various():
    inst = make_instance([("a", 4, 1)], 1)
    checks = [
        (schedule(a=(None, ((0, 1),), 3)), "without a processor"),
        (schedule(a=(2, ((0, 1),), 3)), "> m"),
        (schedule(a=(0, ((0, 1),), 3)), "< 1"),
        (schedule(a=(1, ((2, 1),), 3)), "reversed"),
        (schedule(a=(1, ((-1, 1), (1, 3)), 0)), "before 0"),
        (schedule(a=(1, ((0, 2), (1, 3)), 0)), "overlapping own"),
        (schedule(), "no placement"),
        (schedule(a=(None, (), 4), zz=(None, (), 1)), "not in instance"),
    ]
    for g, fragment in checks:
        assert any(fragment in v for v in validate(g, inst)), fragment


def test_value_general_examples():
    inst = make_instance([("a", 6, 1)], 1)
    g = schedule(a=(1, ((1, 3),), 4))
    assert value_general(g, inst) == 2  # full containment
    inst2 = make_instance([("a", 4, 1)], 1)
    g2 = schedule(a=(1, ((1, 3),), 2))
    assert value_general(g2, inst2) == 1  # partial
    with pytest.raises(InvalidScheduleError):
        value_general(schedule(a=(None, (), 1)), inst)


def test_value_general_matches_engine():
    inst = make_instance([("a", 4, 1), ("b", 8, 3)], 1)
    sync = SyncSchedule((("a", "b"),))
    g = from_synchronized(sync, inst)
    assert value_general(g, inst) == evaluate(sync, inst).total
    assert is_synchronized(g) and is_gap_free(g) and is_ordered(g)


# -- normalize --------------------------------------------------------------------


def test_normalize_example():
    inst = make_instance([("a", 6, 5)], 1)
    g = schedule(a=(1, ((3, 7),), 2))
    before = value_general(g, inst)
    result = normalize(g)
    assert is_normal(result)
    assert value_general(result, inst) == before
    assert result.placements["a"].private_completion == 6
    assert result.placements["a"].intervals == ()
    assert result.placements["a"].processor is None


def test_normalize_straddling_interval():
    inst = make_instance([("a", 8, 2)], 1)
    g = schedule(a=(1, ((1, 7),), 2))
    result = normalize(g)
    assert result.placements["a"].intervals == ((D(1), D(2)),)
    assert result.placements["a"].private_completion == 7
    assert value_general(result, inst) == value_general(g, inst)


def test_normalize_fixpoints():
    inst = make_instance([("a", 4, 1)], 1)
    normal = schedule(a=(1, ((0, 1),), 3))
    assert normalize(normal) == normal
    private = schedule(a=(None, (), 4))
    assert normalize(private) == private


def test_normalize_random(rng):
    for _ in range(100):
        g, inst = random_general_schedule(rng)
        result = normalize(g)
        assert validate(result, inst) == []
        assert is_normal(result)
        assert value_general(result, inst) == value_general(g, inst)


# -- compact_idle -----------------------------------------------------------------


def test_compact_idle_absorbs_gap():
    inst = make_instance([("a", 9, 1)], 1)
    g = schedule(a=(1, ((2, 4),), 7))
    result = compact_idle(g)
    assert is_gap_free(result)
    # one move of e = 1 at weight 1
    assert value_general(result, inst) == value_general(g, inst) + 1


def test_compact_idle_trailing_gap_untouched():
    # idle after every completion is not idle "before the last completion"
    inst = make_instance([("a", 4, 1)], 1)
    g = schedule(a=(1, ((0, 2),), 2))
    assert compact_idle(g) == g


def test_compact_idle_no_gaps_identity():
    inst = make_instance([("a", 4, 1), ("b", 6, 1)], 1)
    g = schedule(a=(1, ((0, 2),), 2), b=(1, ((2, 4),), 4))
    assert validate(g, inst) == []
    assert compact_idle(g) == g


def test_compact_idle_requires_normal():
    g = schedule(a=(1, ((3, 7),), 2))
    with pytest.raises(PreconditionError):
        compact_idle(g)


def test_compact_idle_random(rng):
    for _ in range(100):
        g, inst = random_general_schedule(rng)
        g = normalize(g)
        result = compact_idle(g)
        assert validate(result, inst) == []
        assert is_normal(result)
        assert is_gap_free(result)
        assert value_general(result, inst) >= value_general(g, inst)


# -- merge_preemptions -------------------------------------------------------------


def test_merge_example():
    inst = make_instance([("a", 5, 1), ("b", 3, 1)], 1)
    g = schedule(a=(1, ((0, 1), (2, 3)), 3), b=(1, ((1, 2),), 2))
    assert validate(g, inst) == []
    result = merge_preemptions(g)
    assert result.placements["b"].intervals == ((D(0), D(1)),)
    assert result.placements["a"].intervals == ((D(1), D(3)),)
    assert value_general(result, inst) == value_general(g, inst)


def test_merge_fixpoint_and_single_job():
    inst = make_instance([("a", 5, 1)], 1)
    plain = schedule(a=(1, ((0, 2),), 3))
    assert merge_preemptions(plain) == plain
    split = schedule(a=(1, ((0, 1), (2, 3)), 3))
    merged = merge_preemptions(split)
    assert merged.placements["a"].intervals == ((D(1), D(3)),)
    assert value_general(merged, inst) == value_general(split, inst)


def test_merge_random(rng):
    for _ in range(100):
        g, inst = random_general_schedule(rng)
        g = normalize(g)
        result = merge_preemptions(g)
        assert validate(result, inst) == []
        assert is_non_preemptive(result)
        assert is_normal(result)
        assert value_general(result, inst) == value_general(g, inst)


# -- reorder -----------------------------------------------------------------------


def test_reorder_swaps_disagreeing_pair():
    # shared order a then b, but a finishes privately after b
    inst = make_instance([("a", 12, 1), ("b", 9, 1)], 1)
    g = schedule(a=(1, ((0, 2),), 10), b=(1, ((2, 5),), 6))
    assert validate(g, inst) == []
    result = reorder(g)
    chunks = shared_chunks(result, 1)
    assert [c[2] for c in chunks] == ["b", "a"]
    assert is_ordered(result)
    assert value_general(result, inst) == value_general(g, inst)
    assert is_normal(result)


def test_reorder_fixpoints():
    g = schedule(a=(1, ((0, 2),), 3), b=(1, ((2, 5),), 5))
    assert reorder(g) == g
    single = schedule(a=(1, ((0, 2),), 3), b=(2, ((0, 1),), 9))
    assert reorder(single) == single


def test_reorder_random(rng):
    for _ in range(100):
        g, inst = random_general_schedule(rng)
        g = merge_preemptions(normalize(g))
        result = reorder(g)
        assert validate(result, inst) == []
        assert is_ordered(result)
        assert value_general(result, inst) == value_general(g, inst)


# -- pull / push -------------------------------------------------------------------


def sync_general(pw, m=1):
    inst = make_instance(
        [(f"j{i}", p, w) for i, (p, w) in enumerate(pw)], m
    )
    order = tuple(f"j{i}" for i in range(len(pw)))
    return from_synchronized(SyncSchedule((order,) + ((),) * (m - 1)), inst), inst


def test_pull_full_interval_evicts():
    g, inst = sync_general([(4, 1), (8, 1)])
    length = g.placements["j0"].intervals[0][1] - g.placements["j0"].intervals[0][0]
    result = pull(g, 1, 2, length)
    assert result.placements["j0"].processor is None
    assert result.placements["j0"].private_completion == 4
    # j1 now starts at 0 and stays synchronized
    assert result.placements["j1"].intervals[0][0] == 0
    assert is_synchronized(result)


def test_pull_two_job_delta():
    # delta = e * (w2/2 - w1)
    for w1, w2 in [(1, 1), (1, 6), (5, 2)]:
        g, inst = sync_general([(8, w1), (12, w2)])
        eps = D(1, 2)
        result = pull(g, 1, 2, eps)
        delta = value_general(result, inst) - value_general(g, inst)
        assert delta == eps * (D(w2).half() - D(w1))


def test_pull_preconditions():
    g, inst = sync_general([(4, 1), (8, 1)])
    with pytest.raises(PreconditionError):
        pull(g, 1, 1, D(1))
    with pytest.raises(PreconditionError):
        pull(g, 1, 2, D(0))
    with pytest.raises(PreconditionError):
        pull(g, 1, 2, D(100))
    # after a pull the suffix stays synchronized, so pulling again is legal
    pulled = pull(g, 1, 2, D(1, 1))
    again = pull(pulled, 1, 2, D(1, 2))
    assert again.placements["j1"].intervals[0][1] == again.placements["j1"].private_completion


def test_push_inverts_pull():
    g, _ = sync_general([(4, 1), (8, 2), (6, 3)])
    eps = D(1, 2)
    for i in (2, 3):
        assert push(pull(g, 1, i, eps), 1, i, eps) == g
        assert pull(push(pull(g, 1, i, eps), 1, i, eps.half()), 1, i, eps.half()) == pull(
            g, 1, i, eps
        )


def test_push_delta_formula():
    g, inst = sync_general([(8, 3), (12, 5), (10, 7)])
    pulled = pull(g, 1, 2, D(2))  # creates slack at position 1
    eps = D(1, 2)
    pushed = push(pulled, 1, 2, eps)
    delta = value_general(pushed, inst) - value_general(pulled, inst)
    assert delta == eps * (D(3) - (D(5).half() + D(7).mul_pow2(-2)))


def test_push_eliminates_job_at_boundary():
    g, inst = sync_general([(8, 1), (12, 1)])
    pulled = pull(g, 1, 2, D(2))  # j1 interval shrinks on push
    a, b = pulled.placements["j1"].intervals[0]
    eps = (b - a).mul_pow2(1)  # eps/2 equals the whole interval
    slack = pulled.placements["j0"].private_completion - pulled.placements["j0"].intervals[0][1]
    if eps <= slack.half():
        result = push(pulled, 1, 2, eps)
        assert result.placements["j1"].processor is None


def test_push_preconditions():
    g, inst = sync_general([(4, 1), (8, 1)])
    with pytest.raises(PreconditionError):
        push(g, 1, 2, D(1))  # no slack: schedule already synchronized
    pulled = pull(g, 1, 2, D(1))
    with pytest.raises(PreconditionError):
        push(pulled, 1, 2, D(100))


@pytest.mark.parametrize(
    "move, g, eps, message",
    [
        # a private completion falls along the shared order
        (pull, schedule(a=(1, ((0, 2),), 6), b=(1, ((2, 4),), 4)), D(1), "pull requires an ordered schedule"),
        (
            pull,
            schedule(a=(1, ((0, 2),), 2), b=(1, ((2, 4),), 5)),
            D(1),
            "job 'b' at or after position 2 is not synchronized",
        ),
        (
            push,
            schedule(a=(1, ((0, 2),), 10), b=(1, ((2, D(5, 1)),), D(5, 1))),
            D(2),
            "eps = 2 exceeds 2^1 times the shared length of 'b'",
        ),
        (
            pull,
            schedule(a=(1, ((0, 2),), 2), b=(1, ((3, 5),), 5)),
            D(1),
            "processor 1: idle time before job 'b'; "
            "the move's exact value accounting needs a contiguous span",
        ),
    ],
)
def test_move_preconditions_name_the_failure(move, g, eps, message):
    with pytest.raises(PreconditionError) as exc:
        move(g, 1, 2, eps)
    assert str(exc.value) == message


def test_validate_negative_private_completion_and_gap_free():
    inst = make_instance([("a", 4, 1)], 1)
    assert validate(schedule(a=(None, (), -1)), inst) == [
        "job 'a': private completion < 0",
        "job 'a': length mismatch (intervals sum to -1, p = 4)",
    ]
    assert not is_gap_free(schedule(a=(1, ((0, 2),), 2), b=(1, ((3, 5),), 5)))
    assert is_gap_free(schedule(a=(1, ((0, 2),), 2), b=(1, ((2, 5),), 5)))


def test_length_sum_past_the_print_limit_is_counted_not_printed():
    # each value has 4300 digits, their sum 4301: past Python's int-to-str limit
    big = D(int("9" * 4300))
    inst = make_instance([("a", 5, 1)], 1)
    expected = "job 'a': length mismatch (intervals sum to a number with a 4301-digit numerator, p = 5)"
    assert validate(schedule(a=(1, ((0, big),), big)), inst) == [expected]
    half = big.mul_pow2(-1)
    assert validate(schedule(a=(1, ((0, half),), big)), inst) == [expected]  # 3*big / 2
    assert validate(schedule(a=(1, ((big, 0),), -big)), inst) == [
        "job 'a': private completion < 0",
        f"job 'a': empty or reversed interval ({big}, 0)",
        expected,
    ]


def test_pull_push_random_deltas(rng):
    for _ in range(100):
        k = rng.randint(2, 6)
        pw = [(rng.randint(6, 40) * 4, rng.randint(1, 9)) for _ in range(k)]
        seq = sorted(p for p, _ in pw)
        if not all(a < b for a, b in zip(seq, seq[1:])):
            pw = [((p + i) * 4, w) for i, (p, w) in enumerate(pw)]
        g, inst = sync_general(sorted(pw))
        i = rng.randint(2, k)
        prev = g.placements[f"j{i - 2}"].intervals[0]
        eps = (prev[1] - prev[0]).mul_pow2(-rng.randint(1, 3))
        pulled = pull(g, 1, i, eps)
        weights = [D(w) for _, w in sorted(pw)]
        expected = -eps * weights[i - 2]
        for offset, w in enumerate(weights[i - 1 :], start=1):
            expected = expected + (eps * w).mul_pow2(-offset)
        assert value_general(pulled, inst) - value_general(g, inst) == expected
        assert push(pulled, 1, i, eps) == g


# -- synchronize -------------------------------------------------------------------


def test_synchronize_fixpoint():
    g, inst = sync_general([(4, 1), (8, 1)])
    report = synchronize_detailed(g, inst)
    assert report.schedule.sequences == (("j0", "j1"),)
    assert report.rebalance_steps == 0
    assert report.value_before == report.value_after


def test_synchronize_ordered_but_not_synchronized():
    # two jobs, the first with private/shared slack: one push equalizes it
    inst = make_instance([("a", 4, 5), ("b", 8, 1)], 1)
    g = GeneralSchedule(
        {
            "a": JobPlacement(1, ((D(0), D(1)),), D(3)),
            "b": JobPlacement(1, ((D(1), D(9, 1)),), D(9, 1)),
        }
    )
    assert validate(g, inst) == []
    assert is_ordered(g) and not is_synchronized(g)
    report = synchronize_detailed(g, inst)
    assert is_synchronized(report.general)
    assert report.schedule.sequences == (("a", "b"),)
    assert (report.value_before, report.value_after) == (D(17, 1), D(13))


def test_synchronize_uses_eviction_when_push_loses():
    # a light unsynchronized job in front of a heavy synchronized tail:
    # pushing it would trade weight 1 against a discounted tail weight of
    # 50, so the loop must evict it by a full-length pull instead
    inst = make_instance([("A", 4, 1), ("X", 5, 1), ("T", 9, 100)], 1)
    g = GeneralSchedule(
        {
            "A": JobPlacement(1, ((D(0), D(2)),), D(2)),
            "X": JobPlacement(1, ((D(2), D(3)),), D(4)),
            "T": JobPlacement(1, ((D(3), D(6)),), D(6)),
        }
    )
    assert validate(g, inst) == []
    report = synchronize_detailed(g, inst)
    assert report.schedule.sequences == (("A", "T"),)
    assert report.general.placements["X"].private_completion == 5
    assert (report.value_before, report.value_after) == (D(303), D(352))


def test_synchronize_random(rng):
    for _ in range(150):
        g, inst = random_general_schedule(rng)
        report = synchronize_detailed(g, inst)
        assert report.value_after >= report.value_before
        assert report.rebalance_steps <= 2 * len(inst)
        assert is_synchronized(report.general)
        assert is_gap_free(report.general)
        assert validate(report.general, inst) == []
        # the sequence form re-evaluates to the same value
        assert evaluate(report.schedule, inst).total == report.value_after
        for seq in report.schedule.sequences:
            assert check_feasible([inst.job(j) for j in seq]) is None


def test_synchronize_rejects_invalid():
    inst = make_instance([("a", 4, 1)], 1)
    with pytest.raises(InvalidScheduleError):
        synchronize(schedule(a=(None, (), 1)), inst)


# -- wire format -------------------------------------------------------------------


def test_general_schedule_roundtrip():
    g = schedule(a=(1, ((D(0), D(7, 1)),), D(7, 1)), b=(None, (), 4))
    text = serialize_general_schedule(g)
    assert parse_general_schedule(text) == g
    assert serialize_general_schedule(parse_general_schedule(text)) == text
    # intervals out of order in the document come out sorted, as the public constructor sorts them
    text = (
        '{"jobs": [{"id": "c", "shared_processor": 2, "private_completion": "1/2", '
        '"shared_intervals": [["3", "4"], ["0", "1/2"], ["1", "2"]]}]}'
    )
    parsed = parse_general_schedule(text)
    assert parsed == schedule(c=(2, ((3, 4), (0, D(1, 1)), (1, 2)), D(1, 1)))
    assert parsed.placements["c"].intervals == ((0, D(1, 1)), (1, 2), (3, 4))
    assert '"shared_intervals": [["0", "1/2"], ["1", "2"], ["3", "4"]]' in (
        serialize_general_schedule(parsed)
    )


def test_shared_intervals_must_be_a_list():
    with pytest.raises(InstanceError) as exc:
        parse_general_schedule(
            '{"jobs": [{"id": "a", "shared_processor": 1, "shared_intervals": "x", '
            '"private_completion": "1"}]}'
        )
    assert str(exc.value) == "job 'a': shared_intervals must be a list"


def test_general_schedule_parse_errors():
    bad = [
        "{",
        '{"jobs": 3}',
        '{"jobs": [{"id": "a"}]}',
        '{"jobs": [{"id": "a", "shared_processor": 1, "shared_intervals": [[0]], "private_completion": "1"}]}',
        '{"jobs": [{"id": "a", "shared_processor": 1.5, "shared_intervals": [], "private_completion": "1"}]}',
        '{"jobs": [{"id": "a", "shared_processor": null, "shared_intervals": [], "private_completion": "0.5"}]}',
    ]
    for text in bad:
        with pytest.raises(InstanceError):
            parse_general_schedule(text)
    with pytest.raises(InstanceError):
        parse_general_schedule(
            '{"jobs": [{"id": "a", "shared_processor": null, "shared_intervals": [], '
            '"private_completion": "1"}, {"id": "a", "shared_processor": null, '
            '"shared_intervals": [], "private_completion": "1"}]}'
        )
