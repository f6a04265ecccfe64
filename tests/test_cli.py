"""CLI subcommands: outputs, exit codes, determinism."""

import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sharedsched
from sharedsched import cli, engine, solvers, transforms
from sharedsched.cli import main
from sharedsched.dyadic import Dyadic
from sharedsched.engine import (
    SyncSchedule,
    _report_chunks,
    check_feasible,
    evaluate,
    is_processing_time_inclusive,
    is_v_shaped,
    is_weight_inclusive,
    parse_sync_schedule,
    serialize_sync_schedule,
)
from sharedsched.model import Instance, InstanceError, Job, parse_instance, serialize_instance
from sharedsched.solvers import SearchLimits, brute_force
from sharedsched.transforms import (
    GeneralSchedule,
    JobPlacement,
    compact_idle,
    from_synchronized,
    is_ordered,
    is_synchronized,
    merge_preemptions,
    normalize,
    parse_general_schedule,
    reorder,
    serialize_general_schedule,
    synchronize,
    validate,
)

from conftest import frac, make_instance, oracle_value, random_general_schedule, shared_chunks
from test_memory_contract import replaced_report_json, replaced_solve_text

CHECK_PROPERTIES = ["v-shape", "ordered", "synchronized", "inclusive"]

FIVE_JOBS = (
    '{"m": 2, "jobs": ['
    '{"id": "a", "p": "10", "w": "1"}, {"id": "b", "p": "9", "w": "1"}, '
    '{"id": "c", "p": "8", "w": "1"}, {"id": "d", "p": "7", "w": "1"}, '
    '{"id": "e", "p": "6", "w": "1"}]}'
)


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_worked_example(workdir, capsys):
    _, write = workdir
    inst = write("inst.json", FIVE_JOBS)
    code, out, _ = run(capsys, "solve", inst)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "14"
    orders = {proc["id"]: proc["order"] for proc in data["schedule"]["processors"]}
    assert orders == {1: ["e", "c", "a"], 2: ["d", "b"]}


def test_solve_single_job(workdir, capsys):
    _, write = workdir
    inst = write("inst.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    code, out, _ = run(capsys, "solve", inst)
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_solve_weighted_exits_3(workdir, capsys):
    _, write = workdir
    for weights in [("1", "2"), ("2", "3/2"), ("4/2", "6/2"), (2, "5/2^1")]:
        jobs = [{"id": job_id, "p": "4", "w": w} for job_id, w in zip("ab", weights)]
        code, out, err = run(capsys, "solve", write("w.json", json.dumps({"m": 1, "jobs": jobs})))
        assert (code, out) == (3, ""), weights
        assert err.startswith("error: ") and err.count("\n") == 1 and "brute" in err, weights


def _literal_of(rng, num: int, exp: int):
    """A random literal of ``num / 2**exp``: a JSON int, ``"n"``, ``"n/d"``
    or ``"n/2^k"``, with the fraction unreduced by up to two digits."""
    extra = rng.randint(0, 2)
    num, exp = num << extra, exp + extra
    forms = [f"{num}/2^{exp}", f"{num}/{1 << exp}"]
    if exp == 0:
        forms += [num, str(num)]
    return rng.choice(forms)


def equal_weight_documents(count: int, seed: int = 20) -> list[str]:
    """Seeded equal-weight instance documents: ``p`` with mixed exponents and
    literal forms, drawn from a small pool so that ties are common; one weight
    written in several literals; ids in shuffled order, whose string order
    differs from their numeric order.  The first cases are n = 0, n = 1 and
    m > n."""
    rng = random.Random(seed)
    shapes = [(0, 1), (0, 3), (1, 1), (1, 4), (3, 7)]
    shapes += [(rng.randint(0, 14), rng.randint(1, 6)) for _ in range(count - len(shapes))]
    docs = []
    for n, m in shapes:
        pool = [(rng.randint(1, 40), rng.randint(0, 3)) for _ in range(max(1, n // 2))]
        w_num, w_exp = rng.randint(1, 5), rng.randint(0, 2)
        ids = [f"j{i}" for i in rng.sample(range(3 * n + 1), n)]
        jobs = [
            {"id": job_id, "p": _literal_of(rng, *rng.choice(pool)), "w": _literal_of(rng, w_num, w_exp)}
            for job_id in ids
        ]
        docs.append(json.dumps({"m": m, "jobs": jobs}))
    return docs


def test_equal_weight_corpus_covers_what_solve_must_match():
    docs = [json.loads(doc) for doc in equal_weight_documents(300)]
    insts = [parse_instance(json.dumps(doc)) for doc in docs]
    assert {0, 1} <= {len(inst) for inst in insts}
    assert any(inst.m > len(inst) >= 1 for inst in insts)
    assert any(len({job.p for job in inst.jobs}) < len(inst) for inst in insts)  # ties in p
    assert any(len({job.p.exponent for job in inst.jobs}) > 1 for inst in insts)
    literals = [str(entry[key]) for doc in docs for entry in doc["jobs"] for key in ("p", "w")]
    assert any(type(entry["p"]) is int for doc in docs for entry in doc["jobs"])
    assert any("/2^" in text for text in literals) and any("/" in text and "^" not in text for text in literals)
    # one weight under different literals
    assert any(len({str(entry["w"]) for entry in doc["jobs"]}) > 1 for doc in docs)


def test_solve_matches_the_replaced_route_and_the_oracle(workdir, capsys):
    _, write = workdir
    for case, doc in enumerate(equal_weight_documents(300)):
        inst = parse_instance(doc)
        code, out, err = run(capsys, "solve", write("i.json", doc))
        assert (code, err) == (0, ""), case
        assert out == replaced_solve_text(inst), case
        data = json.loads(out)
        pairs = [
            [(frac(inst.job(job_id).p), frac(inst.job(job_id).w)) for job_id in proc["order"]]
            for proc in data["schedule"]["processors"]
        ]
        assert len(pairs) == inst.m, case  # empty processors are printed
        assert frac(Dyadic.from_string(data["value"])) == sum(map(oracle_value, pairs)), case


def test_brute_v_instance(workdir, capsys):
    _, write = workdir
    inst = write(
        "v.json",
        '{"m":1,"jobs":[{"id":"x","p":"8","w":"8"},{"id":"y","p":"9","w":"9"},'
        '{"id":"z","p":"10","w":"10"}]}',
    )
    code, out, _ = run(capsys, "brute", inst)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "293/4"
    assert data["schedule"]["processors"][0]["order"] == ["y", "x", "z"]


def test_brute_too_large_exits_4(workdir, capsys):
    _, write = workdir
    jobs = ",".join(f'{{"id":"j{i}","p":"2","w":"1"}}' for i in range(9))
    inst = write("big.json", f'{{"m":1,"jobs":[{jobs}]}}')
    assert run(capsys, "brute", inst)[0] == 4
    assert run(capsys, "brute", inst, "--max-jobs", "9")[0] == 0


@pytest.mark.parametrize("n", [1600, 3000])
def test_brute_refuses_many_jobs_by_candidates_at_once(workdir, capsys, n):
    # the full count of order prefixes has more digits than str() prints from 1559 jobs on
    _, write = workdir
    jobs = [{"id": f"j{i}", "p": str(i + 1), "w": "1"} for i in range(n)]
    inst = write("many.json", json.dumps({"m": 2, "jobs": jobs}))
    code, out, err = run(capsys, "brute", inst, "--max-jobs", str(n))
    assert (code, out) == (4, "")
    assert err == "error: more than max_candidates = 10000000 candidates to search\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_brute_nonpositive_max_jobs_exits_2(workdir, capsys, value):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    with pytest.raises(SystemExit) as exc:
        main(["brute", inst, "--max-jobs", value])
    assert exc.value.code == 2
    assert "--max-jobs" in capsys.readouterr().err


@pytest.mark.parametrize("n,m", [(8, 7), (8, 8), (3, 300)])
def test_brute_accepts_processors_past_the_job_count(workdir, capsys, n, m):
    _, write = workdir
    jobs = ",".join(
        f'{{"id":"j{i}","p":"{7 + 5 * i}/{1 << i % 3}","w":"{1 + i % 3}"}}' for i in range(n)
    )
    code, out, _ = run(capsys, "brute", write("wide.json", f'{{"m":{m},"jobs":[{jobs}]}}'))
    assert code == 0
    data = json.loads(out)
    inst = parse_instance(f'{{"m":{m},"jobs":[{jobs}]}}')
    schedule, value = brute_force(inst, SearchLimits(max_candidates=10**9))
    assert data == {"schedule": json.loads(serialize_sync_schedule(schedule)), "value": str(value)}
    if m >= n:
        _, exact = brute_force(parse_instance(f'{{"m":{n},"jobs":[{jobs}]}}'))
        assert data["value"] == str(exact)
        assert all(not proc["order"] for proc in data["schedule"]["processors"][n:])


def test_brute_empty_instance(workdir, capsys):
    _, write = workdir
    inst = write("empty.json", '{"m":1,"jobs":[]}')
    code, out, _ = run(capsys, "brute", inst)
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_eval_report(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"8","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, out, _ = run(capsys, "eval", inst, sched)
    assert code == 0
    data = json.loads(out)
    assert data["total"] == "5"
    assert data["processors"][0]["start_times"] == ["0", "2", "5"]
    assert data["processors"][0]["overlaps"] == ["2", "3"]
    assert data["job_overlaps"] == {"a": "2", "b": "3"}


# ids that json.dumps escapes, plus plain ones that sort around them
ODD_IDS = ["é", 'q"uote', "back\\slash", "tab\tnl\n", "日本", "\U0001f600", "\x7f", "\ud800"]
ODD_IDS += ["z", "A", "10", "9"]


def test_eval_text_matches_json_dumps_of_the_replaced_dict():
    rng = random.Random(3)
    compared = 0
    for trial in range(300):
        n, m = rng.randint(0, 12), rng.randint(1, 4)
        ids = rng.sample(ODD_IDS, min(n, len(ODD_IDS))) + [f"j{i}" for i in range(n - len(ODD_IDS))]
        rng.shuffle(ids)
        jobs = tuple(
            Job(job_id, Dyadic(rng.randint(1, 1 << 20), rng.randint(0, 12)), rng.randint(1, 9))
            for job_id in ids
        )
        buckets = [[] for _ in range(m)]
        for job in jobs:
            if rng.random() < 0.8:  # the rest run privately only
                rng.choice(buckets).append(job)
        schedule = SyncSchedule(tuple(tuple(j.id for j in sorted(b, key=lambda j: j.p)) for b in buckets))
        report = evaluate(schedule, Instance(jobs, m))
        expected = json.dumps(replaced_report_json(evaluate(schedule, Instance(jobs, m))), sort_keys=True)
        assert "".join(_report_chunks(report)) == expected
        compared += bool(jobs)
    assert compared > 250


def test_eval_infeasible_exits_5(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"2","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, _, err = run(capsys, "eval", inst, sched)
    assert code == 5
    assert "position 2" in err


def test_eval_unknown_id_exits_2(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["ghost"]}]}')
    assert run(capsys, "eval", inst, sched)[0] == 2


def test_error_without_exit_code_propagates_and_prints_nothing(workdir, capsys, monkeypatch):
    # a fault of the program, not of its input: main re-raises it unreported
    _, write = workdir

    def broken(args):
        raise RuntimeError("not a documented failure")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    with pytest.raises(RuntimeError, match="not a documented failure"):
        main(["solve", write("i.json", FIVE_JOBS)])
    assert capsys.readouterr() == ("", "")


def test_parse_error_exits_2(workdir, capsys):
    _, write = workdir
    bad = write("bad.json", "{nope")
    assert run(capsys, "solve", bad)[0] == 2
    assert run(capsys, "brute", bad)[0] == 2
    missing = str(workdir[0] / "does-not-exist.json")
    assert run(capsys, "solve", missing)[0] == 2


def test_transform_reports_values(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"5"},{"id":"b","p":"8","w":"1"}]}'
    )
    general = write(
        "g.json",
        json.dumps(
            {
                "jobs": [
                    {
                        "id": "a",
                        "shared_processor": 1,
                        "shared_intervals": [["0", "1"]],
                        "private_completion": "3",
                    },
                    {
                        "id": "b",
                        "shared_processor": 1,
                        "shared_intervals": [["1", "9/2"]],
                        "private_completion": "9/2",
                    },
                ]
            }
        ),
    )
    code, out, _ = run(capsys, "transform", inst, general, "--to", "synchronized")
    assert code == 0
    data = json.loads(out)
    assert data["value_before"] == "17/2"
    assert data["value_after"] == "13"
    assert data["value_delta"] == "9/2"
    assert data["schedule"]["processors"][0]["order"] == ["a", "b"]


def test_transform_identity_on_synchronized(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"8","w":"1"}]}'
    )
    general = write(
        "g.json",
        json.dumps(
            {
                "jobs": [
                    {
                        "id": "a",
                        "shared_processor": 1,
                        "shared_intervals": [["0", "2"]],
                        "private_completion": "2",
                    },
                    {
                        "id": "b",
                        "shared_processor": 1,
                        "shared_intervals": [["2", "5"]],
                        "private_completion": "5",
                    },
                ]
            }
        ),
    )
    code, out, _ = run(capsys, "transform", inst, general)
    data = json.loads(out)
    assert code == 0
    assert data["value_before"] == data["value_after"] == "5"
    assert data["value_delta"] == "0"


def test_transform_invalid_exits_5(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    general = write(
        "g.json",
        '{"jobs":[{"id":"a","shared_processor":null,"shared_intervals":[],'
        '"private_completion":"1"}]}',
    )
    assert run(capsys, "transform", inst, general)[0] == 5


@pytest.mark.parametrize("command", ["transform", "check"])
def test_length_sum_too_long_to_print_exits_5(workdir, capsys, command):
    # an interval end and a private completion of 4300 digits sum to 4301
    _, write = workdir
    big = "9" * 4300
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"5","w":"1"}]}')
    job = {"id": "a", "shared_processor": 1, "shared_intervals": [["0", big]], "private_completion": big}
    general = write("g.json", json.dumps({"jobs": [job]}))
    code, out, err = run(capsys, command, inst, general)
    assert (code, out) == (5, "")
    assert err == (
        "error: invalid schedule: job 'a': length mismatch "
        "(intervals sum to a number with a 4301-digit numerator, p = 5)\n"
    )


def test_check_properties(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json",
        '{"m":1,"jobs":[{"id":"x","p":"8","w":"8"},{"id":"y","p":"9","w":"9"},'
        '{"id":"z","p":"10","w":"10"}]}',
    )
    vshape = write("v.json", '{"processors":[{"id":1,"order":["y","x","z"]}]}')
    code, out, _ = run(capsys, "check", inst, vshape)
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["v-shape"]["pass"]
    assert props["inclusive"]["pass"]
    assert props["synchronized"]["pass"]
    bad = write("bad.json", '{"processors":[{"id":1,"order":["x","z","y"]}]}')
    code, out, _ = run(capsys, "check", inst, bad, "--properties", "v-shape")
    props = json.loads(out)["properties"]
    assert not props["v-shape"]["pass"]
    assert "processor 1" in props["v-shape"]["failures"][0]


def test_check_inclusive_fail(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"2","w":"1"},{"id":"b","p":"4","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, out, _ = run(capsys, "check", inst, sched, "--properties", "inclusive")
    props = json.loads(out)["properties"]
    assert code == 0
    assert not props["inclusive"]["pass"]
    # inclusive in processing times, not in weights
    inst = write(
        "w.json", '{"m":1,"jobs":[{"id":"a","p":"8","w":"1"},{"id":"b","p":"9","w":"4"}]}'
    )
    code, out, _ = run(capsys, "check", inst, sched, "--properties", "inclusive")
    assert code == 0
    assert json.loads(out)["properties"]["inclusive"] == {
        "failures": ["job set is not weight-inclusive"],
        "pass": False,
    }


def test_check_infeasible_synchronized_schedule(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"2","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, out, _ = run(capsys, "check", inst, sched, "--properties", "ordered,synchronized")
    assert code == 0
    failed = {"failures": ["processor 1: infeasible at position 2"], "pass": False}
    assert json.loads(out)["properties"] == {"ordered": failed, "synchronized": failed}


def test_check_invalid_general_schedule_exits_5(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    general = write(
        "g.json",
        '{"jobs":[{"id":"a","shared_processor":null,"shared_intervals":[],'
        '"private_completion":"1"}]}',
    )
    code, out, err = run(capsys, "check", inst, general)
    assert (code, out) == (5, "")
    assert err == "error: invalid schedule: job 'a': length mismatch (intervals sum to 1, p = 4)\n"


def test_check_general_schedule(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    general = write(
        "g.json",
        '{"jobs":[{"id":"a","shared_processor":1,"shared_intervals":[["0","1"]],'
        '"private_completion":"3"}]}',
    )
    code, out, _ = run(capsys, "check", inst, general, "--properties", "ordered,synchronized")
    props = json.loads(out)["properties"]
    assert props["ordered"]["pass"]
    assert not props["synchronized"]["pass"]


def test_check_unknown_property(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["a"]}]}')
    assert run(capsys, "check", inst, sched, "--properties", "bogus")[0] == 2


def replaced_check(inst, text, wanted):
    """``check``'s (exit code, stdout, stderr) by the route it replaced:
    the public predicates on a re-parsed schedule, with the job orders of
    a general schedule read from its placements."""
    data = json.loads(text)
    try:
        if isinstance(data, dict) and "processors" in data:
            general, sequences = None, parse_sync_schedule(text, inst.m).sequences
            for seq in sequences:
                for job_id in seq:
                    inst.job(job_id)
        else:
            general = parse_general_schedule(text)
            violations = validate(general, inst)
            if violations:
                return 5, "", f"error: invalid schedule: {'; '.join(violations)}\n"
            procs = range(1, inst.m + 1)
            sequences = [[job_id for _, _, job_id in shared_chunks(general, proc)] for proc in procs]
    except InstanceError as exc:
        return 2, "", f"error: {exc}\n"
    results = {}
    for name in wanted:
        failures = []
        for proc, seq in enumerate(sequences, start=1):
            jobs = [inst.job(job_id) for job_id in seq]
            if name == "v-shape" and not is_v_shaped(jobs):
                failures.append(f"processor {proc}: order {list(seq)} is not V-shaped")
            bad = check_feasible(jobs)
            if name in ("ordered", "synchronized") and general is None and bad is not None:
                failures.append(f"processor {proc}: infeasible at position {bad}")
        holds = {"ordered": is_ordered, "synchronized": is_synchronized}.get(name)
        if holds and general is not None and not holds(general):
            failures.append(f"schedule is not {name}")
        if name == "inclusive":
            if not is_processing_time_inclusive(inst.jobs):
                failures.append("job set is not processing-time-inclusive")
            if not is_weight_inclusive(inst.jobs):
                failures.append("job set is not weight-inclusive")
        results[name] = {"pass": not failures, "failures": failures}
    return 0, json.dumps({"properties": results}, sort_keys=True) + "\n", ""


def check_cases(rng, count):
    """Seeded (instance, schedule text) pairs in both formats: valid general
    schedules (some ordered, some synchronized), invalid ones, and job
    orders that are often infeasible and sometimes name an unknown job."""
    for _ in range(count):
        general, inst = random_general_schedule(rng)
        kind = rng.randrange(5)
        if kind == 0 and rng.random() < 0.5:  # a length mismatch: invalid
            job_id = rng.choice(sorted(general.placements))
            placement = general.placements[job_id]
            late = JobPlacement(placement.processor, placement.intervals, placement.private_completion + 1)
            general = GeneralSchedule({**general.placements, job_id: late})
        elif kind == 1:
            general = reorder(merge_preemptions(compact_idle(normalize(general))))
        elif kind == 2:
            general = from_synchronized(synchronize(general, inst), inst)
        if kind <= 2:
            yield inst, serialize_general_schedule(general)
            continue
        ids = [job.id for job in inst.jobs]
        rng.shuffle(ids)
        sequences = [[] for _ in range(inst.m)]
        for job_id in ids[: rng.randint(0, len(ids))]:
            sequences[rng.randrange(inst.m)].append(job_id)
        if rng.random() < 0.2:
            seq = rng.choice(sequences)
            seq.insert(rng.randint(0, len(seq)), rng.choice(["zz", "yy"]))
        yield inst, serialize_sync_schedule(SyncSchedule(sequences))


def test_check_matches_the_replaced_route(workdir, capsys):
    _, write = workdir
    rng = random.Random(14)
    seen = Counter()
    for inst, text in check_cases(rng, 400):
        wanted = rng.sample(CHECK_PROPERTIES, rng.randint(1, 4))
        argv = ["check", write("i.json", serialize_instance(inst)), write("s.json", text)]
        argv += ["--properties", ",".join(wanted)] if len(wanted) < 4 else []
        expected = replaced_check(inst, text, wanted)
        assert run(capsys, *argv) == expected, text
        seen[expected[0], '"pass": false' in expected[1]] += 1
    # every outcome is reached: a parse error, an invalid schedule, passes and failures
    assert min(seen[2, False], seen[5, False], seen[0, False], seen[0, True]) >= 20, seen


def _counting(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so that each call appends its first argument to ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("form", ["synchronized", "general"])
def test_check_reads_each_document_once(workdir, capsys, monkeypatch, form):
    _, write = workdir
    inst = make_instance([(f"j{i}", i + 1, 1) for i in range(200)], 4)
    schedule = SyncSchedule([[f"j{i}" for i in range(proc, 200, 4)] for proc in range(4)])
    text = serialize_sync_schedule(schedule)
    if form == "general":
        text = serialize_general_schedule(from_synchronized(schedule, inst))
    inst_path, sched_path = write("i.json", serialize_instance(inst)), write("s.json", text)
    decoded, grids, lookups = [], [], []
    _counting(monkeypatch, json, "loads", decoded)
    _counting(monkeypatch, transforms._Grid, "__init__", grids)
    _counting(monkeypatch, Instance, "job", lookups)
    code, out, _ = run(capsys, "check", inst_path, sched_path)
    assert sorted(decoded) == sorted([serialize_instance(inst), text])
    assert len(grids) == (form == "general")
    # one lookup per job; validating a general schedule looks each job up once more
    assert len(lookups) == (200 if form == "synchronized" else 400)
    assert code == 0 and json.loads(out)["properties"]["synchronized"]["pass"]


@pytest.mark.parametrize("command", ["eval", "gantt"])
def test_eval_and_gantt_look_each_job_up_once(workdir, capsys, monkeypatch, command):
    _, write = workdir
    inst = make_instance([(f"j{i}", i + 1, 1) for i in range(200)], 4)
    schedule = SyncSchedule([[f"j{i}" for i in range(proc, 200, 4)] for proc in range(4)])
    inst_path = write("i.json", serialize_instance(inst))
    sched_path = write("s.json", serialize_sync_schedule(schedule))
    lookups = []
    _counting(monkeypatch, Instance, "job", lookups)
    code, _, err = run(capsys, command, inst_path, sched_path)
    assert (code, err) == (0, "")
    assert len(lookups) == 200


@pytest.mark.parametrize("command", ["solve", "eval", "gantt", "evaluate"])
def test_every_synchronized_schedule_takes_the_one_walk_route(workdir, capsys, monkeypatch, command):
    _, write = workdir
    inst = make_instance([(f"j{i}", i + 1, 1) for i in range(200)], 4)
    schedule = SyncSchedule([[f"j{i}" for i in range(proc, 200, 4)] for proc in range(4)])
    inst_path = write("i.json", serialize_instance(inst))
    sched_path = write("s.json", serialize_sync_schedule(schedule))
    routes, walks, starts = [], [], []
    _counting(monkeypatch, engine, "_walks", routes)
    _counting(monkeypatch, engine, "_walk", walks)
    # each processor here is one evaluate built, so no stored field shadows the property
    start_times = engine.ProcessorEval.start_times.func
    read = property(lambda proc: starts.append(proc) or start_times(proc))
    monkeypatch.setattr(engine.ProcessorEval, "start_times", read)
    if command == "evaluate":
        assert evaluate(schedule, inst).total > 0
    else:
        argv = [command, inst_path] + ([] if command == "solve" else [sched_path])
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    # one route for the whole schedule, and one walk per processor; eval and gantt
    # read the walk's integers, gantt through engine._layout, and no Dyadic start times
    assert (len(routes), len(walks), len(starts)) == (1, 4, 0)


def test_solve_reports_an_infeasible_deal_as_evaluate_does(workdir, capsys, monkeypatch):
    # the deal is ascending, so never infeasible; a descending one shows the check stays
    _, write = workdir
    inst = make_instance([("small", 2, 1), ("big", 8, 1)], 2)
    order = [[], [inst.job("big"), inst.job("small")]]
    monkeypatch.setattr(solvers, "_deal", lambda inst: order)
    inst_path = write("i.json", serialize_instance(inst))
    code, out, err = run(capsys, "solve", inst_path)
    schedule = SyncSchedule([[job.id for job in jobs] for jobs in order])
    with pytest.raises(engine.InfeasibleScheduleError) as raised:
        evaluate(schedule, inst)
    assert (code, out, err) == (5, "", f"error: {raised.value}\n")
    assert "processor 2, position 2" in err
    sched_path = write("s.json", serialize_sync_schedule(schedule))
    assert run(capsys, "eval", inst_path, sched_path) == (5, "", err)


def test_solve_looks_no_job_up_and_builds_no_report(workdir, capsys, monkeypatch):
    _, write = workdir
    inst = make_instance([(f"j{i}", i % 97 + 1, 3) for i in range(4_000)], 8)
    path = write("i.json", serialize_instance(inst))
    lookups, reports = [], []
    _counting(monkeypatch, Instance, "job", lookups)
    _counting(monkeypatch, engine, "_evaluate", reports)
    code, out, err = run(capsys, "solve", path)
    assert (code, err) == (0, "")
    assert (len(lookups), len(reports)) == (0, 0)
    monkeypatch.undo()
    assert out == replaced_solve_text(inst)


def test_check_is_linear_in_jobs_plus_processors(workdir):
    # a job per processor on the first 4,000 of 400,000: reading each
    # processor's order by a walk over every job would be 1.6e9 steps
    _, write = workdir
    n, m = 4_000, 400_000
    jobs = [{"id": f"j{i}", "p": "2", "w": "1"} for i in range(n)]
    placements = [
        {"id": f"j{i}", "shared_processor": i + 1, "shared_intervals": [["0", "1"]], "private_completion": "1"}
        for i in range(n)
    ]
    inst = write("i.json", json.dumps({"m": m, "jobs": jobs}))
    general = write("g.json", json.dumps({"jobs": placements}))
    done = _run_capped("check", inst, general)
    assert (done.returncode, done.stderr) == (0, "")
    properties = json.loads(done.stdout)["properties"]
    assert all(result == {"failures": [], "pass": True} for result in properties.values())
    assert sorted(properties) == sorted(CHECK_PROPERTIES)


def test_gen_n3dm_stdout(workdir, capsys):
    _, write = workdir
    src = write("n.json", '{"X":[1],"Y":[2],"Z":[3],"b":6}')
    code, out, _ = run(capsys, "gen-n3dm", src)
    assert code == 0
    data = json.loads(out)
    assert (data["M"], data["m_param"], data["K"]) == (386, 7, 1606)
    times = {j["id"]: j["p"] for j in data["instance"]["jobs"]}
    assert times == {"A1": "788", "B1": "774", "C1": "876"}
    assert data["instance"]["m"] == 1


def test_gen_n3dm_files(workdir, capsys):
    tmp_path, write = workdir
    src = write("n.json", '{"X":[1,2],"Y":[2,2],"Z":[3,1],"b":6}')
    out_path = tmp_path / "hard.json"
    code, out, _ = run(capsys, "gen-n3dm", src, "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["m_param"] == 7
    inst = json.loads(out_path.read_text())
    assert len(inst["jobs"]) == 6 and inst["m"] == 2
    sidecar = json.loads((tmp_path / "hard.provenance.json").read_text())
    assert sidecar["n"] == 2
    assert len(sidecar["jobs"]) == 6


@pytest.mark.parametrize("case", ["missing directory", "directory", "sidecar is a directory"])
def test_gen_n3dm_unwritable_out_exits_2_and_writes_nothing(workdir, capsys, case):
    tmp_path, write = workdir
    src = write("n.json", '{"X":[1],"Y":[2],"Z":[3],"b":6}')
    if case == "missing directory":
        out, reason = tmp_path / "missing" / "hard.json", "No such file or directory"
    elif case == "directory":
        out, reason = tmp_path / "outdir", "Is a directory"
        out.mkdir()
    else:
        out, reason = tmp_path / "hard.json", "Is a directory"
        (tmp_path / "hard.provenance.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run(capsys, "gen-n3dm", src, "--out", str(out))
    assert code == 2
    assert stdout == ""
    blocked = out if case != "sidecar is a directory" else tmp_path / "hard.provenance.json"
    assert err == f"error: cannot write {blocked}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before  # neither file nor a temporary one is left


def test_gen_n3dm_negative_exits_2(workdir, capsys):
    _, write = workdir
    src = write("n.json", '{"X":[-1],"Y":[2],"Z":[3],"b":6}')
    assert run(capsys, "gen-n3dm", src)[0] == 2


def test_decide_n3dm(workdir, capsys):
    _, write = workdir
    yes = write("yes.json", '{"X":[1],"Y":[2],"Z":[3],"b":6}')
    code, out, _ = run(capsys, "decide-n3dm", yes)
    assert code == 0
    assert json.loads(out) == {"solvable": True, "witness": [[0, 0, 0]]}
    no = write("no.json", '{"X":[1,2],"Y":[1,2],"Z":[1,2],"b":4}')
    code, out, _ = run(capsys, "decide-n3dm", no)
    assert json.loads(out) == {"solvable": False, "witness": None}
    big = write("big.json", '{"X":[0,0,0,0,0],"Y":[0,0,0,0,0],"Z":[0,0,0,0,0],"b":0}')
    assert run(capsys, "decide-n3dm", big)[0] == 4


def test_gantt_rows_and_determinism(workdir, capsys):
    _, write = workdir
    inst = write("i.json", FIVE_JOBS)
    code, solved, _ = run(capsys, "solve", inst)
    sched = write("s.json", json.dumps(json.loads(solved)["schedule"]))
    code, out1, _ = run(capsys, "gantt", inst, sched, "--width", "40")
    assert code == 0
    bar_rows = [line for line in out1.splitlines() if "|" in line]
    assert len(bar_rows) == 2 + 5  # shared rows + private rows
    assert all(line.endswith("|") for line in bar_rows)
    code, out2, _ = run(capsys, "gantt", inst, sched, "--width", "40")
    assert out1 == out2
    code, wide, _ = run(capsys, "gantt", inst, sched, "--width", "80")
    assert wide != out1


def test_gantt_single_job(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["a"]}]}')
    code, out, _ = run(capsys, "gantt", inst, sched, "--width", "8")
    assert code == 0
    lines = out.splitlines()
    assert "time 0..2" in lines[0]
    # synchronized single job: both bars cover the full horizon
    assert lines[1].endswith("|aaaaaaaa|")
    assert lines[2].endswith("|========|")


def test_gantt_full_text(workdir, capsys):
    # an empty processor, a private-only job that sets the horizon, dyadic
    # start times, and a job id longer than its bar
    _, write = workdir
    inst = write(
        "i.json",
        '{"m":3,"jobs":[{"id":"a","p":"3/2","w":"1"},{"id":"longjob","p":"5/2","w":"3/4"},'
        '{"id":"c","p":"9/4","w":"1"},{"id":"z","p":"5","w":"1"}]}',
    )
    sched = write(
        "s.json", '{"processors":[{"id":1,"order":["a","longjob"]},{"id":3,"order":["c"]}]}'
    )
    code, out, _ = run(capsys, "gantt", inst, sched, "--width", "20")
    assert code == 0
    assert out == (
        "time 0..5  (20 columns)\n"
        "M1        |aaalon              |\n"
        "M2        |                    |\n"
        "M3        |cccc                |\n"
        "P a       |===                 |\n"
        "P longjob |======              |\n"
        "P c       |====                |\n"
        "P z       |====================|\n"
    )


WIDTH_ERRORS = {
    "0": "must be at least 1, got 0",
    "-5": "must be at least 1, got -5",
    "abc": "invalid int value: 'abc'",
}


@pytest.mark.parametrize("value", list(WIDTH_ERRORS))
def test_gantt_nonpositive_width_exits_2(workdir, capsys, value):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["a"]}]}')
    with pytest.raises(SystemExit) as exc:
        main(["gantt", inst, sched, "--width", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"sharedsched gantt: error: argument --width: {WIDTH_ERRORS[value]}\n")


def test_gantt_no_jobs_prints_blank_rows(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":2,"jobs":[]}')
    sched = write("s.json", '{"processors":[]}')
    assert run(capsys, "gantt", inst, sched, "--width", "5") == (
        0,
        "time 0..0  (5 columns)\nM1 |     |\nM2 |     |\n",
        "",
    )


def test_gantt_infeasible_exits_5(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"2","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    assert run(capsys, "gantt", inst, sched)[0] == 5


def test_outputs_byte_identical(workdir, capsys):
    _, write = workdir
    inst = write("i.json", FIVE_JOBS)
    first = run(capsys, "solve", inst)
    second = run(capsys, "solve", inst)
    assert first == second
    v = write(
        "v.json",
        '{"m":1,"jobs":[{"id":"x","p":"8","w":"8"},{"id":"y","p":"9","w":"9"},'
        '{"id":"z","p":"10","w":"10"}]}',
    )
    assert run(capsys, "brute", v) == run(capsys, "brute", v)


WIDE = "9" * 4000
WIDE_JOB = json.dumps({"m": 1, "jobs": [{"id": "a", "p": WIDE, "w": WIDE}, {"id": "b", "p": "3", "w": WIDE}]})


@pytest.mark.parametrize("command", ["brute", "solve", "eval", "gen-n3dm"])
def test_value_too_long_to_print_exits_4(workdir, capsys, command):
    # p * w has about 8000 decimal digits, past Python's default
    # int-to-str limit of 4300, although each literal has 4000; for
    # gen-n3dm, M = 7*((b+1)^2 + b) + 1 has about 4400 digits
    tmp_path, write = workdir
    argv = [command, write("i.json", WIDE_JOB)]
    if command == "eval":
        argv.append(write("s.json", '{"processors":[{"id":1,"order":["a"]}]}'))
    if command == "gen-n3dm":
        argv = [command, write("n.json", '{"X":[0],"Y":[0],"Z":[0],"b":%d}' % 10**2200)]
        argv += ["--out", str(tmp_path / "hard.json")]
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: a result value has more than 4300") and err.count("\n") == 1
    assert not (tmp_path / "hard.json").exists()


def test_eval_value_too_long_on_the_last_processor_prints_nothing(workdir, capsys):
    # eval writes its report in chunks: the first processor's would come out
    # before the total, unless every value is checked first
    _, write = workdir
    jobs = json.loads(WIDE_JOB)["jobs"] + [{"id": "c", "p": "4", "w": "1"}]
    inst = write("i.json", json.dumps({"m": 2, "jobs": jobs}))
    sched = write("s.json", '{"processors":[{"id":1,"order":["c"]},{"id":2,"order":["a"]}]}')
    code, out, err = run(capsys, "eval", inst, sched)
    assert code == 4
    assert out == ""
    assert err.startswith("error: a result value has more than 4300") and err.count("\n") == 1


def test_eval_prints_values_of_exactly_the_digit_limit(workdir, capsys):
    # 4300 digits each, though the last start time scaled by 2**2 (the
    # report's integer form) has 4301: only the printed texts are checked
    _, write = workdir
    jobs = [{"id": "a", "p": "2" + "0" * 4299, "w": "1"}, {"id": "b", "p": "5" + "0" * 4299, "w": "1"}]
    inst = write("i.json", json.dumps({"m": 1, "jobs": jobs}))
    code, out, err = run(capsys, "eval", inst, write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}'))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["processors"][0]["start_times"] == ["0", "1" + "0" * 4299, "3" + "0" * 4299]
    assert data["total"] == "3" + "0" * 4299


@pytest.mark.parametrize("out", [False, True])
def test_gen_n3dm_parameter_too_long_to_print_exits_4(workdir, capsys, out):
    # with b = 2 * 10**2149 every job time has 4300 digits, but K = 4M + ... has 4301
    tmp_path, write = workdir
    argv = ["gen-n3dm", write("n.json", '{"X":[0],"Y":[0],"Z":[0],"b":%d}' % (2 * 10**2149))]
    if out:
        argv += ["--out", str(tmp_path / "hard.json")]
    assert run(capsys, *argv) == (4, "", "error: a result value has more than 4300 decimal digits\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["n.json"]


def _run_capped(*argv) -> subprocess.CompletedProcess:
    """One CLI call in a child process under a 1 GiB address-space limit.

    An input that makes the CLI ask for gigabytes then fails the test
    instead of swapping the machine.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(sharedsched.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "sharedsched.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


@pytest.mark.parametrize("command", ["eval", "gantt"])
def test_closed_stdout_exits_141_without_a_traceback(workdir, command):
    # 4,000 jobs print far more than a pipe holds, so the writes after the
    # reader closes its end fail
    _, write = workdir
    inst = make_instance([(f"j{i}", i % 97 + 1, 3) for i in range(4_000)], 8)
    ascending = [f"j{i}" for i in sorted(range(4_000), key=lambda i: i % 97)]
    schedule = SyncSchedule([ascending[proc::8] for proc in range(8)])
    argv = [write("i.json", serialize_instance(inst)), write("s.json", serialize_sync_schedule(schedule))]
    argv += ["--width", "200"] if command == "gantt" else []
    env = dict(os.environ, PYTHONPATH=str(Path(sharedsched.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "sharedsched.cli", command, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert len(child.stdout.read(1024)) == 1024
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=60)
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, "")
    assert cli.EXIT_BROKEN_PIPE == 141


def test_exponent_past_bound_exits_4_fast(workdir):
    _, write = workdir
    literal = "1/2^20000000000"
    jobs = [{"id": "a", "p": literal, "w": "1"}, {"id": "b", "p": "3", "w": "1"}]
    inst = write("i.json", json.dumps({"m": 1, "jobs": jobs}))
    done = _run_capped("solve", inst)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == f"error: jobs[0].p: exponent 20000000000 exceeds the limit of 8192: {literal!r}\n"


def test_gantt_width_past_bound_exits_4_fast(workdir):
    # unbounded, a billion columns per row end in a MemoryError traceback
    _, write = workdir
    inst, sched = write("i.json", TWO_JOBS), write("s.json", SYNC_AB)
    done = _run_capped("gantt", inst, sched, "--width", "10000")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "time 0..5  (10000 columns)"
    assert len(lines) == 4 and all(len(line) == len("M1  |") + 10000 + 1 for line in lines[1:])
    for width in ("10001", "1000000000"):
        done = _run_capped("gantt", inst, sched, "--width", width)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr == f"error: --width {width} exceeds the limit of 10000 columns\n"


# 2471 characters as a repr: an error text quotes its first 60 and its length
LONG_DENOMINATOR = "3/%d" % (1 << 8193)


@pytest.mark.parametrize(
    "literal,code,message",
    [
        ("3/2^8193", 4, "exponent 8193 exceeds the limit of 8192: '3/2^8193'"),
        (
            LONG_DENOMINATOR,
            4,
            "exponent 8193 exceeds the limit of 8192: '3/%s... (2471 characters)"
            % str(1 << 8193)[:57],
        ),
        ("4\n", 2, "not a dyadic literal: '4\\n'"),
        ("\u0663/2", 2, "not a dyadic literal: '\u0663/2'"),
    ],
    ids=["exponent", "denominator", "final-newline", "arabic-indic-digit"],
)
@pytest.mark.parametrize("command", ["solve", "brute", "eval", "check", "gantt", "transform"])
def test_literal_bound_and_grammar_exit_codes(workdir, capsys, command, literal, code, message):
    _, write = workdir
    if command == "transform":
        general = json.loads(GENERAL_AB)
        general["jobs"][1]["private_completion"] = literal
        argv = [command, write("i.json", TWO_JOBS), write("g.json", json.dumps(general))]
        what = "job 'b' private completion"
    else:
        inst = json.loads(TWO_JOBS)
        inst["jobs"][1]["w"] = literal
        argv = [command, write("i.json", json.dumps(inst))]
        if command not in ("solve", "brute"):
            argv.append(write("s.json", SYNC_AB))
        what = "jobs[1].w"
    assert run(capsys, *argv) == (code, "", f"error: {what}: {message}\n")


def test_unknown_ids_reported_in_processor_order(workdir, capsys):
    _, write = workdir
    inst = write("i.json", FIVE_JOBS)
    assert check_feasible(parse_instance(FIVE_JOBS).job(j) for j in "abcd") == 4
    for orders in (
        [["a", "zz", "yy"], ["xx"]],
        [["a", "b", "c", "d"], ["zz"]],  # processor 1 is infeasible, and still "zz" is reported
    ):
        processors = [{"id": proc, "order": order} for proc, order in enumerate(orders, start=1)]
        sched = write("s.json", json.dumps({"processors": processors}))
        for command in ("eval", "gantt", "check"):
            code, _, err = run(capsys, command, inst, sched)
            assert code == 2
            assert "unknown job id 'zz'" in err


# an input value a million characters long, quoted by each kind of error text
HUGE = "x" * 1_000_000


def _huge_case(case: str, write) -> tuple[list[str], int]:
    """The argv of a command whose error quotes ``HUGE``, and its exit code."""
    jobs = [{"id": "a", "p": "4", "w": "1"}, {"id": "b", "p": "8", "w": "1"}]
    m = 1
    if case == "literal":
        jobs[0]["p"] = HUGE
    elif case == "duplicate-id":
        jobs = [{"id": HUGE, "p": "4", "w": "1"}] * 2
    elif case == "string-m":
        m = HUGE
    inst = write("i.json", json.dumps({"m": m, "jobs": jobs}))
    if case == "unknown-id":
        return ["eval", inst, write("s.json", json.dumps({"processors": [{"id": 1, "order": [HUGE]}]}))], 2
    if case == "general-id":
        general = json.loads(GENERAL_AB)
        general["jobs"][1]["id"] = HUGE
        return ["transform", inst, write("g.json", json.dumps(general))], 5
    return ["solve", inst], 2


@pytest.mark.parametrize("case", ["literal", "duplicate-id", "unknown-id", "string-m", "general-id"])
def test_error_texts_bound_the_input_they_quote(workdir, capsys, case):
    _, write = workdir
    argv, expected = _huge_case(case, write)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and len(err.encode()) < 1024, err[:200]
    assert f"xxxx... ({len(repr(HUGE))} characters)" in err


@pytest.mark.parametrize("command", ["transform", "check"])
def test_invalid_schedule_message_bounds_its_violations(workdir, capsys, monkeypatch, command):
    # 100,000 jobs that are not in the instance, each one a violation
    _, write = workdir
    entry = {"shared_processor": None, "shared_intervals": [], "private_completion": "1"}
    ids = [f"j{i}" for i in range(100_000)]
    general = write("g.json", json.dumps({"jobs": [{"id": job_id, **entry} for job_id in ids]}))
    raised = []
    exit_code = cli._exit_code
    monkeypatch.setattr(cli, "_exit_code", lambda exc: raised.append(exc) or exit_code(exc))
    code, out, err = run(capsys, command, write("i.json", '{"m":1,"jobs":[]}'), general)
    assert (code, out) == (5, "")
    assert len(err.encode()) < 1024, err[:200]
    assert err.startswith("error: invalid schedule: job 'j0': not in instance; ")
    assert err.endswith("; and 99980 more\n")
    [exc] = raised  # the message is capped, the list is whole
    assert exc.violations == [f"job {job_id!r}: not in instance" for job_id in sorted(ids)]


# JSON that json.loads refuses with a plain ValueError (an integer literal
# past Python's 4300-digit int-from-str limit) or a RecursionError
LONG_INTEGER = '{"m": 1, "jobs": [{"id": "a", "p": ' + "9" * 5000 + ', "w": "1"}]}'
DEEP_NESTING = "[" * 200000
TWO_JOBS = '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"8","w":"1"}]}'
SYNC_AB = '{"processors":[{"id":1,"order":["a","b"]}]}'
GENERAL_AB = json.dumps(
    {
        "jobs": [
            {"id": j, "shared_processor": 1, "shared_intervals": [[a, b]], "private_completion": c}
            for j, a, b, c in (("a", "0", "1", "3"), ("b", "1", "9/2", "9/2"))
        ]
    }
)


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize(
    "text", [LONG_INTEGER, DEEP_NESTING, NOT_UTF8], ids=["long-integer", "deep-nesting", "not-utf8"]
)
@pytest.mark.parametrize("command", ["solve", "eval", "transform"])
def test_unreadable_json_exits_2(workdir, capsys, command, text):
    _, write = workdir
    bad = write("bad.json", text)
    calls = [[command, bad]]
    if command != "solve":
        good_inst, good_sched = write("i.json", TWO_JOBS), write("s.json", SYNC_AB)
        calls = [[command, bad, good_sched], [command, good_inst, bad]]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed JSON") and err.count("\n") == 1


LONG_STRING = LONG_INTEGER.replace("9" * 5000, '"' + "9" * 5000 + '"')


@pytest.mark.parametrize(
    "text,what", [(LONG_STRING, "jobs[0].p"), (LONG_INTEGER, "malformed JSON")], ids=["string", "integer"]
)
@pytest.mark.parametrize("command", ["solve", "eval", "check", "transform"])
def test_number_past_the_digit_limit_exits_2_with_one_message(workdir, capsys, command, text, what):
    # one text on every supported Python: CPython's own differs between
    # 3.10 and 3.11+ and tells the reader to call sys.set_int_max_str_digits()
    _, write = workdir
    argv = [command, write("i.json", text)]
    if command != "solve":
        argv.append(write("s.json", GENERAL_AB if command == "transform" else SYNC_AB))
    message = f"error: {what}: a number has more than 4300 digits\n"
    assert run(capsys, *argv) == (2, "", message)
    if command == "transform":  # in the schedule instead
        general = GENERAL_AB.replace('"9/2"', '"' + "9" * 5000 + '"', 1)
        argv[1:] = [write("i.json", TWO_JOBS), write("g.json", general)]
        message = "error: job 'b' interval end: a number has more than 4300 digits\n"
        assert run(capsys, *argv) == (2, "", message)


def _loaded_modules(tmp_path, *argv) -> set[str]:
    """The modules a fresh interpreter imports for one CLI call.

    The snapshot is taken when the script starts, after ``site``, so that
    a ``.pth`` file in site-packages cannot change the result.
    """
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import json\n"
        "from sharedsched.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sharedsched.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_commands_import_only_what_they_use(workdir):
    tmp_path, write = workdir
    inst, sched = write("i.json", TWO_JOBS), write("s.json", SYNC_AB)
    general = write("g.json", GENERAL_AB)
    calls = {
        "solve": [inst],
        "eval": [inst, sched],
        "brute": [inst],
        "transform": [inst, general],
        "check": [inst, sched],
        "gantt": [inst, sched],
    }
    loaded = {command: _loaded_modules(tmp_path, command, *args) for command, args in calls.items()}
    for command in ("solve", "eval", "brute"):
        assert "sharedsched.engine" in loaded[command]
        assert not loaded[command] & {"sharedsched.transforms", "sharedsched.hardness"}, command
        assert ("sharedsched._permsearch" in loaded[command]) == (command == "brute"), command
    assert "sharedsched.transforms" in loaded["transform"]
    assert not loaded["transform"] & {"sharedsched.solvers", "sharedsched._permsearch", "sharedsched.hardness"}
    for command, modules in loaded.items():
        # importing dataclasses, which imports inspect, costs ~20 ms of start-up
        assert not modules & {"dataclasses", "inspect"}, command
