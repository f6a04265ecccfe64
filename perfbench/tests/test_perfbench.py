"""Tests of the benchmark itself: generators, checker and traced run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checker  # noqa: E402
import families  # noqa: E402
import traced  # noqa: E402
from harness import DEFAULT_SEED, OUT, Spawner, golden_digests, package, write_case  # noqa: E402
from run import verify  # noqa: E402

WORKLOADS = sorted(families.WORKLOADS)


def _cli_outputs(workload: str) -> list[tuple[families.Case, list[Path], bytes]]:
    """Each small default-seed case of a workload with its CLI stdout."""
    work = OUT / "tests" / workload
    work.mkdir(parents=True, exist_ok=True)
    results = []
    with Spawner(work) as spawner:
        for index, case in enumerate(families.build_pool(workload, DEFAULT_SEED, "small")):
            argv, paths = write_case(case, work, index)
            call = spawner.run(argv)
            assert call.failure() is None, call.stderr.decode()
            results.append((case, paths, call.stdout))
    return results


@pytest.fixture(scope="module", params=WORKLOADS)
def cli_outputs(request):
    return request.param, _cli_outputs(request.param)


@pytest.mark.parametrize("scale", sorted(families.SCALES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_deterministic_per_seed(workload, scale):
    first = families.build_pool(workload, 7, scale)
    assert first == families.build_pool(workload, 7, scale)
    assert first != families.build_pool(workload, 8, scale)
    assert len({case.label for case in first}) == len(first)


def test_checker_accepts_this_commits_outputs(cli_outputs):
    workload, results = cli_outputs
    golden = golden_digests(workload, DEFAULT_SEED, "small")
    assert golden is not None and len(golden) == len(results)
    for index, (case, _, stdout) in enumerate(results):
        assert verify(case, stdout, golden, index) is None, case.label


def test_traced_bytes_equal_cli_bytes(cli_outputs):
    _, results = cli_outputs
    pkg = package()
    for case, paths, stdout in results:
        tracer = traced.Tracer()
        out, _, state = traced.PIPELINES[case.command](tracer, pkg, paths, case.extra_args)
        assert out == stdout, case.label
        traced.breakdown(tracer, pkg, case.command, state)
        assert not tracer.errors
        assert all(end >= start for _, start, end, _, _ in tracer.spans)


def _small(workload: str, predicate=lambda case: True):
    for case, _, stdout in _cli_outputs(workload):
        if predicate(case):
            return case, json.loads(stdout)
    raise AssertionError(f"no {workload} case matches")


def _plus_one(text: str) -> str:
    num, exp = checker.parse_dyadic(text)
    return f"{num + (1 << exp)}/2^{exp}"


def test_checker_rejects_corrupted_value():
    case, data = _small("equal-solve")
    data["value"] = _plus_one(data["value"])
    with pytest.raises(checker.CheckError, match="value"):
        checker.check(case, json.dumps(data).encode())


def test_checker_rejects_corrupted_start_time():
    case, data = _small("equal-eval")
    data["processors"][0]["start_times"][1] = "0"
    with pytest.raises(checker.CheckError, match="start time"):
        checker.check(case, json.dumps(data).encode())


def test_checker_rejects_wrong_value_before():
    case, data = _small("canonicalize")
    data["value_before"] = _plus_one(data["value_before"])
    with pytest.raises(checker.CheckError, match="value_before"):
        checker.check(case, json.dumps(data).encode())


def test_digest_rejects_a_different_tie_break():
    # swapping two processors' orders keeps the value but not the tie-break
    pool = families.build_pool("exhaustive", DEFAULT_SEED, "small")
    index = next(i for i, case in enumerate(pool) if case.m >= 2)
    case, data = _small("exhaustive", lambda c: c.label == pool[index].label)
    procs = data["schedule"]["processors"]
    assert procs[0]["order"] != procs[1]["order"]
    procs[0]["order"], procs[1]["order"] = procs[1]["order"], procs[0]["order"]
    swapped = (json.dumps(data, sort_keys=True) + "\n").encode()
    checker.check(case, swapped)  # the value alone cannot tell
    golden = golden_digests("exhaustive", DEFAULT_SEED, "small")
    assert "digest" in verify(case, swapped, golden, index)


def test_checker_rejects_infeasible_order():
    instance = {"m": 1, "jobs": [{"id": "a", "p": "100", "w": "1"}, {"id": "b", "p": "10", "w": "1"}]}
    case = families.Case("infeasible", "brute", instance)
    # b starts at (0 + 100) / 2 = 50 >= 10; the value is what a naive sum gives
    data = {"schedule": {"processors": [{"id": 1, "order": ["a", "b"]}]}, "value": "50"}
    with pytest.raises(checker.CheckError, match="infeasible"):
        checker.check(case, json.dumps(data).encode())


def test_checker_rejects_repeated_job():
    case, data = _small("exhaustive", lambda c: c.m >= 2)
    procs = data["schedule"]["processors"]
    source, target = (procs[0], procs[1]) if procs[0]["order"] else (procs[1], procs[0])
    target["order"].append(source["order"][0])
    with pytest.raises(checker.CheckError, match="more than once"):
        checker.check(case, json.dumps(data).encode())


def test_checker_rejects_suboptimal_solve():
    case, data = _small("equal-solve")
    procs = data["schedule"]["processors"]
    moved = procs[0]["order"].pop()  # the largest job on processor 1 goes private
    assert moved
    with pytest.raises(checker.CheckError):
        checker.check(case, json.dumps(data).encode())
    data["value"] = _recomputed_value(case, data)
    with pytest.raises(checker.CheckError, match="optimum"):
        checker.check(case, json.dumps(data).encode())


def _recomputed_value(case, data) -> str:
    pkg = package()
    inst = pkg.model.parse_instance(json.dumps(case.instance))
    schedule = pkg.engine.parse_sync_schedule(json.dumps(data["schedule"]), inst.m)
    return str(pkg.engine.evaluate(schedule, inst).total)
