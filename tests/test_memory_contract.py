"""The memory an ``eval`` or ``solve`` run holds follows the instance,
not its report.

A report's start times on a processor with k jobs carry about k more
binary digits each, so the ``eval`` report of n jobs on m processors
grows like n * n/m characters and outgrows the instance.  The CLI writes
it in chunks of a few hundred jobs or one processor, and
``parse_instance`` frees each decoded job entry once it has read it.  On
one seeded run of n = 4,000 jobs on m = 8 processors, in process, this
module checks that:

* the output is ``json.dumps`` of the report's fields, as the CLI printed
  it before it wrote from integers (:func:`replaced_report_json`);
* no single write holds more than a quarter of the output;
* the ``tracemalloc`` peak of the whole call stays within
  ``EVAL_PEAK_RATIO`` times the output's length;
* the ``tracemalloc`` peak of ``parse_instance`` stays within
  ``PARSE_PEAK_RATIO`` times the memory it leaves held;
* ``solve`` on the same instance prints what the route it replaced
  printed (:func:`replaced_solve_text`), and its ``tracemalloc`` peak stays
  within ``SOLVE_PEAK_RATIO`` times that of reading and parsing the
  instance: it prints from the deal's job lists, one integer walk per
  processor, and builds no report.

The module imports neither pytest nor the test helpers, so it runs on any
supported interpreter and prints its ratios::

    PYTHONPATH=src python tests/test_memory_contract.py
"""

import contextlib
import hashlib
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

from sharedsched.cli import main
from sharedsched.engine import _schedule_data, evaluate, parse_sync_schedule
from sharedsched.model import parse_instance
from sharedsched.solvers import solve_equal_weights

N, M, SEED = 4_000, 8, 0
EVAL_PEAK_RATIO = 2.5
PARSE_PEAK_RATIO = 1.5
SOLVE_PEAK_RATIO = 1.05


def replaced_report_json(report):
    """The eval report as the CLI built it before it printed from integers:
    a dict of ``str`` of each ``Dyadic`` field, for ``json.dumps``."""
    return {
        "processors": [
            {
                "id": proc.id,
                "order": list(proc.order),
                "start_times": [str(t) for t in proc.start_times],
                "overlaps": [str(b) for b in proc.overlaps],
            }
            for proc in report.processors
        ],
        "job_overlaps": {job_id: str(value) for job_id, value in report.job_overlaps.items()},
        "total": str(report.total),
    }


def replaced_solve_text(inst) -> str:
    """``solve``'s stdout as the CLI printed it before it printed from the
    deal: the solver's schedule, evaluated through ``evaluate``'s report."""
    schedule = solve_equal_weights(inst)
    data = {"schedule": _schedule_data(schedule), "value": str(evaluate(schedule, inst).total)}
    return json.dumps(data, sort_keys=True) + "\n"


def documents(seed: int = SEED) -> tuple[str, str]:
    """An equal-weight instance with ``p`` uniform in 1..10^6, and its jobs
    dealt round robin in shuffled order, each processor ascending in ``p``
    (an ascending order is always feasible)."""
    rng = random.Random(seed)
    w = str(rng.randint(1, 100))
    jobs = [{"id": f"j{i}", "p": str(rng.randint(1, 10**6)), "w": w} for i in range(N)]
    dealt = rng.sample(jobs, N)
    orders = [sorted(dealt[k::M], key=lambda job: (int(job["p"]), job["id"])) for k in range(M)]
    schedule = [{"id": k + 1, "order": [job["id"] for job in order]} for k, order in enumerate(orders)]
    return json.dumps({"m": M, "jobs": jobs}), json.dumps({"processors": schedule})


class Sink:
    """A stdout that keeps the length of each write and a digest of the text,
    but not the text, so that it adds nothing to a traced peak."""

    def __init__(self):
        self.sizes = []
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        self.digest.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def traced(call):
    """``call()``'s result, and its ``tracemalloc`` peak and held bytes."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def measure(seed: int = SEED) -> dict:
    """One traced ``eval`` run and one traced ``parse_instance`` call."""
    instance, schedule = documents(seed)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "instance.json"), Path(tmp, "schedule.json")]
        for path, text in zip(paths, (instance, schedule)):
            path.write_text(text, encoding="utf-8")
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            code, eval_peak, _ = traced(lambda: main(["eval", *map(str, paths)]))
    text = instance.encode()
    inst, parse_peak, parse_held = traced(lambda: parse_instance(text))
    report = evaluate(parse_sync_schedule(schedule, M), inst)
    expected = json.dumps(replaced_report_json(report), sort_keys=True) + "\n"
    output = sum(sink.sizes)
    return {
        "exit code": code,
        "output matches": sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest(),
        "output chars": output,
        "writes": len(sink.sizes),
        "largest write / output": max(sink.sizes) / output,
        "eval peak / output": eval_peak / output,
        "parse peak / held": parse_peak / parse_held,
    }


def measure_solve(seed: int = SEED) -> dict:
    """One traced ``solve`` run, after an untraced one, and one traced read
    and parse of its instance.  The parse's peak, the decoded document beside
    the jobs, is also the most a ``solve`` that keeps nothing per processor
    past its walk holds; a report's start times held beside the jobs lift
    the ratio to about 1.1."""
    instance, _ = documents(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "instance.json")
        path.write_text(instance, encoding="utf-8")
        sink = Sink()
        with contextlib.redirect_stdout(Sink()):
            # a first call makes what a process makes once (imports, lazy caches)
            main(["solve", str(path)])
        with contextlib.redirect_stdout(sink):
            code, solve_peak, _ = traced(lambda: main(["solve", str(path)]))
        inst, parse_peak, _ = traced(lambda: parse_instance(path.read_bytes()))
    expected = replaced_solve_text(inst)
    return {
        "solve exit code": code,
        "solve output matches": sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest(),
        "solve peak / parse peak": solve_peak / parse_peak,
    }


def check(result: dict) -> None:
    assert result["exit code"] == 0 and result["output matches"], result
    assert result["largest write / output"] <= 1 / 4, result
    assert result["eval peak / output"] <= EVAL_PEAK_RATIO, result
    assert result["parse peak / held"] <= PARSE_PEAK_RATIO, result


def check_solve(result: dict) -> None:
    assert result["solve exit code"] == 0 and result["solve output matches"], result
    assert result["solve peak / parse peak"] <= SOLVE_PEAK_RATIO, result


def test_eval_memory_follows_the_instance():
    check(measure())


def test_solve_memory_follows_the_instance():
    check_solve(measure_solve())


if __name__ == "__main__":
    result, solve_result = measure(), measure_solve()
    for name, value in {**result, **solve_result}.items():
        print(f"{name:>24}  {value:.3f}" if isinstance(value, float) else f"{name:>24}  {value}")
    check(result)
    check_solve(solve_result)
