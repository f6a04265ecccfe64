#!/usr/bin/env python3
"""Layered benchmark of the ``sharedsched`` command-line tool.

    python3 perfbench/run.py --workload equal-solve --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is taken from ``src/``.

``--trace 0`` measures end to end with a closed loop and one client:
one ``python -m sharedsched.cli`` process at a time, each started only
after the previous one was reaped and its output checked (the check is
outside the timed span).  ``--trace 1`` instead runs the same calls in
process through the benchmark's mirror of each CLI command, with a span
around every call into a package module, and reports per-layer figures.
Either way every output is checked exactly (``checker.py``) and, for the
default seed, its sha256 must match ``golden.json``.

Workloads (generators, sizes and the reason for each family are in
``families.py``):

* ``equal-solve``  - ``solve`` on equal-weight instances, n = 5000, m = 8
* ``equal-eval``   - ``eval`` of an ascending schedule, n = 4000, m = 8
* ``exhaustive``   - ``brute`` with n = 8, m = 1..3, mostly narrow-band p
* ``canonicalize`` - ``transform`` of interleaved and staircase schedules

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
lines before it print each metric by name and unit; the full record of
the run (provenance, every call, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checker
import families
import traced
from harness import (
    DEFAULT_SEED,
    OUT,
    digest,
    golden_digests,
    package,
    provenance,
    require_source,
    Spawner,
    write_case,
)

SETUP_REPEATS = 3
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s.p50": "s",
    "wall_s.tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.format_s": "s",
    "model.parse_instance_s": "s",
    "model.parse_jobs_per_s": "1/s",
    "engine.parse_sync_schedule_s": "s",
    "engine.evaluate_s": "s",
    "engine.evaluate_jobs_per_s": "1/s",
    "dyadic.self_s": "s_profiled",
    "dyadic.str_s": "s",
    "dyadic.max_exponent": "count",
    "solvers.solve_equal_weights_s": "s",
    "solvers.brute_force_s": "s",
    "solvers.search_subset_s": "s",
    "solvers.search_assign_s": "s",
    "transforms.parse_general_schedule_s": "s",
    "transforms.normalize_s": "s",
    "transforms.compact_idle_s": "s",
    "transforms.merge_preemptions_s": "s",
    "transforms.reorder_s": "s",
    "transforms.rebalance_s": "s",
    "transforms.value_general_s": "s",
    "transforms.rebalance_steps": "count",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.errors": "count" for layer in traced.LAYERS},
}

# per-layer time metric -> the span whose per-call median it is
SPAN_METRICS = {
    "cli.format_s": "cli.format",
    "model.parse_instance_s": "model.parse_instance",
    "engine.parse_sync_schedule_s": "engine.parse_sync_schedule",
    "engine.evaluate_s": "engine.evaluate",
    "dyadic.str_s": "dyadic.str",
    "solvers.solve_equal_weights_s": "solvers.solve_equal_weights",
    "solvers.brute_force_s": "solvers.brute_force",
    "solvers.search_subset_s": "solvers.search_subset",
    "transforms.parse_general_schedule_s": "transforms.parse_general_schedule",
    "transforms.normalize_s": "transforms.normalize",
    "transforms.compact_idle_s": "transforms.compact_idle",
    "transforms.merge_preemptions_s": "transforms.merge_preemptions",
    "transforms.reorder_s": "transforms.reorder",
    "transforms.value_general_s": "transforms.value_general",
}
# per-layer throughput metric -> the span it divides the job count by
RATE_METRICS = {
    "model.parse_jobs_per_s": "model.parse_instance",
    "engine.evaluate_jobs_per_s": "engine.evaluate",
}
# what synchronize_detailed runs besides rebalancing, as breakdown spans
NON_REBALANCE = tuple(
    f"transforms.{name}" for name in ("normalize", "compact_idle", "merge_preemptions", "reorder", "value_general")
)


def _median(values: list[float]) -> float:
    """Median, or 0 for a layer that did not run in this workload."""
    return statistics.median(values) if values else 0.0


def verify(case, stdout: bytes, golden: list[str] | None, index: int) -> str | None:
    """Why the output is wrong, or None when it is exactly right."""
    try:
        checker.check(case, stdout)
    except checker.CheckError as exc:
        return f"checker: {exc}"
    if golden is not None and digest(stdout) != golden[index]:
        return "stdout differs from the digest recorded for the default seed"
    return None


class Bench:
    """One workload at one seed: its inputs on disk and how to run them."""

    def __init__(self, workload: str, seed: int, spawner: Spawner):
        self.workload = workload
        self.seed = seed
        self.work = spawner.work
        self.spawner = spawner
        self.golden = golden_digests(workload, seed, "bench")
        self.pool: list[families.Case] = []
        self.argvs: list[list[str]] = []
        self.paths: list[list[Path]] = []

    def call(self, argv: list[str]):
        return self.spawner.run(argv)

    def setup(self) -> float:
        """Generate and write the inputs and make one untimed warm-up call,
        so byte-compilation and file caching land here, not in the loop."""
        started = time.perf_counter()
        inputs = self.work / "inputs"
        if inputs.exists():
            shutil.rmtree(inputs)
        inputs.mkdir(parents=True)
        self.pool = families.build_pool(self.workload, self.seed)
        written = [write_case(case, inputs, idx) for idx, case in enumerate(self.pool)]
        self.argvs = [argv for argv, _ in written]
        self.paths = [paths for _, paths in written]
        warm = self.call(self.argvs[0])
        elapsed = time.perf_counter() - started
        problem = warm.failure() or verify(self.pool[0], warm.stdout, self.golden, 0)
        if problem is not None:
            tail = warm.stderr.decode(errors="replace")[-2000:]
            raise SystemExit(f"perfbench: warm-up call failed ({problem})\n{tail}")
        return elapsed

    # -- end to end ----------------------------------------------------------

    def closed_loop(self, seconds: float) -> list[tuple[int, object, str | None]]:
        calls = []
        started = time.perf_counter()
        while not calls or time.perf_counter() - started < seconds:
            index = len(calls) % len(self.pool)
            call = self.call(self.argvs[index])
            problem = call.failure() or verify(self.pool[index], call.stdout, self.golden, index)
            calls.append((index, call, problem))
        return calls

    def end_to_end(self, seconds: float, setup_times: list[float]) -> tuple[dict, dict, int, list[str]]:
        calls = self.closed_loop(seconds)
        walls = sorted(call.wall_s for _, call, _ in calls)
        # highest percentile with TAIL_BEYOND samples above it (the maximum
        # when there are too few calls for that)
        tail = len(walls) - TAIL_BEYOND - 1 if len(walls) > TAIL_BEYOND else len(walls) - 1
        problems = [f"{self.pool[index].label}: {problem}" for index, _, problem in calls if problem]
        metrics = {
            "wall_s.p50": statistics.median(walls),
            "wall_s.tail": walls[tail],
            "jobs_per_s": sum(self.pool[index].n for index, _, problem in calls if problem is None) / sum(walls),
            "peak_rss_mb": max(call.maxrss_mb for _, call, _ in calls),
            "setup_s": statistics.median(setup_times),
        }
        notes = {
            "wall_s.tail": f"p{100 * (tail + 1) / len(walls):.1f} of {len(walls)} calls, "
            f"{len(walls) - tail - 1} beyond",
            "setup_s": f"median of {len(setup_times)} set-ups",
        }
        record = [
            {"case": self.pool[index].label, "wall_s": call.wall_s, "maxrss_mb": call.maxrss_mb, "problem": problem}
            for index, call, problem in calls
        ]
        return metrics, {"notes": notes, "calls": record}, len(calls), problems

    # -- traced ----------------------------------------------------------------

    def traced(self, seconds: float) -> tuple[dict, dict, int, list[str]]:
        """Per-layer figures from in-process runs of each case: traced,
        untraced (for the overhead) and, on a case's first visit, as a CLI
        process whose stdout must equal the traced bytes."""
        pkg = package()
        problems = []
        imports = [self.call([sys.executable, "-c", "import sharedsched.cli"]) for _ in range(IMPORT_SAMPLES)]
        problems += [f"import-only process: {call.failure()}" for call in imports if call.failure()]
        first = self.pool[0]
        profile = traced.profile_self_time(pkg, first.command, self.paths[0], first.extra_args)

        tracer = traced.Tracer()
        facts: dict[int, dict] = {}
        walls = {"traced": [], "untraced": []}
        started = time.perf_counter()
        while not facts or time.perf_counter() - started < seconds:
            index = len(facts) % len(self.pool)
            case = self.pool[index]
            tracer.op = len(facts) + 1
            facts[tracer.op] = {"n": case.n}
            try:
                outputs = self._traced_case(tracer, pkg, index, walls)
            except Exception as exc:  # a library failure fails this case, not the run
                problems.append(f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            out, plain, emitted, state = outputs
            facts[tracer.op]["max_exponent"] = max(d.exponent for d in emitted)
            if "report" in state:
                facts[tracer.op]["rebalance_steps"] = state["report"].rebalance_steps
            problem = None if plain == out else "traced and untraced outputs differ"
            if problem is None and tracer.op <= len(self.pool):
                call = self.call(self.argvs[index])
                problem = call.failure() or verify(case, out, self.golden, index)
                if problem is None and call.stdout != out:
                    problem = "traced output bytes differ from the CLI's stdout"
            if problem is not None:
                problems.append(f"{case.label}: {problem}")

        metrics = self._layer_metrics(tracer, facts, walls)
        metrics["dyadic.self_s"] = profile.get("dyadic.py", 0.0)
        metrics["cli.import_s"] = statistics.median(call.wall_s for call in imports)
        (self.work / "spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}),
            encoding="utf-8",
        )
        notes = {
            "dyadic.self_s": "cProfile self time of dyadic.py, profiler-inflated",
            "trace.overhead_frac": f"over {len(walls['traced'])} traced and untraced runs",
        }
        detail = {"notes": notes, "profile_self_s": profile, "traced_ops": len(facts)}
        return metrics, detail, len(facts) + len(imports), problems

    def _traced_case(self, tracer, pkg, index: int, walls: dict):
        case = self.pool[index]
        pipeline = traced.PIPELINES[case.command]
        args = (pkg, self.paths[index], case.extra_args)
        # alternate which run goes first so neither always finds the caches warm
        for kind in ("traced", "untraced") if tracer.op % 2 else ("untraced", "traced"):
            begin = time.perf_counter()
            if kind == "traced":
                out, emitted, state = pipeline(tracer, *args)
            else:
                plain, _, _ = pipeline(traced.Untraced, *args)
            walls[kind].append(time.perf_counter() - begin)
        traced.breakdown(tracer, pkg, case.command, state)
        return out, plain, emitted, state

    def _layer_metrics(self, tracer, facts: dict, walls: dict) -> dict:
        ops = traced.op_durations(tracer.spans)

        def per_op(span: str) -> list[float]:
            return [spans[span] for spans in ops.values() if span in spans]

        metrics = {metric: _median(per_op(span)) for metric, span in SPAN_METRICS.items()}
        for metric, span in RATE_METRICS.items():
            metrics[metric] = _median([facts[op]["n"] / spans[span] for op, spans in ops.items() if span in spans])
        metrics["solvers.search_assign_s"] = _median(
            [s["solvers.search"] - s["solvers.search_subset"] for s in ops.values() if "solvers.search" in s]
        )
        metrics["transforms.rebalance_s"] = _median(
            [
                s["transforms.synchronize_detailed"] - sum(s[name] for name in NON_REBALANCE)
                for s in ops.values()
                if "transforms.reorder" in s
            ]
        )
        metrics["transforms.rebalance_steps"] = _median(
            [fact["rebalance_steps"] for fact in facts.values() if "rebalance_steps" in fact]
        )
        metrics["dyadic.max_exponent"] = max((fact.get("max_exponent", 0) for fact in facts.values()))
        traced_total, untraced_total = sum(walls["traced"]), sum(walls["untraced"])
        metrics["trace.overhead_frac"] = traced_total / untraced_total - 1 if untraced_total else 0.0
        for layer in traced.LAYERS:
            metrics[f"{layer}.errors"] = tracer.errors[layer]
        return metrics

    # -- correctness beyond the CLI ---------------------------------------------

    def twin_check(self) -> tuple[int, list[str]]:
        """Bit-identity of the compiled search kernel and its pure twin on
        every ``brute`` case; runs whenever the compiled kernel imports."""
        if not any(case.command == "brute" for case in self.pool):
            return 0, []
        pkg = package()
        try:
            from sharedsched import _permsearch_cy
        except ImportError:
            return 0, []
        problems = []
        for case in self.pool:
            inst = pkg.model.parse_instance(json.dumps(case.instance))
            ps, ws = traced.scaled_integers(inst)
            if pkg.permsearch.search(ps, ws, inst.m) != _permsearch_cy.search(ps, ws, inst.m):
                problems.append(f"{case.label}: compiled and pure search kernels disagree")
        return len(self.pool), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    # the spawner starts first, while this process is still small
    with Spawner(OUT / f"{args.workload}-seed{args.seed}") as spawner:
        bench = Bench(args.workload, args.seed, spawner)
        setup_times = [bench.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **provenance(bench.pool)}
        print(
            f"{args.workload} seed {args.seed}: {len(bench.pool)} cases, n {record['n']}, m {record['m']}, "
            f"backend {record['backend']}, python {record['python']}, git {record['git_sha'][:12]}"
        )
        if args.trace:
            metrics, detail, attempted, problems = bench.traced(args.seconds)
            units = PER_LAYER
        else:
            metrics, detail, attempted, problems = bench.end_to_end(args.seconds, setup_times)
            units = END_TO_END
    checked, twin_problems = bench.twin_check()
    attempted += checked
    problems += twin_problems

    for name, unit in units.items():
        note = detail["notes"].get(name, "")
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit:<10} {note}".rstrip())
    print(f"  {'failed_frac':<38} {len(problems) / attempted:>14.6g} {'ratio':<10} {len(problems)}/{attempted}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    record.update(metrics=metrics, units=units, problems=problems, **detail)
    (bench.work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
