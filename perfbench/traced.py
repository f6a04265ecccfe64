"""In-process traced run: the CLI's sequence of public calls, one span per
layer boundary.

Each ``_pipeline_*`` function mirrors one CLI subcommand call for call
and returns the exact stdout bytes the CLI would print, so the traced
run can assert byte equality with a real CLI process.  Spans are kept in
memory as ``[name, start, end, parent, op]`` and written out at the end;
a span's layer is the part of its name before the first dot (the
package module it enters, or ``cli`` for the command's own reading and
formatting).  The same pipelines also run without spans, to measure
what tracing costs, and under ``cProfile`` for the profiler-inflated
self time of each package module.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from harness import SRC

LAYERS = ("cli", "model", "engine", "dyadic", "solvers", "transforms")


class Tracer:
    """Records spans and counts the exceptions leaving each layer."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._last_error = None

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except Exception as exc:
            if exc is not self._last_error:  # count once, at the innermost span
                self._last_error = exc
                self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()


class Untraced:
    """The same interface as :class:`Tracer`, recording nothing."""

    @staticmethod
    def span(name: str):
        return nullcontext()


def _read(tr, path: Path) -> str:
    with tr.span("cli.read"):
        return path.read_text(encoding="utf-8")


def _schedule_json(tr, pkg, schedule) -> dict:
    with tr.span("engine.serialize_sync_schedule"):
        text = pkg.engine.serialize_sync_schedule(schedule)
    return json.loads(text)


def _emit(data: dict) -> bytes:
    return (json.dumps(data, sort_keys=True) + "\n").encode()


def _pipeline_solve(tr, pkg, paths, extra):
    text = _read(tr, paths[0])
    with tr.span("model.parse_instance"):
        inst = pkg.model.parse_instance(text)
    with tr.span("solvers.solve_equal_weights"):
        schedule = pkg.solvers.solve_equal_weights(inst)
    with tr.span("engine.evaluate"):
        report = pkg.engine.evaluate(schedule, inst)
    with tr.span("cli.format"):
        with tr.span("dyadic.str"):
            value = str(report.total)
        out = _emit({"schedule": _schedule_json(tr, pkg, schedule), "value": value})
    return out, [report.total], {"inst": inst}


def _pipeline_eval(tr, pkg, paths, extra):
    text = _read(tr, paths[0])
    with tr.span("model.parse_instance"):
        inst = pkg.model.parse_instance(text)
    schedule_text = _read(tr, paths[1])
    with tr.span("engine.parse_sync_schedule"):
        schedule = pkg.engine.parse_sync_schedule(schedule_text, inst.m)
    with tr.span("model.job"):
        for job_id in schedule.scheduled_ids():
            inst.job(job_id)
    with tr.span("engine.evaluate"):
        report = pkg.engine.evaluate(schedule, inst)
    with tr.span("cli.format"):
        with tr.span("dyadic.str"):
            procs = [
                (proc, [str(t) for t in proc.start_times], [str(t) for t in proc.overlaps])
                for proc in report.processors
            ]
            job_overlaps = {job_id: str(t) for job_id, t in report.job_overlaps.items()}
            total = str(report.total)
        out = _emit(
            {
                "processors": [
                    {"id": proc.id, "order": list(proc.order), "start_times": starts, "overlaps": bars}
                    for proc, starts, bars in procs
                ],
                "job_overlaps": job_overlaps,
                "total": total,
            }
        )
    emitted = [t for proc in report.processors for t in (*proc.start_times, *proc.overlaps)]
    return out, emitted + [report.total], {"inst": inst}


def _pipeline_brute(tr, pkg, paths, extra):
    text = _read(tr, paths[0])
    with tr.span("model.parse_instance"):
        inst = pkg.model.parse_instance(text)
    with tr.span("solvers.SearchLimits"):
        limits = pkg.solvers.SearchLimits(max_jobs=int(extra[extra.index("--max-jobs") + 1]))
    with tr.span("solvers.brute_force"):
        schedule, value = pkg.solvers.brute_force(inst, limits)
    with tr.span("cli.format"):
        with tr.span("dyadic.str"):
            value_text = str(value)
        out = _emit({"schedule": _schedule_json(tr, pkg, schedule), "value": value_text})
    return out, [value], {"inst": inst}


def _pipeline_transform(tr, pkg, paths, extra):
    text = _read(tr, paths[0])
    with tr.span("model.parse_instance"):
        inst = pkg.model.parse_instance(text)
    general_text = _read(tr, paths[1])
    with tr.span("transforms.parse_general_schedule"):
        general = pkg.transforms.parse_general_schedule(general_text)
    with tr.span("transforms.synchronize_detailed"):
        report = pkg.transforms.synchronize_detailed(general, inst)
    with tr.span("cli.format"):
        delta = report.value_after - report.value_before
        with tr.span("dyadic.str"):
            before, after, delta_text = str(report.value_before), str(report.value_after), str(delta)
        out = _emit(
            {
                "schedule": _schedule_json(tr, pkg, report.schedule),
                "value_before": before,
                "value_after": after,
                "value_delta": delta_text,
            }
        )
    emitted = [report.value_before, report.value_after, delta]
    return out, emitted, {"inst": inst, "general": general, "report": report}


# CLI subcommand -> pipeline(tracer, package, input paths, extra args)
# returning (stdout bytes, emitted Dyadic values, state for breakdown)
PIPELINES = {
    "solve": _pipeline_solve,
    "eval": _pipeline_eval,
    "brute": _pipeline_brute,
    "transform": _pipeline_transform,
}


def scaled_integers(inst) -> tuple[list[int], list[int]]:
    """Processing times and weights with denominators cleared by one power
    of two each, the search kernel's input."""
    pe = max(job.p.exponent for job in inst.jobs)
    we = max(job.w.exponent for job in inst.jobs)
    return (
        [job.p.mantissa << (pe - job.p.exponent) for job in inst.jobs],
        [job.w.mantissa << (we - job.w.exponent) for job in inst.jobs],
    )


def breakdown(tr, pkg, command: str, state: dict) -> None:
    """Phases that the CLI runs inside one library call, timed by calling
    them again one by one: the search kernel's two phases for ``brute``
    (with the kernel the backend selects), the four canonicalization
    passes in order plus both valuations for ``transform``."""
    inst = state["inst"]
    if command == "brute":
        kernel = pkg.permsearch
        if pkg.solvers.search_backend() == "compiled":
            from sharedsched import _permsearch_cy as kernel
        ps, ws = scaled_integers(inst)
        with tr.span("solvers.search"):
            kernel.search(ps, ws, inst.m)
        with tr.span("solvers.search_subset"):
            for mask in range(1, 1 << len(ps)):
                kernel.subset_best(ps, ws, mask)
    elif command == "transform":
        work = state["general"]
        with tr.span("transforms.value_general"):
            pkg.transforms.value_general(work, inst)
        for name in ("normalize", "compact_idle", "merge_preemptions", "reorder"):
            with tr.span(f"transforms.{name}"):
                work = getattr(pkg.transforms, name)(work)
        with tr.span("transforms.value_general"):
            pkg.transforms.value_general(state["report"].general, inst)


def profile_self_time(pkg, command: str, paths, extra) -> dict[str, float]:
    """``cProfile`` self time per package module file over one pipeline run."""
    profiler = cProfile.Profile()
    profiler.runcall(PIPELINES[command], Untraced, pkg, paths, extra)
    by_file: dict[str, float] = defaultdict(float)
    package_dir = str(SRC / "sharedsched")
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        if filename.startswith(package_dir):
            by_file[Path(filename).name] += tottime
    return dict(by_file)


def op_durations(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per operation, the summed duration of each span name."""
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, op in spans:
        ops[op][name] += end - start
    return ops
