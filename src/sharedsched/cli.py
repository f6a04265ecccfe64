"""Command-line front end.

Subcommands:

* ``solve``        equal-weight exact solver
* ``brute``        exhaustive oracle (small instances)
* ``eval``         evaluate a synchronized schedule
* ``transform``    canonicalize a general schedule to synchronized form
* ``check``        structural property report (v-shape, ordered, ...)
* ``gen-n3dm``     generate a hard instance from a matching input
* ``decide-n3dm``  exhaustively decide a small matching input
* ``gantt``        time-proportional ASCII chart

Exit codes are stable: 0 ok, 2 parse/validation error, 3 wrong solver
for the instance, 4 size limit exceeded (including a literal whose
exponent is above the parser's bound, a value too long to print in
decimal and a ``gantt --width`` above ``_MAX_WIDTH``), 5 infeasible or
invalid schedule.  All numeric output is exact dyadic strings; identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine
from .dyadic import Dyadic
from .model import Instance, InstanceError, _load_json, parse_instance, serialize_instance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_WRONG_SOLVER = 3
EXIT_TOO_LARGE = 4
EXIT_INFEASIBLE = 5

_PROPERTIES = ("v-shape", "ordered", "synchronized", "inclusive")

# gantt builds every row at full width, so its memory and output grow with it
_MAX_WIDTH = 10_000


class OutputTooLargeError(Exception):
    """Output refused for its size: a value whose decimal form exceeds
    Python's int-to-str digit limit, or a chart wider than ``_MAX_WIDTH``."""


def _text(value: Dyadic) -> str:
    try:
        return str(value)
    except ValueError as exc:  # str(int) refuses past sys.get_int_max_str_digits()
        raise OutputTooLargeError(
            f"a result value has more than {sys.get_int_max_str_digits()} decimal digits"
        ) from exc


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True))


def _read(path: str) -> bytes:
    # bytes: model._load_json decodes them, so non-UTF-8 input is a parse error
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _schedule_json(schedule: engine.SyncSchedule) -> dict:
    return json.loads(engine.serialize_sync_schedule(schedule))


def _report_json(report: engine.EvalReport) -> dict:
    processors = []
    texts = {}  # job id -> its formatted overlap, shared by both listings
    for proc in report.processors:
        overlaps = [_text(t) for t in proc.overlaps]
        texts.update(zip(proc.order, overlaps))
        processors.append(
            {
                "id": proc.id,
                "order": list(proc.order),
                "start_times": [_text(t) for t in proc.start_times],
                "overlaps": overlaps,
            }
        )
    return {
        "processors": processors,
        "job_overlaps": {
            job_id: texts[job_id] if job_id in texts else _text(t)
            for job_id, t in report.job_overlaps.items()
        },
        "total": _text(report.total),
    }


# Commands import solvers, transforms and hardness only when they use them,
# so each process loads (and compiles) just the modules its command needs.


def _cmd_solve(args) -> int:
    from . import solvers

    inst = _load_instance(args.instance)
    schedule = solvers.solve_equal_weights(inst)
    report = engine.evaluate(schedule, inst)
    _emit({"schedule": _schedule_json(schedule), "value": _text(report.total)})
    return EXIT_OK


def _cmd_brute(args) -> int:
    from . import solvers

    inst = _load_instance(args.instance)
    limits = solvers.SearchLimits(max_jobs=args.max_jobs)
    schedule, value = solvers.brute_force(inst, limits)
    _emit({"schedule": _schedule_json(schedule), "value": _text(value)})
    return EXIT_OK


def _cmd_eval(args) -> int:
    inst = _load_instance(args.instance)
    schedule = _sync_schedule(_read(args.schedule), inst)
    report = engine.evaluate(schedule, inst)
    _emit(_report_json(report))
    return EXIT_OK


def _cmd_transform(args) -> int:
    from . import transforms

    inst = _load_instance(args.instance)
    general = transforms.parse_general_schedule(_read(args.schedule))
    report = transforms.synchronize_detailed(general, inst)
    _emit(
        {
            "schedule": _schedule_json(report.schedule),
            "value_before": _text(report.value_before),
            "value_after": _text(report.value_after),
            "value_delta": _text(report.value_after - report.value_before),
        }
    )
    return EXIT_OK


def _sync_schedule(text: bytes, inst: Instance) -> engine.SyncSchedule:
    """Parse a synchronized schedule; unknown job ids are a parse-level
    error, reported for the first one in processor order."""
    schedule = engine.parse_sync_schedule(text, inst.m)
    for seq in schedule.sequences:
        for job_id in seq:
            inst.job(job_id)
    return schedule


def _sequences_for_check(text: bytes, inst: Instance):
    """Either schedule format, reduced to per-processor job-id orders
    plus (for the general format) the parsed schedule itself."""
    data = _load_json(text)
    if isinstance(data, dict) and "processors" in data:
        return _sync_schedule(text, inst).sequences, None
    from . import transforms

    general = transforms.parse_general_schedule(text)
    violations = transforms.validate(general, inst)
    if violations:
        raise transforms.InvalidScheduleError(violations)
    sequences = tuple(
        tuple(job_id for _, _, job_id in general.chunks_on(proc))
        for proc in range(1, inst.m + 1)
    )
    return sequences, general


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    wanted = args.properties.split(",") if args.properties else list(_PROPERTIES)
    for name in wanted:
        if name not in _PROPERTIES:
            raise InstanceError(
                f"unknown property {name!r}; choose from {', '.join(_PROPERTIES)}"
            )
    sequences, general = _sequences_for_check(_read(args.schedule), inst)
    results = {}
    for name in wanted:
        failures = []
        if name == "v-shape":
            for proc, seq in enumerate(sequences, start=1):
                if not engine.is_v_shaped([inst.job(j) for j in seq]):
                    failures.append(f"processor {proc}: order {list(seq)} is not V-shaped")
        elif name in ("ordered", "synchronized"):
            if general is not None:
                from . import transforms

                holds = transforms.is_ordered if name == "ordered" else transforms.is_synchronized
                if not holds(general):
                    failures.append(f"schedule is not {name}")
            else:
                # a synchronized schedule is ordered and synchronized exactly when feasible
                for proc, seq in enumerate(sequences, start=1):
                    bad = engine.check_feasible([inst.job(j) for j in seq])
                    if bad is not None:
                        failures.append(f"processor {proc}: infeasible at position {bad}")
        elif name == "inclusive":
            if not engine.is_processing_time_inclusive(inst.jobs):
                failures.append("job set is not processing-time-inclusive")
            if not engine.is_weight_inclusive(inst.jobs):
                failures.append("job set is not weight-inclusive")
        results[name] = {"pass": not failures, "failures": failures}
    _emit({"properties": results})
    return EXIT_OK


def _cmd_gen_n3dm(args) -> int:
    from . import hardness

    inp = hardness.parse_n3dm(_read(args.n3dm))
    hi = hardness.gen_instance(inp)
    instance_json = serialize_instance(hi.instance)
    provenance_json = hardness.serialize_provenance(hi)
    if args.out:
        out = Path(args.out)
        sidecar_name = (
            out.name[: -len(".json")] if out.name.endswith(".json") else out.name
        ) + ".provenance.json"
        out.write_text(instance_json + "\n", encoding="utf-8")
        (out.parent / sidecar_name).write_text(provenance_json + "\n", encoding="utf-8")
        _emit({"M": hi.M, "m_param": hi.m_param, "K": hi.K})
    else:
        _emit(
            {
                "M": hi.M,
                "m_param": hi.m_param,
                "K": hi.K,
                "instance": json.loads(instance_json),
                "provenance": json.loads(provenance_json),
            }
        )
    return EXIT_OK


def _cmd_decide_n3dm(args) -> int:
    from . import hardness

    inp = hardness.parse_n3dm(_read(args.n3dm))
    solvable, witness = hardness.decide(inp)
    _emit(
        {
            "solvable": solvable,
            "witness": [list(triple) for triple in witness] if witness else None,
        }
    )
    return EXIT_OK


def _bar_column(t: Dyadic, horizon: Dyadic, width: int) -> int:
    # floor(t * width / horizon) in exact integer arithmetic
    num = (t.mantissa << horizon.exponent) * width
    den = horizon.mantissa << t.exponent
    return num // den


def _cmd_gantt(args) -> int:
    width = args.width
    if width > _MAX_WIDTH:
        raise OutputTooLargeError(f"--width {width} exceeds the limit of {_MAX_WIDTH} columns")
    inst = _load_instance(args.instance)
    schedule = _sync_schedule(_read(args.schedule), inst)
    report = engine.evaluate(schedule, inst)
    private_end = {job.id: job.p for job in inst.jobs}
    for proc in report.processors:
        # synchronized: a shared job's private span ends with its shared one
        private_end.update(zip(proc.order, proc.start_times[1:]))
    horizon = max(private_end.values(), default=Dyadic(0))
    lines = [f"time 0..{_text(horizon)}  ({width} columns)"]
    labels = [f"M{proc.id}" for proc in report.processors]
    labels += [f"P {job.id}" for job in inst.jobs]
    pad = max((len(label) for label in labels), default=0)
    if horizon.sign <= 0:
        for label in labels:
            lines.append(f"{label.ljust(pad)} |{' ' * width}|")
    else:
        for proc in report.processors:
            cells = [" "] * width
            for start, end, job_id in zip(proc.start_times, proc.start_times[1:], proc.order):
                lo = _bar_column(start, horizon, width)
                hi = max(_bar_column(end, horizon, width), lo + 1)
                hi = min(hi, width)
                fill = (job_id * ((hi - lo) // len(job_id) + 1))[: hi - lo]
                cells[lo:hi] = list(fill)
            lines.append(f"{f'M{proc.id}'.ljust(pad)} |{''.join(cells)}|")
        for job in inst.jobs:
            cells = [" "] * width
            hi = max(_bar_column(private_end[job.id], horizon, width), 1)
            hi = min(hi, width)
            cells[0:hi] = ["="] * hi
            lines.append(f"{f'P {job.id}'.ljust(pad)} |{''.join(cells)}|")
    print("\n".join(lines))
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharedsched",
        description="Exact tools for shared-processor overlap scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact solver for equal weights")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute", help="exhaustive exact search")
    p.add_argument("instance")
    p.add_argument("--max-jobs", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("eval", help="evaluate a synchronized schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transform", help="canonicalize a general schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--to", choices=["synchronized"], default="synchronized")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check", help="schedule/instance property report")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--properties", default="")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen-n3dm", help="generate a hard instance from a matching input")
    p.add_argument("n3dm")
    p.add_argument("--out", default=None, help="write instance here plus a .provenance.json sidecar")
    p.set_defaults(func=_cmd_gen_n3dm)

    p = sub.add_parser("decide-n3dm", help="exhaustively decide a small matching input")
    p.add_argument("n3dm")
    p.set_defaults(func=_cmd_decide_n3dm)

    p = sub.add_parser("gantt", help="ASCII chart of a synchronized schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument(
        "--width",
        type=_positive_int,
        default=60,
        help=f"chart columns, 1 to {_MAX_WIDTH} (default 60); a wider chart exits 4",
    )
    p.set_defaults(func=_cmd_gantt)

    return parser


# (module, exception class, exit code), tried in order
_EXIT_CODES = (
    ("model", "InstanceError", EXIT_PARSE),
    ("solvers", "UnequalWeightsError", EXIT_WRONG_SOLVER),
    ("solvers", "InstanceTooLargeError", EXIT_TOO_LARGE),
    ("engine", "InfeasibleScheduleError", EXIT_INFEASIBLE),
    ("transforms", "InvalidScheduleError", EXIT_INFEASIBLE),
    ("transforms", "PreconditionError", EXIT_INFEASIBLE),
)


def _exit_code(exc: Exception) -> int | None:
    """The documented exit code for an error, or None for an unexpected one.

    Classes are looked up in ``sys.modules`` only: a module never imported
    cannot have raised, and importing it here would cost every command.
    """
    if isinstance(exc, (OutputTooLargeError, OverflowError)):
        return EXIT_TOO_LARGE
    for module, name, code in _EXIT_CODES:
        cls = getattr(sys.modules.get(f"{__package__}.{module}"), name, None)
        if cls is not None and isinstance(exc, cls):
            return code
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
