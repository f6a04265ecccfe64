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
invalid schedule, 141 stdout closed by its reader before the output
ended (128 + SIGPIPE, as a shell reports a piped tool), with no
traceback.  All numeric output is exact dyadic strings; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import engine
from .dyadic import ZERO, _make, _quoted
from .model import Instance, InstanceError, Job, _instance_data, _load_json, parse_instance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_WRONG_SOLVER = 3
EXIT_TOO_LARGE = 4
EXIT_INFEASIBLE = 5
EXIT_BROKEN_PIPE = 141

_PROPERTIES = ("v-shape", "ordered", "synchronized", "inclusive")

# gantt builds each row at full width, so its time and output grow with it
_MAX_WIDTH = 10_000


class OutputTooLargeError(Exception):
    """Output refused for its size: a value whose decimal form exceeds
    Python's int-to-str digit limit, or a chart wider than ``_MAX_WIDTH``."""


def _text(value, to_text=str) -> str:
    """``to_text(value)``, the output text of a value, a record or a report."""
    try:
        return to_text(value)
    except ValueError as exc:  # str(int) refuses past sys.get_int_max_str_digits()
        raise OutputTooLargeError(
            f"a result value has more than {sys.get_int_max_str_digits()} decimal digits"
        ) from exc


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True)


def _emit(data) -> None:
    print(_text(data, _dumps))


def _read(path: str) -> bytes:
    # bytes: model._load_json decodes them, so non-UTF-8 input is a parse error
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def _write_all(texts: dict[Path, str]) -> None:
    """Write each text to its path, or else none of them.

    Each text goes to a temporary file beside its path first; the paths
    are replaced only once every text is written and no path names a
    directory.  A failure removes the temporary files and is reported as
    ``cannot write <path>``.
    """
    written = {}
    try:
        for path, text in texts.items():
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temp, "w", encoding="utf-8") as file:
                written[path] = temp
                file.write(text)
        for path in texts:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, temp in written.items():
            os.replace(temp, path)
    except OSError as exc:
        for temp in written.values():
            temp.unlink(missing_ok=True)
        raise InstanceError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


# Commands import solvers, transforms and hardness only when they use them,
# so each process loads (and compiles) just the modules its command needs.


def _cmd_solve(args) -> int:
    from . import solvers

    inst = _load_instance(args.instance)
    orders, total = [], ZERO
    # an ascending order is feasible, but the walks check it as they check any schedule
    for order, _, _, value in engine._walks(solvers._deal(inst)):
        orders.append(order)
        total = total + value
    _emit({"schedule": engine._schedule_data(orders), "value": _text(total)})
    return EXIT_OK


def _cmd_brute(args) -> int:
    from . import solvers

    inst = _load_instance(args.instance)
    limits = solvers.SearchLimits(max_jobs=args.max_jobs)
    schedule, value = solvers.brute_force(inst, limits)
    _emit({"schedule": engine._schedule_data(schedule.sequences), "value": _text(value)})
    return EXIT_OK


def _cmd_eval(args) -> int:
    inst = _load_instance(args.instance)
    chunks = engine._report_chunks(_sync_report(args.schedule, inst))
    sys.stdout.write(_text(chunks, next))  # every value is checked before the first chunk
    for chunk in chunks:
        sys.stdout.write(chunk)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_transform(args) -> int:
    from . import transforms

    inst = _load_instance(args.instance)
    general = transforms.parse_general_schedule(_read(args.schedule))
    report = transforms.synchronize_detailed(general, inst)
    _emit(
        {
            "schedule": engine._schedule_data(report.schedule.sequences),
            "value_before": _text(report.value_before),
            "value_after": _text(report.value_after),
            "value_delta": _text(report.value_after - report.value_before),
        }
    )
    return EXIT_OK


def _jobs(sequences, inst: Instance) -> list[list[Job]]:
    """Each processor's jobs in order; an unknown job id is a parse-level
    error, reported for the first one in processor order."""
    return [[inst.job(job_id) for job_id in seq] for seq in sequences]


def _sync_report(path: str, inst: Instance) -> engine.EvalReport:
    """The report of the synchronized schedule in file ``path``; every job id
    is looked up once, and an unknown one is reported before any infeasibility."""
    schedule = engine.parse_sync_schedule(_read(path), inst.m)
    return engine._evaluate(_jobs(schedule.sequences, inst), inst)


def _structure(data, inst: Instance) -> tuple[list[list[Job]], dict[str, list[str]]]:
    """Each processor's jobs in order, and the failures of "ordered" and
    "synchronized", for a decoded schedule of either format; a synchronized
    schedule is the object with key "processors"."""
    if isinstance(data, dict) and "processors" in data:
        jobs = _jobs(engine._read_sync_schedule(data, inst.m).sequences, inst)
        # a synchronized schedule is ordered and synchronized exactly when feasible
        bad = [(proc, engine.check_feasible(seq)) for proc, seq in enumerate(jobs, start=1)]
        failures = [f"processor {proc}: infeasible at position {at}" for proc, at in bad if at]
        return jobs, {"ordered": failures, "synchronized": failures}
    from . import transforms

    orders, *holds = transforms._structure(transforms._read_general_schedule(data), inst)
    failures = {
        name: [] if ok else [f"schedule is not {name}"]
        for name, ok in zip(("ordered", "synchronized"), holds)
    }
    return _jobs(orders, inst), failures


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    wanted = args.properties.split(",") if args.properties else list(_PROPERTIES)
    for name in wanted:
        if name not in _PROPERTIES:
            raise InstanceError(
                f"unknown property {_quoted(name)}; choose from {', '.join(_PROPERTIES)}"
            )
    jobs, failures = _structure(_load_json(_read(args.schedule)), inst)
    if "v-shape" in wanted:
        failures["v-shape"] = [
            f"processor {proc}: order {[job.id for job in seq]} is not V-shaped"
            for proc, seq in enumerate(jobs, start=1)
            if not engine.is_v_shaped(seq)
        ]
    if "inclusive" in wanted:
        failures["inclusive"] = engine._inclusivity_failures(inst.jobs)
    results = {name: {"pass": not failures[name], "failures": failures[name]} for name in wanted}
    _emit({"properties": results})
    return EXIT_OK


def _cmd_gen_n3dm(args) -> int:
    from . import hardness

    inp = hardness.parse_n3dm(_read(args.n3dm))
    hi = hardness.gen_instance(inp)
    summary = {"M": hi.M, "m_param": hi.m_param, "K": hi.K}
    instance = _text(hi.instance, _instance_data)
    provenance = _text(hi, hardness._provenance_data)  # holds M and K too
    if args.out:
        out = Path(args.out)
        sidecar = out.parent / (out.name.removesuffix(".json") + ".provenance.json")
        documents = {out: instance, sidecar: provenance}
        _write_all({path: _text(data, _dumps) + "\n" for path, data in documents.items()})
        _emit(summary)
    else:
        _emit({**summary, "instance": instance, "provenance": provenance})
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


def _cmd_gantt(args) -> int:
    width = args.width
    if width > _MAX_WIDTH:
        raise OutputTooLargeError(f"--width {width} exceeds the limit of {_MAX_WIDTH} columns")
    inst = _load_instance(args.instance)
    scale, chunks, private = engine._layout(_sync_report(args.schedule, inst))
    horizon = max(private.values(), default=0)
    # the one value that may not print
    print(f"time 0..{_text(_make(horizon, scale))}  ({width} columns)")
    labels = [f"M{proc}" for proc in range(1, inst.m + 1)] + [f"P {job.id}" for job in inst.jobs]
    pad = max(len(label) for label in labels)
    for proc in range(1, inst.m + 1):
        cells = [" "] * width
        for start, end, job_id in chunks.get(proc, ()):
            # a column is floor(t * width / horizon), exact on the layout's one scale
            lo = start * width // horizon
            hi = min(max(end * width // horizon, lo + 1), width)
            fill = (job_id * ((hi - lo) // len(job_id) + 1))[: hi - lo]
            cells[lo:hi] = list(fill)
        print(f"{f'M{proc}'.ljust(pad)} |{''.join(cells)}|")
    for job in inst.jobs:
        cells = [" "] * width
        hi = min(max(private[job.id] * width // horizon, 1), width)
        cells[0:hi] = ["="] * hi
        print(f"{f'P {job.id}'.ljust(pad)} |{''.join(cells)}|")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull, so
        # that the interpreter's flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
