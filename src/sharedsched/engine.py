"""Synchronized-schedule mathematics.

A synchronized schedule finishes every shared job on the shared and the
private processor at the same instant, so the per-processor job order
determines everything: with jobs ``j_1..j_k`` in order, job ``j_i``
occupies ``(T_i, T_{i+1})`` on the shared processor where::

    T_1 = 0,    T_{i+1} = (T_i + p_i) / 2

and contributes overlap ``(p_i - T_i) / 2``.  The order is feasible when
``p_i > T_i`` strictly at every position; a job with ``p_i = T_i`` would
get a zero-length shared interval, so such orders are rejected rather
than silently dropping the job.

This module evaluates schedules through that recurrence, run by one integer
walk (``_walk``) that also finds the first infeasible position and the
value, and through an equivalent bilinear matrix form.  A schedule's job
lists, one per processor, go through ``_walks``: the one route that walks
each list, rejects the first infeasible one and values the rest, for
``evaluate`` and for the CLI's ``solve``, ``eval`` and ``gantt``.  The
intervals of a schedule that ``evaluate`` walked go through ``_layout``:
the one route that puts every processor's walk and each job's private
completion on one integer scale, for ``transforms.from_synchronized``,
``synchronize``'s exit check and ``gantt``.  The module also computes the
exact value change of an adjacent transposition and provides the
structural predicates (V-shape, processing-time/weight inclusivity,
reverse duality) used by the solvers and the hardness generator.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .dyadic import ZERO, Dyadic, _clear_denominators, _make, _quoted, _text, as_dyadic
from .model import Instance, InstanceError, Job, _load_json, _Record, _trusted

__all__ = [
    "SyncSchedule",
    "EvalReport",
    "ProcessorEval",
    "InfeasibleScheduleError",
    "start_times",
    "check_feasible",
    "evaluate",
    "evaluate_sequence",
    "evaluate_matrix",
    "lower_halving_matrix",
    "upper_halving_matrix",
    "bilinear",
    "suffix_weight",
    "exchange_delta",
    "is_processing_time_inclusive",
    "is_weight_inclusive",
    "is_v_shaped",
    "reverse_dual",
    "parse_sync_schedule",
    "serialize_sync_schedule",
]


class InfeasibleScheduleError(ValueError):
    """A job order puts some job at a start time at or past its length."""

    def __init__(self, position: int, job_id: str | None = None, processor: int | None = None):
        self.position = position
        self.job_id = job_id
        self.processor = processor
        where = f"position {position}"
        if job_id is not None:
            where += f" (job {_quoted(job_id)})"
        if processor is not None:
            where = f"processor {processor}, " + where
        super().__init__(f"infeasible schedule: {where}: job no longer than its start time")


class SyncSchedule(_Record):
    """Per-shared-processor job orders; unlisted jobs run privately only."""

    __match_args__ = ("sequences",)

    def __init__(self, sequences: tuple[tuple[str, ...], ...]):
        sequences = tuple(tuple(seq) for seq in sequences)
        seen = set()
        for seq in sequences:
            for job_id in seq:
                if job_id in seen:
                    raise InstanceError(
                        f"job {_quoted(job_id)} appears more than once in schedule"
                    )
                seen.add(job_id)
        self.__dict__["sequences"] = sequences

    @property
    def m(self) -> int:
        return len(self.sequences)

    def scheduled_ids(self) -> set[str]:
        return {job_id for seq in self.sequences for job_id in seq}


class ProcessorEval(_Record):
    """Start times and overlaps for one shared processor.

    A processor that :func:`evaluate` built keeps its start times as
    integers over one power of two and makes the two tuples on first read.
    """

    __match_args__ = ("id", "order", "start_times", "overlaps")

    def __init__(
        self,
        id: int,
        order: tuple[str, ...],
        start_times: tuple[Dyadic, ...],  # length k+1; last entry is the makespan
        overlaps: tuple[Dyadic, ...],  # length k
    ):
        self.__dict__.update(id=id, order=order, start_times=start_times, overlaps=overlaps)

    # a stored field shadows these; they run only for a processor evaluate built
    @cached_property
    def start_times(self) -> tuple[Dyadic, ...]:
        s = self._scale
        return tuple([_make(t, s) for t in self._times])

    @cached_property
    def overlaps(self) -> tuple[Dyadic, ...]:
        times, s = self._times, self._scale
        return tuple([_make(b - a, s) for a, b in zip(times, times[1:])])


class EvalReport(_Record):
    """A schedule's processors, each job's overlap and the total.

    ``job_overlaps`` lists the instance's jobs in instance order; a job
    that runs on no shared processor has overlap zero.  A report that
    :func:`evaluate` built makes it on first read.  Equality and hashing
    leave ``job_overlaps`` out.
    """

    __match_args__ = ("processors", "job_overlaps", "total")

    def __init__(
        self,
        processors: tuple[ProcessorEval, ...],
        job_overlaps: dict[str, Dyadic],
        total: Dyadic = ZERO,
    ):
        self.__dict__.update(processors=processors, job_overlaps=job_overlaps, total=total)

    def _key(self) -> tuple:
        return (self.processors, self.total)

    @cached_property
    def job_overlaps(self) -> dict[str, Dyadic]:  # as in ProcessorEval
        value = {job.id: ZERO for job in self._jobs}
        for proc in self.processors:
            value.update(zip(proc.order, proc.overlaps))
        return value


# the jobs of ``job_overlaps`` in one chunk of :func:`_report_chunks`
_SLICE = 256


def _strings(texts: list[str]) -> list[str]:
    """The pieces of the JSON array of ``texts``, each text a piece of its own."""
    pieces = ['", "'] * (2 * len(texts) + 1)
    pieces[0], pieces[-1] = '["', '"]'
    pieces[1::2] = texts
    return pieces if texts else ["[]"]


def _report_chunks(report: EvalReport) -> Iterator[str]:
    """The JSON text of a report that :func:`evaluate` built, in chunks:
    ``_SLICE`` jobs of ``job_overlaps`` each, then one per processor, then
    the total.  Joined, they are byte for byte ``json.dumps(...,
    sort_keys=True)`` of the ``str`` of each field.  The text is made from
    the integers the report keeps: no ``Dyadic`` per value, and each
    exponent's denominator converted once.  A value text holds only ASCII
    digits, ``-`` and ``/``, which JSON prints as they are, so only the job
    ids go through the JSON string encoder.

    Every value is known to print before the first chunk: a value longer
    than Python's int-to-str digit limit raises ``ValueError`` there.  The
    overlap texts are made then and kept for both places they appear; a
    processor's start times are converted only for its own chunk.
    """
    dens: dict[int, str] = {}
    # a number of fewer bits than 10**limit has at most the limit's digits; 0 is no limit
    limit = sys.get_int_max_str_digits()
    bits = limit and (10**limit).bit_length()
    overlap = {}  # job id -> its overlap text; a job on no processor reads "0"
    for proc in report.processors:
        times, s = proc._times, proc._scale
        overlap.update(zip(proc.order, [_text(b - a, s, dens) for a, b in zip(times, times[1:])]))
        # times ascend from 0: each reduced numerator is at most times[-1], each denominator 2**s
        if bits and max(times[-1].bit_length(), s + 1) >= bits:
            for t in times:
                _text(t, s, dens)
    total = str(report.total)
    quote = json.encoder.encode_basestring_ascii  # what json.dumps applies to a str
    ids = sorted(job.id for job in report._jobs)
    yield '{"job_overlaps": {'
    for i in range(0, len(ids), _SLICE):
        texts = [f'{quote(job)}: "{overlap.get(job, "0")}"' for job in ids[i : i + _SLICE]]
        yield (", " if i else "") + ", ".join(texts)
    yield '}, "processors": ['
    for idx, proc in enumerate(report.processors):
        head = f'{{"id": {proc.id}, "order": {json.dumps(proc.order)}, "overlaps": '
        overlaps = _strings([overlap[job] for job in proc.order])
        starts = _strings([_text(t, proc._scale, dens) for t in proc._times])
        yield "".join([", " if idx else "", head, *overlaps, ', "start_times": ', *starts, "}"])
    yield f'], "total": "{total}"}}'


def _field(items: Iterable, name: str) -> list[Dyadic]:
    """Field ``name`` ("p" or "w") of each job in ``items``; any other item is a value."""
    return [getattr(item, name) if isinstance(item, Job) else as_dyadic(item) for item in items]


def _walk(ps: Sequence[Dyadic], ws: Sequence[Dyadic] = ()):
    """The recurrence on integers: ``(times, s, bad, num, e)`` with
    ``T_{i+1} == times[i] / 2**s`` for i = 0..k, ``bad`` the first 1-based
    position with ``p_i <= T_i`` (None when the order is feasible) and
    ``num / 2**e`` the order's value under the weights ``ws`` (0 for none).

    ``s`` is the largest exponent among the p plus k, so every halving
    step is an exact shift (T_{i+1} has at most i more binary digits
    after the point than the p).
    """
    ints, e = _clear_denominators(ps)
    k = len(ints)
    times = [0]
    bad = None
    for i, p in enumerate(ints, start=1):
        p <<= k
        if p <= times[-1] and bad is None:
            bad = i
        times.append((times[-1] + p) >> 1)
    ws, f = _clear_denominators(ws)
    # sum of overlap_i * w_i, where overlap_i = (p_i - T_i)/2 = T_{i+1} - T_i
    num = sum([(b - a) * w for a, b, w in zip(times, times[1:], ws)])
    return times, e + k, bad, num, e + k + f


def _ascending(values: list[Dyadic]) -> list[Dyadic]:
    """``values`` in stable ascending order, sorted on cleared integer keys."""
    keys, _ = _clear_denominators(values)
    return [values[i] for i in sorted(range(len(values)), key=keys.__getitem__)]


def start_times(perm: Sequence) -> list[Dyadic]:
    """T_1..T_{k+1} for a job order: T_1 = 0, T_{i+1} = (T_i + p_i)/2."""
    times, s, *_ = _walk(_field(perm, "p"))
    return [_make(t, s) for t in times]


def check_feasible(perm: Sequence) -> int | None:
    """Return the first 1-based position with ``p_i <= T_i``, or None if ok."""
    return _walk(_field(perm, "p"))[2]


def evaluate_sequence(perm: Sequence) -> Dyadic:
    """Total weighted overlap of one shared-processor order via the recurrence."""
    *_, num, e = _walk(_field(perm, "p"), _field(perm, "w"))
    return _make(num, e)


def evaluate(schedule: SyncSchedule, inst: Instance) -> EvalReport:
    """Evaluate a synchronized schedule against an instance.

    Jobs absent from every sequence contribute zero overlap.  Raises
    :class:`InfeasibleScheduleError` naming the processor and position
    when some job is no longer than its start time.
    """
    if schedule.m != inst.m:
        raise InstanceError(f"schedule has {schedule.m} processors, instance has {inst.m}")
    # a generator, so that lookups and walks alternate and errors come in processor order
    return _evaluate(([inst.job(job_id) for job_id in seq] for seq in schedule.sequences), inst)


def _walks(orders: Iterable[list[Job]]) -> Iterator[tuple]:
    """``(order_ids, times, s, value)`` for each processor's job list in
    ``orders``, walked once by :func:`_walk`.  The first infeasible list
    raises :class:`InfeasibleScheduleError` naming its processor and
    position, before it is yielded."""
    for proc_idx, jobs in enumerate(orders, start=1):
        times, s, bad, num, e = _walk([job.p for job in jobs], [job.w for job in jobs])
        if bad is not None:
            raise InfeasibleScheduleError(bad, jobs[bad - 1].id, proc_idx)
        yield tuple([job.id for job in jobs]), times, s, _make(num, e)
        del times  # a consumer that drops them (solve) holds no times during the next walk


def _evaluate(orders: Iterable[list[Job]], inst: Instance) -> EvalReport:
    """The report of ``inst``'s jobs run in ``orders``, one list per processor."""
    total = ZERO
    processors = []
    for proc_idx, (order, times, s, value) in enumerate(_walks(orders), start=1):
        total = total + value
        state = {"id": proc_idx, "order": order, "_times": times, "_scale": s}
        processors.append(_trusted(ProcessorEval, state))
    state = {"processors": tuple(processors), "total": total, "_jobs": inst.jobs}
    return _trusted(EvalReport, state)


def _layout(report: EvalReport) -> tuple[int, dict[int, list], dict[str, int]]:
    """The intervals of a report that :func:`evaluate` built, on one scale:
    ``(scale, chunks, private)`` with every time an int over ``2**scale``.
    ``chunks`` maps the id of each processor that runs a job to its
    ``[start, end, job_id]`` lists in order, as a grid of ``transforms``
    keeps them; ``private`` maps each job, in instance order, to its private
    completion: a shared job's ends with its shared interval, and a job on
    no processor runs ``p`` privately."""
    procs, jobs = report.processors, report._jobs
    scale = max([proc._scale for proc in procs] + [job.p.exponent for job in jobs])
    chunks = {}
    for proc in [proc for proc in procs if proc.order]:
        times, h = proc._times, scale - proc._scale
        chunks[proc.id] = [[a << h, b << h, j] for a, b, j in zip(times, times[1:], proc.order)]
    private = {job.id: job.p.mantissa << (scale - job.p.exponent) for job in jobs}
    private.update((job_id, b) for laid in chunks.values() for _, b, job_id in laid)
    return scale, chunks, private


def lower_halving_matrix(k: int) -> tuple[tuple[Dyadic, ...], ...]:
    """k x k matrix with entry 1/2^(i-j) strictly below the diagonal."""
    return tuple(
        tuple(_make(1, i - j) if i > j else ZERO for j in range(k)) for i in range(k)
    )


def upper_halving_matrix(k: int) -> tuple[tuple[Dyadic, ...], ...]:
    """Transpose of :func:`lower_halving_matrix`."""
    lower = lower_halving_matrix(k)
    return tuple(tuple(lower[j][i] for j in range(k)) for i in range(k))


def bilinear(left: Sequence[Dyadic], matrix, right: Sequence[Dyadic]) -> Dyadic:
    """Row vector * matrix * column vector, all exact."""
    total = ZERO
    for i, li in enumerate(left):
        row = matrix[i]
        for j, rj in enumerate(right):
            entry = row[j]
            if entry.mantissa:
                total = total + li * entry * rj
    return total


def evaluate_matrix(perm: Sequence) -> Dyadic:
    """Total weighted overlap via the bilinear form.

    Computes ``P I W^T / 2 - W L P^T / 2`` with L the lower halving
    matrix; an independent route that must agree exactly with
    :func:`evaluate_sequence`.
    """
    ps, ws = _field(perm, "p"), _field(perm, "w")
    k = len(ps)
    diag = ZERO
    for p, w in zip(ps, ws):
        diag = diag + p * w
    cross = bilinear(ws, lower_halving_matrix(k), ps)
    return diag.half() - cross.half()


def _suffix_weight(ws: Sequence[Dyadic], i: int) -> Dyadic:
    # sum over l = i+2 .. k of w_l / 2^(l-i-1); empty range gives zero
    total = ZERO
    for l in range(i + 2, len(ws) + 1):
        total = total + ws[l - 1].mul_pow2(-(l - i - 1))
    return total


def suffix_weight(perm: Sequence, i: int) -> Dyadic:
    """Geometrically discounted weight of the jobs after position i+1.

    Defined for ``-1 <= i <= k-2``; the sum runs over positions i+2..k
    with weight ``w_l / 2^(l-i-1)``.
    """
    k = len(perm)
    if not -1 <= i <= k - 2:
        raise IndexError(f"suffix weight index {i} out of range [-1, {k - 2}]")
    return _suffix_weight(_field(perm, "w"), i)


def exchange_delta(perm: Sequence, i: int) -> Dyadic:
    """Exact value lost by swapping the jobs at positions i and i+1 (1-based).

    Returns value(perm) - value(swapped).  The closed form is exact
    whenever both orders are feasible; a processing-time-inclusive job
    set guarantees that for every adjacent swap.
    """
    k = len(perm)
    if not 1 <= i <= k - 1:
        raise IndexError(f"exchange position {i} out of range [1, {k - 1}]")
    ps, ws = _field(perm, "p"), _field(perm, "w")
    t_i = start_times(perm)[i - 1]
    w_i, w_next = ws[i - 1], ws[i]
    p_i, p_next = ps[i - 1], ps[i]
    suffix = _suffix_weight(ws, i)  # weights after both swapped positions
    return (
        ((w_next - w_i) * t_i).mul_pow2(-2)
        + ((p_i - p_next) * suffix).mul_pow2(-2)
        + (w_i * p_next).mul_pow2(-2)
        - (w_next * p_i).mul_pow2(-2)
    )


def _is_inclusive(values: list[Dyadic]) -> bool:
    values = _ascending(values)
    if len(values) <= 1:
        return True
    # makespan of all-but-the-shortest in ascending order
    times, s, *_ = _walk(values[1:])
    return _make(times[-1], s) < values[0]


def is_processing_time_inclusive(jobs: Iterable) -> bool:
    """True when the ascending makespan of all-but-the-shortest job is
    strictly below the shortest processing time.

    Such a job set can be placed on a shared processor in any order, and
    any order stays feasible; empty and singleton sets qualify vacuously.
    """
    return _is_inclusive(_field(jobs, "p"))


def is_weight_inclusive(jobs: Iterable) -> bool:
    """Same test as :func:`is_processing_time_inclusive`, applied to weights."""
    return _is_inclusive(_field(jobs, "w"))


def _inclusivity_failures(jobs: Sequence) -> list[str]:
    """The inclusivity tests a job set fails, processing times first."""
    values = {"processing-time": _field(jobs, "p"), "weight": _field(jobs, "w")}
    return [f"job set is not {k}-inclusive" for k, v in values.items() if not _is_inclusive(v)]


def is_v_shaped(perm: Sequence) -> bool:
    """Processing times non-increasing then non-decreasing (ties allowed)."""
    ps = _field(perm, "p")
    i = 1
    while i < len(ps) and ps[i] <= ps[i - 1]:
        i += 1
    while i < len(ps) and ps[i] >= ps[i - 1]:
        i += 1
    return i >= len(ps)


def reverse_dual(perm: Sequence[Job]) -> list[Job]:
    """Reverse the order and swap each job's processing time with its weight.

    Value-preserving whenever the job set is both processing-time- and
    weight-inclusive; those hypotheses are checked and violations raise
    ValueError, since without them the reversed order may be infeasible.
    """
    jobs = list(perm)
    failures = _inclusivity_failures(jobs)
    if failures:
        raise ValueError(f"{failures[0]}; duality not guaranteed")
    return [Job(job.id, job.w, job.p) for job in reversed(jobs)]


# -- JSON wire format ---------------------------------------------------------


def parse_sync_schedule(text: bytes | str, m: int) -> SyncSchedule:
    """Parse ``{"processors": [{"id": <int>, "order": [<job-id>, ...]}, ...]}``.

    Processors absent from the list are empty; ids must lie in 1..m.
    """
    return _read_sync_schedule(_load_json(text), m)


def _read_sync_schedule(data, m: int) -> SyncSchedule:
    """The synchronized schedule in decoded JSON ``data``."""
    if not isinstance(data, dict) or "processors" not in data:
        raise InstanceError('schedule must be an object with key "processors"')
    raw = data["processors"]
    if not isinstance(raw, list):
        raise InstanceError('"processors" must be a list')
    sequences: list[tuple[str, ...]] = [() for _ in range(m)]
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict) or "id" not in entry or "order" not in entry:
            raise InstanceError('each processor needs keys "id" and "order"')
        pid = entry["id"]
        if isinstance(pid, bool) or not isinstance(pid, int) or not 1 <= pid <= m:
            raise InstanceError(f"processor id {_quoted(pid)} out of range 1..{m}")
        if pid in seen:
            raise InstanceError(f"duplicate processor id {pid}")
        seen.add(pid)
        order = entry["order"]
        if not isinstance(order, list) or not all(isinstance(j, str) for j in order):
            raise InstanceError(f"processor {pid}: order must be a list of job ids")
        sequences[pid - 1] = tuple(order)
    return SyncSchedule(tuple(sequences))


def _schedule_data(sequences: Iterable[Sequence[str]]) -> dict:
    """The JSON object of a synchronized schedule's job id sequences, before
    it is dumped."""
    return {
        "processors": [
            {"id": idx, "order": list(seq)}
            for idx, seq in enumerate(sequences, start=1)
        ]
    }


def serialize_sync_schedule(schedule: SyncSchedule) -> str:
    return json.dumps(_schedule_data(schedule.sequences), sort_keys=True)
