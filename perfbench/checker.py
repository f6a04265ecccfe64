"""Exact output checker for the CLI benchmark.

Independent of the package: it imports nothing from ``sharedsched`` and
recomputes every value from the emitted schedule with the halving
recurrence ``T_1 = 0``, ``T_{i+1} = (T_i + p_i) / 2`` on scaled
integers.  A dyadic value is carried as a pair ``(num, exp)`` meaning
``num / 2**exp``.

``check(case, stdout)`` raises :class:`CheckError` naming the first
defect; it returns normally when the output is exactly right.  Byte-level
properties (the tie-break among equal-valued optima, canonical key
order) are covered separately by comparing stdout digests with those
recorded for the default seed.
"""

from __future__ import annotations

import json
import re

__all__ = ["CheckError", "check", "parse_dyadic"]

_LITERAL = re.compile(r"^(-?\d+)(?:/(?:2\^(\d+)|(\d+)))?$")


class CheckError(ValueError):
    """The program's output is wrong."""


def parse_dyadic(text) -> tuple[int, int]:
    """``"n"``, ``"n/d"`` (d a power of two), ``"n/2^k"`` or a JSON int
    as ``(num, exp)``."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 0
    match = _LITERAL.match(text) if isinstance(text, str) else None
    if match is None:
        raise CheckError(f"not a dyadic literal: {text!r}")
    num = int(match.group(1))
    if match.group(2) is not None:
        return num, int(match.group(2))
    if match.group(3) is None:
        return num, 0
    den = int(match.group(3))
    if den < 1 or den & (den - 1):
        raise CheckError(f"denominator is not a power of two: {text!r}")
    return num, den.bit_length() - 1


def _align(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int]:
    e = max(a[1], b[1])
    return a[0] << (e - a[1]), b[0] << (e - b[1]), e


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    x, y, e = _align(a, b)
    return x + y, e


def _sub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    x, y, e = _align(a, b)
    return x - y, e


def _cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    x, y, _ = _align(a, b)
    return (x > y) - (x < y)


def _expect(emitted, value: tuple[int, int], what: str) -> None:
    if _cmp(parse_dyadic(emitted), value) != 0:
        raise CheckError(f"{what}: emitted {emitted!r}, recomputed {value[0]}/2^{value[1]}")


def _jobs(instance: dict) -> dict[str, tuple[tuple[int, int], tuple[int, int]]]:
    return {job["id"]: (parse_dyadic(job["p"]), parse_dyadic(job["w"])) for job in instance["jobs"]}


def _orders(schedule, m: int, jobs: dict) -> list[list[str]]:
    """Per-processor orders of a synchronized schedule, checking its
    structure and that each job appears at most once."""
    if not isinstance(schedule, dict) or not isinstance(schedule.get("processors"), list):
        raise CheckError("schedule lacks a processors list")
    orders: list[list[str]] = [[] for _ in range(m)]
    seen_procs, seen_jobs = set(), set()
    for entry in schedule["processors"]:
        pid = entry.get("id")
        if not isinstance(pid, int) or not 1 <= pid <= m or pid in seen_procs:
            raise CheckError(f"bad or repeated processor id {pid!r}")
        seen_procs.add(pid)
        for job_id in entry.get("order", ()):
            if job_id not in jobs:
                raise CheckError(f"unknown job {job_id!r} on processor {pid}")
            if job_id in seen_jobs:
                raise CheckError(f"job {job_id!r} appears more than once")
            seen_jobs.add(job_id)
        orders[pid - 1] = list(entry["order"])
    return orders


class _Processor:
    """Start times, overlaps and value of one processor's order, exactly.

    With every ``p`` scaled to an integer by ``2**pe``, ``S_i = T_i *
    2**(pe + i - 1)`` obeys ``S_{i+1} = S_i + P_i * 2**(i-1)``, and job
    ``i`` is feasible iff ``P_i * 2**(i-1) > S_i``.
    """

    def __init__(self, order: list[str], jobs: dict, pid: int):
        pe = max((jobs[j][0][1] for j in order), default=0)
        self.starts = [(0, 0)]
        self.overlaps = []
        self.value = (0, 0)
        s = 0
        for i, job_id in enumerate(order):
            (pn, pexp), (wn, we) = jobs[job_id]
            scaled_p = pn << (pe - pexp + i)
            if not scaled_p > s:
                raise CheckError(f"processor {pid}: infeasible at position {i + 1} (job {job_id!r})")
            overlap = (scaled_p - s, pe + i + 1)
            self.overlaps.append(overlap)
            self.value = _add(self.value, (overlap[0] * wn, overlap[1] + we))
            s += scaled_p
            self.starts.append((s, pe + i + 1))


def _solution_value(schedule, jobs: dict, m: int) -> tuple[int, int]:
    """The value of an emitted schedule, recomputed from its orders."""
    total = (0, 0)
    for pid, order in enumerate(_orders(schedule, m, jobs), start=1):
        total = _add(total, _Processor(order, jobs, pid).value)
    return total


def _equal_weight_optimum(jobs: dict, m: int) -> tuple[int, int]:
    """Sum of p_(r) * w / 2**(r // m + 1) over processing times sorted
    descending: each processor's largest job gets 1/2, the next 1/4, ..."""
    weights = {w for _, w in jobs.values()}
    if len(weights) != 1:
        raise CheckError("solve case has unequal weights")
    (wn, we), = weights
    ps = [p for p, _ in jobs.values()]
    pe = max((e for _, e in ps), default=0)
    scaled = sorted((n << (pe - e) for n, e in ps), reverse=True)
    depth = (len(scaled) - 1) // m + 1 if scaled else 0
    total = sum(p << (depth - (r // m + 1)) for r, p in enumerate(scaled))
    return total * wn, depth + pe + we


def _interval_value(general: dict, jobs: dict) -> tuple[int, int]:
    """Total weighted overlap of a general schedule: per job, its shared
    intervals clipped to the private span (0, c)."""
    total = (0, 0)
    for entry in general["jobs"]:
        cutoff = parse_dyadic(entry["private_completion"])
        wn, we = jobs[entry["id"]][1]
        for a_text, b_text in entry["shared_intervals"]:
            a, b = parse_dyadic(a_text), parse_dyadic(b_text)
            hi = b if _cmp(b, cutoff) < 0 else cutoff
            if _cmp(a, hi) < 0:
                length = _sub(hi, a)
                total = _add(total, (length[0] * wn, length[1] + we))
    return total


def _load(stdout: bytes) -> dict:
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not one JSON document: {exc}") from None
    if not isinstance(data, dict):
        raise CheckError("stdout is not a JSON object")
    return data


def check(case, stdout: bytes) -> None:
    """Raise :class:`CheckError` unless ``stdout`` is the exact answer for ``case``."""
    jobs = _jobs(case.instance)
    m = case.instance["m"]
    data = _load(stdout)
    if case.command in ("solve", "brute"):
        value = _solution_value(data.get("schedule"), jobs, m)
        _expect(data.get("value"), value, "value")
        if case.command == "solve" and _cmp(value, _equal_weight_optimum(jobs, m)) != 0:
            raise CheckError("solve value is not the equal-weight optimum")
    elif case.command == "eval":
        _check_eval(case, data, jobs, m)
    elif case.command == "transform":
        after = _solution_value(data.get("schedule"), jobs, m)
        _expect(data.get("value_after"), after, "value_after")
        before = _interval_value(case.schedule, jobs)
        _expect(data.get("value_before"), before, "value_before")
        if _cmp(after, before) < 0:
            raise CheckError("value_after is below value_before")
        _expect(data.get("value_delta"), _sub(after, before), "value_delta")
    else:
        raise CheckError(f"no checker for command {case.command!r}")


def _check_eval(case, data: dict, jobs: dict, m: int) -> None:
    wanted = _orders(case.schedule, m, jobs)
    emitted = data.get("processors")
    if not isinstance(emitted, list) or len(emitted) != m:
        raise CheckError(f"expected {m} processor reports")
    overlaps = {job_id: (0, 0) for job_id in jobs}
    total = (0, 0)
    for pid, (order, report) in enumerate(zip(wanted, emitted), start=1):
        if report.get("id") != pid or report.get("order") != order:
            raise CheckError(f"processor {pid}: report does not echo the input order")
        proc = _Processor(order, jobs, pid)
        starts, bars = report.get("start_times"), report.get("overlaps")
        if len(starts) != len(order) + 1 or len(bars) != len(order):
            raise CheckError(f"processor {pid}: wrong number of start times or overlaps")
        for idx, (text, value) in enumerate(zip(starts, proc.starts), start=1):
            _expect(text, value, f"processor {pid} start time {idx}")
        for idx, (text, value) in enumerate(zip(bars, proc.overlaps), start=1):
            _expect(text, value, f"processor {pid} overlap {idx}")
        overlaps.update(zip(order, proc.overlaps))
        total = _add(total, proc.value)
    job_overlaps = data.get("job_overlaps")
    if not isinstance(job_overlaps, dict) or set(job_overlaps) != set(jobs):
        raise CheckError("job_overlaps does not list exactly the instance's jobs")
    for job_id, value in overlaps.items():
        _expect(job_overlaps[job_id], value, f"overlap of job {job_id!r}")
    _expect(data.get("total"), total, "total")
