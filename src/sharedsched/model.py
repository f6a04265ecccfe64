"""Problem instances: divisible jobs on private plus shared processors.

An instance is a finite set of jobs, each with a positive processing time
``p`` and a positive weight ``w``, together with the number ``m`` of
shared processors.  Every job also owns a dedicated private processor;
the optimization goal elsewhere in this package is to maximize the total
weighted overlap of simultaneous private/shared execution.

The on-disk format is JSON::

    {"m": <int>, "jobs": [{"id": <string>, "p": <dyadic>, "w": <dyadic>}, ...]}

where dyadic literals are strings ``"n"``, ``"n/d"`` (d a power of two)
or ``"n/2^k"`` in the grammar and exponent bound of
:meth:`Dyadic.from_string`; plain JSON integers are accepted too.  Floats
are rejected to keep the arithmetic exact end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dyadic import Dyadic, as_dyadic

__all__ = [
    "Job",
    "Instance",
    "InstanceError",
    "parse_instance",
    "serialize_instance",
    "json_to_dyadic",
]


class InstanceError(ValueError):
    """Malformed or invalid instance data."""


def _load_json(text: bytes | str):
    """Decode JSON input; any failure to read it is an :class:`InstanceError`.

    Past ``JSONDecodeError`` this covers a ``ValueError`` for an integer
    literal longer than Python's int-from-str digit limit and a
    ``RecursionError`` for arrays or objects nested too deeply.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc


def json_to_dyadic(value, what: str) -> Dyadic:
    """Convert a JSON scalar to a Dyadic, rejecting floats and bad literals.

    A literal whose exponent is too large raises ``OverflowError``; every
    other bad value raises :class:`InstanceError`.  Both name ``what``.
    """
    try:
        return _json_literal(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise _literal_error(exc, what) from exc


def _json_literal(value) -> Dyadic:
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected a dyadic string, got {value!r}")
    return as_dyadic(value)


def _literal_error(exc: Exception, what: str) -> Exception:
    cls = OverflowError if isinstance(exc, OverflowError) else InstanceError
    return cls(f"{what}: {exc}")


@dataclass(frozen=True)
class Job:
    """One divisible job: identifier, processing time, weight."""

    id: str
    p: Dyadic
    w: Dyadic

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InstanceError(f"job id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.p, Dyadic):
            object.__setattr__(self, "p", as_dyadic(self.p))
        if not isinstance(self.w, Dyadic):
            object.__setattr__(self, "w", as_dyadic(self.w))
        if self.p.mantissa <= 0:
            raise InstanceError(f"job {self.id!r}: p <= 0")
        if self.w.mantissa <= 0:
            raise InstanceError(f"job {self.id!r}: w <= 0")


@dataclass(frozen=True)
class Instance:
    """A job set plus the number of shared processors."""

    jobs: tuple[Job, ...]
    m: int
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise InstanceError(f"m must be an int, got {self.m!r}")
        if self.m < 1:
            raise InstanceError("m < 1")
        by_id = {}
        for job in self.jobs:
            if job.id in by_id:
                raise InstanceError(f"duplicate id {job.id!r}")
            by_id[job.id] = job
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.jobs)

    def job(self, job_id: str) -> Job:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise InstanceError(f"unknown job id {job_id!r}") from None

    def has_job(self, job_id: str) -> bool:
        return job_id in self._by_id

    def equal_weights(self) -> bool:
        return all(job.w == self.jobs[0].w for job in self.jobs) if self.jobs else True


def _job_id(entry, idx: int, *keys: str) -> str:
    """The string id of ``jobs[idx]``, an object that must hold "id" and ``keys``."""
    if not isinstance(entry, dict):
        raise InstanceError(f"jobs[{idx}] must be an object")
    missing = {"id", *keys} - set(entry)
    if missing:
        raise InstanceError(f"jobs[{idx}] missing keys: {sorted(missing)}")
    job_id = entry["id"]
    if not isinstance(job_id, str):
        raise InstanceError(f"jobs[{idx}]: id must be a string")
    return job_id


def _memo_literal(raw, parsed: dict[str, Dyadic], idx: int, key: str) -> Dyadic:
    """``jobs[idx].key`` as a Dyadic, looked up in or added to ``parsed``.

    Dyadic values are immutable, so one value serves every repeat of its
    literal (an equal-weight instance repeats one ``w``).  Only literals
    that parsed are kept, so an error names the first entry holding its
    literal; its label is formatted only then.
    """
    try:
        if type(raw) is not str:
            return _json_literal(raw)
        value = parsed.get(raw)
        if value is None:
            value = parsed[raw] = Dyadic.from_string(raw)
        return value
    except (ValueError, TypeError, OverflowError) as exc:
        raise _literal_error(exc, f"jobs[{idx}].{key}") from exc


def parse_instance(text: bytes | str) -> Instance:
    """Parse and validate the JSON instance format."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    unknown = set(data) - {"m", "jobs"}
    if unknown:
        raise InstanceError(f"unknown instance keys: {sorted(unknown)}")
    if "m" not in data or "jobs" not in data:
        raise InstanceError('instance requires keys "m" and "jobs"')
    raw_jobs = data["jobs"]
    if not isinstance(raw_jobs, list):
        raise InstanceError('"jobs" must be a list')
    parsed: dict[str, Dyadic] = {}
    jobs = []
    for idx, entry in enumerate(raw_jobs):
        job_id = _job_id(entry, idx, "p", "w")
        p = _memo_literal(entry["p"], parsed, idx, "p")
        jobs.append(Job(job_id, p, _memo_literal(entry["w"], parsed, idx, "w")))
    return Instance(tuple(jobs), data["m"])


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance (inverse of :func:`parse_instance`)."""
    data = {
        "m": inst.m,
        "jobs": [{"id": j.id, "p": str(j.p), "w": str(j.w)} for j in inst.jobs],
    }
    return json.dumps(data, sort_keys=True)
