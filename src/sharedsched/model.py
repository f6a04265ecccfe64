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


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields once, in ``__match_args__``, and its
    ``__init__`` checks its arguments and stores each field once through
    ``self.__dict__``.  Equality holds only between objects of one class and,
    like hashing, uses the fields of ``_key``; repr shows every field.
    Assigning or deleting an attribute raises ``FrozenInstanceError``.
    """

    __match_args__: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    # imported here: the module adds ~13 ms to every process's start-up
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Job(_Record):
    """One divisible job: identifier, processing time, weight."""

    __match_args__ = ("id", "p", "w")

    def __init__(self, id: str, p: Dyadic, w: Dyadic):
        if not isinstance(id, str) or not id:
            raise InstanceError(f"job id must be a non-empty string, got {id!r}")
        if not isinstance(p, Dyadic):
            p = as_dyadic(p)
        if not isinstance(w, Dyadic):
            w = as_dyadic(w)
        if p.mantissa <= 0:
            raise InstanceError(f"job {id!r}: p <= 0")
        if w.mantissa <= 0:
            raise InstanceError(f"job {id!r}: w <= 0")
        self.__dict__.update(id=id, p=p, w=w)


class Instance(_Record):
    """A job set plus the number of shared processors."""

    __match_args__ = ("jobs", "m")

    def __init__(self, jobs: tuple[Job, ...], m: int):
        jobs = tuple(jobs)
        if isinstance(m, bool) or not isinstance(m, int):
            raise InstanceError(f"m must be an int, got {m!r}")
        if m < 1:
            raise InstanceError("m < 1")
        by_id = {}
        for job in jobs:
            if job.id in by_id:
                raise InstanceError(f"duplicate id {job.id!r}")
            by_id[job.id] = job
        self.__dict__.update(jobs=jobs, m=m, _by_id=by_id)

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
        if not self.jobs:
            return True
        # parsed weights are memoized, so equal ones are usually one object
        w = self.jobs[0].w
        return all(job.w is w or job.w == w for job in self.jobs)


def _job_id(entry, idx: int, *keys: str) -> str:
    """The string id of ``jobs[idx]``, an object that must hold "id" and ``keys``."""
    if not isinstance(entry, dict):
        raise InstanceError(f"jobs[{idx}] must be an object")
    for key in ("id", *keys):
        if key not in entry:
            missing = {"id", *keys}.difference(entry)
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
