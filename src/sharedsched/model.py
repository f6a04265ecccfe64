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
from operator import attrgetter

from .dyadic import Dyadic, _quoted, _too_long, as_dyadic

__all__ = [
    "Job",
    "Instance",
    "InstanceError",
    "parse_instance",
    "serialize_instance",
]


class InstanceError(ValueError):
    """Malformed or invalid instance data."""


def _load_json(text: bytes | str):
    """Decode JSON input; any failure to read it is an :class:`InstanceError`.

    Past ``JSONDecodeError`` this covers an integer literal longer than
    Python's int-from-str digit limit, reported in the package's own words
    (:func:`~sharedsched.dyadic._too_long`), and a ``RecursionError`` for
    arrays or objects nested too deeply.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # only the digit limit raises a plain ValueError: JSONDecodeError and
        # UnicodeDecodeError are subclasses
        reason = _too_long() if type(exc) is ValueError else exc
        raise InstanceError(f"malformed JSON: {reason}") from exc


def _literal(raw, parsed: dict[str, Dyadic], label: str, *args) -> Dyadic:
    """Convert a JSON scalar to a Dyadic, rejecting floats and bad literals.

    The error names the entry, ``label.format(*args)`` with each argument
    quoted through :func:`~sharedsched.dyadic._quoted`: ``OverflowError`` for
    an exponent too large, else :class:`InstanceError`.  ``parsed`` is one
    document's memo of the string literals that parsed: a Dyadic is immutable,
    so one value serves every repeat, and an error names the first entry
    holding its literal.
    """
    try:
        if type(raw) is str:
            value = parsed.get(raw)
            if value is None:
                value = parsed[raw] = Dyadic.from_string(raw)
            return value
        if isinstance(raw, (bool, float)):
            raise TypeError(f"expected a dyadic string, got {_quoted(raw)}")
        return as_dyadic(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        cls = OverflowError if isinstance(exc, OverflowError) else InstanceError
        raise cls(f"{label.format(*map(_quoted, args))}: {exc}") from exc


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields once, in ``__match_args__``, and its
    ``__init__`` checks its arguments and stores each field once through
    ``self.__dict__``.  Equality holds only between objects of one class and,
    like hashing, compares the tuple ``cls._key(obj)``: a getter of the
    ``__match_args__`` fields built once per class, unless the class defines
    its own ``_key``.  Repr shows every field.  Assigning or deleting an
    attribute raises ``FrozenInstanceError``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_key" not in cls.__dict__:
            get = attrgetter(*cls.__match_args__)
            # attrgetter of one name returns the bare value, not a 1-tuple
            cls._key = get if len(cls.__match_args__) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self.__class__._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self.__class__._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def _trusted(cls, fields: dict):
    """An instance of the record class ``cls`` holding ``fields``, made
    without its ``__init__``: the trusted constructor of records whose
    fields the caller has checked, and of records whose cached properties
    derive the fields left out on first read.  (A dict argument costs half
    what keyword arguments do.)"""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _frozen(message: str) -> Exception:
    # imported here: the module adds ~13 ms to every process's start-up
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Job(_Record):
    """One divisible job: identifier, processing time, weight."""

    __match_args__ = ("id", "p", "w")

    def __init__(self, id: str, p: Dyadic, w: Dyadic):
        if not isinstance(id, str) or not id:
            raise InstanceError(f"job id must be a non-empty string, got {_quoted(id)}")
        if not isinstance(p, Dyadic):
            p = as_dyadic(p)
        if not isinstance(w, Dyadic):
            w = as_dyadic(w)
        if p.mantissa <= 0:
            raise InstanceError(f"job {_quoted(id)}: p <= 0")
        if w.mantissa <= 0:
            raise InstanceError(f"job {_quoted(id)}: w <= 0")
        self.__dict__.update(id=id, p=p, w=w)


def _check_m(m) -> None:
    """Refuse a processor count that is not an int of at least 1."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise InstanceError(f"m must be an int, got {_quoted(m)}")
    if m < 1:
        raise InstanceError("m < 1")


class Instance(_Record):
    """A job set plus the number of shared processors."""

    __match_args__ = ("jobs", "m")

    def __init__(self, jobs: tuple[Job, ...], m: int):
        jobs = tuple(jobs)
        _check_m(m)
        by_id = {}
        for job in jobs:
            if job.id in by_id:
                raise InstanceError(f"duplicate id {_quoted(job.id)}")
            by_id[job.id] = job
        self.__dict__.update(jobs=jobs, m=m, _by_id=by_id)

    def __len__(self) -> int:
        return len(self.jobs)

    def job(self, job_id: str) -> Job:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise InstanceError(f"unknown job id {_quoted(job_id)}") from None

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


def parse_instance(text: bytes | str) -> Instance:
    """Parse and validate the JSON instance format."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    unknown = set(data) - {"m", "jobs"}
    if unknown:
        raise InstanceError(f"unknown instance keys: {_quoted(sorted(unknown))}")
    if "m" not in data or "jobs" not in data:
        raise InstanceError('instance requires keys "m" and "jobs"')
    raw_jobs = data["jobs"]
    if not isinstance(raw_jobs, list):
        raise InstanceError('"jobs" must be a list')
    _check_m(data["m"])  # before the jobs, which may take long to parse
    parsed: dict[str, Dyadic] = {}
    jobs = []
    for idx, entry in enumerate(raw_jobs):
        job_id = _job_id(entry, idx, "p", "w")
        raw_p, raw_w = entry["p"], entry["w"]
        raw_jobs[idx] = None  # the document is ours: free each entry as the jobs grow
        p = _literal(raw_p, parsed, "jobs[{}].p", idx)
        w = _literal(raw_w, parsed, "jobs[{}].w", idx)
        if not job_id or p.mantissa <= 0 or w.mantissa <= 0:
            Job(job_id, p, w)  # raises the first of its checks that fails
        jobs.append(_trusted(Job, {"id": job_id, "p": p, "w": w}))
    return Instance(tuple(jobs), data["m"])


def _instance_data(inst: Instance) -> dict:
    """The JSON object of an instance, before it is dumped."""
    return {
        "m": inst.m,
        "jobs": [{"id": j.id, "p": str(j.p), "w": str(j.w)} for j in inst.jobs],
    }


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance (inverse of :func:`parse_instance`)."""
    return json.dumps(_instance_data(inst), sort_keys=True)
