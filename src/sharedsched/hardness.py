"""Hard-instance generation from numerical 3-dimensional matching (N3DM).

Given multisets X, Y, Z of n non-negative integers and a target b, the
generator emits 3n jobs with weight equal to processing time on n shared
processors:

* group A:  p = 2*(M + m + x_i)
* group B:  p = 2*M + y_i
* group C:  p = 2*(M + m^2 + z_i)

with the parameters chosen minimally as ``m = max(b, 6) + 1`` and
``M = 7*(m^2 + b) + 1``, which makes every B job shorter than every A
job and every A job shorter than every C job, and makes any three jobs
fit one shared processor.  A schedule is *equitable* when every shared
processor runs exactly one A, one B and one C job in that order; writing
``delta_l = b - (x + y + z)`` for processor l's triple, the total value
of an equitable schedule is a constant minus ``(K - delta_l)**2 / 4``
summed over processors (K = 4M + m + m^2 + b), so the matching instance
is solvable exactly when some equitable schedule has every delta zero.

``h_value`` reproduces a published closed form for that total whose
constant coefficients (15/8, 3/8, 15/8) disagree with direct evaluation;
the delta-dependent term is correct.  Direct evaluation is ground truth
here, ``equitable_diagnostic`` reports both values side by side together
with the expansion this package derives (coefficients 9/4, 3/4, 9/4),
and ``decide`` relies only on the deltas.
"""

from __future__ import annotations

import json
from itertools import permutations
from typing import Mapping, Sequence

from .dyadic import ZERO, Dyadic, _quoted
from .engine import SyncSchedule, evaluate
from .model import Instance, InstanceError, Job, _load_json, _Record, _trusted
from .solvers import InstanceTooLargeError

__all__ = [
    "N3DMInput",
    "HardInstance",
    "build_params",
    "gen_instance",
    "h_value",
    "equitable_schedule",
    "is_equitable",
    "processor_delta",
    "decide",
    "equitable_diagnostic",
    "parse_n3dm",
    "serialize_provenance",
]


def _int_entries(values, what: str) -> tuple[int, ...]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InstanceError(f"{what} entries must be integers, got {_quoted(v)}")
        if v < 0:
            raise InstanceError(f"{what} entries must be >= 0, got {_quoted(v)}")
        out.append(v)
    return tuple(out)


class N3DMInput(_Record):
    """Three equal-size multisets of non-negative integers and a target sum."""

    __match_args__ = ("x", "y", "z", "b")

    def __init__(self, x: tuple[int, ...], y: tuple[int, ...], z: tuple[int, ...], b: int):
        x, y, z = _int_entries(x, "X"), _int_entries(y, "Y"), _int_entries(z, "Z")
        if isinstance(b, bool) or not isinstance(b, int):
            raise InstanceError(f"b must be an integer, got {_quoted(b)}")
        if not x or len(x) != len(y) or len(x) != len(z):
            raise InstanceError("X, Y, Z must have equal size n >= 1")
        self.__dict__.update(x=x, y=y, z=z, b=b)

    @property
    def n(self) -> int:
        return len(self.x)


class HardInstance(_Record):
    """Generated scheduling instance plus its reduction parameters."""

    __match_args__ = ("instance", "M", "m_param", "K", "source", "provenance")

    def __init__(
        self,
        instance: Instance,
        M: int,
        m_param: int,
        K: int,
        source: N3DMInput,
        provenance: Mapping[str, tuple[str, int]],  # job id -> (group, 1-based index)
    ):
        self.__dict__.update(
            instance=instance, M=M, m_param=m_param, K=K, source=source, provenance=provenance
        )

    def halved_times(self, index: int) -> tuple[int, int, int]:
        """(a, b, c) for position ``index``: a and c are half the A/C job
        times, b is the full B job time."""
        src = self.source
        return (
            self.M + self.m_param + src.x[index],
            2 * self.M + src.y[index],
            self.M + self.m_param**2 + src.z[index],
        )


def build_params(inp: N3DMInput) -> tuple[int, int]:
    """Smallest (m, M) with m > max(b, 6) and M > 7*(m^2 + b)."""
    m_param = max(inp.b, 6) + 1
    return m_param, 7 * (m_param * m_param + inp.b) + 1


def gen_instance(inp: N3DMInput) -> HardInstance:
    """Deterministic 3n-job, n-shared-processor instance with w = p."""
    m_param, big_m = build_params(inp)
    groups = {  # group A first, then B, then C, each in input order
        "A": [2 * (big_m + m_param + x) for x in inp.x],
        "B": [2 * big_m + y for y in inp.y],
        "C": [2 * (big_m + m_param * m_param + z) for z in inp.z],
    }
    jobs, provenance = [], {}
    for group, times in groups.items():
        for idx, time in enumerate(times, start=1):
            jobs.append(Job(f"{group}{idx}", Dyadic(time), Dyadic(time)))
            provenance[jobs[-1].id] = (group, idx)
    instance = Instance(tuple(jobs), inp.n)
    k_const = 4 * big_m + m_param + m_param * m_param + inp.b
    return HardInstance(instance, big_m, m_param, k_const, inp, provenance)


def h_value(deltas: Sequence[int], hi: HardInstance) -> Dyadic:
    """The published closed form, exactly as printed.

    Known to disagree with direct evaluation in its constant part (the
    coefficients 15/8, 3/8, 15/8); see :func:`equitable_diagnostic`.
    """
    if len(deltas) != hi.source.n:
        raise ValueError(f"expected {hi.source.n} deltas, got {len(deltas)}")
    total = ZERO
    for idx in range(hi.source.n):
        a, b, c = hi.halved_times(idx)
        total = total + Dyadic(15 * a * a + 3 * b * b + 15 * c * c, 3)
    for delta in deltas:
        total = total - Dyadic((hi.K - delta) ** 2, 2)
    return total


def _check_matching(matching, n: int) -> list[tuple[int, int, int]]:
    triples = [tuple(t) for t in matching]
    if len(triples) != n or any(len(t) != 3 for t in triples):
        raise ValueError(f"matching must hold {n} (A, B, C) index triples")
    for column in range(3):
        if sorted(t[column] for t in triples) != list(range(n)):
            raise ValueError("matching columns must each be a permutation of 0..n-1")
    return triples


def equitable_schedule(hi: HardInstance, matching: Sequence[Sequence[int]]) -> SyncSchedule:
    """Schedule processor l with the (A, B, C) triple given by 0-based
    indices ``matching[l]``; always feasible for generated instances."""
    return _triple_schedule(_check_matching(matching, hi.source.n))


def _triple_schedule(triples: list[tuple[int, int, int]]) -> SyncSchedule:
    # the triples' columns are permutations (_check_matching), so no job repeats
    sequences = tuple([(f"A{a + 1}", f"B{b + 1}", f"C{c + 1}") for a, b, c in triples])
    return _trusted(SyncSchedule, {"sequences": sequences})


def _delta(src: N3DMInput, ai: int, bi: int, ci: int) -> int:
    """The target b minus the triple's entries: X at ``ai``, Y at ``bi``, Z at ``ci``."""
    return src.b - (src.x[ai] + src.y[bi] + src.z[ci])


def is_equitable(schedule: SyncSchedule, hi: HardInstance) -> bool:
    """Exactly one A, one B, one C job per processor, in that order."""
    if schedule.m != hi.source.n:
        return False
    for seq in schedule.sequences:
        if len(seq) != 3:
            return False
        groups = tuple(hi.provenance[j][0] if j in hi.provenance else "?" for j in seq)
        if groups != ("A", "B", "C"):
            return False
    return True


def processor_delta(schedule: SyncSchedule, hi: HardInstance, processor: int) -> int:
    """b minus the source-entry sum of the triple on a processor (1-based)."""
    if not is_equitable(schedule, hi):
        raise ValueError("schedule is not equitable")
    seq = schedule.sequences[processor - 1]
    return _delta(hi.source, *[hi.provenance[job_id][1] - 1 for job_id in seq])


def decide(inp: N3DMInput, max_n: int = 4) -> tuple[bool, list[tuple[int, int, int]] | None]:
    """Exhaustively decide the matching instance.

    Enumerates all n! * n! equitable matchings and accepts exactly when
    one has every per-processor delta equal to zero, which happens iff
    the corresponding equitable schedule attains the maximum equitable
    value.  Guarded to small n.
    """
    n = inp.n
    if n > max_n:
        raise InstanceTooLargeError(f"decide() enumerates (n!)^2 matchings; n = {n} > {max_n}")
    for y_perm in permutations(range(n)):
        partial = [inp.b - inp.x[i] - inp.y[y_perm[i]] for i in range(n)]
        for z_perm in permutations(range(n)):
            if all(partial[i] == inp.z[z_perm[i]] for i in range(n)):
                witness = [(i, y_perm[i], z_perm[i]) for i in range(n)]
                return True, witness
    return False, None


def equitable_diagnostic(hi: HardInstance, matching: Sequence[Sequence[int]]) -> dict:
    """Side-by-side value report for one equitable matching.

    Returns the directly evaluated total (ground truth), the published
    closed form from :func:`h_value`, and this package's derived
    expansion ``2a^2 + b^2/2 + 2c^2 - (ab + ac + bc)/2`` summed over
    processors, which agrees with direct evaluation.
    """
    triples = _check_matching(matching, hi.source.n)
    report = evaluate(_triple_schedule(triples), hi.instance)
    deltas = [_delta(hi.source, *triple) for triple in triples]
    derived = ZERO
    for ai, bi, ci in triples:
        a = hi.halved_times(ai)[0]
        b = hi.halved_times(bi)[1]
        c = hi.halved_times(ci)[2]
        derived = derived + Dyadic(
            4 * a * a + b * b + 4 * c * c - (a * b + a * c + b * c), 1
        )
    return {
        "direct": report.total,
        "printed_h": h_value(deltas, hi),
        "derived_quadratic": derived,
        "deltas": deltas,
    }


# -- JSON wire format ----------------------------------------------------------


def parse_n3dm(text: bytes | str) -> N3DMInput:
    """Parse ``{"X": [...], "Y": [...], "Z": [...], "b": <int>}``."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise InstanceError("matching input must be a JSON object")
    missing = {"X", "Y", "Z", "b"} - set(data)
    if missing:
        raise InstanceError(f"matching input missing keys: {sorted(missing)}")
    for key in ("X", "Y", "Z"):
        if not isinstance(data[key], list):
            raise InstanceError(f"{key} must be a list")
    return N3DMInput(tuple(data["X"]), tuple(data["Y"]), tuple(data["Z"]), data["b"])


def _provenance_data(hi: HardInstance) -> dict:
    """The sidecar's JSON object, before it is dumped."""
    src = hi.source
    entries = []
    for job in hi.instance.jobs:
        group, index = hi.provenance[job.id]
        source_value = {"A": src.x, "B": src.y, "C": src.z}[group][index - 1]
        entries.append(
            {
                "id": job.id,
                "group": group,
                "index": index,
                "source": source_value,
                "time": str(job.p),
            }
        )
    return {
        "M": hi.M,
        "m_param": hi.m_param,
        "K": hi.K,
        "b": src.b,
        "n": src.n,
        "jobs": entries,
    }


def serialize_provenance(hi: HardInstance) -> str:
    """Sidecar JSON tying each generated job back to its source entry."""
    return json.dumps(_provenance_data(hi), sort_keys=True)
