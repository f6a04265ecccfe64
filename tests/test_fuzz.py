"""Property tests at the input boundary, with ``hypothesis``.

Each wire format must survive parse(serialize(x)) unchanged, and every CLI
command, fed mutations of valid inputs, must end in a documented exit code
(0, 2, 3, 4 or 5) with at most one ``error:`` line, never in a traceback.
The profile is derandomized, without a deadline and with a fixed number of
examples, so every run tries the same inputs.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedsched.cli import main
from sharedsched.dyadic import Dyadic
from sharedsched.engine import SyncSchedule, parse_sync_schedule, serialize_sync_schedule
from sharedsched.model import Instance, Job, parse_instance, serialize_instance
from sharedsched.transforms import (
    GeneralSchedule,
    JobPlacement,
    parse_general_schedule,
    serialize_general_schedule,
)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)

ids = st.text(min_size=1, max_size=4)


def dyadics(min_value=None):
    return st.builds(Dyadic, st.integers(min_value=min_value, max_value=10**30), st.integers(0, 64))


# -- round trips -------------------------------------------------------------------


@st.composite
def instances(draw):
    names = draw(st.lists(ids, max_size=6, unique=True))
    jobs = tuple(Job(name, draw(dyadics(1)), draw(dyadics(1))) for name in names)
    return Instance(jobs, draw(st.integers(1, 4)))


@st.composite
def sync_schedules(draw):
    names = draw(st.lists(ids, max_size=6, unique=True))
    m = draw(st.integers(1, 4))
    procs = [draw(st.integers(0, m - 1)) for _ in names]
    return SyncSchedule(tuple(tuple(n for n, p in zip(names, procs) if p == q) for q in range(m)))


@st.composite
def general_schedules(draw):
    placements = {}
    for name in draw(st.lists(ids, max_size=5, unique=True)):
        proc = draw(st.none() | st.integers(1, 3))
        intervals = draw(st.lists(st.tuples(dyadics(), dyadics()), max_size=3))
        placements[name] = JobPlacement(proc, tuple(intervals), draw(dyadics()))
    return GeneralSchedule(placements)


@FUZZ
@given(instances())
def test_instance_round_trip(inst):
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text.encode())) == text


@FUZZ
@given(sync_schedules())
def test_sync_schedule_round_trip(schedule):
    text = serialize_sync_schedule(schedule)
    assert parse_sync_schedule(text, schedule.m) == schedule
    assert serialize_sync_schedule(parse_sync_schedule(text, schedule.m)) == text


@FUZZ
@given(general_schedules())
def test_general_schedule_round_trip(g):
    text = serialize_general_schedule(g)
    assert parse_general_schedule(text) == g
    assert serialize_general_schedule(parse_general_schedule(text)) == text


# -- mutated CLI inputs ------------------------------------------------------------

INSTANCE = {
    "m": 2,
    "jobs": [
        {"id": "a", "p": "6", "w": "1"},
        {"id": "b", "p": "5/2", "w": "1"},
        {"id": "c", "p": "4", "w": "1"},
        {"id": "d", "p": "7/2^2", "w": "1"},
    ],
}
SYNC = {"processors": [{"id": 1, "order": ["d", "c", "a"]}, {"id": 2, "order": ["b"]}]}
GENERAL = {  # valid for INSTANCE, with an idle hole and a preemption
    "jobs": [
        {"id": "a", "shared_processor": 1, "shared_intervals": [["2", "3"], ["4", "5"]],
         "private_completion": "4"},
        {"id": "b", "shared_processor": 2, "shared_intervals": [["0", "1"]],
         "private_completion": "3/2"},
        {"id": "c", "shared_processor": 1, "shared_intervals": [["1", "2"]],
         "private_completion": "3"},
        {"id": "d", "shared_processor": 1, "shared_intervals": [["0", "1/2"]],
         "private_completion": "5/4"},
    ]
}
N3DM = {"X": [1, 2], "Y": [3, 4], "Z": [5, 7], "b": 11}

# argv after the command name: which documents each command reads
COMMANDS = {
    "solve": (INSTANCE,),
    "brute": (INSTANCE,),
    "eval": (INSTANCE, SYNC),
    "transform": (INSTANCE, GENERAL),
    "check": (INSTANCE, SYNC, GENERAL),
    "gantt": (INSTANCE, SYNC),
    "gen-n3dm": (N3DM,),
    "decide-n3dm": (N3DM,),
}

# values of every JSON type, and for a leaf of one type the edge cases of
# that type: over-long, over-bound and malformed numbers and literals
scalars = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=4)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
EDGES = {
    int: [-1, 2**64, 10**2200, int("9" * 4300)],  # the last: the longest int JSON reads
    str: ["", "-1", "1/3", "1/2^8193", "1/2^20000000000", "9" * 5000],
}


def paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, (*path, key))


@st.composite
def mutated(draw, doc):
    """``doc`` as JSON bytes with one node replaced or deleted, or with one
    span of its text replaced by arbitrary bytes."""
    if draw(st.integers(0, 3)) == 3:
        text = json.dumps(doc).encode()
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, len(text)))
        return text[:i] + draw(st.binary(max_size=6)) + text[j:]
    doc = copy.deepcopy(doc)
    *route, key = draw(st.sampled_from(list(paths(doc)))) or [None]
    parent = doc
    for step in route:
        parent = parent[step]
    if key == "m":  # the CLI's work and memory still grow with m: keep it small
        replacement = draw(scalars)
    else:
        edges = EDGES.get(type(doc if key is None else parent[key]))
        replacement = draw(st.sampled_from(edges) if edges and draw(st.booleans()) else values)
    if key is None:
        doc = replacement
    elif draw(st.integers(0, 3)) == 3:
        del parent[key]
    else:
        parent[key] = replacement
    return json.dumps(doc).encode()


@st.composite
def cli_inputs(draw, command, folder):
    docs = COMMANDS[command]
    if command == "check":  # either schedule format
        docs = (INSTANCE, draw(st.sampled_from(docs[1:])))
    texts = [json.dumps(doc).encode() for doc in docs]
    for idx in draw(st.sets(st.integers(0, len(texts) - 1), min_size=1)):
        texts[idx] = draw(mutated(docs[idx]))
    options = []
    if command == "gantt":
        options = ["--width", str(draw(st.sampled_from([1, 7, 60, 10_000, 10_001])))]
    if command == "gen-n3dm" and draw(st.booleans()):
        # a directory ("/", the working one, or the empty path that names it), or a
        # name in the test's folder or in a missing one beneath it; never elsewhere
        out = draw(st.sampled_from(["/", ".", ""]) | st.text("ab.\0", max_size=4))
        if out not in ("/", ".", ""):
            out = str(folder / draw(st.sampled_from(["", "missing"])) / out)
        options = ["--out", out]
    return texts, options


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path_factory, command):
    folder = tmp_path_factory.mktemp(command)

    @settings(FUZZ, max_examples=60)
    @given(cli_inputs(command, folder))
    def run(call):
        texts, options = call
        files = []
        for idx, text in enumerate(texts):
            path = folder / f"input{idx}.json"
            path.write_bytes(text)
            files.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *files, *options])
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == "" and out.getvalue()

    run()
