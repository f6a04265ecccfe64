"""Byte-identical CLI output, checked against recorded digests.

A seeded corpus of about 1,200 in-process ``sharedsched.cli.main`` calls
covers all eight commands, with valid, infeasible, invalid, unknown-id and
malformed inputs.  Each call's exit code, stdout, stderr and any file it
writes (``gen-n3dm --out``) hash to one short digest, stored under a name
that gives the call's number, command and kind of input, so a mismatch
names the call.  ``data/cli_digests.json`` holds the recorded digests.

Re-record the digests only for an intended change of output, and name in
CHANGES.md each case whose digest changed.  The corpus leaves out inputs
whose output depends on the Python version (argparse usage errors, JSON
nested past the recursion limit) and numbers past Python's int-from-str
digit limit, which have tests of their own.

The module imports neither pytest nor the test helpers, so it runs on any
supported interpreter::

    PYTHONPATH=src python tests/test_cli_digests.py            # compare
    PYTHONPATH=src python tests/test_cli_digests.py --record   # re-record
    PYTHONPATH=src python tests/test_cli_digests.py --print SEED COUNT

``--print`` writes one ``name digest`` line per call of another seeded
corpus, for comparing two checkouts call by call.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
SEED, COUNT = 0, 1_200
COMMANDS = ("solve", "brute", "eval", "transform", "check", "gen-n3dm", "decide-n3dm", "gantt")
ODD_IDS = ["a b", 'q"uote', "back\\slash", "é", "☃", "x" * 12]


def _literal(rng: random.Random, value: int, exponent: int):
    """``value / 2**exponent`` in one of the forms a document may use."""
    if exponent == 0 and rng.random() < 0.2:
        return value  # a JSON integer
    form = rng.randrange(3)
    if form == 0 and exponent == 0:
        return str(value)
    if form == 1:
        return f"{value}/{1 << exponent}"
    return f"{value}/2^{exponent}"


def _spoil(rng: random.Random):
    """A value that no dyadic field accepts."""
    return rng.choice([None, 1.5, True, "1/3", "", "-2", "0", [], "4 ", "1/2^9000"])


def _instance(rng: random.Random, max_n=6, equal=None):
    n = rng.randint(0, max_n)
    m = rng.randint(1, 4)
    equal = rng.random() < 0.5 if equal is None else equal
    jobs = []
    for idx in range(n):
        job_id = rng.choice(ODD_IDS) if rng.random() < 0.1 else f"j{idx}"
        p = _literal(rng, rng.randint(1, 40), rng.choice([0, 0, 1, 2]))
        w = "1" if equal else _literal(rng, rng.randint(1, 9), rng.choice([0, 0, 1]))
        jobs.append({"id": job_id, "p": p, "w": w})
    doc = {"m": m, "jobs": jobs}
    roll = rng.random()
    if roll < 0.05 and jobs:
        rng.choice(jobs)[rng.choice(["p", "w"])] = _spoil(rng)
    elif roll < 0.07 and jobs:
        del rng.choice(jobs)[rng.choice(["id", "p", "w"])]
    elif roll < 0.09:
        doc["m"] = rng.choice([0, -1, "2", None, True])
    elif roll < 0.1:
        doc["extra"] = 1
    return doc


def _ids(doc) -> list:
    return [job.get("id") for job in doc["jobs"] if isinstance(job, dict)]


def _sync(rng: random.Random, inst) -> dict:
    """Job orders over the instance's processors, some sorted by processing time."""
    m = inst["m"] if isinstance(inst["m"], int) and 1 <= inst["m"] <= 4 else 2
    ids = [job_id for job_id in _ids(inst) if isinstance(job_id, str)]
    rng.shuffle(ids)
    orders = {proc: [] for proc in range(1, m + 1)}
    for job_id in ids[: rng.randint(0, len(ids))]:
        orders[rng.randint(1, m)].append(job_id)
    roll = rng.random()
    if roll < 0.6:  # ascending processing times are always feasible, descending rarely
        rank = {job.get("id"): idx for idx, job in enumerate(inst["jobs"]) if isinstance(job, dict)}
        for order in orders.values():
            order.sort(key=lambda job_id: _value(inst["jobs"][rank[job_id]].get("p")), reverse=roll < 0.2)
    roll = rng.random()
    if roll < 0.06:
        orders[rng.randint(1, m)].insert(0, rng.choice(["zz", "yy"]))
    elif roll < 0.09 and ids:
        orders[rng.randint(1, m)].append(ids[0])  # a job listed twice
    processors = [{"id": proc, "order": order} for proc, order in orders.items() if order or rng.random() < 0.5]
    rng.shuffle(processors)
    if roll > 0.97:
        processors.append({"id": rng.choice([0, m + 1, "1", 1]), "order": []})
    return {"processors": processors}


def _value(literal) -> float:
    # only orders the test inputs, never the output
    if isinstance(literal, int):
        return literal
    if isinstance(literal, str) and literal[:1].isdigit():
        num, _, den = literal.partition("/")
        exponent = int(den[2:]) if den.startswith("2^") else (int(den).bit_length() - 1 if den else 0)
        return int(num) / 2**exponent
    return 0


def _general(rng: random.Random) -> tuple[dict, dict]:
    """A general schedule on a grid of quarters and the instance it fits,
    with idle holes, preemptions and non-normal placements; sometimes made
    invalid by one change."""
    n, m = rng.randint(1, 6), rng.randint(1, 3)
    plan = {proc: [] for proc in range(1, m + 1)}
    placements, jobs = [], []
    for idx in range(n):
        job_id = f"j{idx}"
        proc = rng.choice([None, *range(1, m + 1)])
        pieces = [rng.randint(1, 8) for _ in range(rng.randint(1, 2))] if proc else []
        plan.get(proc, []).extend((job_id, piece) for piece in pieces)
        private = rng.randint(0 if pieces else 1, 24)
        placements.append({"id": job_id, "shared_processor": proc, "shared_intervals": [], "private_completion": private})
        weight = _literal(rng, rng.randint(1, 9), 0)
        jobs.append({"id": job_id, "p": f"{private + sum(pieces)}/4", "w": weight})
    by_id = {entry["id"]: entry for entry in placements}
    for chunks in plan.values():
        rng.shuffle(chunks)
        t = 0
        for job_id, piece in chunks:
            t += rng.choice([0, 0, 1, 2])  # an idle hole
            by_id[job_id]["shared_intervals"].append([t, t + piece])
            t += piece
    for entry in placements:
        entry["shared_intervals"] = [[f"{a}/4", f"{b}/4"] for a, b in entry["shared_intervals"]]
        entry["private_completion"] = f"{entry['private_completion']}/4"
    if rng.random() < 0.25:
        entry = rng.choice(placements)
        change = rng.randrange(5)
        if change == 0:
            entry["private_completion"] = "1/8"
        elif change == 1:
            entry["shared_processor"] = rng.choice([0, m + 1, None, "1", 1.0])
        elif change == 2:
            entry["shared_intervals"].append(["0", "1"])
        elif change == 3:
            entry["shared_intervals"] = rng.choice([[["3", "1"]], [["0"]], "x"])
        else:
            placements.append(dict(entry))  # a duplicate id
    return {"m": m, "jobs": jobs}, {"jobs": placements}


def _n3dm(rng: random.Random, max_n=3) -> dict:
    n = rng.randint(1, max_n)
    b = rng.randint(3, 30)
    doc = {key: [rng.randint(0, b // 2) for _ in range(n)] for key in "XYZ"}
    doc["b"] = b
    if rng.random() < 0.3:  # a solvable one: each triple sums to b
        doc["Z"] = [b - x - y for x, y in zip(doc["X"], rng.sample(doc["Y"], n))]
    roll = rng.random()
    if roll < 0.05:
        doc["X"][0] = rng.choice([-1, 1.5, "1", None])
    elif roll < 0.08:
        doc["Y"].append(1)
    elif roll < 0.1:
        del doc[rng.choice("XYZb")]
    elif roll < 0.12:
        doc["b"] = rng.choice([0, -3, "6", None])
    return doc


def _case(rng: random.Random, command: str) -> tuple[str, list, list]:
    """(kind, documents, options) of one call; a document is JSON data,
    bytes as they are, or None for a file that does not exist."""
    if command in ("gen-n3dm", "decide-n3dm"):
        options = ["--out", "hard.json"] if command == "gen-n3dm" and rng.random() < 0.4 else []
        return "n3dm", [_n3dm(rng)], options
    if command in ("solve", "brute"):
        inst = _instance(rng, max_n=5 if command == "brute" else 6, equal=rng.random() < 0.8)
        options = ["--max-jobs", str(rng.randint(1, 8))] if command == "brute" and rng.random() < 0.3 else []
        return "instance", [inst], options
    if command == "transform" or (command == "check" and rng.random() < 0.5):
        inst, general = _general(rng)
        return "general", [inst, general], _check_options(rng) if command == "check" else []
    inst = _instance(rng)
    options = []
    if command == "gantt":
        options = ["--width", str(rng.choice([1, 7, 60, 200]))]
    elif command == "check":
        options = _check_options(rng)
    return "synchronized", [inst, _sync(rng, inst)], options


def _check_options(rng: random.Random) -> list:
    names = ["v-shape", "ordered", "synchronized", "inclusive"]
    roll = rng.random()
    if roll < 0.3:
        return []
    if roll < 0.35:
        return ["--properties", rng.choice(["bogus", "ordered,", "V-shape"])]
    return ["--properties", ",".join(rng.sample(names, rng.randint(1, 4)))]


def _damage(rng: random.Random, text: bytes) -> tuple[str, bytes | None]:
    """The document's text, or one of the ways reading it can fail."""
    roll = rng.random()
    if roll < 0.04:
        return "truncated", text[: rng.randint(0, len(text) - 1)]
    if roll < 0.05:
        return "not-utf8", b"\xff" + text
    if roll < 0.06:
        return "missing", None
    if roll < 0.07:
        return "not-an-object", rng.choice([b"[]", b"null", b"3", b'"x"'])
    return "", text


def corpus(seed: int, count: int):
    """``count`` seeded calls as (name, argv, {file name: bytes or None})."""
    rng = random.Random(seed)
    for index in range(count):
        command = COMMANDS[index % len(COMMANDS)]
        kind, docs, options = _case(rng, command)
        files, argv = {}, [command]
        for idx, doc in enumerate(docs):
            text = json.dumps(doc).encode()
            damage, text = _damage(rng, text)
            kind += f"+{damage}" if damage else ""
            name = f"input{idx}.json" if text is not None else "missing.json"
            files[name] = text
            argv.append(name)
        yield f"{index:04d} {command} {kind}", argv + options, files


def _digest(main, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # an escaped error is output too
            code = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8", "surrogatepass"))
    for path in sorted(Path().iterdir()):
        if not path.name.startswith("input"):  # a file the call wrote
            digest.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
            path.unlink()
    return digest.hexdigest()[:16]


def run_corpus(seed: int = SEED, count: int = COUNT) -> dict:
    """{call name: digest} for the seeded corpus, run in a scratch folder."""
    from sharedsched.cli import main

    digests = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            for name, argv, files in corpus(seed, count):
                for file_name, text in files.items():
                    if text is not None:
                        Path(file_name).write_bytes(text)
                digests[name] = _digest(main, argv)
                for file_name in files:
                    Path(file_name).unlink(missing_ok=True)
        finally:
            os.chdir(home)
    return digests


def mismatches() -> list:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = run_corpus()
    names = sorted(set(recorded) | set(digests))
    return [name for name in names if recorded.get(name) != digests.get(name)]


def test_cli_output_matches_recorded_digests():
    assert mismatches() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        text = json.dumps(run_corpus(), indent=0, sort_keys=True)
        DIGESTS.write_text(text + "\n", encoding="utf-8")
    elif sys.argv[1:2] == ["--print"]:
        for name, digest in run_corpus(int(sys.argv[2]), int(sys.argv[3])).items():
            print(name, digest)
    else:
        names = mismatches()
        print("\n".join(names) or f"all {COUNT} digests match")
        sys.exit(bool(names))
