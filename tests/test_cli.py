"""CLI subcommands: outputs, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import sharedsched
from sharedsched.cli import main
from sharedsched.engine import serialize_sync_schedule
from sharedsched.model import parse_instance
from sharedsched.solvers import SearchLimits, brute_force

FIVE_JOBS = (
    '{"m": 2, "jobs": ['
    '{"id": "a", "p": "10", "w": "1"}, {"id": "b", "p": "9", "w": "1"}, '
    '{"id": "c", "p": "8", "w": "1"}, {"id": "d", "p": "7", "w": "1"}, '
    '{"id": "e", "p": "6", "w": "1"}]}'
)


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_worked_example(workdir, capsys):
    _, write = workdir
    inst = write("inst.json", FIVE_JOBS)
    code, out, _ = run(capsys, "solve", inst)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "14"
    orders = {proc["id"]: proc["order"] for proc in data["schedule"]["processors"]}
    assert orders == {1: ["e", "c", "a"], 2: ["d", "b"]}


def test_solve_single_job(workdir, capsys):
    _, write = workdir
    inst = write("inst.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    code, out, _ = run(capsys, "solve", inst)
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_solve_weighted_exits_3(workdir, capsys):
    _, write = workdir
    inst = write(
        "w.json",
        '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"4","w":"2"}]}',
    )
    code, _, err = run(capsys, "solve", inst)
    assert code == 3
    assert "brute" in err


def test_brute_v_instance(workdir, capsys):
    _, write = workdir
    inst = write(
        "v.json",
        '{"m":1,"jobs":[{"id":"x","p":"8","w":"8"},{"id":"y","p":"9","w":"9"},'
        '{"id":"z","p":"10","w":"10"}]}',
    )
    code, out, _ = run(capsys, "brute", inst)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "293/4"
    assert data["schedule"]["processors"][0]["order"] == ["y", "x", "z"]


def test_brute_too_large_exits_4(workdir, capsys):
    _, write = workdir
    jobs = ",".join(f'{{"id":"j{i}","p":"2","w":"1"}}' for i in range(9))
    inst = write("big.json", f'{{"m":1,"jobs":[{jobs}]}}')
    assert run(capsys, "brute", inst)[0] == 4
    assert run(capsys, "brute", inst, "--max-jobs", "9")[0] == 0


@pytest.mark.parametrize("value", ["0", "-1"])
def test_brute_nonpositive_max_jobs_exits_2(workdir, capsys, value):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    with pytest.raises(SystemExit) as exc:
        main(["brute", inst, "--max-jobs", value])
    assert exc.value.code == 2
    assert "--max-jobs" in capsys.readouterr().err


@pytest.mark.parametrize("n,m", [(8, 7), (8, 8), (3, 300)])
def test_brute_accepts_processors_past_the_job_count(workdir, capsys, n, m):
    _, write = workdir
    jobs = ",".join(
        f'{{"id":"j{i}","p":"{7 + 5 * i}/{1 << i % 3}","w":"{1 + i % 3}"}}' for i in range(n)
    )
    code, out, _ = run(capsys, "brute", write("wide.json", f'{{"m":{m},"jobs":[{jobs}]}}'))
    assert code == 0
    data = json.loads(out)
    inst = parse_instance(f'{{"m":{m},"jobs":[{jobs}]}}')
    schedule, value = brute_force(inst, SearchLimits(max_candidates=10**9))
    assert data == {"schedule": json.loads(serialize_sync_schedule(schedule)), "value": str(value)}
    if m >= n:
        _, exact = brute_force(parse_instance(f'{{"m":{n},"jobs":[{jobs}]}}'))
        assert data["value"] == str(exact)
        assert all(not proc["order"] for proc in data["schedule"]["processors"][n:])


def test_brute_empty_instance(workdir, capsys):
    _, write = workdir
    inst = write("empty.json", '{"m":1,"jobs":[]}')
    code, out, _ = run(capsys, "brute", inst)
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_eval_report(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"8","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, out, _ = run(capsys, "eval", inst, sched)
    assert code == 0
    data = json.loads(out)
    assert data["total"] == "5"
    assert data["processors"][0]["start_times"] == ["0", "2", "5"]
    assert data["processors"][0]["overlaps"] == ["2", "3"]
    assert data["job_overlaps"] == {"a": "2", "b": "3"}


def test_eval_infeasible_exits_5(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"2","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, _, err = run(capsys, "eval", inst, sched)
    assert code == 5
    assert "position 2" in err


def test_eval_unknown_id_exits_2(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["ghost"]}]}')
    assert run(capsys, "eval", inst, sched)[0] == 2


def test_parse_error_exits_2(workdir, capsys):
    _, write = workdir
    bad = write("bad.json", "{nope")
    assert run(capsys, "solve", bad)[0] == 2
    assert run(capsys, "brute", bad)[0] == 2
    missing = str(workdir[0] / "does-not-exist.json")
    assert run(capsys, "solve", missing)[0] == 2


def test_transform_reports_values(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"5"},{"id":"b","p":"8","w":"1"}]}'
    )
    general = write(
        "g.json",
        json.dumps(
            {
                "jobs": [
                    {
                        "id": "a",
                        "shared_processor": 1,
                        "shared_intervals": [["0", "1"]],
                        "private_completion": "3",
                    },
                    {
                        "id": "b",
                        "shared_processor": 1,
                        "shared_intervals": [["1", "9/2"]],
                        "private_completion": "9/2",
                    },
                ]
            }
        ),
    )
    code, out, _ = run(capsys, "transform", inst, general, "--to", "synchronized")
    assert code == 0
    data = json.loads(out)
    assert data["value_before"] == "17/2"
    assert data["value_after"] == "13"
    assert data["value_delta"] == "9/2"
    assert data["schedule"]["processors"][0]["order"] == ["a", "b"]


def test_transform_identity_on_synchronized(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"8","w":"1"}]}'
    )
    general = write(
        "g.json",
        json.dumps(
            {
                "jobs": [
                    {
                        "id": "a",
                        "shared_processor": 1,
                        "shared_intervals": [["0", "2"]],
                        "private_completion": "2",
                    },
                    {
                        "id": "b",
                        "shared_processor": 1,
                        "shared_intervals": [["2", "5"]],
                        "private_completion": "5",
                    },
                ]
            }
        ),
    )
    code, out, _ = run(capsys, "transform", inst, general)
    data = json.loads(out)
    assert code == 0
    assert data["value_before"] == data["value_after"] == "5"
    assert data["value_delta"] == "0"


def test_transform_invalid_exits_5(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    general = write(
        "g.json",
        '{"jobs":[{"id":"a","shared_processor":null,"shared_intervals":[],'
        '"private_completion":"1"}]}',
    )
    assert run(capsys, "transform", inst, general)[0] == 5


def test_check_properties(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json",
        '{"m":1,"jobs":[{"id":"x","p":"8","w":"8"},{"id":"y","p":"9","w":"9"},'
        '{"id":"z","p":"10","w":"10"}]}',
    )
    vshape = write("v.json", '{"processors":[{"id":1,"order":["y","x","z"]}]}')
    code, out, _ = run(capsys, "check", inst, vshape)
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["v-shape"]["pass"]
    assert props["inclusive"]["pass"]
    assert props["synchronized"]["pass"]
    bad = write("bad.json", '{"processors":[{"id":1,"order":["x","z","y"]}]}')
    code, out, _ = run(capsys, "check", inst, bad, "--properties", "v-shape")
    props = json.loads(out)["properties"]
    assert not props["v-shape"]["pass"]
    assert "processor 1" in props["v-shape"]["failures"][0]


def test_check_inclusive_fail(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"2","w":"1"},{"id":"b","p":"4","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    code, out, _ = run(capsys, "check", inst, sched, "--properties", "inclusive")
    props = json.loads(out)["properties"]
    assert code == 0
    assert not props["inclusive"]["pass"]


def test_check_general_schedule(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    general = write(
        "g.json",
        '{"jobs":[{"id":"a","shared_processor":1,"shared_intervals":[["0","1"]],'
        '"private_completion":"3"}]}',
    )
    code, out, _ = run(capsys, "check", inst, general, "--properties", "ordered,synchronized")
    props = json.loads(out)["properties"]
    assert props["ordered"]["pass"]
    assert not props["synchronized"]["pass"]


def test_check_unknown_property(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["a"]}]}')
    assert run(capsys, "check", inst, sched, "--properties", "bogus")[0] == 2


def test_gen_n3dm_stdout(workdir, capsys):
    _, write = workdir
    src = write("n.json", '{"X":[1],"Y":[2],"Z":[3],"b":6}')
    code, out, _ = run(capsys, "gen-n3dm", src)
    assert code == 0
    data = json.loads(out)
    assert (data["M"], data["m_param"], data["K"]) == (386, 7, 1606)
    times = {j["id"]: j["p"] for j in data["instance"]["jobs"]}
    assert times == {"A1": "788", "B1": "774", "C1": "876"}
    assert data["instance"]["m"] == 1


def test_gen_n3dm_files(workdir, capsys):
    tmp_path, write = workdir
    src = write("n.json", '{"X":[1,2],"Y":[2,2],"Z":[3,1],"b":6}')
    out_path = tmp_path / "hard.json"
    code, out, _ = run(capsys, "gen-n3dm", src, "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["m_param"] == 7
    inst = json.loads(out_path.read_text())
    assert len(inst["jobs"]) == 6 and inst["m"] == 2
    sidecar = json.loads((tmp_path / "hard.provenance.json").read_text())
    assert sidecar["n"] == 2
    assert len(sidecar["jobs"]) == 6


def test_gen_n3dm_negative_exits_2(workdir, capsys):
    _, write = workdir
    src = write("n.json", '{"X":[-1],"Y":[2],"Z":[3],"b":6}')
    assert run(capsys, "gen-n3dm", src)[0] == 2


def test_decide_n3dm(workdir, capsys):
    _, write = workdir
    yes = write("yes.json", '{"X":[1],"Y":[2],"Z":[3],"b":6}')
    code, out, _ = run(capsys, "decide-n3dm", yes)
    assert code == 0
    assert json.loads(out) == {"solvable": True, "witness": [[0, 0, 0]]}
    no = write("no.json", '{"X":[1,2],"Y":[1,2],"Z":[1,2],"b":4}')
    code, out, _ = run(capsys, "decide-n3dm", no)
    assert json.loads(out) == {"solvable": False, "witness": None}
    big = write("big.json", '{"X":[0,0,0,0,0],"Y":[0,0,0,0,0],"Z":[0,0,0,0,0],"b":0}')
    assert run(capsys, "decide-n3dm", big)[0] == 4


def test_gantt_rows_and_determinism(workdir, capsys):
    _, write = workdir
    inst = write("i.json", FIVE_JOBS)
    code, solved, _ = run(capsys, "solve", inst)
    sched = write("s.json", json.dumps(json.loads(solved)["schedule"]))
    code, out1, _ = run(capsys, "gantt", inst, sched, "--width", "40")
    assert code == 0
    bar_rows = [line for line in out1.splitlines() if "|" in line]
    assert len(bar_rows) == 2 + 5  # shared rows + private rows
    assert all(line.endswith("|") for line in bar_rows)
    code, out2, _ = run(capsys, "gantt", inst, sched, "--width", "40")
    assert out1 == out2
    code, wide, _ = run(capsys, "gantt", inst, sched, "--width", "80")
    assert wide != out1


def test_gantt_single_job(workdir, capsys):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["a"]}]}')
    code, out, _ = run(capsys, "gantt", inst, sched, "--width", "8")
    assert code == 0
    lines = out.splitlines()
    assert "time 0..2" in lines[0]
    # synchronized single job: both bars cover the full horizon
    assert lines[1].endswith("|aaaaaaaa|")
    assert lines[2].endswith("|========|")


def test_gantt_full_text(workdir, capsys):
    # an empty processor, a private-only job that sets the horizon, dyadic
    # start times, and a job id longer than its bar
    _, write = workdir
    inst = write(
        "i.json",
        '{"m":3,"jobs":[{"id":"a","p":"3/2","w":"1"},{"id":"longjob","p":"5/2","w":"3/4"},'
        '{"id":"c","p":"9/4","w":"1"},{"id":"z","p":"5","w":"1"}]}',
    )
    sched = write(
        "s.json", '{"processors":[{"id":1,"order":["a","longjob"]},{"id":3,"order":["c"]}]}'
    )
    code, out, _ = run(capsys, "gantt", inst, sched, "--width", "20")
    assert code == 0
    assert out == (
        "time 0..5  (20 columns)\n"
        "M1        |aaalon              |\n"
        "M2        |                    |\n"
        "M3        |cccc                |\n"
        "P a       |===                 |\n"
        "P longjob |======              |\n"
        "P c       |====                |\n"
        "P z       |====================|\n"
    )


@pytest.mark.parametrize("value", ["0", "-5"])
def test_gantt_nonpositive_width_exits_2(workdir, capsys, value):
    _, write = workdir
    inst = write("i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    sched = write("s.json", '{"processors":[{"id":1,"order":["a"]}]}')
    with pytest.raises(SystemExit) as exc:
        main(["gantt", inst, sched, "--width", value])
    assert exc.value.code == 2
    assert "--width" in capsys.readouterr().err


def test_gantt_infeasible_exits_5(workdir, capsys):
    _, write = workdir
    inst = write(
        "i.json", '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"2","w":"1"}]}'
    )
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","b"]}]}')
    assert run(capsys, "gantt", inst, sched)[0] == 5


def test_outputs_byte_identical(workdir, capsys):
    _, write = workdir
    inst = write("i.json", FIVE_JOBS)
    first = run(capsys, "solve", inst)
    second = run(capsys, "solve", inst)
    assert first == second
    v = write(
        "v.json",
        '{"m":1,"jobs":[{"id":"x","p":"8","w":"8"},{"id":"y","p":"9","w":"9"},'
        '{"id":"z","p":"10","w":"10"}]}',
    )
    assert run(capsys, "brute", v) == run(capsys, "brute", v)


WIDE = "9" * 4000
WIDE_JOB = json.dumps({"m": 1, "jobs": [{"id": "a", "p": WIDE, "w": WIDE}, {"id": "b", "p": "3", "w": WIDE}]})


@pytest.mark.parametrize("command", ["brute", "solve", "eval"])
def test_value_too_long_to_print_exits_4(workdir, capsys, command):
    # p * w has about 8000 decimal digits, past Python's default
    # int-to-str limit of 4300, although each literal has 4000
    _, write = workdir
    argv = [command, write("i.json", WIDE_JOB)]
    if command == "eval":
        argv.append(write("s.json", '{"processors":[{"id":1,"order":["a"]}]}'))
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: a result value has more than 4300") and err.count("\n") == 1


def _run_capped(*argv) -> subprocess.CompletedProcess:
    """One CLI call in a child process under a 1 GiB address-space limit.

    An input that makes the CLI ask for gigabytes then fails the test
    instead of swapping the machine.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(sharedsched.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "sharedsched.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


def test_exponent_past_bound_exits_4_fast(workdir):
    _, write = workdir
    literal = "1/2^20000000000"
    jobs = [{"id": "a", "p": literal, "w": "1"}, {"id": "b", "p": "3", "w": "1"}]
    inst = write("i.json", json.dumps({"m": 1, "jobs": jobs}))
    done = _run_capped("solve", inst)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == f"error: jobs[0].p: exponent 20000000000 exceeds the limit of 8192: {literal!r}\n"


def test_gantt_width_past_bound_exits_4_fast(workdir):
    # unbounded, a billion columns per row end in a MemoryError traceback
    _, write = workdir
    inst, sched = write("i.json", TWO_JOBS), write("s.json", SYNC_AB)
    done = _run_capped("gantt", inst, sched, "--width", "10000")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "time 0..5  (10000 columns)"
    assert len(lines) == 4 and all(len(line) == len("M1  |") + 10000 + 1 for line in lines[1:])
    for width in ("10001", "1000000000"):
        done = _run_capped("gantt", inst, sched, "--width", width)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr == f"error: --width {width} exceeds the limit of 10000 columns\n"


@pytest.mark.parametrize(
    "literal,code,message",
    [
        ("3/2^8193", 4, "exponent 8193 exceeds the limit of 8192: '3/2^8193'"),
        ("3/%d" % (1 << 8193), 4, "exponent 8193 exceeds the limit of 8192: '3/%d'" % (1 << 8193)),
        ("4\n", 2, "not a dyadic literal: '4\\n'"),
        ("\u0663/2", 2, "not a dyadic literal: '\u0663/2'"),
    ],
    ids=["exponent", "denominator", "final-newline", "arabic-indic-digit"],
)
@pytest.mark.parametrize("command", ["solve", "brute", "eval", "check", "gantt", "transform"])
def test_literal_bound_and_grammar_exit_codes(workdir, capsys, command, literal, code, message):
    _, write = workdir
    if command == "transform":
        general = json.loads(GENERAL_AB)
        general["jobs"][1]["private_completion"] = literal
        argv = [command, write("i.json", TWO_JOBS), write("g.json", json.dumps(general))]
        what = "job 'b' private completion"
    else:
        inst = json.loads(TWO_JOBS)
        inst["jobs"][1]["w"] = literal
        argv = [command, write("i.json", json.dumps(inst))]
        if command not in ("solve", "brute"):
            argv.append(write("s.json", SYNC_AB))
        what = "jobs[1].w"
    assert run(capsys, *argv) == (code, "", f"error: {what}: {message}\n")


def test_unknown_ids_reported_in_processor_order(workdir, capsys):
    _, write = workdir
    inst = write("i.json", FIVE_JOBS)
    sched = write("s.json", '{"processors":[{"id":1,"order":["a","zz","yy"]},{"id":2,"order":["xx"]}]}')
    for command in ("eval", "gantt", "check"):
        code, _, err = run(capsys, command, inst, sched)
        assert code == 2
        assert "unknown job id 'zz'" in err


# JSON that json.loads refuses with a plain ValueError (an integer literal
# past Python's 4300-digit int-from-str limit) or a RecursionError
LONG_INTEGER = '{"m": 1, "jobs": [{"id": "a", "p": ' + "9" * 5000 + ', "w": "1"}]}'
DEEP_NESTING = "[" * 200000
TWO_JOBS = '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"b","p":"8","w":"1"}]}'
SYNC_AB = '{"processors":[{"id":1,"order":["a","b"]}]}'
GENERAL_AB = json.dumps(
    {
        "jobs": [
            {"id": j, "shared_processor": 1, "shared_intervals": [[a, b]], "private_completion": c}
            for j, a, b, c in (("a", "0", "1", "3"), ("b", "1", "9/2", "9/2"))
        ]
    }
)


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize(
    "text", [LONG_INTEGER, DEEP_NESTING, NOT_UTF8], ids=["long-integer", "deep-nesting", "not-utf8"]
)
@pytest.mark.parametrize("command", ["solve", "eval", "transform"])
def test_unreadable_json_exits_2(workdir, capsys, command, text):
    _, write = workdir
    bad = write("bad.json", text)
    calls = [[command, bad]]
    if command != "solve":
        good_inst, good_sched = write("i.json", TWO_JOBS), write("s.json", SYNC_AB)
        calls = [[command, bad, good_sched], [command, good_inst, bad]]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed JSON") and err.count("\n") == 1


def _loaded_modules(tmp_path, *argv) -> set[str]:
    """The modules a fresh interpreter imports for one CLI call.

    The snapshot is taken when the script starts, after ``site``, so that
    a ``.pth`` file in site-packages cannot change the result.
    """
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import json\n"
        "from sharedsched.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sharedsched.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_commands_import_only_what_they_use(workdir):
    tmp_path, write = workdir
    inst, sched = write("i.json", TWO_JOBS), write("s.json", SYNC_AB)
    general = write("g.json", GENERAL_AB)
    calls = {
        "solve": [inst],
        "eval": [inst, sched],
        "brute": [inst],
        "transform": [inst, general],
        "check": [inst, sched],
        "gantt": [inst, sched],
    }
    loaded = {command: _loaded_modules(tmp_path, command, *args) for command, args in calls.items()}
    for command in ("solve", "eval", "brute"):
        assert "sharedsched.engine" in loaded[command]
        assert not loaded[command] & {"sharedsched.transforms", "sharedsched.hardness"}, command
        assert ("sharedsched._permsearch" in loaded[command]) == (command == "brute"), command
    assert "sharedsched.transforms" in loaded["transform"]
    assert not loaded["transform"] & {"sharedsched.solvers", "sharedsched._permsearch", "sharedsched.hardness"}
    for command, modules in loaded.items():
        # importing dataclasses, which imports inspect, costs ~20 ms of start-up
        assert not modules & {"dataclasses", "inspect"}, command
