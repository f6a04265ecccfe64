"""Running ``sharedsched`` CLI processes and recording what ran.

The package is used from ``src/`` without installing it, so every child
is ``python -m sharedsched.cli`` with ``src`` on ``PYTHONPATH`` and the
checkout root as working directory.  Children run one at a time, started
by :class:`Spawner`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
GOLDEN = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 0
CALL_TIMEOUT_S = 120.0


def require_source() -> None:
    """Exit with an error unless the package source is present."""
    if not (SRC / "sharedsched" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'sharedsched'} not found; run from a checkout")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Call:
    """One finished child process."""

    wall_s: float
    stdout: bytes
    stderr: bytes
    exit_code: int
    maxrss_mb: float
    timed_out: bool

    def failure(self) -> str | None:
        """Why the call failed at the process level, or None."""
        if self.timed_out:
            return "timeout"
        if self.exit_code != 0:
            return f"exit code {self.exit_code}"
        if b"Traceback" in self.stderr:
            return "traceback on stderr"
        return None


class Spawner:
    """A long-lived ``spawner.py`` process that runs the CLI children.

    Started before the benchmark builds its inputs, while it is small;
    see ``spawner.py`` for why children are not spawned directly.  Use
    as a context manager: leaving it stops and reaps the spawner.
    """

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
            text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str]) -> Call:
        """Run one child to completion; returns its output and timing."""
        self.work.mkdir(parents=True, exist_ok=True)
        out, err = self.work / "stdout.bin", self.work / "stderr.txt"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return Call(
            reply["wall_s"],
            out.read_bytes(),
            err.read_bytes(),
            reply["exit_code"],
            reply["maxrss_kb"] / 1024,
            reply["timed_out"],
        )


def write_case(case, directory: Path, index: int) -> tuple[list[str], list[Path]]:
    """Write the case's input files; return the CLI argv that reads them
    and the files themselves."""
    paths = [directory / f"{index:02d}-instance.json"]
    paths[0].write_text(json.dumps(case.instance), encoding="utf-8")
    if case.schedule is not None:
        paths.append(directory / f"{index:02d}-schedule.json")
        paths[1].write_text(json.dumps(case.schedule), encoding="utf-8")
    argv = [sys.executable, "-m", "sharedsched.cli", case.command]
    return argv + [str(path.relative_to(ROOT)) for path in paths] + list(case.extra_args), paths


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(workload: str, seed: int, scale: str) -> list[str] | None:
    """Stdout digests recorded for the default seed, else None."""
    if seed != DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(scale, {}).get(workload)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git; a
    checkout exported without ``.git`` reports "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def package():
    """The package's modules, imported from ``src`` into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from sharedsched import _permsearch, engine, model, solvers, transforms

    return SimpleNamespace(
        engine=engine, model=model, solvers=solvers, transforms=transforms, permsearch=_permsearch
    )


def provenance(pool) -> dict:
    """What every result records, so results from different setups are
    never compared by mistake."""
    return {
        "backend": package().solvers.search_backend(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "n": sorted({case.n for case in pool}),
        "m": sorted({case.m for case in pool}),
    }
