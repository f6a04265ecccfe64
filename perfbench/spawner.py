"""Launch and time CLI children on behalf of the benchmark.

    python3 perfbench/spawner.py     (driven by harness.Spawner over stdin/stdout)

Reads one JSON request per line, ``{"argv", "stdout", "stderr",
"timeout"}``; runs the child with the spawner's own environment and
working directory, copies the child's stdout pipe to the named file in
fixed-size chunks and writes its stderr there directly; answers with one
JSON line ``{"wall_s", "exit_code", "maxrss_kb", "timed_out"}``.  The
wall time runs from spawn until stdout is drained and the child is
reaped.  Exits when its stdin closes.

Why a separate process: on Linux a child's ``ru_maxrss`` starts from the
peak RSS of the process that spawned it, so children of the benchmark
itself would report the benchmark's memory.  This process stays small
(stdout passes through one buffer), so the peak it passes on is well
below any CLI child's own.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHUNK = 1 << 20


def run(request: dict) -> dict:
    killed = threading.Event()
    buffer = bytearray(CHUNK)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], bufsize=0, stdout=subprocess.PIPE, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            with memoryview(buffer) as view:
                while size := proc.stdout.readinto(view):
                    out.write(view[:size])
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": killed.is_set(),
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
