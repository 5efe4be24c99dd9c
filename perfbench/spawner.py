"""Starts the benchmark's child processes from a small interpreter.

Linux counts the memory of the process that forked a child into the
child's peak RSS (``exec`` keeps the old image's high-water mark), so
children forked straight from the benchmark, which holds its inputs and
expected outputs, would all report at least the benchmark's own size. This
process stays small and forks them instead.

Protocol, one JSON object per line: a request on stdin
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``, and a reply on
stdout ``{"rc", "wall", "cpu", "maxrss_kib"}``. The child is killed after
``timeout`` seconds. Run as ``python -S spawner.py``; end it by closing stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                cwd=request["cwd"], env=request["env"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
