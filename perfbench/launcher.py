"""Starts CLI children on request and measures each one with ``os.wait4``.

Reads one JSON request per line on stdin, ``{"argv", "stdout", "stderr",
"cwd", "timeout"}``, runs the child to completion and answers with one JSON
line: exit code, wall time, CPU time and peak RSS of that child alone.

It runs as a small process of its own because Linux reports a child's peak
RSS as at least the peak RSS of the process it was spawned from: spawned
from the benchmark, whose output checks hold whole allocations in memory,
every child would inherit that figure.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    cwd=request["cwd"])
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "code": code,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024,
        }), flush=True)


if __name__ == "__main__":
    main()
