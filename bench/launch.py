"""Run one command and report its wall time and resource usage as JSON.

Usage: ``python bench/launch.py <stdout> <stderr> <timeout-s> <argv>...``

The benchmark starts every measured child through this small stdlib-only
process. A child's ``ru_maxrss`` also counts the pages it shared with its
parent when it was forked, so forking from the benchmark itself, which
holds generated inputs, would report the benchmark's memory, not the
program's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    stdout, stderr, timeout, *command = argv
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "exit_code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
