"""Runs commands as child processes and reports each one's wall time and peak RSS.

Started once per benchmark run, it reads one JSON request per line on
standard input, ``{"argv": [...], "log": PATH}``, runs the command with
its output sent to ``log``, and answers with one JSON line
``{"wall_s", "rc", "maxrss_kb"}``. It exits when its input closes.

Linux records the memory high-water mark of the address space a process
execs from into that process's peak RSS, and Python starts children with
vfork, which execs from the parent's address space. A child started by
the benchmark's own interpreter, which has loaded numpy and run the
4e6-replica simulations in process, would therefore report at least the
benchmark's peak. This launcher imports only the standard library, so the
peak RSS it reports is the command's own.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        print(json.dumps({"wall_s": wall, "rc": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
