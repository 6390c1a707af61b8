"""Job launcher, kept small on purpose.

Linux carries a process's resident-set high-water mark across exec, so a
job started straight from the benchmark process would report at least the
benchmark's own RSS as its max RSS.  run.py starts this process first,
while it is still small, and has it start every timed job.

Protocol, one JSON object per line:
    stdin:  {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
    stdout: {"rc": exit code, "wall": s, "cpu": s, "maxrss_kb": KB}
The launcher exits when its stdin closes.
"""

import json
import os
import signal
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
    done = threading.Event()

    def kill(pid):
        if not done.is_set():
            os.kill(pid, signal.SIGKILL)

    argv = request["argv"]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    timer = threading.Timer(request["timeout"], kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        done.set()
        timer.cancel()
    return {"rc": os.waitstatus_to_exitcode(status), "wall": perf_counter() - start,
            "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
