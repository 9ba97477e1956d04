"""Runs the benchmark's commands one at a time and reports each one's rusage.

Run with ``python -S`` and importing only a few standard modules, this
process stays a few megabytes large.  That matters for peak memory: Linux
carries the parent's resident size into a forked child's ``ru_maxrss``, so
commands spawned straight from the benchmark process, which holds numpy and
the traced package, would report at least the benchmark's own size.  Forked
from here, a command's ``ru_maxrss`` from ``wait4`` is its own peak.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stdout", "stderr", "timeout"}``; one JSON reply per stdout line,
``{"wall_s", "maxrss_kb", "code"}``, where ``code`` is -1 when the command
was killed at its timeout.  The launcher exits when stdin closes.
"""

import json
import os
import signal
import sys
from time import perf_counter


def run(request) -> dict:
    out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(request["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execve(request["argv"][0], request["argv"], request["env"])
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)
    killed = []

    def kill(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        # wait without reaping, so a late alarm can only hit the zombie
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    code = -1 if killed else os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": code}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
