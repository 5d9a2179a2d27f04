"""Launch benchmark children from a process of interpreter size.

Linux starts a child's peak RSS (``ru_maxrss``) at the peak RSS of the
process that spawned it, so children spawned straight from the benchmark,
which holds outputs and reference values, would report its size rather
than their own.  This launcher stays small: it reads one JSON request per
line on stdin (``argv``, ``stdout`` path, ``limit`` in seconds), runs the
command with stdout to that file, kills it at the limit, and answers with
one JSON line: ``code`` (null when killed), ``wall``, ``cpu``, ``rss_kb``.
"""

import json
import os
import signal
import sys
import time


def run(argv, stdout_path, limit):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    killed = False
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)

    def expire(signum, frame):
        nonlocal killed
        killed = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    # wait without reaping, so the pid cannot be reused before the timer
    # is disarmed; wait4 then reaps it with its resource usage
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    return {"code": None if killed else os.waitstatus_to_exitcode(status),
            "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["stdout"], req["limit"])),
              flush=True)


if __name__ == "__main__":
    main()
