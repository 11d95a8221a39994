"""Spawn the benchmark's request processes from a small process of its own.

On Linux the peak RSS that wait4 reports for a child includes the resident
size of the process that spawned it, because the spawner's high-water mark
is carried across exec.  The benchmark's own memory grows with its deck, so
requests are spawned from this lean process instead.

Protocol, one JSON line each way per request:
  stdin:  [argv, timeout_s, stdout_path, stderr_path]
  stdout: [wall_s, cpu_s, maxrss_kb, exit_code, timed_out]
A request still running at its timeout is killed with SIGKILL and reaped.
The spawner exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def run_process(argv: list[str], timeout: float, out_path: str, err_path: str) -> list:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(timeout * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    cpu = usage.ru_utime + usage.ru_stime
    return [wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status), timed_out]


def main() -> int:
    for line in sys.stdin:
        argv, timeout, out_path, err_path = json.loads(line)
        print(json.dumps(run_process(argv, timeout, out_path, err_path)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
