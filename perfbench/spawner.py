"""Start one command at a time; report its exit code, wall time and peak memory.

The benchmark starts this helper before it builds any input and sends it
every command line it runs. On exec, Linux carries the spawning process's
peak resident set into the child's ``ru_maxrss``, so a child started by the
benchmark process itself would report the benchmark's own inputs as its
peak. This helper holds nothing but its requests, so its children report
their own peak.

Protocol: one JSON request per line on standard input, with ``argv``,
``env`` and the ``stdin``, ``stdout`` and ``stderr`` paths; one JSON reply
per line on standard output. The helper exits when its input closes.
"""

from __future__ import annotations

import json
import os
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def spawn_and_wait(argv: list[str], env: dict[str, str], stdin: str, stdout: str,
                   stderr: str) -> dict:
    """Run one process to completion; return its exit code, wall time and peak RSS."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, _WRITE, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - started
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn_and_wait(request["argv"], request["env"], request["stdin"],
                               request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
