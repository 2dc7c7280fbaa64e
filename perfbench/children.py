"""Child processes of the benchmark and the tally of checked outputs."""

from __future__ import annotations

import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float  # user plus system time of the child and its threads
    exit_code: int
    peak_rss_mb: float
    stderr_text: str


def run_child(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> ChildRun:
    """Run one interpreter child; wall time from spawn to reap, CPU time and peak RSS of it alone.

    os.wait4 gives the child's own ru_maxrss; getrusage(RUSAGE_CHILDREN)
    would give the maximum over every child reaped so far.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if exited else -signal.SIGKILL
    return ChildRun(
        wall, usage.ru_utime + usage.ru_stime, code, usage.ru_maxrss / 1024.0,
        stderr.read_text(errors="replace"),
    )


class Checked:
    """Counts checked children; a child fails on a nonzero exit or any oracle problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)
