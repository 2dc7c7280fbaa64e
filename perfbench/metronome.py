"""A reference loop that measures how fast the benchmark's CPU runs right now.

    python3 perfbench/metronome.py COUNTER_FILE

Other tenants of a shared host slow its CPUs by up to 2x, in spells from
milliseconds to minutes that no clock inside the guest shows (see
NOTES.md, "Host noise"). The benchmark therefore pins itself, its
children and this loop to one CPU. The loop runs at a low priority, so
the scheduler gives it a few-millisecond slice every few tens of
milliseconds while a child runs, and it feels each slow spell the child
feels. After each chunk of fixed work it writes (chunks done, its own
CPU nanoseconds, their xor as a check) to COUNTER_FILE; the rate between two readings is the
CPU's speed over that interval, in chunks per CPU second.

A chunk is half a tight integer loop and half a random walk over a
million floats (about 60 MB with its index). A tight loop alone slows
less than the patternblocks children in a slow spell and a memory walk
alone slows more; with the two halves, a child's CPU time times the rate
varied 3-6% from child to child where its CPU time alone varied 14-30%.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import random
import signal
import struct
import sys
import time
from pathlib import Path

COUNTER = struct.Struct("qqq")  # chunks done, CPU ns at the end of the last one, check
NICE = 10  # about a tenth of the CPU beside a nice-0 child
LOOP = 10_000
WALK = 1_000_000
STEP = 2_500
# The time unit of the benchmark: one chunk is 1 ms at the reference speed.
# A 2-vCPU Xeon VM ran 400-800 chunks per CPU second beside a child.
REF_CHUNKS_PER_S = 1000.0
READY_TIMEOUT_S = 60.0


def spin(path: str) -> None:
    parent = os.getppid()
    os.nice(NICE)
    rng = random.Random(0)
    data = [float(i) for i in range(WALK)]
    rng.shuffle(data)
    order = list(range(WALK))
    rng.shuffle(order)
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), COUNTER.size) as counter:
        chunks = pos = 0
        while os.getppid() == parent:  # ends with the benchmark, however that ends
            s = 0
            for i in range(LOOP):
                s += i * i
            t = 0.0
            for j in order[pos : pos + STEP]:
                t += data[j]
            pos = (pos + STEP) % (WALK - STEP)
            chunks += 1
            cpu_ns = time.thread_time_ns()
            COUNTER.pack_into(counter, 0, chunks, cpu_ns, chunks ^ cpu_ns)


class Metronome:
    """Pins this process to one CPU and runs the reference loop beside it there.

    Children spawned inside the `with` block inherit the pinning. Use
    reading() before a child and cost_s(cpu_s, before) after it.
    """

    def __init__(self, work: Path):
        self.path = work / "metronome.counter"
        self.pid = None
        self.counter = None

    def __enter__(self) -> "Metronome":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.path.write_bytes(bytes(COUNTER.size))
        self.fh = open(self.path, "rb")
        self.counter = mmap.mmap(self.fh.fileno(), COUNTER.size, access=mmap.ACCESS_READ)
        argv = [sys.executable, str(Path(__file__).resolve()), str(self.path)]
        self.pid = os.posix_spawn(sys.executable, argv, os.environ)
        try:
            deadline = time.monotonic() + READY_TIMEOUT_S
            while self.reading()[0] < 10:  # set up and running
                if time.monotonic() > deadline or os.waitpid(self.pid, os.WNOHANG)[0]:
                    raise RuntimeError("the metronome did not start")
                time.sleep(0.05)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None
        self.counter.close()
        self.fh.close()

    def reading(self) -> tuple[int, int]:
        # the loop shares this CPU, so a write it was preempted in stays
        # torn until it runs again; sleeping lets it
        while True:
            chunks, cpu_ns, check = COUNTER.unpack_from(self.counter)
            if chunks ^ cpu_ns == check:
                return chunks, cpu_ns
            time.sleep(0.001)

    def cost_s(self, cpu_s: float, before: tuple[int, int]) -> float:
        """cpu_s of a child that ran since `before`, rescaled to the reference speed."""
        chunks, cpu_ns = (a - b for a, b in zip(self.reading(), before))
        if chunks < 10:
            raise RuntimeError(f"the metronome ran only {chunks} chunks beside a child")
        return cpu_s * chunks / (cpu_ns / 1e9) / REF_CHUNKS_PER_S


if __name__ == "__main__":
    spin(sys.argv[1])
