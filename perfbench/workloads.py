"""Workload definitions: which CLI command each workload runs, and at what size.

n is chosen so that sampling, not interpreter start-up and imports,
dominates each child's wall time on a 2-core machine. trace_n is the
smaller size the in-process traced run uses; its per-sample ratios do not
depend on n.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sample" or "validate"
    dist: str
    n: int
    trace_n: int

    def argv(self, seed: int, n: int, out: Path) -> list[str]:
        """CLI arguments of one child; n = 0 gives the set-up run."""
        args = ["-m", "patternblocks", self.command if n else "sample"]
        args += ["--dist", self.dist, "--n", str(n), "--seed", str(seed), "--out", str(out)]
        if n and self.command == "validate":
            # the program's own fit check must not fail a correct run either
            args += ["--significance", repr(oracle.ALPHA)]
        return args

    def problems(self, n: int, out: Path, stderr_text: str) -> list[str]:
        if n and self.command == "validate":
            return oracle.validate_problems(self.dist, n, out.read_text())
        return oracle.sample_problems(self.dist, n, out, stderr_text)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zigg-sample", "sample", "half-normal-zigg", 300_000, 100_000),
        Workload("mix2d-sample", "sample", "gauss-mix-2d", 100_000, 30_000),
        Workload("zigg-validate", "validate", "half-normal-zigg", 50_000, 50_000),
    )
}


def source_dir(root: Path) -> Path:
    """The package sources of the checkout at root; exits when they are missing."""
    src = root / "src"
    if not (src / "patternblocks" / "cli.py").is_file():
        sys.exit(f"error: no patternblocks sources under {src}")
    return src


def child_env(src: Path) -> dict[str, str]:
    """Environment that makes children import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env
