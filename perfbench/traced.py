"""In-process traced run: the per-layer split of one workload.

The run rebuilds the workload's cover through the package's public
constructors, times the build functions of blocks1d, blocks2d and numeric
where the package calls them, and wraps every block's sample_uniform and
contains, the density's evaluate and UniformSource.next_unit with timers
and counters. It then drives PatternBlockSampler (and, for a validate
workload, validate_blockset and chi_square_gof) once untraced and once
traced with the same seed. Spans are kept as in-memory aggregates per
layer and phase (summed nanoseconds and call count), never one record per
call: a run makes millions of calls. Tracing overhead is the traced minus
the untraced time of the same calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np
from scipy.stats import halfnorm

import oracle
from children import Checked, run_child
from workloads import child_env

# The CLI's validate settings for half-normal-zigg: cover probes and the
# probe interval beyond which the density mass is ~1e-15; 64 fit bins.
VALIDATE_PROBES = 20_000
ZIGG_PROBE_BOUNDS = ((0.0, 8.0),)
ZIGG_FIT_BINS = 64

# Build functions timed wherever a patternblocks module holds them,
# with the metric each one's summed time goes to.
BUILD_SPANS = (
    ("blocks1d", "build_ziggurat", "blocks1d.build_ziggurat_s"),
    ("blocks2d", "superlevel_block", "blocks2d.superlevel_build_s"),
    ("numeric", "quad_2d_grid", "numeric.quad_2d_s"),
)

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "rng.draws_per_sample",
    "core.attempts_per_sample",
    "core.cover_contains_calls",
    "core.overlap_contains_calls",
    "blocks2d.superlevel_proposals_per_call",
    "distributions.evals_per_sample",
)


class Tracer:
    """Span aggregates keyed by layer and phase: summed ns and call counts.

    block is the key of the block sampler running now (None in the
    sampling loop itself), so draws can be split between selection and
    block sampling. contains calls count as the cover phase until the
    first block sample and as the overlap phase after it: validate_blockset
    runs its cover scan, which never samples a block, before its overlap
    probe, which does.
    """

    def __init__(self):
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.draws_in = defaultdict(int)
        self.block = None
        self.contains_key = "contains.cover"
        self.phase_switch_ns = None

    def timed(self, key, fn):
        ns, calls = self.ns, self.calls

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            ns[key] += perf_counter_ns() - start
            calls[key] += 1
            return result

        return wrapper

    def block_sampler(self, key, fn):
        ns, calls = self.ns, self.calls

        def sample_uniform(source):
            start = perf_counter_ns()
            if self.phase_switch_ns is None:
                self.contains_key, self.phase_switch_ns = "contains.overlap", start
            self.block = key
            result = fn(source)
            self.block = None
            ns[key] += perf_counter_ns() - start
            calls[key] += 1
            return result

        return sample_uniform

    def block_contains(self, fn):
        ns, calls = self.ns, self.calls

        def contains(point, y):
            start = perf_counter_ns()
            result = fn(point, y)
            key = self.contains_key
            ns[key] += perf_counter_ns() - start
            calls[key] += 1
            return result

        return contains

    def per_call_ns(self, key) -> float:
        return self.ns[key] / self.calls[key] if self.calls[key] else 0.0


_BLOCK_KEYS = {"base": "blocks1d.base", "slab": "blocks2d.slab", "superlevel": "blocks2d.superlevel"}


def _block_key(label: str) -> str:
    """Span key of a shipped block, from the label its constructor gives it."""
    if label.startswith("layer"):
        return "blocks1d.layer"
    if label.startswith("disk"):
        return "blocks2d.cylinder"
    return _BLOCK_KEYS.get(label, "blocks.other")


@contextlib.contextmanager
def timed_build_functions(tracer: Tracer):
    """Swap each BUILD_SPANS function for a timed wrapper in every module holding it."""
    patched = []
    for module_name, fn_name, metric in BUILD_SPANS:
        original = getattr(importlib.import_module(f"patternblocks.{module_name}"), fn_name)
        wrapper = tracer.timed(metric, original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("patternblocks") and getattr(module, fn_name, None) is original:
                setattr(module, fn_name, wrapper)
                patched.append((module, fn_name, original))
    try:
        yield
    finally:
        for module, fn_name, original in patched:
            setattr(module, fn_name, original)


def _build(dist: str):
    from patternblocks import distributions
    from patternblocks.blocks1d import ziggurat_blockset

    if dist == "half-normal-zigg":
        layout = distributions.half_normal_ziggurat()
        return distributions.half_normal_density(), ziggurat_blockset(
            layout, distributions.half_normal_pdf
        )
    return distributions.gauss_mixture_density(), distributions.gauss_mixture_blockset()


def _traced_copy(density, blockset, tracer: Tracer):
    from patternblocks import BlockSet, Density, PatternBlock

    blocks = [
        PatternBlock(
            b.measure,
            tracer.block_sampler(_block_key(b.label), b.sample_uniform),
            tracer.block_contains(b.contains) if b.contains else None,
            b.label,
        )
        for b in blockset.blocks
    ]
    traced_density = Density(
        density.dim,
        tracer.timed("distributions.eval", density.evaluate),
        density.domain_bounds,
        density.K,
        density.K_provenance,
    )
    return traced_density, BlockSet(blocks)


def _traced_source(seed: int, tracer: Tracer):
    from patternblocks import UniformSource

    class TracedSource(UniformSource):
        def next_unit(self):
            start = perf_counter_ns()
            u = UniformSource.next_unit(self)
            elapsed = perf_counter_ns() - start
            tracer.ns["rng.draw"] += elapsed
            tracer.calls["rng.draw"] += 1
            tracer.draws_in[tracer.block] += 1
            if tracer.block is None:
                tracer.ns["rng.loop_draw"] += elapsed
            return u

    return TracedSource(seed)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _outermost_cumulative_s(entries, prefix: str) -> float:
    """Summed cumulative time of the outermost imports of prefix or its submodules.

    -X importtime prints a module after its imports, one level deeper per
    nesting, so an entry's parent is the next later entry that is shallower.
    """
    total_us, stack = 0, []  # stack of (depth, inside a prefix import)
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        hit = name == prefix or name.startswith(prefix + ".")
        if hit and not inside:
            total_us += cumulative_us
        stack.append((depth, inside or hit))
    return total_us / 1e6


def import_split(importtime_text: str) -> tuple[float, float]:
    """(import.total_s, import.scipy_s) from `python -X importtime` stderr."""
    entries = []
    for line in importtime_text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            cumulative_us = int(fields[1])
        except ValueError:
            continue  # the column header
        name = fields[2].strip()
        depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
        entries.append((depth, name, cumulative_us))
    return _outermost_cumulative_s(entries, "patternblocks"), _outermost_cumulative_s(
        entries, "scipy"
    )


def _import_metrics(src: Path, work: Path, checked: Checked) -> dict:
    run = run_child(
        ["-X", "importtime", "-c", "import patternblocks.cli"],
        child_env(src), work / "importtime.out", work / "importtime.err",
    )
    checked.record("import", [f"exit code {run.exit_code}"] if run.exit_code else [])
    total_s, scipy_s = import_split(run.stderr_text)
    return {"import.total_s": total_s, "import.scipy_s": scipy_s}


def _validate_metrics(density, blockset, checked: Checked) -> tuple[dict, float, float]:
    """Cover/overlap split of validate_blockset; also (untraced_s, traced_s)."""
    from patternblocks import validate_blockset

    report, untraced_s = _timed(
        validate_blockset, blockset, density,
        n_probe=VALIDATE_PROBES, probe_bounds=ZIGG_PROBE_BOUNDS,
    )
    tracer = Tracer()
    traced_density, traced_blockset = _traced_copy(density, blockset, tracer)
    start = perf_counter_ns()
    traced_report = validate_blockset(
        traced_blockset, traced_density, n_probe=VALIDATE_PROBES, probe_bounds=ZIGG_PROBE_BOUNDS
    )
    end = perf_counter_ns()
    switch = tracer.phase_switch_ns or end
    checked.record(
        "validate_blockset",
        [] if report.all_passed() and traced_report == report else [str(traced_report)],
    )
    phases = ("contains.cover", "contains.overlap")
    calls = sum(tracer.calls[k] for k in phases)
    m = {
        "core.validate_s": (end - start) / 1e9,
        "core.cover_s": (switch - start) / 1e9,
        "core.overlap_s": (end - switch) / 1e9,
        "core.cover_contains_calls": tracer.calls["contains.cover"],
        "core.overlap_contains_calls": tracer.calls["contains.overlap"],
        "core.contains_ns": sum(tracer.ns[k] for k in phases) / calls if calls else 0.0,
    }
    return m, untraced_s, m["core.validate_s"]


def _sample_split(tracer: Tracer, n: int, traced_s: float, attempts: int) -> dict:
    m = {
        "rng.next_unit_ns": tracer.per_call_ns("rng.draw"),
        "rng.share": tracer.ns["rng.draw"] / 1e9 / traced_s,
        "rng.draws_per_sample": tracer.calls["rng.draw"] / n,
        "core.attempts_per_sample": attempts / n,
        "core.loop_self_s": traced_s - (
            sum(v for k, v in tracer.ns.items() if k.startswith("blocks"))
            + tracer.ns["distributions.eval"]
            + tracer.ns["rng.loop_draw"]
        ) / 1e9,
        "distributions.eval_ns": tracer.per_call_ns("distributions.eval"),
        "distributions.evals_per_sample": tracer.calls["distributions.eval"] / n,
    }
    for key in ("blocks1d.layer", "blocks1d.base", "blocks2d.slab",
                "blocks2d.superlevel", "blocks2d.cylinder"):
        m[f"{key}_sample_ns"] = tracer.per_call_ns(key)
    superlevel_calls = tracer.calls["blocks2d.superlevel"]
    # documented draw order: two uniforms per box proposal, then one height
    m["blocks2d.superlevel_proposals_per_call"] = (
        (tracer.draws_in["blocks2d.superlevel"] - superlevel_calls) / 2 / superlevel_calls
        if superlevel_calls else 0.0
    )
    return m


def _cli_metrics(dist: str, n: int, seed: int, work: Path, checked: Checked) -> tuple[dict, float]:
    """In-process `cli.main(sample ...)`: output size and its wall time."""
    from patternblocks import cli

    out = work / "cli.csv"
    summary = io.StringIO()
    with contextlib.redirect_stderr(summary):
        code, cli_s = _timed(
            cli.main,
            ["sample", "--dist", dist, "--n", str(n), "--seed", str(seed), "--out", str(out)],
        )
    checked.record(
        f"{dist} in-process cli",
        oracle.sample_problems(dist, n, out, summary.getvalue()) if code == 0
        else [f"exit code {code}"],
    )
    return {"cli.output_bytes_per_sample": out.stat().st_size / n}, cli_s


def _cycle(workload, seed: int, src: Path, work: Path, checked: Checked) -> dict:
    """One traced cycle; returns the per-layer metric values."""
    from patternblocks import PatternBlockSampler, UniformSource, chi_square_gof

    dist, n = workload.dist, workload.trace_n
    m = _import_metrics(src, work, checked)

    build_tracer = Tracer()
    with timed_build_functions(build_tracer):
        (density, blockset), build_s = _timed(_build, dist)
    m["distributions.build_s"] = build_s
    for _, _, metric in BUILD_SPANS:
        m[metric] = build_tracer.ns[metric] / 1e9

    untraced_s = traced_s = 0.0
    if workload.command == "validate":
        validate_m, untraced_s, traced_s = _validate_metrics(density, blockset, checked)
        m.update(validate_m)

    sampler = PatternBlockSampler(density, blockset, UniformSource(seed))
    points, sample_s = _timed(sampler.sample_many, n)
    tracer = Tracer()
    traced_density, traced_blockset = _traced_copy(density, blockset, tracer)
    traced_sampler = PatternBlockSampler(traced_density, traced_blockset, _traced_source(seed, tracer))
    traced_points, traced_sample_s = _timed(traced_sampler.sample_many, n)
    attempts = sum(v for k, v in tracer.calls.items() if k.startswith("blocks"))
    data = np.asarray(points, dtype=float)
    checked.record(
        f"{workload.name} traced sample",
        oracle.points_problems(dist, data, n, attempts)
        + ([] if traced_points == points else ["tracing changed the sample stream"]),
    )
    m.update(_sample_split(tracer, n, traced_sample_s, attempts))

    if workload.command == "validate":
        edges = np.linspace(ZIGG_PROBE_BOUNDS[0][0], ZIGG_PROBE_BOUNDS[0][1], ZIGG_FIT_BINS + 1)
        edges[-1] = np.inf
        probs = np.diff(halfnorm.cdf(edges))
        gof, m["numeric.gof_s"] = _timed(chi_square_gof, data[:, 0], edges, probs / probs.sum())
        checked.record("chi_square_gof", [] if gof.p_value > oracle.ALPHA else [str(gof)])
    else:
        cli_m, cli_s = _cli_metrics(dist, n, seed, work, checked)
        m.update(cli_m)
        m["cli.output_s"] = cli_s - build_s - sample_s

    untraced_s += sample_s
    m["trace.overhead_s"] = traced_s + traced_sample_s - untraced_s
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced_s
    return m


UNITS = {
    "import.total_s": "s", "import.scipy_s": "s",
    "rng.next_unit_ns": "ns", "rng.share": "1", "rng.draws_per_sample": "count",
    "core.attempts_per_sample": "count", "core.loop_self_s": "s",
    "core.validate_s": "s", "core.cover_s": "s", "core.overlap_s": "s",
    "core.cover_contains_calls": "count", "core.overlap_contains_calls": "count",
    "core.contains_ns": "ns",
    "blocks1d.layer_sample_ns": "ns", "blocks1d.base_sample_ns": "ns",
    "blocks1d.build_ziggurat_s": "s",
    "blocks2d.slab_sample_ns": "ns", "blocks2d.superlevel_sample_ns": "ns",
    "blocks2d.cylinder_sample_ns": "ns", "blocks2d.superlevel_proposals_per_call": "count",
    "blocks2d.superlevel_build_s": "s",
    "distributions.eval_ns": "ns", "distributions.evals_per_sample": "count",
    "distributions.build_s": "s",
    "numeric.quad_2d_s": "s", "numeric.gof_s": "s",
    "cli.output_s": "s", "cli.output_bytes_per_sample": "B",
    "trace.overhead_s": "s", "trace.overhead_share": "1",
}


def traced_run(workload, seed: int, seconds: float, src: Path, work: Path) -> dict:
    """Traced cycles with one seed for about `seconds`; timings are medians."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # import every module now: one first imported while the build functions
    # are swapped would keep a wrapper bound by its from-imports
    module = importlib.import_module("patternblocks.cli")
    if Path(module.__file__).resolve().parent != (src / "patternblocks").resolve():
        raise RuntimeError(f"imported patternblocks from {module.__file__}, not {src}")

    cycle_seed = random.Random(seed).randrange(2**32)
    checked = Checked()
    cycles = []
    start = time.perf_counter()
    # skip a cycle that would most likely end after `seconds`
    while not cycles or (time.perf_counter() - start) * (len(cycles) + 1) / len(cycles) <= seconds:
        cycles.append(_cycle(workload, cycle_seed, src, work, checked))
    first = cycles[0]
    repeat = [k for k in EXACT_COUNTS if k in first and any(c[k] != first[k] for c in cycles)]
    checked.record("exact counts repeat", [f"{k} differs between cycles" for k in repeat])

    metrics = {}
    for key, unit in UNITS.items():
        values = [c.get(key, 0.0) for c in cycles]
        value = first.get(key, 0.0) if key in EXACT_COUNTS else statistics.median(values)
        metrics[key] = (value, unit)
    extra = {"cycles": (len(cycles), "count")}
    return {"checked": checked, "metrics": metrics, "extra": extra}
