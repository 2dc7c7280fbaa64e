import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from patternblocks import distributions
from patternblocks.blocks2d import cylinder_block, slab_block, superlevel_block
from patternblocks.cli import _parser, main
from patternblocks.distributions import B0, B1, B2, B3
from patternblocks.core import BlockSet, Density


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_arcsine_rows_and_rate(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--dist", "arcsine-mod", "--n", "10000", "--seed", "7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x"
    assert len(lines) == 10_001
    values = np.array([float(v) for v in lines[1:]])
    assert values.min() > 0.0 and values.max() < 1.0
    summary = json.loads(err.strip().split("\n")[-1])
    assert abs(summary["empirical_rate"] - 2.0 / 3.0) < 0.02
    assert summary["exact_rate"] == pytest.approx(2.0 / 3.0)
    assert summary["accepted"] == 10_000
    assert summary["seed"] == 7


def test_sample_mixture_stays_in_domain(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--dist", "gauss-mix-2d", "--n", "10000", "--seed", "7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,x2"
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert pts.shape == (10_000, 2)
    assert np.all(np.abs(pts) <= 4.0)


def test_sample_output_is_byte_stable(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "sample", "--dist", "arcsine-mod", "--n", "2000", "--seed", "5",
            "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# SHA-256 of the CLI's output bytes, generated with Python 3.11 and numpy 2.4
# on x86-64 Linux, so any change to a sample stream or to the layer table
# fails here on purpose. The sample digests come from the PCG64 stream of
# rng.UniformSource; the layer table draws no uniforms and its digest dates
# from commit 8920e10 (before the target registry).
GOLDEN_SAMPLE_SHA256 = {
    ("arcsine-mod", 2000): "0b7b29d647e325a3f8bfa3ac728b14a1a26ba159691767a02984043cf860aa33",
    ("half-normal-zigg", 2000): "1b707eddc6bbabfbcb087f2f213acd7db7942a472513878dc4caffe3e36efda2",
    ("gauss-mix-2d", 1000): "8fcaf8e8be7e8fbcc68426923a074b066117ce2f0ed81c3c8316df49b665770b",
}
GOLDEN_ZIGG_TABLE_128_SHA256 = "8303f61b1911a43735ba23e8993610607bb89aab804971f66d026bf3371b0440"


# Longer runs, generated the same way. Their streams cross many 4096-word
# hand-outs of rng.UniformSource (about 91k and 75k draws) and several
# 4096-row output chunks; the JSON run pins that format.
GOLDEN_LONG_SAMPLE_SHA256 = {
    ("half-normal-zigg", 30000, "csv"): "08d9f208f808b1ac3c06fd790c765386ed0b8a03a3ec8292ccb075d9c583d651",
    ("gauss-mix-2d", 6000, "csv"): "8afce0a5f6cd032a0453a89ad4c90d20cc4916454c55488c6fac7fd4b9c4a80f",
    ("arcsine-mod", 5000, "json"): "aa155917c680215e9b1ab62c48fa18d06bf26b556434cd3469864942930e85a6",
}


@pytest.mark.parametrize(("dist", "n"), sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_matches_golden_digest(tmp_path, capsys, dist, n):
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--dist", dist, "--n", str(n), "--seed", "42", "--out", str(path)
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SAMPLE_SHA256[dist, n]


@pytest.mark.parametrize(("dist", "n", "fmt"), sorted(GOLDEN_LONG_SAMPLE_SHA256))
def test_long_sample_matches_golden_digest(tmp_path, capsys, dist, n, fmt):
    path = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "sample", "--dist", dist, "--n", str(n), "--seed", "42",
        "--format", fmt, "--out", str(path),
    )
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_LONG_SAMPLE_SHA256[dist, n, fmt]


def test_zigg_table_matches_golden_digest(capsys):
    code, out, _ = run_cli(capsys, "zigg-table", "--layers", "128")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ZIGG_TABLE_128_SHA256


# JSON output on stdout, generated the same way. The layer-table digest
# dates from commit 6c7edab, while zigg-table still had a JSON writer of its
# own; the mixture sample digest comes from the PCG64 stream.
GOLDEN_JSON_SHA256 = {
    ("zigg-table", "--layers", "128", "--format", "json"):
        "fbb6961fb5806e915b4af0641f74f2cf1144905318d6d9fb37da56db38cbfcef",
    ("sample", "--dist", "gauss-mix-2d", "--n", "1000", "--seed", "42", "--format", "json"):
        "05e1a4644a636b296f59a5ebac120f67526b79b93bd7c2735d8d35e99db68971",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON_SHA256))
def test_json_output_matches_golden_digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_SHA256[argv]


def test_sample_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--dist", "arcsine-mod", "--n", "50", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 50
    assert all(0.0 < row["x"] < 1.0 for row in rows)


def test_validate_arcsine_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate", "--dist", "arcsine-mod", "--n", "20000", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["gof"]["p_value"] > 0.001
    assert doc["validation"]["cover"]["status"] == "pass"


def test_validate_zigg_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate", "--dist", "half-normal-zigg", "--n", "20000", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_validate_reports_corrupted_blockset(capsys, monkeypatch):
    def corrupted():
        blocks = [
            slab_block(distributions.MIX_DOMAIN, 0.0, B0),
            superlevel_block(
                distributions.SUPERLEVEL_BOX,
                distributions.gauss_mixture_xy,
                B0,
                B1,
                domain_rect=distributions.MIX_DOMAIN,
            ),
            cylinder_block((0.0, 0.0), 1.25, B1, B2),
            cylinder_block((2.0, 2.0), 1.0, B1, B2),
            cylinder_block((0.0, 0.0), 0.5, B2, B3),  # halved radius
        ]
        return BlockSet(blocks)

    target = distributions.TARGETS["gauss-mix-2d"]
    monkeypatch.setitem(
        distributions.TARGETS, "gauss-mix-2d", dataclasses.replace(target, cover=corrupted)
    )
    code, out, _ = run_cli(
        capsys,
        "validate", "--dist", "gauss-mix-2d", "--n", "5000", "--seed", "1",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["validation"]["cover"]["status"] == "fail"
    assert doc["passed"] is False


def test_sample_rejection_cap_exit_code(capsys, monkeypatch):
    # a block sitting above a bounded density can never be accepted
    from patternblocks.blocks1d import rect_block

    impossible = distributions.Target(
        density=lambda: Density(
            dim=1, evaluate=lambda p: 0.5, domain_bounds=((0.0, 1.0),), K=0.5
        ),
        cover=lambda: BlockSet([rect_block(0.0, 1.0, 0.6, 1.0)]),
        probe_bounds=None,
        bins=None,
    )
    monkeypatch.setitem(distributions.TARGETS, "arcsine-mod", impossible)
    code, _, err = run_cli(
        capsys, "sample", "--dist", "arcsine-mod", "--n", "1", "--seed", "1"
    )
    assert code == 3
    assert "rejections" in err


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("dist", sorted(distributions.TARGETS))
@pytest.mark.parametrize("n", [0, 5])
def test_sample_summary_is_strict_json(capsys, dist, n):
    code, out, err = run_cli(capsys, "sample", "--dist", dist, "--n", str(n), "--format", "json")
    assert code == 0
    assert len(json.loads(out, parse_constant=_reject_constant)) == n
    summary = json.loads(err.strip().split("\n")[-1], parse_constant=_reject_constant)
    assert summary["accepted"] == n
    if n == 0:
        assert summary["empirical_rate"] is None
    else:
        assert 0.0 < summary["empirical_rate"] <= 1.0


def _constant_density_target(value):
    from patternblocks.blocks1d import rect_block

    return distributions.Target(
        density=lambda: Density(
            dim=1, evaluate=lambda p: value, domain_bounds=((0.0, 1.0),), K=1.0
        ),
        cover=lambda: BlockSet([rect_block(0.0, 1.0, 0.0, 1.0)]),
        probe_bounds=None,
        bins=None,
    )


@pytest.mark.parametrize("value", [math.nan, -1.0])
def test_sample_bad_density_value_exits_three_at_once(capsys, monkeypatch, value):
    monkeypatch.setitem(distributions.TARGETS, "arcsine-mod", _constant_density_target(value))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "sample", "--dist", "arcsine-mod", "--n", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: density is ") and err.count("\n") == 1, err


def test_sample_infinite_density_value_accepts(capsys, monkeypatch):
    monkeypatch.setitem(distributions.TARGETS, "arcsine-mod", _constant_density_target(math.inf))
    code, out, err = run_cli(capsys, "sample", "--dist", "arcsine-mod", "--n", "10")
    assert code == 0
    assert len(out.split("\n")) == 12
    assert json.loads(err)["attempts"] == 10


def test_bench_attempt_ratios(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--dist", "arcsine-mod", "--n", "10000", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["attempts_per_sample"] - 1.5) < 0.02

    code, out, _ = run_cli(
        capsys, "bench", "--dist", "gauss-mix-2d", "--n", "20000", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["attempts_per_sample"] - 2.75) < 0.05


def test_bench_ziggurat_rate(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--dist", "half-normal-zigg", "--n", "20000", "--seed", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical_rate"] > 0.97


def test_zigg_table_layout(capsys):
    code, out, _ = run_cli(capsys, "zigg-table", "--layers", "128")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,x,f,area"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 128
    xs = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert abs(xs[-1] - 3.4426) < 0.001
    areas = [float(r[3]) for r in rows]
    assert max(areas) - min(areas) < 1e-10


def test_zigg_table_two_layers(capsys):
    code, out, _ = run_cli(capsys, "zigg-table", "--layers", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    areas = [float(r[3]) for r in rows]
    assert len(areas) == 2
    assert abs(areas[0] - areas[1]) < 1e-10
    # rectangle layers spill above the graph, so the common area
    # exceeds half of the unit mass
    assert areas[0] > 0.5
    assert abs(areas[0] - 0.62217282965369) < 1e-9


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--dist", "no-such-dist", "--n", "10"])
    assert exc.value.code == 2
    code = main(["zigg-table", "--layers", "1"])
    assert code == 2
    code = main(["sample", "--dist", "arcsine-mod", "--n", "-5"])
    assert code == 2
    for argv in (
        ["bench", "--dist", "arcsine-mod", "--n", "10", "--threads", "2"],
        # only zigg-table has a layer count
        ["sample", "--dist", "half-normal-zigg", "--n", "10", "--layers", "64"],
        ["validate", "--dist", "half-normal-zigg", "--n", "10", "--layers", "64"],
        ["bench", "--dist", "half-normal-zigg", "--n", "10", "--layers", "64"],
        # each target has fixed chi-square bins
        ["validate", "--dist", "arcsine-mod", "--n", "10", "--bins", "0"],
        ["validate", "--dist", "arcsine-mod", "--n", "10", "--bins", "1"],
        ["validate", "--dist", "arcsine-mod", "--n", "10", "--bins", "-3"],
        ["validate", "--dist", "arcsine-mod", "--n", "5", "--bins", "64"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    for argv in (
        ["validate", "--n", "0"],
        ["validate", "--n", "5"],
        ["bench", "--n", "0"],
        ["validate", "--significance", "0"],
        ["validate", "--significance", "1"],
        ["validate", "--significance", "1.5"],
        ["validate", "--significance", "-0.1"],
        ["validate", "--significance", "nan"],
    ):
        code, out, err = run_cli(capsys, *argv[:1], "--dist", "arcsine-mod", *argv[1:])
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # each command opens --out before it builds a cover or layout
    def unbuildable(*args, **kwargs):
        raise AssertionError("built before --out was opened")

    target = distributions.TARGETS["arcsine-mod"]
    monkeypatch.setitem(
        distributions.TARGETS, "arcsine-mod", dataclasses.replace(target, cover=unbuildable)
    )
    monkeypatch.setattr(distributions, "half_normal_ziggurat", unbuildable)
    path = str(tmp_path / "missing" / "x.csv")
    for argv in (
        ["sample", "--dist", "arcsine-mod", "--n", "10"],
        ["validate", "--dist", "arcsine-mod", "--n", "2000"],
        ["zigg-table", "--layers", "8"],
    ):
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: cannot write --out {path}: "), err
        assert err.count("\n") == 1, err


def _subcommands():
    return next(
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_cli_options_are_pinned():
    # a new flag needs a deliberate edit here
    expected = {
        "sample": {"--dist", "--n", "--seed", "--out", "--format"},
        "validate": {"--dist", "--n", "--seed", "--significance", "--out"},
        "bench": {"--dist", "--n", "--seed"},
        "zigg-table": {"--layers", "--out", "--format"},
    }
    commands = _subcommands()
    assert set(commands) == set(expected)
    for command, options in expected.items():
        actions = commands[command]._actions
        flags = {flag for a in actions for flag in a.option_strings} - {"-h", "--help"}
        assert flags == options, command


@pytest.mark.parametrize("command", ["bench", "validate"])
def test_bench_and_validate_memory_is_bounded(command, capsys):
    # both draw in chunks and keep no point; holding all 200k points peaks
    # at about 17 MB (bench) and 24 MB (validate). The first run builds the
    # generator's once-per-process jump tables outside the trace.
    main([command, "--dist", "half-normal-zigg", "--n", "1000", "--seed", "1"])
    tracemalloc.start()
    try:
        code = main([command, "--dist", "half-normal-zigg", "--n", "200000", "--seed", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 8e6


def test_validate_too_few_bins_fails_before_setup(capsys, monkeypatch):
    def unbuildable(*args, **kwargs):
        raise AssertionError("cover built before the bin check")

    target = distributions.TARGETS["gauss-mix-2d"]
    monkeypatch.setitem(
        distributions.TARGETS, "gauss-mix-2d", dataclasses.replace(target, cover=unbuildable)
    )
    # 3 points over the fixed 16 x 16 bins leave fewer than 2 effective bins
    code, out, err = run_cli(capsys, "validate", "--dist", "gauss-mix-2d", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == (
        "error: --n 3 is too small for the 256 bins of gauss-mix-2d"
        " (fewer than 2 effective bins after merging)\n"
    )


def test_dist_choices_are_the_registry():
    commands = _subcommands()
    for command in ("sample", "validate", "bench"):
        (dist,) = (a for a in commands[command]._actions if a.dest == "dist")
        assert list(dist.choices) == list(distributions.TARGETS), command


@pytest.mark.parametrize("name", sorted(distributions.TARGETS))
def test_target_default_bins_match_grid(name):
    target = distributions.TARGETS[name]
    density = target.density()
    edges, probs = target.bins()
    grid = edges if isinstance(edges, tuple) else (edges,)
    assert len(grid) == density.dim
    assert probs.shape == tuple(len(e) - 1 for e in grid)
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_zigg_table_bisection_failure_exit_code(capsys, monkeypatch):
    from patternblocks.blocks1d import ZigguratError

    def broken(layers):
        raise ZigguratError("no bracket")

    monkeypatch.setattr(distributions, "half_normal_ziggurat", broken)
    code, _, err = run_cli(capsys, "zigg-table", "--layers", "64")
    assert code == 3
    assert "no bracket" in err


def test_zigg_table_json(capsys):
    code, out, _ = run_cli(capsys, "zigg-table", "--layers", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[0]["x"] == 0.0
    assert math.isclose(rows[1]["area"], rows[3]["area"], abs_tol=1e-10)


def test_closed_stdout_exits_141_without_traceback():
    # a reader that takes two lines and closes the pipe, as `| head -n 2` does
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "patternblocks", "sample", "--dist", "half-normal-zigg",
         "--n", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 141
    assert lines[0] == b"x\n" and float(lines[1]) >= 0.0
    assert "Traceback" not in err and "Exception ignored" not in err, err
