import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2

from patternblocks import cli, distributions, output
from patternblocks.blocks2d import cylinder_block, slab_block, superlevel_block
from patternblocks.cli import _parser, main
from patternblocks.distributions import B0, B1, B2, B3
from patternblocks.core import BlockSet, Density, PatternBlockSampler
from patternblocks.rng import SLOT, UniformSource

# the golden digests rest on numpy's float arithmetic: a failing one names
# what it ran on
RAN_ON = f"numpy {np.__version__}, Python {platform.python_version()}, {platform.machine()}"


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
# fails here on purpose. The sample digests come from the PCG64 streams of
# rng.UniformSource, read in the sampler's slot layout (SLOT main-stream
# units per attempt, plus each block's overflow stream); the layer table
# draws no uniforms and its digest dates from commit 8920e10 (before the
# target registry).
GOLDEN_SAMPLE_SHA256 = {
    ("arcsine-mod", 2000): "d8556368311027a1ade5bfdfa1b30b4368a842ad290e709651a23fc66f78ad27",
    ("half-normal-zigg", 2000): "16d3a219e2ab6a980e38c2700543a269e6a3f84d4ffd3d6844507ad024307514",
    ("gauss-mix-2d", 1000): "45eb59f05c1ba51172cba3dd1c56e7e699d95c75b446b244d67493af6dbf016b",
}
GOLDEN_ZIGG_TABLE_128_SHA256 = "8303f61b1911a43735ba23e8993610607bb89aab804971f66d026bf3371b0440"


# Longer runs, generated the same way. Their streams cross many sampling
# rounds (about 30k and 16k attempts), the zigg runs two 16384-row sample
# chunks and four 8192-row output blocks; the JSON runs pin that format. The zigg JSON digest dates from commit
# 7ec4c8d, the last with a per-row str.format writer.
GOLDEN_LONG_SAMPLE_SHA256 = {
    ("half-normal-zigg", 30000, "csv"): "1fba23b109a7e093306acf7042172778fdcefda6a502dcb87194838ac584ca7c",
    ("half-normal-zigg", 30000, "json"): "c0c5205773348dad726091eee4a58203aa0d9711a179db2fd8a65a6cb4d6006f",
    ("gauss-mix-2d", 6000, "csv"): "4621ae082d9b544d6a504bdd2dea694466af6d9ee12744684657f771d8111257",
    ("arcsine-mod", 5000, "json"): "9629ea188b229922ca58075c56b56582e0bf202d59fdaedcae1a4ac246618e32",
}


@pytest.mark.parametrize(("dist", "n"), sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_matches_golden_digest(tmp_path, capsys, dist, n):
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--dist", dist, "--n", str(n), "--seed", "42", "--out", str(path)
    )
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SAMPLE_SHA256[dist, n], RAN_ON


# SHA-256 of the float64 bytes (little-endian, row-major) of
# sample_array(n) at seed 42 for each run above, generated at commit
# 9a0dc35 the same way. They pin the sampler apart from the writer: a
# writer fault fails only the output digest, a sampler fault fails both.
GOLDEN_SAMPLE_ARRAY_SHA256 = {
    ("arcsine-mod", 2000): "308fb4e230c77c2ad528b1f04b85e8c29a905ba530b1704dbc981885112d253e",
    ("half-normal-zigg", 2000): "678f190bdfad66b849ea7aa819324cd2c2661d4e6459cd02b3d67045292379c7",
    ("gauss-mix-2d", 1000): "59ebe6453ea8e099fea293450a53c878b276f58ac33abe442704b114cac77dbd",
}


@pytest.mark.parametrize(("dist", "n"), sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_array_matches_golden_digest(dist, n):
    target = distributions.TARGETS[dist]
    density = target.density()
    points = PatternBlockSampler(density, target.cover(), UniformSource(42)).sample_array(n)
    assert points.dtype == np.float64 and points.shape == (n, density.dim)
    digest = hashlib.sha256(points.tobytes()).hexdigest()
    assert digest == GOLDEN_SAMPLE_ARRAY_SHA256[dist, n], RAN_ON


# Draws issued on the main stream and on each overflow stream that was read
# (by block index) after the sample_array runs above, at commit cc37df6.
# They pin the stream layer apart from the points.
GOLDEN_STREAM_POSITIONS = {
    ("arcsine-mod", 2000): (12012, {}),
    ("half-normal-zigg", 2000): (8104, {127: 2}),
    ("gauss-mix-2d", 1000): (10736, {1: 1456}),
}


@pytest.mark.parametrize(("dist", "n"), sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_array_leaves_golden_stream_positions(dist, n):
    target = distributions.TARGETS[dist]
    cover = target.cover()
    source = UniformSource(42)
    PatternBlockSampler(target.density(), cover, source).sample_array(n)
    overflow = {i: source.overflow(i).draws_issued for i in range(len(cover))}
    positions = source.draws_issued, {i: k for i, k in overflow.items() if k}
    assert positions == GOLDEN_STREAM_POSITIONS[dist, n], RAN_ON


# Attempts of the sample_array runs above, and the SHA-256 of the int64
# block indices their selection units pick, at commit 62835ea. They pin the
# selection layer apart from the points: a selection fault fails here.
GOLDEN_SELECTION = {
    ("arcsine-mod", 2000): (
        3003, "6b9bc257054754a1b0fdf65ebe445f17da98782a6bc2144ad67a1be4cb776d52"
    ),
    ("half-normal-zigg", 2000): (
        2026, "ae14e490eaeadea0a01fa6a7a7896d9abc455e955e603cdb0a14ab3ccc7ed6be"
    ),
    ("gauss-mix-2d", 1000): (
        2684, "b25578e6efebfc42b09bc665e588e01c5a9acdb65fe763b77a74745c8ec09b57"
    ),
}


@pytest.mark.parametrize(("dist", "n"), sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_array_selects_golden_blocks(dist, n):
    target = distributions.TARGETS[dist]
    cover = target.cover()
    sampler = PatternBlockSampler(target.density(), cover, UniformSource(42))
    sampler.sample_array(n)
    attempts = sampler.attempts
    # attempt k's selection unit is the first of its slot
    units = UniformSource(42).units(SLOT * attempts)[::SLOT]
    blocks = cover.select(units)
    digest = hashlib.sha256(blocks.astype(np.int64).tobytes()).hexdigest()
    assert (attempts, digest) == GOLDEN_SELECTION[dist, n], RAN_ON


def test_written_floats_stay_on_the_writer_fast_path(tmp_path, capsys, monkeypatch):
    # output's fast path covers 1e-4 <= |x| < 10 and leaves the rest to
    # repr, one Python call per field; a target or table whose values
    # leave that range fails here. At seed 42, 0.18 % of the fields go to
    # repr, most of them the 0.66 % of arcsine points below 1e-4.
    seen = {"fields": 0, "repr": 0, "largest": 0.0}
    float_fields, put_repr = output._float_fields, output._put_repr

    def counted_float_fields(x, slots):
        seen["fields"] += len(x)
        seen["largest"] = max(seen["largest"], float(np.abs(x).max(initial=0.0)))
        float_fields(x, slots)

    def counted_put_repr(fields, values, rows):
        if values.dtype.kind == "f":
            seen["repr"] += rows.size
        put_repr(fields, values, rows)

    monkeypatch.setattr(output, "_float_fields", counted_float_fields)
    monkeypatch.setattr(output, "_put_repr", counted_put_repr)
    runs = [("sample", "--dist", dist, "--n", "100000", "--seed", "42") for dist in distributions.TARGETS]
    runs += [("zigg-table", "--layers", layers) for layers in ("2", "128")]
    for argv in runs:
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 0, argv
    assert seen["fields"] > 400_000
    assert seen["largest"] < 10.0
    assert seen["repr"] < 0.005 * seen["fields"], seen


@pytest.mark.parametrize(("dist", "n", "fmt"), sorted(GOLDEN_LONG_SAMPLE_SHA256))
def test_long_sample_matches_golden_digest(tmp_path, capsys, dist, n, fmt):
    path = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "sample", "--dist", dist, "--n", str(n), "--seed", "42",
        "--format", fmt, "--out", str(path),
    )
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_LONG_SAMPLE_SHA256[dist, n, fmt], RAN_ON


@pytest.mark.parametrize("dist", sorted(distributions.TARGETS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_bytes_do_not_depend_on_chunk_sizes(capsys, monkeypatch, dist, fmt):
    argv = ["sample", "--dist", dist, "--n", "300", "--seed", "9", "--format", fmt]
    _, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 7)
    monkeypatch.setattr(output, "BLOCK", 13)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


# `sample --n 0` writes the header alone, as it did at commit 7ec4c8d
@pytest.mark.parametrize("dist", sorted(distributions.TARGETS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_header_only_sample_output(capsys, dist, fmt):
    code, out, _ = run_cli(capsys, "sample", "--dist", dist, "--n", "0", "--format", fmt)
    assert code == 0
    header = "x1,x2\n" if dist == "gauss-mix-2d" else "x\n"
    assert out == (header if fmt == "csv" else "[]\n")


def test_zigg_table_matches_golden_digest(capsys):
    code, out, _ = run_cli(capsys, "zigg-table", "--layers", "128")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ZIGG_TABLE_128_SHA256, RAN_ON


# JSON output on stdout, generated the same way. The layer-table digest
# dates from commit 6c7edab, while zigg-table still had a JSON writer of its
# own; the mixture sample digest comes from the PCG64 stream.
GOLDEN_JSON_SHA256 = {
    ("zigg-table", "--layers", "128", "--format", "json"):
        "fbb6961fb5806e915b4af0641f74f2cf1144905318d6d9fb37da56db38cbfcef",
    ("sample", "--dist", "gauss-mix-2d", "--n", "1000", "--seed", "42", "--format", "json"):
        "27491df48cd5bea44710950732d153606e94505e19a03ac348db79281ff209ab",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON_SHA256))
def test_json_output_matches_golden_digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_SHA256[argv], RAN_ON


# SHA-256 of the `validate --n 2000 --seed 42` report, generated the same
# way, with gof.p_value removed: the p-value comes from scipy's chi2.sf and
# is checked on its own, so a scipy release cannot move the digest. The
# arcsine-mod and gauss-mix-2d digests date from the Gauss-Legendre bin
# masses and the chord-integral superlevel area, which moved the arcsine
# fit statistic and the mixture's exact rate in their last digits.
GOLDEN_VALIDATE_SHA256 = {
    "arcsine-mod": "7670192cf03649538bccc07ec2f3e407fce9ba8c49245e88d7da5d7ebfc4526b",
    "gauss-mix-2d": "b266f806bc5236a0176b5547239279bf8a9e4bc34bb7c4de57d0179b9ebd6a5a",
    "half-normal-zigg": "44a1fb9368fe637c270739602ea28b7e65781b5f60d0fe5afb1ce80ec77e391f",
}


@pytest.mark.parametrize("dist", sorted(GOLDEN_VALIDATE_SHA256))
def test_validate_report_matches_golden_digest(capsys, dist):
    code, out, _ = run_cli(capsys, "validate", "--dist", dist, "--n", "2000", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    gof = doc["gof"]
    p_value = gof.pop("p_value")
    assert math.isclose(p_value, chi2.sf(gof["statistic"], gof["dof"]), rel_tol=1e-12)
    digest = hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()
    assert digest == GOLDEN_VALIDATE_SHA256[dist], RAN_ON


# The golden runs whose bytes pass through numpy's sin and cos: the
# arcsine strips' inverse CDF and modulation, and the mixture's disks.
GOLDEN_TRIG_RUNS = [
    ("sample", "--dist", "arcsine-mod", "--n", "2000"),
    ("sample", "--dist", "arcsine-mod", "--n", "5000"),
    ("sample", "--dist", "gauss-mix-2d", "--n", "1000"),
    ("sample", "--dist", "gauss-mix-2d", "--n", "6000"),
    ("validate", "--dist", "arcsine-mod", "--n", "2000"),
    ("validate", "--dist", "gauss-mix-2d", "--n", "2000"),
]


def test_numpy_sin_and_cos_match_math_on_golden_arguments(tmp_path, capsys, monkeypatch):
    # The digests above were pinned where numpy's sin and cos equal math's
    # on every argument these runs pass them. A host whose numpy rounds
    # one differently fails here, with the function and the argument,
    # before ten digests fail without a reason.
    calls = {"sin": [], "cos": []}
    for name, seen in calls.items():
        ufunc = getattr(np, name)

        def recorded(x, *args, _ufunc=ufunc, _seen=seen, **kwargs):
            values = _ufunc(x, *args, **kwargs)
            _seen.append((np.array(x, float).ravel(), np.array(values, float).ravel()))
            return values

        monkeypatch.setattr(np, name, recorded)
    for argv in GOLDEN_TRIG_RUNS:
        code, _, _ = run_cli(capsys, *argv, "--seed", "42", "--out", str(tmp_path / "out"))
        assert code == 0, argv
    monkeypatch.undo()
    for name, seen in calls.items():
        assert seen, name
        x, got = (np.concatenate(parts) for parts in zip(*seen))
        want = np.array([getattr(math, name)(v) for v in x.tolist()])
        wrong = np.flatnonzero(got != want)
        if wrong.size:
            k = wrong[0]
            pytest.fail(
                f"np.{name}({float(x[k])!r}) = {float(got[k])!r} but math.{name} gives "
                f"{float(want[k])!r}; {wrong.size} of {x.size} golden arguments differ"
            )


# np.exp at the arguments the densities pass it on the first 16 accepted
# points of the seed-42 sample_array runs above (for the mixture, its two
# terms in turn), as float.hex (argument, value) pairs taken at commit
# 07167db. np.exp decides accepts; a host whose numpy rounds one of these
# differently fails here, with the argument.
GOLDEN_EXP = {
    "half-normal-zigg": [
        ('-0x1.a1264db79c9e5p+0', '0x1.9177da71f3474p-3'),
        ('-0x1.5178b31096e90p-3', '0x1.b2377713f5055p-1'),
        ('-0x1.8c60b158baf29p-5', '0x1.e7d0f1d00b589p-1'),
        ('-0x1.4820ec5afae3bp-2', '0x1.73a01e7a848a4p-1'),
        ('-0x1.d1ac7d8724450p-1', '0x1.9c621076ec9c4p-2'),
        ('-0x1.00995b74ee123p+1', '0x1.13df5dd19d9efp-3'),
        ('-0x1.ed0b9c9c5f17bp-2', '0x1.3c5873a6a2568p-1'),
        ('-0x1.c7e64594593d4p-3', '0x1.99d1dba428b84p-1'),
        ('-0x1.58b803d5f09edp-3', '0x1.b0aecbee92df3p-1'),
        ('-0x1.28df3874e1c20p-6', '0x1.f6ce696d1edb9p-1'),
        ('-0x1.fe024a233938ep-2', '0x1.3725ea1ca27fbp-1'),
        ('-0x1.884d415ed6d71p-2', '0x1.5d0d000f5b398p-1'),
        ('-0x1.22cd8964a2194p-4', '0x1.dce8f6d9ade3ep-1'),
        ('-0x1.1eeb5534eb714p+0', '0x1.4dd9bd11c950fp-2'),
        ('-0x1.57da564e3bb21p-6', '0x1.f55dd78d5f479p-1'),
        ('-0x1.18b3ddb8af65dp-1', '0x1.27eaa06f8fc5bp-1'),
    ],
    "gauss-mix-2d": [
        ('-0x1.334136ef5fd7cp+3', '0x1.1b96df01dbd15p-14'),
        ('-0x1.82b792836700cp-1', '0x1.e124aaff02cfdp-2'),
        ('-0x1.feae0af2212e6p+2', '0x1.6716d7318162cp-12'),
        ('-0x1.0475a6d3b1f90p+0', '0x1.7233f9be638bdp-2'),
        ('-0x1.7560762903200p-1', '0x1.edd8227d65981p-2'),
        ('-0x1.35fb9270415a5p-1', '0x1.1777f0f318753p-1'),
        ('-0x1.32c9ba05e3111p-1', '0x1.1937bf3f8278ep-1'),
        ('-0x1.868ec02b2fec2p+2', '0x1.254108b3895d1p-9'),
        ('-0x1.43c796468ba07p+0', '0x1.2114c92e631fap-2'),
        ('-0x1.1a1e527218636p+3', '0x1.3707ae0d880b6p-13'),
        ('-0x1.25169e2946d95p+0', '0x1.45e6cdf8b1dd6p-2'),
        ('-0x1.a0f2ccf743af2p+1', '0x1.3b4b1ccadb10fp-5'),
        ('-0x1.677d3c52d7346p-1', '0x1.fb6c388b0e952p-2'),
        ('-0x1.b66a6a9534215p+2', '0x1.15a970ed2dc01p-10'),
        ('-0x1.d7cca6518eb61p+0', '0x1.444b6e795cf97p-3'),
        ('-0x1.0dbb4ae599d9ep+4', '0x1.99c8d03a67b18p-25'),
        ('-0x1.757bd0c7de3e9p-4', '0x1.d361372af3871p-1'),
        ('-0x1.4007b8a779550p+3', '0x1.7c7bc1a0aabb2p-15'),
        ('-0x1.482b8ba432637p+0', '0x1.1c2a68413ee6bp-2'),
        ('-0x1.b1997171d8b7cp+1', '0x1.14d58293ad8d2p-5'),
        ('-0x1.20dfb098b37bcp+2', '0x1.67155bd927e2cp-7'),
        ('-0x1.94cfa346982d7p+2', '0x1.d568e5145ac34p-10'),
        ('-0x1.9980a9696f1b2p+3', '0x1.73aca2d335425p-19'),
        ('-0x1.acb1bf4463af0p-1', '0x1.bb4505a907554p-2'),
        ('-0x1.919e96d144274p+2', '0x1.ed697fb72c2edp-10'),
        ('-0x1.dd9db61a4b271p-5', '0x1.e300a58a6b8b3p-1'),
        ('-0x1.27c1f9df36838p+3', '0x1.962f6a58cb92bp-14'),
        ('-0x1.57285f2fe2b79p+2', '0x1.3383343d00ef9p-8'),
        ('-0x1.7665a57571011p+2', '0x1.797dd3664def6p-9'),
        ('-0x1.1cd3d21670352p-2', '0x1.83ad581eed1cep-1'),
        ('-0x1.d2479c9833176p+3', '0x1.f84d1cf5d8d2fp-22'),
        ('-0x1.bd5f908da9231p+0', '0x1.678f38302197fp-3'),
    ],
}


@pytest.mark.parametrize("dist", sorted(GOLDEN_EXP))
def test_numpy_exp_matches_golden_values(monkeypatch, dist):
    x, want = np.array([[float.fromhex(h) for h in pair] for pair in GOLDEN_EXP[dist]]).T
    got = np.exp(x)
    wrong = np.flatnonzero(got != want)
    if wrong.size:
        k = wrong[0]
        pytest.fail(
            f"np.exp({float(x[k])!r}) = {float(got[k]).hex()} but {float(want[k]).hex()} "
            f"was pinned; {wrong.size} of {x.size} golden arguments differ; {RAN_ON}"
        )
    # the table still holds the arguments the golden run passes np.exp; its
    # first 16 points do not depend on the call size
    target = distributions.TARGETS[dist]
    density = target.density()
    points = PatternBlockSampler(density, target.cover(), UniformSource(42)).sample_array(16)
    seen = []
    exp = np.exp

    def recorded(x, *args, **kwargs):
        seen.append(np.array(x, float).ravel())
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recorded)
    density.evaluate(points)
    monkeypatch.undo()
    assert np.concatenate(seen).tolist() == x.tolist(), (
        f"the golden run's first 16 points no longer pass np.exp the pinned arguments; {RAN_ON}"
    )


# math.log1p and math.exp at the arguments the half-normal tail sampler
# gives them in the seed-42 half-normal-zigg sample_array(30000) run: -u
# for the first 16 units it reads, and -x * x / 2 for the first 16 tail
# points it returns, whose heights f(x) * u take math.exp; float.hex
# (argument, value) pairs taken at commit f51c203. The tail points and
# their heights rest on these; a host whose libm rounds one differently
# fails here, with the function and the argument.
GOLDEN_TAIL_MATH = {
    "log1p": [
        ('-0x1.dc28ea0cbbb16p-2', '-0x1.403ffd78f5878p-1'),
        ('-0x1.bb6c0c4442bddp-1', '-0x1.01534588ad709p+1'),
        ('-0x1.0675ffee121ccp-1', '-0x1.6ffaa5757de3cp-1'),
        ('-0x1.25d16e2ed5cd5p-1', '-0x1.b4bbd1cc51f7dp-1'),
        ('-0x1.65d19962be1f6p-2', '-0x1.b83a5510fd568p-2'),
        ('-0x1.0a3ed9bfc5066p-2', '-0x1.3456ccb558ee0p-2'),
        ('-0x1.de08303a051e0p-6', '-0x1.e524f65296ca6p-6'),
        ('-0x1.733abf8c20688p-1', '-0x1.4a8baa3075507p+0'),
        ('-0x1.a41621a33f798p-2', '-0x1.0e5b5b6202056p-1'),
        ('-0x1.aac84a648ff25p-1', '-0x1.cb09ae40fdb9ap+0'),
        ('-0x1.ff40584478c30p-4', '-0x1.110b66a4db563p-3'),
        ('-0x1.d324f83ade8acp-2', '-0x1.37e496b20be6ap-1'),
        ('-0x1.40b5ef5e836c0p-3', '-0x1.5ccbb28001fd0p-3'),
        ('-0x1.b35e1784beeb1p-1', '-0x1.e638c8cf018c4p+0'),
        ('-0x1.37d322d614ca1p-1', '-0x1.e0d5d47d55995p-1'),
        ('-0x1.5a992c3d3a600p-4', '-0x1.6a2571a09de9cp-4'),
    ],
    "exp": [
        ('-0x1.a456fda460413p+2', '0x1.704753371dd31p-10'),
        ('-0x1.aaa4efd6877edp+2', '0x1.4dbae1b67fb59p-10'),
        ('-0x1.9743f66a82488p+2', '0x1.c3bfad8c03602p-10'),
        ('-0x1.7d2650c218b08p+2', '0x1.53b11417a4a40p-9'),
        ('-0x1.9dccb6a5e9575p+2', '0x1.97e72e7ee2416p-10'),
        ('-0x1.83d53521236dbp+2', '0x1.320241cf357ffp-9'),
        ('-0x1.863afac8b5d09p+2', '0x1.26c1dd1e76e97p-9'),
        ('-0x1.b9bcebd62b28bp+2', '0x1.079db0b0fc01ap-10'),
        ('-0x1.ae183cbabb0cep+2', '0x1.3c36d7c903444p-10'),
        ('-0x1.a907a9eb11ca5p+2', '0x1.5641511453716p-10'),
        ('-0x1.e7d9980c6fb29p+2', '0x1.0080c7cda1149p-11'),
        ('-0x1.b1e92a99ce6e3p+2', '0x1.29e9128bac69ap-10'),
        ('-0x1.d9d30d55fce98p+2', '0x1.3f59c6a9b4ed5p-11'),
        ('-0x1.b87e71c07cc27p+2', '0x1.0cca543d1e462p-10'),
        ('-0x1.e99b02d67beccp+2', '0x1.f3201e1810bb7p-12'),
        ('-0x1.a5ed0f4d01554p+2', '0x1.67436122a404dp-10'),
    ],
}


def test_tail_log1p_and_exp_match_golden_values(monkeypatch):
    for name, pairs in GOLDEN_TAIL_MATH.items():
        for arg, value in pairs:
            got = getattr(math, name)(float.fromhex(arg))
            assert got == float.fromhex(value), (
                f"math.{name}({float.fromhex(arg)!r}) = {got.hex()} but {value} was pinned; "
                f"{RAN_ON}"
            )
    # the golden run still gives the tail sampler these units and returns
    # these points; the sampler is wrapped before the cover takes it
    units, points = [], []
    tail_sampler = distributions.half_normal_tail_sampler

    def recorded(r, source):
        def next_unit():
            units.append(source.next_unit())
            return units[-1]

        points.append(tail_sampler(r, SimpleNamespace(next_unit=next_unit)))
        return points[-1]

    monkeypatch.setattr(distributions, "half_normal_tail_sampler", recorded)
    target = distributions.TARGETS["half-normal-zigg"]
    PatternBlockSampler(target.density(), target.cover(), UniformSource(42)).sample_array(30000)
    seen = {"log1p": [-u for u in units[:16]], "exp": [-0.5 * x * x for x in points[:16]]}
    for name, pairs in GOLDEN_TAIL_MATH.items():
        assert seen[name] == [float.fromhex(arg) for arg, _ in pairs], (
            f"the golden run no longer passes math.{name} the pinned arguments; {RAN_ON}"
        )


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
                area=distributions.mixture_superlevel_area(),
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
    # a block sitting above a bounded density can never be accepted; K is
    # the block's measure, 0.4, as the sampler rejects a cover below K
    from patternblocks.blocks1d import rect_block

    impossible = distributions.Target(
        density=lambda: Density(
            dim=1, evaluate=lambda p: np.full(len(p), 0.5), domain_bounds=((0.0, 1.0),), K=0.4
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


@pytest.mark.parametrize("command", ["sample", "validate"])
def test_cover_below_k_exits_three(capsys, monkeypatch, tmp_path, command):
    # uniform on [0, 1], K = 1, over a cover of measure 0.5
    from patternblocks.blocks1d import rect_block

    small = distributions.Target(
        density=lambda: Density(
            dim=1, evaluate=lambda p: np.ones(len(p)), domain_bounds=((0.0, 1.0),), K=1.0
        ),
        cover=lambda: BlockSet([rect_block(0.0, 0.5, 0.0, 1.0)]),
        probe_bounds=None,
        bins=lambda: (np.linspace(0.0, 1.0, 5), np.full(4, 0.25)),
    )
    monkeypatch.setitem(distributions.TARGETS, "arcsine-mod", small)
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, command, "--dist", "arcsine-mod", "--n", "100", "--out", str(out)
    )
    assert code == 3
    assert err == (
        "error: K = 1.0 exceeds the block set's measure 0.5; "
        "a cover of the density's subgraph has at least K\n"
    )
    assert out.read_text() == ""


def test_cover_of_another_dimension_exits_three(capsys, monkeypatch, tmp_path):
    # a 1-d cover of measure 2 >= K under the 2-d mixture density
    from patternblocks.blocks1d import rect_block

    one_d = dataclasses.replace(
        distributions.TARGETS["gauss-mix-2d"],
        cover=lambda: BlockSet([rect_block(0.0, 1.0, 0.0, 2.0)]),
    )
    monkeypatch.setitem(distributions.TARGETS, "gauss-mix-2d", one_d)
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "validate", "--dist", "gauss-mix-2d", "--n", "2000", "--out", str(out)
    )
    assert code == 3
    assert err == "error: block 0 ('rect'): its kernel returned 1 coordinates for a 2-d density\n"
    assert out.read_text() == ""

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
            dim=1, evaluate=lambda p: np.full(len(p), value), domain_bounds=((0.0, 1.0),), K=1.0
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


def test_sample_pointwise_density_exits_three(capsys, monkeypatch):
    # an evaluate written for one point returns shape (1,) on an (m, 1)
    # array, which would broadcast into every attempt's accept test
    from patternblocks.blocks1d import rect_block

    pointwise = distributions.Target(
        density=lambda: Density(
            dim=1, evaluate=lambda p: 2.0 * p[0] if 0.0 <= p[0] <= 1.0 else 0.0,
            domain_bounds=((0.0, 1.0),), K=1.0,
        ),
        cover=lambda: BlockSet([rect_block(0.0, 1.0, 0.0, 2.0)]),
        probe_bounds=None,
        bins=None,
    )
    monkeypatch.setitem(distributions.TARGETS, "arcsine-mod", pointwise)
    code, out, err = run_cli(capsys, "sample", "--dist", "arcsine-mod", "--n", "10000")
    assert code == 3
    assert out == "x\n"
    assert err.startswith("error: density.evaluate returned shape (1,) for "), err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["bench", "validate", "sample-csv", "sample-json"])
def test_bench_and_validate_memory_is_bounded(command, capsys, tmp_path):
    # each draws in chunks and keeps no point, and sample formats a chunk's
    # rows at a time; holding all 200k points peaks at about 17 MB (bench)
    # and 24 MB (validate). The first run builds the generator's
    # once-per-process jump tables outside the trace.
    argv = [command]
    if command.startswith("sample"):
        argv = ["sample", "--format", command[7:], "--out", str(tmp_path / "out")]
    main([*argv, "--dist", "half-normal-zigg", "--n", "1000", "--seed", "1"])
    tracemalloc.start()
    try:
        code = main([*argv, "--dist", "half-normal-zigg", "--n", "200000", "--seed", "1"])
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


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes about 1 s to import and the fit needs only
    # scipy.special.chdtrc, so no command pays for it at start-up
    root = Path(__file__).resolve().parents[1]
    probe = "import sys, patternblocks.cli; print(any(m.startswith('scipy.stats') for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    ("argv", "to_stdout"),
    [
        (["sample", "--n", "10", "--out", "/dev/full"], False),
        (["sample", "--n", "10"], True),
        (["validate", "--n", "2000", "--out", "/dev/full"], False),
        (["bench", "--n", "10"], True),
    ],
    ids=["sample-out", "sample-stdout", "validate-out", "bench-stdout"],
)
def test_full_disk_exits_two_without_traceback(argv, to_stdout):
    # stdout stays block-buffered, so a short run fails only when it is flushed
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "patternblocks", *argv, "--dist", "arcsine-mod"],
            stdout=full if to_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
