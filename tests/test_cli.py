import json
import math

import numpy as np
import pytest

from patternblocks import distributions
from patternblocks.blocks2d import cylinder_block, slab_block, superlevel_block
from patternblocks.cli import main
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
        "--bins", "64",
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
    def corrupted(levels=distributions.DEFAULT_LEVELS, cells_per_axis=2000):
        lv = levels
        blocks = [
            slab_block(distributions.MIX_DOMAIN, 0.0, lv.b0),
            superlevel_block(
                lv.b0,
                distributions.SUPERLEVEL_BOX,
                distributions.gauss_mixture_xy,
                lv.b0,
                lv.b1,
                cells_per_axis=cells_per_axis,
            ),
            cylinder_block((0.0, 0.0), 1.25, lv.b1, lv.b2),
            cylinder_block((2.0, 2.0), 1.0, lv.b1, lv.b2),
            cylinder_block((0.0, 0.0), 0.5, lv.b2, lv.b3),  # halved radius
        ]
        return BlockSet(blocks)

    monkeypatch.setattr(distributions, "gauss_mixture_blockset", corrupted)
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
    def impossible(*args, **kwargs):
        density = Density(
            dim=1, evaluate=lambda p: 0.5, domain_bounds=((0.0, 1.0),), K=0.5
        )
        from patternblocks.blocks1d import rect_block

        return density, BlockSet([rect_block(0.0, 1.0, 0.6, 1.0)]), None, None

    monkeypatch.setattr("patternblocks.cli._build", impossible)
    code, _, err = run_cli(
        capsys, "sample", "--dist", "arcsine-mod", "--n", "1", "--seed", "1"
    )
    assert code == 3
    assert "rejections" in err


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
        "--layers", "128",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical_rate"] > 0.97


def test_bench_threads_sum_counters(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--dist", "arcsine-mod", "--n", "4000", "--seed", "2",
        "--threads", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["threads"] == 2
    assert abs(doc["attempts_per_sample"] - 1.5) < 0.05


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
    capsys.readouterr()
    for argv in (
        ["--bins", "0"],
        ["--bins", "1"],
        ["--bins", "-3"],
        ["--n", "0"],
        ["--n", "5", "--bins", "64"],
    ):
        code, out, err = run_cli(
            capsys, "validate", "--dist", "arcsine-mod", "--n", "1000", *argv
        )
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


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