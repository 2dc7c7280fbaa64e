import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternblocks.output import BLOCK, write_rows


def written(chunks, names, fmt):
    out = io.StringIO()
    write_rows(out, chunks, names, fmt)
    return out.getvalue()


def reprs(values):
    """write_rows' field of each float: the lines of a one-column CSV."""
    return written([[np.asarray(values, float)]], ["x"], "csv").split("\n")[1:-1]


def reference_rows(chunks, names, fmt):
    """The rows written one str.format template at a time, as before the
    numpy writer: the reference write_rows must match byte for byte."""
    if fmt == "csv":
        head, sep, tail = ",".join(names) + "\n", "", ""
        row = ",".join(["{}"] * len(names)) + "\n"
    else:
        head, sep, tail = "[", ", ", "]\n"
        row = "{{" + ", ".join(f'"{name}": {{}}' for name in names) + "}}"
    text = head
    lead = ""
    for columns in chunks:
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        text += lead + sep.join([row.format(*r) for r in rows])
        lead = sep
    return text + tail


TENS = [10.0**k for k in range(-6, 18)]
EDGES = [
    1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0),
    *(2.0**k for k in range(-30, 61)),
    *(2.0**53 + d for d in (-2, -1, 1, 2)),
    5e-324, sys.float_info.max, 0.1, 0.3, 1 / 3, 0.125, 9.5,
    0.0, math.nan, math.inf,
    # log10 rounds across a power of ten near these
    *TENS, *(math.nextafter(t, 0.0) for t in TENS), *(math.nextafter(t, math.inf) for t in TENS),
]


def test_edge_values_match_repr():
    values = EDGES + [-v for v in EDGES]
    assert reprs(values) == [repr(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    min_size=1, max_size=40,
))
def test_floats_match_repr(values):
    assert reprs(values) == [repr(v) for v in values]


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20261019)
    for _ in range(16):
        values = rng.integers(0, 2**64, 62_500, dtype=np.uint64).view(np.float64)
        assert reprs(values) == [repr(v) for v in values.tolist()]


def test_short_decimals_match_repr():
    # few significant digits: the search runs down to k = 1
    rng = np.random.default_rng(7)
    values = rng.integers(-(10**6), 10**6, 50_000) / 10.0 ** rng.integers(0, 10, 50_000)
    # the nearest double to each k-digit decimal, k = 1 .. 17, at every
    # point position of the fast path (1e-4 <= |x| < 1e16), either sign
    k = rng.integers(1, 18, 100_000)
    exponent = rng.integers(-4, 16, 100_000) - k + 1
    mantissa = rng.integers(10 ** (k - 1), 10**k) * rng.choice([-1, 1], 100_000)
    scaled = np.where(exponent < 0, mantissa / 10.0 ** -exponent, mantissa * 10.0 ** exponent)
    values = np.concatenate([values, scaled])
    assert reprs(values) == [repr(v) for v in values.tolist()]


def _columns(rng, n, kinds):
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(rng.integers(-(10**18), 10**18, n) // 10 ** rng.integers(0, 19, n))
        else:
            column = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)
            special = rng.random(n) < 0.01
            column[special] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5])
            columns.append(column)
    return columns


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("names", [["x"], ["x1", "x2"], ["i", "x", "f", "area"]])
def test_rows_match_the_per_row_reference(fmt, names):
    # chunks of several sizes, on both sides of BLOCK rows and past twice it
    rng = np.random.default_rng(len(names))
    kinds = ["int", "float", "float", "float"] if len(names) == 4 else ["float"] * len(names)
    sizes = (1, 5, BLOCK + 3, 100, BLOCK - 1, BLOCK, 2 * BLOCK + 1)
    chunks = [_columns(rng, n, kinds) for n in sizes]
    assert written(chunks, names, fmt) == reference_rows(chunks, names, fmt)


def test_int_extremes_match_str():
    values = [0, 1, -1, 9, 10, 10**16 - 1, 10**16, 10**17 - 1, 10**17, -(10**17)]
    values += [2**63 - 1, -(2**63)]
    text = written([[np.array(values, np.int64)]], ["i"], "csv")
    assert text.split("\n")[1:-1] == [str(v) for v in values]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_chunks_and_no_rows(fmt):
    assert written([], ["x1", "x2"], fmt) == ("x1,x2\n" if fmt == "csv" else "[]\n")
    chunks = [[[], []], [[0.25, 1.5], [2.0, -3.0]], [[], []]]
    text = written(chunks, ["x1", "x2"], fmt)
    if fmt == "json":
        assert json.loads(text) == [{"x1": 0.25, "x2": 2.0}, {"x1": 1.5, "x2": -3.0}]
    else:
        assert text == "x1,x2\n0.25,2.0\n1.5,-3.0\n"
