"""CSV and JSON rows from numpy columns, each field exactly str() of its value.

write_rows writes float64 and int64 columns as the rows of a CSV table or
as the objects of one JSON array. A float field is repr(x), Python's
shortest round-trip digits; an int field is str(i). The rows are laid out
BLOCK at a time in one byte table, each field in a FIELD-byte slot that
NUL bytes pad, and one bytes.translate deletes the padding. No Python call
is made per float field but for the few the fast path below leaves to repr.

Shortest digits (Adams 2018, "Ryu: fast float-to-string conversion", on
numpy integers): for 1e-4 <= |x| < 10, the range of every float the CLI
writes, where repr writes no exponent and at most one digit before the
point, x * 10**p with p = 16 - floor(log10 |x|) is a 17-digit number, taken
exactly as hi + lo by Dekker's two-product (10**p is exact for p <= 22)
and split into the integer D17 and a residual r in [-1/2, 1/2]. The
digits are those of the shortest rounding of D17 + r to k significant
digits that lies within half an ulp of x, scaled by the same 10**p (an
exact double), so that it reads back as x. No rounding lies exactly on
an edge of that interval, so the rule that an edge reads back as x only
when x's mantissa is even never applies: for |x| in [2**e, 2**(e + 1)),
an edge of the interval around D17 + r is an odd multiple of
5**p * 2**(e - 53 + p), and a multiple of 10**s within half of 10**s of
D17 + r sits on one only if e >= 54.
Acceptance only grows with k, so k is 17 less the number of accepted
roundings to 16, 15, ... digits: 16 and 15 are tried on every value at
once, and 14, 13 and 12 only on the values that take 15 (about 6 % of
random doubles). Values the path cannot certify are formatted by repr
one at a time: those outside that range, those with zero mantissa bits
(zeros and powers of two, whose interval is lopsided), ties (D17 + r
halfway between two k-digit roundings), those of 12 digits or fewer, NaN
and the infinities. So for k >= 13 the digits past k are the trailing
zeros of the last four, which one table lookup writes as NULs.
"""

from __future__ import annotations

import numpy as np

FIELD = 24  # widest str of a float64 or int64: "-2.2250738585072014e-308"
BLOCK = 8192  # most rows laid out at once, which bounds the temporaries

_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF << 52
_POW10 = np.array([10.0**p for p in range(23)])  # exact doubles


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# By D17's last three digits: its last digit, and its signed distance to
# the nearest multiple of 100. A distance past 32 exceeds every half ulp
# (below 11.2), so it is clipped there, which keeps its sum with r exact.
_LAST3 = np.arange(1000)
_UNITS = (_LAST3 % 10).astype(float)
_NEAR100 = np.clip((_LAST3 + 50) % 100 - 50, -32, 32).astype(float)


def _words(quads, half):
    """Each 4-byte row of quads in the given half of a native uint64 word,
    NULs in the other."""
    words = np.zeros((len(quads), 2), np.uint32)
    words[:, half] = quads.view(np.uint32)[:, 0]
    return words.view(np.uint64)[:, 0]


# A slot is three words. The first holds the text before digit 2: the
# sign, "0." and the zeros of |x| < 1, the first digit and, for
# 1 <= |x| < 10, the point. The other two hold digits 2-9 and 10-17, each
# the OR of two 4-digit groups: one from _QUAD_LOW, the other from
# _QUAD_HIGH or, for the last, _TAIL_HIGH, which writes trailing zeros as
# NULs.
_QUAD = np.empty((10, 10, 10, 10, 4), np.uint8)
for _j in range(4):
    _QUAD[..., _j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _j))
_QUAD = _QUAD.reshape(-1, 4)
_QUAD_LOW, _QUAD_HIGH = _words(_QUAD, 0), _words(_QUAD, 1)
# digit j of group g is one of its trailing zeros when g % 10**(4 - j) == 0
_TAIL_HIGH = _words(_QUAD * (np.arange(10**4)[:, None] % np.array([10**4, 1000, 100, 10]) != 0), 1)


def _prefix(p, neg, d0):
    """The text before digit 2 of a value with first digit d0 and point at
    decpt = 17 - p (x = 0.d1d2... * 10**decpt)."""
    decpt, sign = 17 - p, "-" * neg
    if decpt <= 0:
        return sign + "0." + "0" * -decpt + str(d0)
    return sign + str(d0) + "."


# by 20 * (p - 16) + 10 * neg + d0, for the p of 1e-4 <= |x| < 10 (16 to 20)
_PREFIX = np.frombuffer(b"".join(
    _prefix(p, neg, d0).encode().ljust(8, b"\0") for p in range(16, 21) for neg in (0, 1) for d0 in range(10)
), np.uint64)
_SLOT = np.dtype((np.void, FIELD))  # one slot's bytes as a single item


def _shortest(x):
    """(fast, p, digits) for float64 x: fast marks the values whose digits
    this path certifies; digits is their shortest rounding, as a 17-digit
    integer that scaled by 10**-p is that value."""
    ax = np.abs(x)
    bits = ax.view(np.int64)
    fast = (ax >= 1e-4) & (ax < 10.0) & ((bits & _MANTISSA) != 0)
    ax = np.where(fast, ax, 1.5)
    p = 16 - np.floor(np.log10(ax)).astype(np.intp)
    # x * 10**p = hi + lo exactly (Dekker's two-product)
    scale = _POW10.take(p)
    hi = ax * scale
    ah, al = _split(ax)
    sh, sl = _POW10_HI.take(p), _POW10_LO.take(p)
    lo = al * sl - (((hi - ah * sh) - al * sh) - ah * sl)
    # hi is an integer (it is at least 2**53), and so is D17
    rounded = np.rint(lo)
    d17 = hi.astype(np.int64) + rounded.astype(np.int64)
    r = lo - rounded
    # half an ulp of |x| in [2**e, 2**(e + 1)), 2**(e - 53) from its
    # exponent bits, scaled by 10**p
    half_ulp = ((ax.view(np.int64) & _EXPONENT) - (53 << 52)).view(np.float64) * scale
    last3 = d17 - d17 // 1000 * 1000
    # D17 + r lies v above the multiple of 10 at or below D17, v in [-1/2, 19/2]
    units = _UNITS.take(last3)
    v = units + r
    fit = np.minimum(np.abs(v), 10.0 - v) < half_ulp  # 16 digits
    offset = (units - 10.0 * (v > 5.0)) * fit  # D17 less its rounding
    near = _NEAR100.take(last3)
    fit = np.abs(near + r) < half_ulp  # 15 digits
    np.copyto(offset, near, where=fit)
    # 14 digits and fewer are tried on the values that take 15, about 6 %
    rows = np.flatnonzero(fit)
    for step in (10**3, 10**4, 10**5):
        near = np.clip((d17.take(rows) + step // 2) % step - step // 2, -32, 32)
        fit = np.abs(near + r.take(rows)) < half_ulp.take(rows)
        rows = rows[fit]
        offset[rows] = near[fit]
    digits = d17 - offset.astype(np.int64)
    # r = +-1/2 or v = 5: a tie at 17 or 16 digits, and the few others so flagged
    tie = (np.abs(r) == 0.5) | (v == 5.0)
    # a D17 off 17 digits (log10 rounded across a power of ten) or a carry to 10**17
    fast &= ~tie & (d17 >= 10**16) & (digits < 10**17)
    # 12 digits or fewer: trailing zeros past the last four digits
    fast[rows] = False
    return fast, p, digits


def _float_fields(x, slots):
    """Fill slots, an (n, FIELD) byte array, with repr(x[i]) in row i,
    NUL-padded."""
    x = np.ascontiguousarray(x, np.float64)
    fast, p, digits = _shortest(x)
    neg = x.view(np.int64) < 0
    head8 = digits // 10**8  # digits 1-9
    tail8 = digits - head8 * 10**8  # digits 10-17
    d0 = head8 // 10**8
    mid8 = head8 - d0 * 10**8
    words = slots.view(np.uint64)
    # clip: a value left to repr may index outside the table
    words[:, 0] = _PREFIX.take(20 * (p - 16) + 10 * neg + d0, mode="clip")
    for column, eight, tail in ((1, mid8, _QUAD_HIGH), (2, tail8, _TAIL_HIGH)):
        high = eight // 10**4
        words[:, column] = _QUAD_LOW.take(high) | tail.take(eight - high * 10**4)
    fields = slots.view(_SLOT)[:, 0]
    _put_repr(fields, x, np.flatnonzero(~fast))


def _int_fields(v, slots):
    """Fill slots, an (n, FIELD) byte array, with str(v[i]) in row i,
    NUL-padded."""
    _put_repr(slots.view(_SLOT)[:, 0], v, np.arange(len(v)))


def _put_repr(fields, values, rows):
    """Field i of values, for each i in rows, formatted by str() one at a time."""
    if rows.size:
        texts = b"".join(str(v).encode().ljust(FIELD, b"\0") for v in values[rows].tolist())
        fields[rows] = np.frombuffer(texts, _SLOT)


def write_rows(out, chunks, names, fmt):
    """Write the rows of each chunk to the text stream out, as CSV with a
    header of names, or as one JSON array of objects keyed by names with
    json.dump's separators. A chunk is a sequence of columns, one per
    name, of ints or floats; column j gives field j of each row. Every
    field is str() of its value, which for ints and finite floats is what
    json.dump writes too. Memory is bounded by BLOCK rows and one chunk."""
    if fmt == "csv":
        head, leads, end, tail = ",".join(names) + "\n", [""] + [","] * (len(names) - 1), "\n", ""
        skip = 0
    else:
        head, tail = "[", "]\n"
        leads = [f', {{"{names[0]}": '] + [f', "{name}": ' for name in names[1:]]
        end = "}"
        skip = 2  # the ", " before the first object
    # a row of the table: each lead, then its field's slot; then end
    starts = np.cumsum([0] + [len(lead) + FIELD for lead in leads]).tolist()
    table = np.empty((BLOCK, starts[-1] + len(end)), np.uint8)
    for start, lead in zip(starts, leads):
        table[:, start:start + len(lead)] = np.frombuffer(lead.encode(), np.uint8)
    table[:, starts[-1]:] = np.frombuffer(end.encode(), np.uint8)
    out.write(head)
    for columns in chunks:
        columns = [np.asarray(column) for column in columns]
        n = len(columns[0])
        for begin in range(0, n, BLOCK):
            rows = table[:min(BLOCK, n - begin)]
            for column, start, lead in zip(columns, starts, leads):
                fields = _int_fields if column.dtype.kind == "i" else _float_fields
                at = start + len(lead)
                fields(column[begin:begin + BLOCK], rows[:, at:at + FIELD])
            text = rows.tobytes().translate(None, b"\0")
            out.write(text[skip:].decode("ascii"))
            skip = 0
    out.write(tail)
