"""CSV and JSON rows from numpy columns, each field exactly str() of its value.

write_rows writes float64 and int64 columns as the rows of a CSV table or
as the objects of one JSON array. A float field is repr(x), Python's
shortest round-trip digits; an int field is str(i). The rows are
formatted BLOCK at a time in numpy, with no Python call per float field
but for the few the fast path below leaves to repr.

Shortest digits (Adams 2018, "Ryu: fast float-to-string conversion", on
numpy integers): for 1e-4 <= |x| < 1e16, where repr writes no exponent,
x * 10**p with p = 16 - floor(log10 |x|) is a 17-digit number, taken
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
Acceptance only grows with k, so k = 16, 15, ... is tried on the values
that passed k + 1. Values the path cannot certify are formatted by repr
one at a time: those outside that range, those with zero mantissa bits
(zeros and powers of two, whose interval is lopsided), ties (D17 + r
halfway between two k-digit roundings), NaN and the infinities.
"""

from __future__ import annotations

import numpy as np

FIELD = 24  # widest str of a float64 or int64: "-2.2250738585072014e-308"
BLOCK = 4096  # most rows formatted at once, which bounds the temporaries

_MANTISSA = (1 << 52) - 1
_POW10 = np.array([10.0**p for p in range(23)])  # exact doubles


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# A field is gathered from a 20-byte source row per value: digits 2-17 of
# a 17-digit integer as four 4-digit groups, then its first digit, "0",
# "." and "-". _QUAD[g] is the group g in ASCII and _LEAD[d] the last four
# bytes, each as one native uint32, so a group costs one 1-D gather.
_QUAD = np.empty((10, 10, 10, 10, 4), np.uint8)
for _j in range(4):
    _QUAD[..., _j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _j))
_QUAD = _QUAD.view(np.uint32).ravel()
_LEAD = np.frombuffer(b"".join(b"%d0.-" % d for d in range(10)), np.uint32)
_SOURCE = 20
_DIGITS = [16] + list(range(16))  # source byte of each of the 17 digits
_ZERO, _DOT, _MINUS = 17, 18, 19
_COLUMNS = np.arange(FIELD)
_ROW = np.dtype((np.void, FIELD))  # one field's bytes as a single item


def _templates(bodies):
    """Source bytes of each field layout, unsigned and signed: row 2 * i + neg."""
    rows = []
    for body in bodies:
        for signed in ([], [_MINUS]):
            row = signed + body
            rows.append(row + [_ZERO] * (FIELD - len(row)))
    return np.array(rows, np.intp)


# layouts by decimal point position decpt = -3 .. 16: x = 0.d1d2... * 10**decpt
_LAYOUTS = _templates(
    [_ZERO, _DOT] + [_ZERO] * -decpt + _DIGITS if decpt <= 0
    else _DIGITS[:decpt] + [_DOT] + _DIGITS[decpt:]
    for decpt in range(-3, 17)
)


def _lay_out(chars, digits, code):
    """Fill chars, an (n, FIELD) byte array: row i laid out as
    _LAYOUTS[code[i]] over the 17 digits of digits[i], an int64 below
    10**17 with leading zeros. Each layout takes one column gather over
    its rows."""
    n = len(digits)
    first, rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    source = np.empty((n, _SOURCE // 4), np.uint32)
    for column, group in enumerate((*np.divmod(high, 10**4), *np.divmod(low, 10**4))):
        source[:, column] = _QUAD[group]
    source[:, 4] = _LEAD[first]
    source = source.view(np.uint8)
    # rows are gathered with take and scattered with put, as one FIELD-byte
    # void each: numpy's 2-D fancy indexing costs several times more
    fields = chars.view(_ROW)[:, 0]
    for c in np.flatnonzero(np.bincount(code)).tolist():
        rows = np.flatnonzero(code == c)
        laid = source.take(rows, 0).take(_LAYOUTS[c], axis=1)
        fields.put(rows, laid.view(_ROW)[:, 0])


def _put_repr(chars, lengths, values, rows):
    """Field i of values, for each i in rows, formatted by str() one at a time."""
    texts = [str(v).encode() for v in values[rows].tolist()]
    padded = b"".join(text.ljust(FIELD) for text in texts)
    chars[rows] = np.frombuffer(padded, np.uint8).reshape(-1, FIELD)
    lengths[rows] = [len(t) for t in texts]


def _shortest(d17, r, half_ulp):
    """(digits, k, tie): the shortest rounding of d17 + r to k significant
    digits closer than half_ulp to it, as a 17-digit integer; tie marks a
    rounding from exactly halfway."""
    digits = d17.copy()
    k = np.full(len(d17), 17)
    tie = np.abs(r) == 0.5
    rows = np.arange(len(d17))
    for s in range(1, 17):
        step = 10**s
        q = d17 // step
        rem = d17 - q * step
        # distances down and up to the two roundings, exact below 32;
        # past it they exceed every half_ulp, which is below 11.2
        down = np.minimum(rem, 32) + r
        up = np.minimum(step - rem, 32) - r
        fits = np.minimum(down, up) < half_ulp
        if not fits.any():
            break
        rows = rows[fits]
        digits[rows] = ((q + (up < down)) * step)[fits]
        k[rows] = 17 - s
        tie[rows] = (up == down)[fits]
        d17, r, half_ulp = d17[fits], r[fits], half_ulp[fits]
    return digits, k, tie


def _float_fields(x, chars):
    """Fill chars (n, FIELD) with repr(x[i]) in the first lengths[i] bytes
    of row i, and return lengths."""
    x = np.ascontiguousarray(x, np.float64)
    ax = np.abs(x)
    bits = x.view(np.int64)
    fast = (ax >= 1e-4) & (ax < 1e16) & ((bits & _MANTISSA) != 0)
    ax = np.where(fast, ax, 1.5)
    p = 16 - np.floor(np.log10(ax)).astype(np.intp)
    # x * 10**p = hi + lo exactly (Dekker's two-product)
    scale = _POW10[p]
    hi = ax * scale
    ah, al = _split(ax)
    sh, sl = _POW10_HI[p], _POW10_LO[p]
    lo = al * sl - (((hi - ah * sh) - al * sh) - ah * sl)
    # hi is an integer (it is at least 2**53), and so is D17
    rounded = np.rint(lo)
    d17 = hi.astype(np.int64) + rounded.astype(np.int64)
    half_ulp = np.spacing(ax) * (0.5 * scale)
    digits, k, tie = _shortest(d17, lo - rounded, half_ulp)
    # a D17 off 17 digits (log10 rounded across a power of ten) or a carry to 10**17
    fast &= ~tie & (d17 >= 10**16) & (digits < 10**17)
    decpt = 17 - p
    neg = (bits < 0).astype(np.intp)
    lengths = np.where(decpt <= 0, 2 - decpt + k, np.maximum(k + 1, decpt + 2)) + neg
    code = np.where(fast, 2 * decpt + 6, 0) + neg
    _lay_out(chars, np.where(fast, digits, 0), code)
    _put_repr(chars, lengths, x, np.flatnonzero(~fast))
    return lengths


def _int_fields(v, chars):
    """Fill chars (n, FIELD) with str(v[i]) in the first lengths[i] bytes
    of row i, and return lengths."""
    lengths = np.empty(len(v), np.intp)
    _put_repr(chars, lengths, v, np.arange(len(v)))
    return lengths


def _rows(columns, leads, end):
    """Row bytes of the columns: leads[j] and then field j for each column,
    then end. An int column is written as ints, any other as floats."""
    n = len(columns[0])
    width = sum(len(lead) + FIELD for lead in leads) + len(end)
    table = np.empty((n, width), np.uint8)
    keep = np.ones((n, width), bool)
    at = 0
    for column, lead in zip(columns, leads):
        table[:, at:at + len(lead)] = np.frombuffer(lead, np.uint8)
        at += len(lead)
        column = np.asarray(column)
        fields = _int_fields if column.dtype.kind == "i" else _float_fields
        chars = np.empty((n, FIELD), np.uint8)
        lengths = fields(column, chars)
        table[:, at:at + FIELD] = chars
        # compared as (FIELD, n) and transposed: numpy broadcasts a short
        # last axis several times slower
        keep[:, at:at + FIELD] = (_COLUMNS[:, None] < lengths).T
        at += FIELD
    table[:, at:] = np.frombuffer(end, np.uint8)
    return table[keep].tobytes()


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
    leads, end = [lead.encode() for lead in leads], end.encode()
    out.write(head)
    for columns in chunks:
        for start in range(0, len(columns[0]), BLOCK):
            block = _rows([c[start:start + BLOCK] for c in columns], leads, end)
            out.write(block[skip:].decode("ascii"))
            skip = 0
    out.write(tail)
