"""Float64 rows as text at 17 significant digits, vectorized.

format_rows(matrix) gives the text of each row: its values formatted by
"%.17g", space-separated. "%.17g" % x is x correctly rounded to 17
significant digits, ties to even, its trailing zeros dropped: the bytes
C's printf("%.17g") gives, and enough digits for every double to read back
bit-equal. Values x with 1e-4 <= |x| < 1 (the doubles, not the decimals)
are formatted by numpy arithmetic, byte for byte the same:

1. decpt, where x = 0.d1d2...d17 * 10**decpt, is estimated from
   np.log10(|x|);
2. |x| * 10**k, k = 17 - decpt, is formed as the exact double-double p + e
   by Dekker's TwoProduct (10**k is exact for k <= 22, and in this range
   neither product overflows or underflows);
3. a lane whose p + e lies outside [10**16, 10**17) had its decpt wrong and
   is formed again with decpt one lower or higher, so no estimate of
   log10 decides a digit; then the 17 digits are uint(p) + rint(e): p >=
   10**16 > 2**53 is an even integer, so rint's ties-to-even is the tie rule
   of the exact value;
4. the digits split into a leading digit and four 4-digit groups, each
   group's text, its trailing zeros dropped where no later digit is
   nonzero, looked up in a table;
5. each value is written into a 32-byte lane, NUL where it has no byte,
   and one nonzero-compress turns the lanes into text.

Every other value (0, -0.0, a subnormal, |x| >= 1 or |x| < 1e-4) is
formatted by Python's "%.17g" into its lane. The tables are built with
numpy arithmetic, and every scalar is a numpy scalar of its array's dtype,
so value-based promotion (numpy < 2) and NEP 50 give the same dtypes.
"""

import numpy as np

_LANE = 32  # bytes: 24 at most for a "%.17g" text, then NULs, then a separator
_LOW, _HIGH = np.float64(1e-4), np.float64(1.0)
_F0, _E16, _E17 = np.float64(0), np.float64(1e16), np.float64(1e17)
_I0, _I1, _I4, _I8 = np.int64(0), np.int64(1), np.int64(10**4), np.int64(10**8)
_I16 = np.int64(10**16)
_SPLITTER = np.float64(2.0**27 + 1)  # Veltkamp's split into two 26-bit halves

# 10**k for k = 0..22, each exact, and its Veltkamp halves.
_POW10 = np.float64(10.0) ** np.arange(23, dtype=np.float64)
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _group_table() -> np.ndarray:
    """The text of each 4-digit group g < 10**4 as one native uint32 of 4
    ASCII bytes: entry g all four digits, entry 10**4 + g with its trailing
    zero digits NUL (entry 10**4 itself all NUL)."""
    g = np.arange(10**4, dtype=np.int64)[:, None]
    digits = g // np.int64(10) ** np.arange(3, -1, -1, dtype=np.int64) % np.int64(10)
    text = (digits + np.int64(ord("0"))).astype(np.uint8)
    trailing = np.cumprod((digits == _I0)[:, ::-1], axis=1)[:, ::-1].astype(bool)
    return np.concatenate([text, np.where(trailing, np.uint8(0), text)]).view(np.uint32).ravel()


def _prefix_table() -> np.ndarray:
    """The first 8 bytes of a lane as one native uint64, at sign * 40 +
    zeros * 10 + d1: '-' or NUL, "0.", the zeros after the point (up to 3,
    NUL after them), NUL, the leading digit d1."""
    sign, zeros, d1 = np.meshgrid(*map(np.arange, (2, 4, 10)), indexing="ij")
    lane = np.zeros(sign.shape + (8,), np.uint8)
    nul, zero = np.uint8(0), np.uint8(ord("0"))
    lane[..., 0] = np.where(sign == 1, np.uint8(ord("-")), nul)
    lane[..., 1], lane[..., 2] = zero, np.uint8(ord("."))
    lane[..., 3:6] = np.where(zeros[..., None] > np.arange(3), zero, nul)
    lane[..., 7] = d1.astype(np.uint8) + zero
    return lane.reshape(-1, 8).view(np.uint64).ravel()


_GROUPS = _group_table()
_PREFIXES = _prefix_table()


def _digits(y: np.ndarray, decpt: np.ndarray):
    """(the 17 digits of round(y * 10**(17 - decpt)), the lanes where that
    product is below 10**16, the lanes where it is 10**17 or more)."""
    k = np.int64(17) - decpt
    t, t_hi, t_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    c = y * _SPLITTER
    y_hi = c - (c - y)
    y_lo = y - y_hi
    p = y * t
    e = y_lo * t_lo - (((p - y_hi * t_hi) - y_lo * t_hi) - y_hi * t_lo)  # y * t == p + e
    low = (p < _E16) | ((p == _E16) & (e < _F0))
    high = (p > _E17) | ((p == _E17) & (e >= _F0))
    digits = np.minimum(p, _E17).astype(np.int64) + np.rint(e).astype(np.int64)
    return digits, low, high


def _lanes(x: np.ndarray) -> np.ndarray:
    """The (n, _LANE) uint8 lanes of the values x, each value's text then
    NULs; the last byte of each lane is left 0 for the separator."""
    a = np.abs(x)
    kernel = (a >= _LOW) & (a < _HIGH)
    y = np.where(kernel, a, np.float64(0.5))  # any value of the range: no lane raises
    decpt = np.floor(np.log10(y)).astype(np.int64) + _I1
    np.clip(decpt, np.int64(-4), _I1, out=decpt)  # so k indexes _POW10 whatever log10 gave
    digits, low, high = _digits(y, decpt)
    wrong = np.flatnonzero(low | high)
    while wrong.size:
        decpt[wrong] += high[wrong].astype(np.int64) - low[wrong].astype(np.int64)
        digits[wrong], low_w, high_w = _digits(y[wrong], decpt[wrong])
        low[wrong], high[wrong] = low_w, high_w
        wrong = wrong[low_w | high_w]
    # The digits are below 10**17: no double of the range rounds up to a
    # power of ten at 17 digits (a carry needs one within 5e-18 of it below
    # it; the largest doubles below 1e-4, 0.001, 0.01, 0.1 and 1 are at
    # least 8e-17 below), so lead is one digit and decpt is in -3..0.
    lead = digits // _I16
    rest = digits - lead * _I16
    hi8 = rest // _I8
    lo8 = rest - hi8 * _I8
    g1 = hi8 // _I4
    g2 = hi8 - g1 * _I4
    g3 = lo8 // _I4
    g4 = lo8 - g3 * _I4
    tail4 = g4 == _I0
    tail3 = tail4 & (g3 == _I0)
    tail2 = tail3 & (g2 == _I0)

    lanes = np.zeros((x.size, _LANE // 8), np.uint64)
    sign = np.signbit(x).astype(np.int64)
    prefix = sign * np.int64(40) - decpt * np.int64(10) + lead
    lanes[:, 0] = _PREFIXES[prefix]  # a lane of y = 0.5 indexes it too
    words = lanes.view(np.uint32)
    words[:, 2] = _GROUPS[g1 + _I4 * tail2]
    words[:, 3] = _GROUPS[g2 + _I4 * tail3]
    words[:, 4] = _GROUPS[g3 + _I4 * tail4]
    words[:, 5] = _GROUPS[g4 + _I4]
    lanes = lanes.view(np.uint8)
    other = np.flatnonzero(~kernel)
    if other.size:
        text = np.array(["%.17g" % v for v in x[other].tolist()], dtype=f"S{_LANE - 1}")
        lanes[other, : _LANE - 1] = text.view(np.uint8).reshape(-1, _LANE - 1)
    return lanes


def format_rows(matrix: np.ndarray) -> list:
    """The text of each row of the float64 (N, D) matrix: its D values
    formatted by "%.17g", space-separated, the bytes of
    " ".join("%.17g" % v for v in row)."""
    n, dim = matrix.shape
    if n == 0:
        return []
    lanes = _lanes(np.ascontiguousarray(matrix, dtype=np.float64).reshape(-1))
    ends = lanes.reshape(n, dim, _LANE)[:, :, _LANE - 1]
    ends[:] = np.uint8(ord(" "))
    ends[:, -1] = np.uint8(ord("\n"))
    return lanes.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
