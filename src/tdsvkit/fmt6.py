"""Float64 columns as text at 6 decimals, vectorized.

format_columns(columns) gives the text of a table: row i holds the i-th
value of each column formatted by "%.6f", tab-separated, and ends in a
newline. "%.6f" % x is x correctly rounded to 6 decimals, ties to even on
the exact binary value: the bytes C's printf("%.6f") gives. numpy
arithmetic gives them byte for byte for every finite x whose rounding has
at most three digits before the point (|x| * 10**6 rounds below 10**9, so
every |x| < 999.9999995):

1. |x| * 10**6 is formed as the exact double-double p + e by Dekker's
   TwoProduct (10**6 has 20 significant bits, so it needs no split, and
   for |x| < 1000 nothing overflows);
2. n = rint(p), moved one away from rint's even choice where p - n is
   exactly +-0.5 and e leans the other way: n is then the exact product
   rounded half to even, as rint rounds a p that is the exact product;
3. n splits into three 3-digit groups, the integer part and two groups of
   decimals, and each group's text, with its sign, point or separator, is
   one native uint32 from a table, NUL where it has no byte; one translate
   drops the NULs.

Whether a value is in range is decided on n, not on x: 999.9999996 rounds
to 1000.000000 and is out of range. A table with any value out of range
(NaN, an infinity, a larger magnitude) gives None, so its writer can
format all of it another way. The tables are built with numpy arithmetic,
and every scalar is a numpy scalar of its array's dtype, so value-based
promotion (numpy < 2) and NEP 50 give the same dtypes.
"""

from typing import Optional, Sequence

import numpy as np

_F0, _HALF, _E6, _E9 = np.float64(0), np.float64(0.5), np.float64(1e6), np.float64(1e9)
_BOUND = np.float64(1000.0)  # every |x| past it is out of range; below it p < 2**30
_SPLITTER = np.float64(2.0**27 + 1)  # Veltkamp's split into two 26-bit halves
_I10, _I1000 = np.int64(10), np.int64(1000)
_ROWS = 8192  # rows a block: a few hundred KiB of float64 temporaries


def _tables():
    """The words of the three groups, each 4 ASCII or NUL bytes as one
    native uint32: at sign * 1000 + g, "-" or NUL and g without its leading
    zeros (but the last); at g, "." and g's 3 digits; at last * 1000 + g,
    g's 3 digits and "\\t", or "\\n" after a row's last field."""
    g = np.arange(1000, dtype=np.int64)[:, None]
    text = (g // np.array([100, 10, 1], np.int64) % _I10 + np.int64(ord("0"))).astype(np.uint8)
    integer = np.zeros((2, 1000, 4), np.uint8)
    integer[1, :, 0] = ord("-")
    integer[:, :, 1:] = np.where(g < np.array([100, 10, 0], np.int64), np.uint8(0), text)
    point = np.full((1000, 4), ord("."), np.uint8)
    point[:, 1:] = text
    last = np.empty((2, 1000, 4), np.uint8)
    last[:, :, :3] = text
    last[0, :, 3], last[1, :, 3] = ord("\t"), ord("\n")
    return [table.reshape(-1, 4).view(np.uint32).ravel() for table in (integer, point, last)]


_INTEGER, _POINT, _LAST = _tables()


def format_columns(columns: Sequence[np.ndarray]) -> Optional[str]:
    """The text of the rows of the equal-length float64 columns, each value
    formatted by "%.6f", a tab between fields and a newline after each row:
    "".join("\\t".join("%.6f" % v for v in row) + "\\n" for row in
    zip(*columns)). None if any value is out of range (see the module
    docstring). The rows are formatted _ROWS at a time, so that each
    block's arrays stay in cache."""
    parts = []
    for start in range(0, len(columns[0]), _ROWS):
        part = _block(np.stack([column[start : start + _ROWS] for column in columns], axis=1))
        if part is None:
            return None
        parts.append(part)
    return b"".join(parts).decode("ascii")


def _block(x: np.ndarray) -> Optional[bytes]:
    """The text of the rows of the (n, k) float64 matrix x, or None."""
    a = np.abs(x)
    if not (np.isfinite(a).all() and a.max() < _BOUND):
        return None
    c = a * _SPLITTER
    a_hi = c - (c - a)
    p = a * _E6
    e = (a_hi * _E6 - p) + (a - a_hi) * _E6  # a * 10**6 == p + e
    n = np.rint(p)
    d = p - n  # exact
    n += (d == _HALF) & (e > _F0)
    n -= (d == -_HALF) & (e < _F0)
    if n.max() >= _E9:
        return None
    n = n.astype(np.int64)
    high = n // _I1000
    low = n - high * _I1000
    integer = high // _I1000
    high -= integer * _I1000
    low[:, -1] += _I1000
    words = np.empty(x.shape + (3,), np.uint32)
    words[..., 0] = _INTEGER[integer + _I1000 * np.signbit(x)]
    words[..., 1] = _POINT[high]
    words[..., 2] = _LAST[low]
    return words.tobytes().translate(None, b"\0")
