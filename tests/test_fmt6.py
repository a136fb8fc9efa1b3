"""The vectorized "%.6f" kernel (tdsvkit.fmt6) against Python's own
"%.6f" % v, byte for byte: on drawn doubles over the whole finite range, on
every tie candidate (2k + 1) * 5e-7 and its neighbours, on the exact ties
odd * 2**-7, on the values whose rounding carries into a new digit, and on
signed zeros and subnormals, all with every numpy error raised. These tests
also run on a second platform, as the kernel rests on exact IEEE products
and on rint rounding half to even."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsvkit import fmt6
from tdsvkit.fmt6 import format_columns


def _in_range(v):
    """Whether "%.6f" % v has at most three digits before the point: the
    kernel's range."""
    return len("%.6f" % abs(v)) <= len("999.999999")


def _percent_text(columns):
    return "".join("\t".join("%.6f" % v for v in row) + "\n" for row in zip(*columns))


def _neighbours(values, steps):
    """Each double of values and the steps doubles on either side of it,
    adjacent doubles being adjacent int64 bit patterns (for values of one
    sign)."""
    bits = np.asarray(values, np.float64).view(np.int64)[:, None]
    return (bits + np.arange(-steps, steps + 1, dtype=np.int64)).view(np.float64).ravel()


def _check(values, width=3):
    """The kernel formats the in-range values of values, laid out as width
    columns, as "%.6f" does, and gives None for a table that holds any of
    the others; nothing raises."""
    values = np.asarray(values, np.float64)
    inside = np.array([_in_range(v) for v in values.tolist()], bool)
    kept = values[inside]
    kept = kept[: kept.size - kept.size % width].reshape(-1, width)
    columns = list(kept.T)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = format_columns(columns)
        for v in values[~inside].tolist():
            assert format_columns([np.array([0.5, v, -0.25])]) is None, v
    want = _percent_text([c.tolist() for c in columns])
    if got != want:
        wrong = [
            (v, g, w) for v, g, w in zip(kept.ravel().tolist(), got.split(), want.split()) if g != w
        ]
        assert wrong[:5] == []
    assert got == want
    return kept.ravel()


def _needs_the_tie_fix(values):
    """How many of values rint(v * 10**6) rounds otherwise than "%.6f"."""
    naive = np.rint(np.abs(values) * 1e6).astype(np.int64)
    exact = np.array([int(("%.6f" % v).replace(".", "")) for v in np.abs(values).tolist()])
    return int(np.count_nonzero(naive != exact))


def test_tie_candidates_and_their_neighbours():
    rng = np.random.default_rng(20240918)
    k = np.concatenate([
        np.arange(0, 100_000, dtype=np.int64),  # every candidate below 0.1
        rng.integers(0, 10**9, 100_000, dtype=np.int64),  # and drawn ones up to 1000
        np.int64(10**9) - np.arange(1, 2_000, dtype=np.int64),  # the last ones below 1000
    ])
    candidates = (np.int64(2) * k + np.int64(1)) / np.float64(2e6)  # the nearest doubles
    values = _neighbours(candidates, 1)
    kept = _check(np.concatenate([values, -values]))
    assert kept.size > 1_000_000
    assert _needs_the_tie_fix(kept) > 100_000  # p - rint(p) == +-0.5 with e leaning away


def test_exact_ties_round_half_to_even():
    # odd * 2**-7 times 10**6 is odd * 5**6 / 2, a tie, for every odd;
    # these are all of them below 1000
    ties = np.arange(1, 128_000, 2, dtype=np.float64) / np.float64(128)
    kept = _check(np.concatenate([ties, -ties]), width=2)
    assert kept.size == 2 * ties.size
    assert "%.6f" % (1 / 128) == "0.007812" and "%.6f" % (3 / 128) == "0.023438"


def test_carries_and_the_range_bound():
    carries = [0.9999995, 9.9999995, 99.9999995, 999.9999995, 0.0000005, 0.0999995]
    bound = np.nextafter(999.9999995, 0.0)
    values = np.concatenate([
        _neighbours(carries, 64),
        _neighbours([1000.0, bound, 999.999999], 8),
    ])
    _check(np.concatenate([values, -values]), width=1)
    assert _in_range(999.9999994999999) and not _in_range(999.9999996)
    assert format_columns([np.array([999.9999996])]) is None  # rounds to 1000.000000
    assert format_columns([np.array([-999.9999994])]) == "-999.999999\n"


def test_zeros_subnormals_and_negative_values_that_round_to_zero():
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308]
    to_zero = [-1e-300, -1e-9, -4.9999999999999998e-7, -5e-7, -5.000000000000001e-7]
    _check(tiny + to_zero + [1e-300, 4.9999999999999998e-7], width=1)
    assert format_columns([np.array([-0.0, -1e-9])]) == "-0.000000\n-0.000000\n"


def test_values_out_of_range_and_empty_columns():
    for v in [np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7976931348623157e308, 1000.0]:
        with np.errstate(all="raise"):
            assert format_columns([np.array([0.5]), np.array([v])]) is None, v
    assert format_columns([np.empty(0)] * 3) == ""


def test_rows_span_blocks():
    rng = np.random.default_rng(7)
    n = 3 * fmt6._ROWS + 11
    for width in (1, 2, 3, 4):
        columns = list(rng.uniform(-2.0, 2.0, (width, n)))
        assert format_columns(columns) == _percent_text([c.tolist() for c in columns])
    # one value out of range in the last block makes the whole table None
    columns[0][-1] = np.inf
    assert format_columns(columns) is None


# Doubles weighted to the kernel's range, with every kind of value
# outside it.
_DOUBLES = st.one_of(
    st.floats(-1000.0, 1000.0),
    st.floats(-1.0, 1.0),
    st.floats(-1e-6, 1e-6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=12), st.integers(1, 4))
def test_drawn_doubles_match_percent_format(values, width):
    _check(values, width)
    for v in values:
        with np.errstate(all="raise"):
            got = format_columns([np.array([v])])
        assert got == ("%.6f\n" % v if _in_range(v) else None), v


@pytest.mark.parametrize("v", [0.5, -0.0078125, 123.4565, 1e-7])
def test_single_values(v):
    assert format_columns([np.array([v])] * 3) == "\t".join(["%.6f" % v] * 3) + "\n"
