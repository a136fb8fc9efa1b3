"""The vectorized "%.17g" kernel (tdsvkit.fmt17) against Python's own
"%.17g" % v, byte for byte: on over a million seeded values weighted to the
edges of the kernel's range, on drawn embedding tables through
write_embeddings in one process and in two, and with every numpy error
raised. These tests also run on a second platform, whose np.log10 may
estimate another decimal exponent; the kernel corrects any estimate one
off, so no estimate may change a byte."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import embedding_table, write_embeddings_ref
from tdsvkit import tsvio
from tdsvkit.fmt17 import format_rows

# the kernel's range is the doubles x with 1e-4 <= |x| < 1
_BOUNDS = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])


def _percent_rows(matrix):
    """The text of each row as the per-value oracle formats it."""
    return [" ".join(["%.17g" % v for v in row]) for row in matrix.tolist()]


def _neighbours(values, steps):
    """Each positive double of values and the steps doubles on either side of
    it, adjacent doubles being adjacent int64 bit patterns."""
    bits = np.asarray(values, np.float64).view(np.int64)[:, None]
    return (bits + np.arange(-steps, steps + 1, dtype=np.int64)).view(np.float64).ravel()


def _million_values():
    rng = np.random.default_rng(20240917)
    # every double within 10,000 steps of each bound of the range
    near_bounds = _neighbours(_BOUNDS, 10_000)
    # doubles next to every power of ten; for 14 powers (1e-305, ..., 1e-14,
    # 1e+98, ..., 1e+220) the nearest double lies below the power, and its
    # 17-digit rounding carries to that new power of ten
    powers = _neighbours([float(f"1e{m}") for m in range(-307, 309)], 8)
    carries = [0.99999999999999994, 1e-14, 1e-79, 1e98, 1e220, 9.9999999999999995e-5]
    # k * 2**-j: a tie at 17 digits for some k and j
    ties = (np.arange(1, 2**12, dtype=np.float64)[:, None] * 2.0 ** -np.arange(12, 26)).ravel()
    unit = rng.standard_normal((1_000, 256))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)  # as embedding rows hold
    drawn = [
        unit.ravel(),
        rng.standard_normal(60_000) * 0.0625,
        rng.uniform(-1.0, 1.0, 60_000),
        10.0 ** rng.uniform(-5.0, 1.0, 40_000),  # over the range and past either end
        rng.integers(1, 0x7FEF_FFFF_FFFF_FFFF, 10_000, dtype=np.int64).view(np.float64),
    ]
    values = np.concatenate([near_bounds, powers, carries, ties, *drawn])
    return np.concatenate([values, -values])


def test_million_values_match_percent_format():
    values = _million_values()
    assert values.size >= 1_000_000
    dim = 64
    values = np.concatenate([values, np.zeros(-values.size % dim)])
    matrix = values.reshape(-1, dim)
    got = " ".join(format_rows(matrix)).split(" ")
    want = " ".join(_percent_rows(matrix)).split(" ")
    assert len(got) == len(want) == values.size
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert wrong[:5] == []
    in_range = (np.abs(values) >= 1e-4) & (np.abs(values) < 1.0)
    assert in_range.mean() > 0.85  # the kernel, not its fallback, did most


def test_values_outside_the_range_raise_nothing():
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    matrix = np.array([edges, [0.5, 1e-4, -0.99999999999999989, 2.0, 1e-5, 1e300]])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_rows(matrix) == _percent_rows(matrix)
        assert format_rows(matrix[:0]) == []


# Doubles weighted to the kernel's range, with its edges and every kind of
# value outside it.
_IN_RANGE = st.floats(1e-4, 1.0, exclude_max=True)
_KERNEL_DOUBLES = st.one_of(
    _IN_RANGE,
    _IN_RANGE.map(float.__neg__),
    st.sampled_from([*_BOUNDS, *(-_BOUNDS), 0.0, -0.0, 5e-324, 0.99999999999999989, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize(
    "split",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                not tsvio._splits(tsvio._SPLIT_BYTES), reason="no two-process path on this host"
            ),
        ),
    ],
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_embeddings_matches_value_by_value_writer(tmp_path, monkeypatch, split, data):
    dim = data.draw(st.integers(1, 12), label="dim")
    n = data.draw(st.integers(0, 12), label="rows")
    rows = data.draw(st.lists(st.lists(_KERNEL_DOUBLES, min_size=dim, max_size=dim),
                              min_size=n, max_size=n))
    table = embedding_table({f"u{i}": row for i, row in enumerate(rows)}, dim)
    monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0 if split else 1 << 62)
    monkeypatch.setattr(tsvio, "_FORMAT_VALUES", data.draw(st.integers(1, 40), label="block"))
    fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
    tsvio.write_embeddings(table, fast)
    write_embeddings_ref(table, ref)
    assert fast.read_bytes() == ref.read_bytes()
