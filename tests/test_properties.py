"""Property tests: the fast paths agree with the slow oracles.

The bit-parallel edit distance is checked against the full-matrix DP, and
the one-call-per-row embedding parser against a value-by-value parse,
diagnostics included.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import edit_distance_ref, parse_embeddings_ref
from tdsvkit import TdsvError, edit_distance
from tdsvkit.tsvio import parse_embeddings

# A small alphabet, so that matches are common: Latin and Persian letters, a
# space, and combining marks that NFC composes with the letter before them
# (e + U+0301 -> U+00E9) or leaves alone (U+064B after a Persian letter).
_MIXED = "ae\u00e9\u0301\u0308 \u0633\u0644\u0627\u0645\u064b"
_LONG = 200


@st.composite
def edited_pairs(draw, min_size=0):
    """A string and a copy of it with a few random edits."""
    a = draw(st.text(_MIXED, min_size=min_size, max_size=_LONG))
    chars = list(a)
    for _ in range(draw(st.integers(0, 10))):
        op = draw(st.sampled_from("isd"))
        pos = draw(st.integers(0, len(chars)))
        if op == "i":
            chars.insert(pos, draw(st.sampled_from(_MIXED)))
        elif pos < len(chars):
            if op == "s":
                chars[pos] = draw(st.sampled_from(_MIXED))
            else:
                del chars[pos]
    return a, "".join(chars)


texts = st.one_of(st.text(max_size=80), st.text(_MIXED, max_size=_LONG))


@settings(max_examples=300, deadline=None)
@given(texts, texts)
@example("", "")
@example("", "abc")
@example("kitten", "sitting")
@example("\u00e9", "e\u0301")  # equal after NFC
@example("a" * 64, "a" * 63 + "b")
@example("ab" * 40, "ba" * 40)  # pattern over 64 code points
@example("abc" * 50, "acb" * 45)  # pattern over 128 code points
@example("\u0633\u0644\u0627\u0645" * 40, "\u0633\u0627\u0645" * 45)
def test_edit_distance_matches_dp_oracle(a, b):
    assert edit_distance(a, b) == edit_distance_ref(a, b)


@settings(max_examples=150, deadline=None)
@given(st.one_of(edited_pairs(), edited_pairs(min_size=130)))
def test_edit_distance_near_copies_match_dp_oracle(pair):
    a, b = pair
    assert edit_distance(a, b) == edit_distance_ref(a, b)
    assert edit_distance(b, a) == edit_distance(a, b)


def _outcome(parse, path):
    """(dim, [(id, value bytes)]) of a parse, or (error class, message)."""
    try:
        table, dim = parse(path)
    except TdsvError as exc:
        return type(exc), str(exc)
    return dim, [(key, values.tobytes()) for key, values in table.items()]


_VALUES = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")
# Tokens that float() rejects or reads as non-finite.
_BAD_TOKENS = st.sampled_from([
    "", "zap", "nan", "-nan", "inf", "-Infinity", "1e999", "0x1", "_1", "1__0",
    ".", "-", "1e", "1,5",
])
# Plus tokens that float() reads although numpy's own text parsers would not
# (underscores, Arabic-Indic digits, padding), and arbitrary short text.
_ODD_TOKENS = st.one_of(
    _BAD_TOKENS,
    st.sampled_from(["1_0", "\u0661\u0662", "+.5", "5.", " 1", "1\x0c"]),
    st.text(st.characters(blacklist_characters="\n\r\t "), min_size=1, max_size=6),
)
DEFECTS = (
    "none",
    "bad token on the last row",
    "non-finite value mid-file",
    "duplicate id after valid rows",
    "wrong value count",
    "missing tab",
    "odd token anywhere",
)


@st.composite
def embedding_files(draw, defect):
    dim = draw(st.integers(1, 6))
    n_rows = draw(st.integers(3, 8))
    rows = [
        [f"u{i}", draw(st.lists(_VALUES, min_size=dim, max_size=dim))]
        for i in range(n_rows)
    ]
    row = draw(st.integers(0, n_rows - 1))
    col = draw(st.integers(0, dim - 1))
    if defect == "bad token on the last row":
        rows[-1][1][col] = draw(_BAD_TOKENS)
    elif defect == "non-finite value mid-file":
        rows[n_rows // 2][1][col] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    elif defect == "duplicate id after valid rows":
        rows.append([rows[row][0], draw(st.lists(_VALUES, min_size=dim, max_size=dim))])
    elif defect == "wrong value count":
        if draw(st.booleans()) and dim > 1:
            del rows[row][1][col]
        else:
            rows[row][1].insert(col, draw(_VALUES))
    elif defect == "odd token anywhere":
        rows[row][1][col] = draw(_ODD_TOKENS)
    lines = [f"#dim {dim}"]
    for i, (key, values) in enumerate(rows):
        sep = " " if defect == "missing tab" and i == row else "\t"
        lines.append(f"{key}{sep}{' '.join(values)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("defect", DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parse_embeddings_matches_value_by_value_parse(tmp_path, defect, data):
    path = tmp_path / "e.tsv"
    path.write_text(data.draw(embedding_files(defect)), encoding="utf-8", newline="\n")
    expected = _outcome(parse_embeddings_ref, str(path))
    assert _outcome(parse_embeddings, str(path)) == expected
    if defect not in ("none", "odd token anywhere"):
        assert isinstance(expected[0], type) and issubclass(expected[0], TdsvError)
