"""Property tests: the fast paths agree with the slow oracles.

The bit-parallel edit distance is checked against the full-matrix DP; the
one-format-per-row embedding writer against a value-by-value writer; the
enrollment centroids, gathered by row index, against the centroid built
one repetition at a time; the one-call-per-row embedding parser, the
bulk-checked score and trial readers and the evaluate/det label join
against value-by-value parses, diagnostics included; and the array sweep,
min-DCF, EER and DET points against the threshold-enumeration oracles.
The embedding reader and writer are checked a second time with every file
split between two processes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    det_points_ref,
    edit_distance_ref,
    eer_ref,
    embedding_table,
    enroll_ref,
    join_labels_ref,
    min_dcf_ref,
    parse_embeddings_ref,
    parse_scores_ref,
    parse_trials_ref,
    sweep_ref,
    write_embeddings_ref,
)
from tdsvkit import (
    DcfParams,
    EmbeddingTable,
    EnrollEntry,
    ScoreColumns,
    TdsvError,
    TrialColumns,
    build_enrollment,
    det_points,
    edit_distance,
    eer,
    min_dcf,
    sweep,
    tsvio,
)
from tdsvkit.cli import _load_labeled_scores
from tdsvkit.tsvio import parse_embeddings, parse_scores, parse_trials, write_embeddings

# The split tests run every embedding file they read or write through the
# two-process path, whatever its size; a host that cannot fork, or has one
# CPU, has no such path.
split_host = pytest.mark.skipif(
    not tsvio._splits(tsvio._SPLIT_BYTES), reason="no two-process path on this host"
)

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
    return dim, [(key, values.tobytes()) for key, values in zip(table.ids, table.matrix)]


_VALUES = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")
# Tokens that float() rejects or reads as non-finite.
_BAD_TOKENS = st.sampled_from([
    "", "zap", "nan", "-nan", "inf", "-Infinity", "1e999", "0x1", "_1", "1__0",
    ".", "-", "1e", "1,5",
])
# Plus tokens that float() reads although numpy's own text parsers would not
# (underscores, Arabic-Indic digits, padding), and arbitrary short text
# without surrogates, which no UTF-8 file can hold.
_ODD_TOKENS = st.one_of(
    _BAD_TOKENS,
    st.sampled_from(["1_0", "\u0661\u0662", "+.5", "5.", " 1", "1\x0c"]),
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t "),
        min_size=1,
        max_size=6,
    ),
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
    _check_parse_embeddings(tmp_path, defect, data)


@split_host
@pytest.mark.parametrize("defect", DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_split_parse_embeddings_matches_value_by_value_parse(
    tmp_path, monkeypatch, defect, data
):
    monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
    _check_parse_embeddings(tmp_path, defect, data)


def _check_parse_embeddings(tmp_path, defect, data):
    path = tmp_path / "e.tsv"
    path.write_text(data.draw(embedding_files(defect)), encoding="utf-8", newline="\n")
    expected = _outcome(parse_embeddings_ref, str(path))
    assert _outcome(parse_embeddings, str(path)) == expected
    if defect not in ("none", "odd token anywhere"):
        assert isinstance(expected[0], type) and issubclass(expected[0], TdsvError)


# Doubles at the edges of the 17-digit text: signed zeros, subnormals, the
# normal boundary, the largest finite values, and integers past 2**53.
_EDGE_DOUBLES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, 1e17, 123456789012345680.0, 0.1, 1.0 / 3.0,
])
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _EDGE_DOUBLES,
    st.integers(-(2**63), 2**63).map(float),
)
# Ids of any text a line can hold, ids with '%' format directives included.
_WRITER_IDS = st.one_of(
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(["%", "%s", "%%", "%.17g", "%(a)s", "u%d\u00e9", "\u0633%"]),
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_write_embeddings_matches_value_by_value_writer(tmp_path, data):
    _check_write_embeddings(tmp_path, data)


@split_host
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_split_write_embeddings_matches_value_by_value_writer(tmp_path, monkeypatch, data):
    monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
    _check_write_embeddings(tmp_path, data)


def _check_write_embeddings(tmp_path, data):
    dim = data.draw(st.integers(1, 8))
    as_array = data.draw(st.booleans())
    rows = st.lists(_DOUBLES, min_size=dim, max_size=dim)
    rows = rows.map(np.array) if as_array else rows
    vectors = data.draw(st.dictionaries(_WRITER_IDS, rows, max_size=6))
    table = embedding_table(vectors, dim)
    fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
    write_embeddings(table, fast)
    write_embeddings_ref(table, ref)
    assert fast.read_bytes() == ref.read_bytes()
    parsed, parsed_dim = parse_embeddings(fast)
    assert parsed_dim == dim and parsed.ids == list(vectors)
    for row, values in zip(parsed.matrix, vectors.values()):
        assert row.tobytes() == np.array(values, dtype=np.float64).tobytes()


# -- enrollment ------------------------------------------------------------------


def _centroids(build):
    """The centroids' bytes of a build, or its (error class, message)."""
    try:
        return [centroid.tobytes() for centroid in build()]
    except TdsvError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_build_enrollment_matches_per_repetition_enroll(data):
    # build_enrollment gathers a model's repetitions and normalizes them as
    # one matrix; the reference normalizes each repetition alone. Rows are
    # scaled over twelve decades, and one may be zero, the negation of
    # another (two repetitions that cancel in the mean) or large enough for
    # its norm to overflow. build_enrollment names the model and the space
    # whose centroid fails.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ids = [f"u{i}" for i in range(data.draw(st.integers(3, 8)))]
    tables = {}
    for space in ("a", "b"):
        dim = data.draw(st.sampled_from([1, 2, 3, 7, 64, 67, 192, 256, 300]))
        matrix = rng.standard_normal((len(ids), dim)) * 10.0 ** rng.uniform(-6, 6, (len(ids), 1))
        edit = data.draw(st.sampled_from(["none", "zero", "negate", "huge"]))
        if edit == "zero":
            matrix[1] = 0.0
        elif edit == "negate":
            matrix[1] = -matrix[0]
        elif edit == "huge":
            matrix[1] *= 1e200
        tables[space] = EmbeddingTable(ids, matrix)
    rep_ids = data.draw(st.lists(st.sampled_from(ids), min_size=3, max_size=3))
    entry = EnrollEntry("m", "p", tuple(rep_ids))

    def reference():
        centroids = []
        for space, table in tables.items():
            reps = [table.matrix[table.rows[rep_id]].copy() for rep_id in entry.rep_ids]
            try:
                centroids.append(enroll_ref(reps))
            except TdsvError as exc:
                raise type(exc)(f"model 'm' in space '{space}': {exc}") from None
        return centroids

    expected = _centroids(reference)
    assert _centroids(lambda: build_enrollment(entry, tables, ["a", "b"])) == expected


# -- score files and the label join -------------------------------------------

# Id characters, most of them ones that str.splitlines treats as line breaks
# and a text file's newline translation does not.
_ID_CHARS = "ab\u00e9 \x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SCORE_TOKENS = st.one_of(
    st.floats(-1.0, 1.0).map(lambda v: f"{v:.6f}"),
    st.sampled_from(["-1.000000", "0", "1e-3", " 0.5", "+.5"]),
)
_FLAGS = st.sampled_from(["PASS", "PUNITIVE"])
SCORE_DEFECTS = (
    "none",
    "wrong field count",
    "empty id",
    "duplicate id",
    "bad score",
    "bad cer",
    "bad flag",
    "two defects",
)
JOIN_DEFECTS = (
    "none",
    "score file defect",
    "bad label",
    "wrong trial field count",
    "empty trial field",
    "duplicate trial id",
    "score with no trial",
    "unlabeled trial",
    "unscored trials",
    "two defects",
)


def _serialize(draw, rows):
    """Rows joined by tabs, each line ended by \\n, \\r\\n or a lone \\r,
    with blank lines scattered in between."""
    out = []
    for row in rows:
        out.append(draw(st.sampled_from(["", "", "", "\n", "\r\n", "\r"])))
        out.append("\t".join(row) + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    return "".join(out)


def _score_rows(draw, n_rows):
    id_chars = draw(st.sampled_from(["ab\u00e9 ", _ID_CHARS]))
    return [
        [
            f"t{i}:" + draw(st.text(id_chars, max_size=3)),
            draw(_SCORE_TOKENS),
            draw(_FLAGS),
            draw(st.floats(0.0, 2.0).map(lambda v: f"{v:.4f}")),
        ]
        for i in range(n_rows)
    ]


def _put(row, index, value):
    """Set a field, or append it where an earlier defect cut the row short."""
    if index < len(row):
        row[index] = value
    else:
        row.append(value)


def _break_score_row(draw, rows, defect):
    row = draw(st.integers(0, len(rows) - 1))
    if defect == "wrong field count":
        if draw(st.booleans()):
            del rows[row][draw(st.integers(1, len(rows[row]) - 1))]
        else:
            rows[row].insert(draw(st.integers(1, 4)), draw(_SCORE_TOKENS))
    elif defect == "empty id":
        rows[row][0] = ""
    elif defect == "duplicate id":
        rows.insert(draw(st.integers(row + 1, len(rows))), [rows[row][0]] + rows[row][1:])
    elif defect in ("bad score", "bad cer"):
        _put(rows[row], 1 if defect == "bad score" else 3, draw(_ODD_TOKENS))
    elif defect == "bad flag":
        _put(rows[row], 2, draw(st.one_of(
            st.sampled_from(["pass", "", "PASS ", "FAIL", "PASS\x0b"]),
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                    max_size=4),
        )))


def _apply_score_defect(draw, rows, defect):
    if defect == "two defects":
        for _ in range(2):
            _break_score_row(draw, rows, draw(st.sampled_from(SCORE_DEFECTS[1:-1])))
    elif defect != "none":
        _break_score_row(draw, rows, defect)


@st.composite
def score_files(draw, defect):
    rows = _score_rows(draw, draw(st.integers(1, 8)))
    _apply_score_defect(draw, rows, defect)
    return _serialize(draw, rows)


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _score_outcome(parse, path):
    """The columns as lists, or the error; parse_scores returns ScoreColumns
    and parse_scores_ref a tuple of lists."""
    try:
        columns = parse(path)
    except TdsvError as exc:
        return type(exc), str(exc)
    if isinstance(columns, ScoreColumns):
        columns = columns.trial_ids, columns.score, columns.passed, columns.cer
    return tuple(map(list, columns))


@pytest.mark.parametrize("defect", SCORE_DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parse_scores_matches_value_by_value_parse(tmp_path, defect, data):
    path = _write(tmp_path / "s.tsv", data.draw(score_files(defect)))
    expected = _score_outcome(parse_scores_ref, path)
    assert _score_outcome(parse_scores, path) == expected
    if defect in ("empty id", "duplicate id", "wrong field count"):
        assert issubclass(expected[0], TdsvError)


TRIAL_DEFECTS = (
    "none",
    "two fields",
    "five fields",
    "empty id",
    "bad label",
    "undecodable byte",
    "two defects",
)


def _break_trial_row(draw, rows, defect):
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if defect == "two fields":
        del row[draw(st.integers(1, 2)):]
    elif defect == "five fields":
        row[3:] = [draw(st.sampled_from(["TC", "XX"])), "extra"]
    elif defect == "empty id":
        _put(row, draw(st.integers(0, 2)), "")
    elif defect == "bad label":
        _put(row, 3, draw(st.sampled_from(["tc", "TC\x0b", ""])))


@st.composite
def trial_files(draw, defect):
    """The bytes of a trial list whose lines are all labeled, all
    unlabeled or mixed (none at all is an empty file), with one defect."""
    id_chars = draw(st.sampled_from(["ab\u00e9 ", _ID_CHARS]))
    labeling = draw(st.sampled_from(["labeled", "unlabeled", "mixed"]))
    rows = []
    for i in range(draw(st.integers(0 if defect == "none" else 1, 8))):
        row = [f"t{i % 3}" + draw(st.text(id_chars, max_size=2)), f"m{i % 2}", f"u{i}"]
        if labeling == "labeled" or labeling == "mixed" and draw(st.booleans()):
            row.append(draw(st.sampled_from(["TC", "TW", "IC", "IW"])))
        rows.append(row)
    kinds = [defect]
    if defect == "two defects":
        kinds = draw(st.lists(st.sampled_from(TRIAL_DEFECTS[1:-1]), min_size=2, max_size=2))
    for kind in kinds:
        if kind not in ("none", "undecodable byte"):
            _break_trial_row(draw, rows, kind)
    raw = _serialize(draw, rows).encode("utf-8")
    for kind in kinds:
        if kind == "undecodable byte":
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    return raw


def _trial_outcome(parse, path):
    """The columns as lists, or the error; parse_trials returns TrialColumns
    and parse_trials_ref a tuple of lists."""
    try:
        columns = parse(path)
    except TdsvError as exc:
        return type(exc), str(exc)
    if isinstance(columns, TrialColumns):
        columns = columns.trial_ids, columns.model_ids, columns.test_ids, columns.labels.tolist()
    return tuple(map(list, columns))


@pytest.mark.parametrize("defect", TRIAL_DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parse_trials_matches_value_by_value_parse(tmp_path, defect, data):
    path = tmp_path / "t.tsv"
    path.write_bytes(data.draw(trial_files(defect)))
    expected = _trial_outcome(parse_trials_ref, str(path))
    assert _trial_outcome(parse_trials, str(path)) == expected
    if defect not in ("none", "two defects"):  # two edits of one row can cancel
        assert issubclass(expected[0], TdsvError)


@st.composite
def labeled_pairs(draw, defect):
    """A score file and a trial list that labels it, with one defect."""
    score_rows = _score_rows(draw, draw(st.integers(2, 8)))
    ids = [row[0] for row in score_rows]
    trial_rows = [
        [trial_id, f"m{i % 3}", f"u{i}", draw(st.sampled_from(["TC", "TW", "IC", "IW"]))]
        for i, trial_id in enumerate(ids)
    ]
    if defect in ("unscored trials", "two defects") or draw(st.booleans()):
        for j in range(draw(st.integers(1, 3))):
            trial_rows.append([f"x{j}", "m0", f"v{j}", draw(st.sampled_from(["TC", "IW"]))])
    trial_rows = draw(st.permutations(trial_rows))
    kinds = [defect]
    if defect == "two defects":
        kinds = draw(st.lists(st.sampled_from(JOIN_DEFECTS[1:-2]), min_size=2, max_size=2))
    for kind in kinds:
        row = draw(st.integers(0, len(trial_rows) - 1))
        if kind == "score file defect":
            _break_score_row(draw, score_rows, draw(st.sampled_from(SCORE_DEFECTS[1:-1])))
        elif kind == "bad label":
            # A separator that str.splitlines honours would cut "TC\x0b" to "TC".
            _put(trial_rows[row], 3, draw(st.sampled_from(
                ["tc", "", "XX", "TC ", "TC\x0b", "IW\x1c", "TW\u2028", "IC\x85"]
            )))
        elif kind == "wrong trial field count":
            if draw(st.booleans()):
                del trial_rows[row][draw(st.integers(1, 2))]
            else:
                trial_rows[row].append("extra")
        elif kind == "empty trial field":
            trial_rows[row][draw(st.integers(0, 2))] = ""
        elif kind == "duplicate trial id":
            trial_rows.insert(
                draw(st.integers(row + 1, len(trial_rows))),
                [trial_rows[row][0], "m9", "u9", draw(st.sampled_from(["TC", "IW"]))],
            )
        elif kind == "score with no trial":
            missing = draw(st.sampled_from(ids))
            trial_rows = [r for r in trial_rows if r[0] != missing] or [["z", "m", "u", "TC"]]
        elif kind == "unlabeled trial":
            trial_rows[row] = trial_rows[row][:3]
    return _serialize(draw, score_rows), _serialize(draw, trial_rows)


def _join_outcome(join, scores_path, trials_path):
    try:
        scores, codes, n_unscored = join(scores_path, trials_path)
    except TdsvError as exc:
        return type(exc), str(exc)
    return list(scores), list(codes), n_unscored


@pytest.mark.parametrize("defect", JOIN_DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_label_join_matches_value_by_value_join(tmp_path, defect, data):
    scores_text, trials_text = data.draw(labeled_pairs(defect))
    scores_path = _write(tmp_path / "s.tsv", scores_text)
    trials_path = _write(tmp_path / "t.tsv", trials_text)
    expected = _join_outcome(join_labels_ref, scores_path, trials_path)
    assert _join_outcome(_load_labeled_scores, scores_path, trials_path) == expected
    if defect == "unscored trials":
        assert expected[2] > 0


# Text near the two formats: fields, tabs, every newline form, separators
# that are not newlines, and arbitrary characters.
_NEAR_FORMAT = st.lists(st.one_of(
    st.sampled_from(["\t", "\n", "\r", "\r\n", "\x0b", "\u2028", " ", "t1", "t2", "0.5",
                     "-1", "nan", "PASS", "PUNITIVE", "TC", "IW", "m", "u"]),
    st.characters(blacklist_categories=("Cs",)),
), max_size=40).map("".join)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scores_text=_NEAR_FORMAT, trials_text=_NEAR_FORMAT)
@example("t1\t0.5\tPASS\t0.1\r\nt2\t-1\tPUNITIVE\t1\r", "t1\tm\tu\tTC\rt2\tm\tu\tIW\n")
def test_readers_on_arbitrary_text_match_oracles(tmp_path, scores_text, trials_text):
    """Any text either reads as the oracles read it or raises the same
    TdsvError; a bare exception fails the test."""
    scores_path = _write(tmp_path / "s.tsv", scores_text)
    trials_path = _write(tmp_path / "t.tsv", trials_text)
    assert _score_outcome(parse_scores, scores_path) == _score_outcome(
        parse_scores_ref, scores_path
    )
    assert _trial_outcome(parse_trials, trials_path) == _trial_outcome(
        parse_trials_ref, trials_path
    )
    assert _join_outcome(_load_labeled_scores, scores_path, trials_path) == _join_outcome(
        join_labels_ref, scores_path, trials_path
    )


# -- detection metrics -----------------------------------------------------------

_GRID = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
_SCORES = st.one_of(_GRID, st.floats(-1.0, 1.0), st.floats(-1e6, 1e6))


@st.composite
def score_sets(draw):
    """Target and non-target scores: tie-heavy grids, arbitrary floats, a
    single score on either side, all-equal sets, and a block of punitive
    -1 scores."""
    kind = draw(st.sampled_from(["grid", "any", "single", "equal"]))
    if kind == "grid":
        targets = draw(st.lists(_GRID, min_size=1, max_size=30))
        nontargets = draw(st.lists(_GRID, min_size=1, max_size=30))
    elif kind == "any":
        targets = draw(st.lists(_SCORES, min_size=1, max_size=30))
        nontargets = draw(st.lists(_SCORES, min_size=1, max_size=30))
    elif kind == "single":
        one, many = draw(_SCORES), draw(st.lists(_SCORES, min_size=1, max_size=30))
        targets, nontargets = ([one], many) if draw(st.booleans()) else (many, [one])
    else:
        value = draw(_SCORES)
        targets = [value] * draw(st.integers(1, 10))
        nontargets = [value] * draw(st.integers(1, 10))
    targets += [-1.0] * draw(st.integers(0, 40))
    nontargets += [-1.0] * draw(st.integers(0, 80))
    return targets, nontargets


_PARAMS = st.builds(
    DcfParams,
    c_miss=st.floats(0.01, 100.0),
    c_fa=st.floats(0.01, 100.0),
    p_target=st.floats(0.001, 0.999),
)


@settings(max_examples=300, deadline=None)
@given(score_sets(), _PARAMS)
@example(([0.5], [0.5]), DcfParams())
@example(([-1.0] * 5 + [0.9], [-1.0] * 50 + [0.1]), DcfParams())
@example(([0.4], [0.6]), DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5))
def test_array_metrics_match_enumeration_oracles(scores, params):
    targets, nontargets = scores
    rates = sweep(targets, nontargets)
    columns = list(zip(rates.threshold.tolist(), rates.p_miss.tolist(), rates.p_fa.tolist()))
    assert columns == sweep_ref(targets, nontargets)
    assert min_dcf(rates, params) == min_dcf_ref(
        targets, nontargets, params.c_miss, params.c_fa, params.p_target
    )
    assert abs(eer(rates) - eer_ref(targets, nontargets)) <= 1e-12
    points = det_points(rates)
    assert len(points) == len(det_points_ref(targets, nontargets))
    assert list(zip(
        points.threshold.tolist(), points.p_miss.tolist(), points.p_fa.tolist()
    )) == det_points_ref(targets, nontargets)
