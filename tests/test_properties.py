"""Property tests: the fast paths agree with the slow oracles.

The bit-parallel edit distance is checked against the full-matrix DP; the
one-format-per-row embedding writer against a value-by-value writer, and
the one-format score, DET, trial, phrase, transcript and enrollmap writers
against row-by-row ones; the enrollment centroids, gathered by row
index, against the centroid built one repetition at a time; the
one-call-per-row embedding parser, the bulk-checked score and trial
readers, the enrollmap, phrase and transcript readers and the
evaluate/det label join against value-by-value parses, diagnostics
included; and the array sweep, min-DCF, EER and DET
points against the threshold-enumeration oracles. The line reader's
bounded pieces are checked against bytes.splitlines, and the generators that
synth seeds in one batch against np.random.default_rng. The one dot product,
core.row_dots, is checked against the concatenate-and-dot cosine, and its
bits against every block size and every matrix that holds a row. The
embedding reader and writer are checked a second time with every file split
between two processes. Every writer is checked against its reader: a record
holding what its file format cannot is refused when it is built, and every
other reads back equal.
"""

import io
import math
import os
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    det_points_ref,
    edit_distance_ref,
    eer_ref,
    embedding_table,
    enroll_ref,
    fused_cosine_ref,
    join_labels_ref,
    min_dcf_ref,
    parse_embeddings_ref,
    parse_enrollmap_ref,
    parse_id_text_ref,
    parse_scores_ref,
    parse_trials_ref,
    score_all_ref,
    sweep_ref,
    write_det_ref,
    write_embeddings_ref,
    write_keyed_ref,
    write_scores_ref,
    write_trials_ref,
)
from tdsvkit import (
    DcfParams,
    EmbeddingTable,
    EmptyReference,
    EnrollEntry,
    GateConfig,
    Phrase,
    ScoreColumns,
    SimConfig,
    SpaceSpec,
    TdsvError,
    Transcript,
    TrialColumns,
    UNLABELED,
    build_enrollment,
    det_points,
    edit_distance,
    eer,
    gen_dataset,
    min_dcf,
    score_all,
    sweep,
    synth,
    tsvio,
)
from tdsvkit import core
from tdsvkit.cli import _load_labeled_scores
from tdsvkit.metrics import ErrorRates
from tdsvkit.tsvio import (
    parse_embeddings,
    parse_enrollmap,
    parse_phrases,
    parse_scores,
    parse_transcripts,
    parse_trials,
    write_det,
    write_embeddings,
    write_enrollmap,
    write_phrases,
    write_scores,
    write_transcripts,
    write_trials,
)

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


@st.composite
def relaid_files(draw, defect):
    """An embedding file of embedding_files, laid out as text mode reads it
    the same: each line end \\n or \\r\\n, blank lines anywhere after the
    header, and the last line with or without its line end."""
    lines = draw(embedding_files(defect)).split("\n")[:-1]
    ends = st.sampled_from(["\n", "\r\n"])
    text = lines[0] + draw(ends)
    for line in lines[1:]:
        text += "".join(draw(st.lists(ends, max_size=2))) + line + draw(ends)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@pytest.mark.parametrize("split", [False, pytest.param(True, marks=split_host)])
@pytest.mark.parametrize("defect", DEFECTS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parse_embeddings_reads_any_line_layout(tmp_path, monkeypatch, split, defect, data):
    # in two processes the child's part of every such layout is taken, so
    # this process parses one part of a file it reads: the first
    if split:
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
    path = tmp_path / "e.tsv"
    path.write_text(data.draw(relaid_files(defect)), encoding="utf-8", newline="")
    expected = _outcome(parse_embeddings_ref, str(path))
    parts, real = [], tsvio._read_rows
    with monkeypatch.context() as m:
        m.setattr(tsvio, "_read_rows", lambda *args: parts.append(1) or real(*args))
        assert _outcome(parse_embeddings, str(path)) == expected
    if not isinstance(expected[0], type):
        assert len(parts) == 1


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
    st.sampled_from(["%", "%s", "%%", "%.17g", "%(x)s", "{}", "u%d\u00e9", "\u0633%"]),
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


# Score and DET columns of a drawn dtype: float64 (any double, or only the
# finite ones a score set holds; 1e300 is 301 digits in "%.6f"), int64 or
# bool.
_FINITE_DOUBLES = st.one_of(_DOUBLES, st.sampled_from([-0.0, 1e300, -1e300]))
_ANY_DOUBLES = st.one_of(_FINITE_DOUBLES, st.sampled_from([math.nan, math.inf, -math.inf]))
_INT64 = st.integers(-(2**63), 2**63 - 1)


def _value_column(draw, n, finite=True):
    floats = _FINITE_DOUBLES if finite else _ANY_DOUBLES
    values, dtype = draw(st.sampled_from(
        [(floats, np.float64), (_INT64, np.int64), (st.booleans(), bool)]
    ))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_write_scores_matches_row_by_row_writer(tmp_path, data):
    ids = data.draw(st.lists(_WRITER_IDS, max_size=6, unique=True))
    n = len(ids)
    passed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    records = ScoreColumns(
        ids, _value_column(data.draw, n), passed, _value_column(data.draw, n)
    )
    fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
    write_scores(records, fast)
    write_scores_ref(records, ref)
    assert fast.read_bytes() == ref.read_bytes()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_write_det_matches_row_by_row_writer(tmp_path, data):
    """Columns of unequal length write as many rows as the shortest."""
    points = ErrorRates(*[
        _value_column(data.draw, data.draw(st.integers(0, 6)), finite=False) for _ in range(3)
    ])
    fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
    write_det(points, fast)
    write_det_ref(points, ref)
    assert fast.read_bytes() == ref.read_bytes()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_write_trials_matches_row_by_row_writer(tmp_path, data):
    """Every trial labeled, none, or a mix; zero rows included."""
    n = data.draw(st.integers(0, 6))
    codes = data.draw(st.sampled_from(
        [st.just(UNLABELED), st.integers(0, 3), st.integers(UNLABELED, 3)]
    ))
    columns = [data.draw(st.lists(_WRITER_IDS, min_size=n, max_size=n)) for _ in range(3)]
    trials = TrialColumns(*columns, data.draw(st.lists(codes, min_size=n, max_size=n)))
    fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
    write_trials(trials, fast)
    write_trials_ref(trials, ref)
    assert fast.read_bytes() == ref.read_bytes()


# Texts a phrase or transcript line can hold: tabs, non-ASCII letters,
# format directives and braces, or nothing.
_WRITER_TEXTS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=8),
    st.sampled_from(["", "%", "%s", "%%", "%(x)s", "{}", "a\t%s\t{0}", "\u0633 %d\t\u00e9"]),
)
_KEYED_WRITERS = {
    "phrases": (write_phrases, _WRITER_TEXTS.map(
        lambda text: _built(Phrase, text, refusals=EmptyReference)
    )),
    "transcripts": (write_transcripts, _WRITER_TEXTS.map(Transcript)),
    "enrollmap": (write_enrollmap, st.builds(
        EnrollEntry, _WRITER_IDS, st.tuples(*[_WRITER_IDS.filter(lambda s: "," not in s)] * 3)
    )),
}


@pytest.mark.parametrize("fmt", _KEYED_WRITERS)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_keyed_writers_match_row_by_row_writer(tmp_path, fmt, data):
    """Empty transcripts and zero rows included; a phrase empty once
    normalized is left out."""
    write, records = _KEYED_WRITERS[fmt]
    table = data.draw(st.dictionaries(_WRITER_IDS, records, max_size=6))
    table = {key: record for key, record in table.items() if record is not None}
    fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
    write(table, fast)
    write_keyed_ref(table, ref)
    assert fast.read_bytes() == ref.read_bytes()


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
    entry = EnrollEntry("p", rep_ids)

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
    assert _centroids(lambda: build_enrollment("m", entry, tables)) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_dots_bits_depend_on_no_block_or_matrix(data):
    # row_dots gathers and multiplies a block of rows at a time, yet each dot
    # has the bits of np.add.reduce over its two rows' product taken alone:
    # no block size, from one row per block up to the whole matrix, and no
    # matrix that holds a row moves one. Its cosines agree with the
    # concatenate-and-dot reference.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = data.draw(st.integers(1, 600), label="dim")
    a_count, b_count = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    a = rng.standard_normal((a_count, dim)) * 10.0 ** rng.uniform(-6, 6, (a_count, 1))
    b = rng.standard_normal((b_count, dim)) * 10.0 ** rng.uniform(-6, 6, (b_count, 1))
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, a_count - 1), st.integers(0, b_count - 1)), max_size=20)
        if a_count and b_count
        else st.just([])
    )
    a_rows, b_rows = [i for i, _ in pairs], [j for _, j in pairs]
    dots = core.row_dots(a, b, a_rows, b_rows)
    assert dots.dtype == np.float64 and dots.shape == (len(pairs),)
    for block in (1, dim, 3 * dim + 1, max(1, len(pairs)) * dim):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_DOT_BLOCK", block)
            assert core.row_dots(a, b, a_rows, b_rows).tobytes() == dots.tobytes()
    others = rng.standard_normal((3, dim))
    for dot, i, j in zip(dots, a_rows, b_rows):
        alone = core.row_dots(a[i : i + 1], np.vstack([others, b[j], others]), [0], [3])
        assert alone.tobytes() == dot.tobytes() == np.add.reduce(a[i] * b[j]).tobytes()
        norms = core.row_norms(np.array([a[i], b[j]]))
        assert abs(dot / norms.prod() - fused_cosine_ref([a[i]], [b[j]])) <= 1e-12


# Vectors whose fate no summation order decides, one in seven degenerate: a
# zero and one whose norm overflows; and texts at CER 0, near 0, far and empty.
_POLICY_VECTORS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-1.0, 0.0)] * 3
_POLICY_VECTORS += [(0.0, 0.0), (1e200, 1e200)]
_POLICY_PHRASES = ["open the door", "shut it", "door"]
_POLICY_UTTS = ["r0", "r1", "r2", "r3", "u0", "u1", "u2", "u3"]


def _policy_outcome(score):
    """(rows, skipped) of score(), as score_all_ref gives them, or the
    error's (class, message)."""
    try:
        run = score()
    except TdsvError as exc:
        return type(exc), str(exc)
    if isinstance(run, tuple):
        return run
    records = run.records
    columns = records.score.tolist(), records.passed.tolist(), records.cer.tolist()
    return list(zip(records.trial_ids, *columns, run.labels.tolist())), run.skipped


def _policy_world(draw):
    """score_all's arguments but strict for a small world in which any id
    may be missing: repetitions and test vectors absent from a space or
    degenerate, models that are not in the enrollmap or cannot be built,
    phrases and transcripts absent, and trial ids repeated."""

    def some(ids):
        """ids, each left out now and then."""
        return [i for i in ids if draw(st.sampled_from([True] * 7 + [False]))]

    tables = {}
    for space in ("a", "b")[: draw(st.integers(1, 2))]:
        ids = some(_POLICY_UTTS)
        vectors = [draw(st.sampled_from(_POLICY_VECTORS)) for _ in ids]
        tables[space] = EmbeddingTable(ids, np.array(vectors).reshape(len(ids), 2))
    phrase_ids = ["p0", "p1", "p2"]
    phrases = {p: Phrase(draw(st.sampled_from(_POLICY_PHRASES))) for p in some(phrase_ids)}
    texts = st.sampled_from(_POLICY_PHRASES + ["open the dor", ""])
    transcripts = {u: Transcript(draw(texts)) for u in some(_POLICY_UTTS)}
    entries = {}
    for model_id in some(["m0", "m1", "m2"]):
        reps = draw(st.lists(st.sampled_from(_POLICY_UTTS[:3]), min_size=3, max_size=3))
        entries[model_id] = EnrollEntry(draw(st.sampled_from(phrase_ids)), reps)
    rows = draw(st.lists(st.tuples(
        st.sampled_from([f"t{i}" for i in range(8)]),
        st.sampled_from(["m0", "m1", "m2"] * 3 + ["m3"]),
        st.sampled_from(_POLICY_UTTS + ["x"]),
        st.integers(UNLABELED, 3),
    ), max_size=8))
    trials = TrialColumns(*map(list, zip(*rows))) if rows else TrialColumns([], [], [], [])
    cfg = GateConfig(draw(st.sampled_from([0.0, 0.3, 1.0])))
    return trials, entries, tables, transcripts, phrases, cfg


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_score_all_policy_matches_trial_by_trial_reference(data):
    # In both modes score_all keeps and skips the trials the reference does,
    # for the same reasons, or raises its first error.
    args = _policy_world(data.draw)
    for strict in (True, False):
        expected = _policy_outcome(lambda: score_all_ref(*args, strict=strict))
        got = _policy_outcome(lambda: score_all(*args, strict=strict))
        if isinstance(expected[0], type):
            assert got == expected
            continue
        (got_rows, got_skipped), (want_rows, want_skipped) = got, expected
        assert got_skipped == want_skipped
        unscored = [row[:1] + row[2:] for row in want_rows]
        assert [row[:1] + row[2:] for row in got_rows] == unscored
        for got_row, want_row in zip(got_rows, want_rows):
            assert abs(got_row[1] - want_row[1]) <= 1e-12


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_score_all_of_a_world_equals_that_of_its_files(tmp_path, data):
    # Every table is written and read back, and score_all, in both modes,
    # gives the same scores, bit for bit, the same skips or the same error:
    # the ids it looks records up by are the ids the files hold.
    trials, entries, tables, transcripts, phrases, cfg = _policy_world(data.draw)
    write_trials(trials, tmp_path / "trials.tsv")
    write_enrollmap(entries, tmp_path / "enrollmap.tsv")
    write_transcripts(transcripts, tmp_path / "transcripts.tsv")
    write_phrases(phrases, tmp_path / "phrases.tsv")
    for space, table in tables.items():
        write_embeddings(table, tmp_path / f"{space}.tsv")
    read = (
        parse_trials(tmp_path / "trials.tsv"),
        parse_enrollmap(tmp_path / "enrollmap.tsv"),
        {space: parse_embeddings(tmp_path / f"{space}.tsv")[0] for space in tables},
        parse_transcripts(tmp_path / "transcripts.tsv"),
        parse_phrases(tmp_path / "phrases.tsv"),
        cfg,
    )
    args = trials, entries, tables, transcripts, phrases, cfg
    for strict in (True, False):
        expected = _policy_outcome(lambda: score_all(*args, strict=strict))
        assert _policy_outcome(lambda: score_all(*read, strict=strict)) == expected


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


def _with_defects(draw, rows, defect, defects, break_row):
    """The bytes of rows as _serialize writes them, with defect applied:
    "two defects" applies two drawn from defects[1:-1], "undecodable byte"
    puts a byte sequence that is not UTF-8 at a drawn place, and break_row
    applies each other one to the rows."""
    kinds = [defect]
    if defect == "two defects":
        kinds = draw(st.lists(st.sampled_from(defects[1:-1]), min_size=2, max_size=2))
    for kind in kinds:
        if kind not in ("none", "undecodable byte"):
            break_row(draw, rows, kind)
    raw = _serialize(draw, rows).encode("utf-8")
    for kind in kinds:
        if kind == "undecodable byte":
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    return raw


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
    return _with_defects(draw, rows, defect, TRIAL_DEFECTS, _break_trial_row)


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
    """A score file and a trial list that labels it, with one defect. For
    half the draws the trial list holds the score file's ids in its order,
    followed by extra trials only for "unscored trials", so that each
    defect that keeps the ids in order meets both the in-order and the
    looked-up join."""
    score_rows = _score_rows(draw, draw(st.integers(2, 8)))
    ids = [row[0] for row in score_rows]
    trial_rows = [
        [trial_id, f"m{i % 3}", f"u{i}", draw(st.sampled_from(["TC", "TW", "IC", "IW"]))]
        for i, trial_id in enumerate(ids)
    ]
    in_order = draw(st.booleans())
    if defect == "unscored trials" or not in_order and (
        defect == "two defects" or draw(st.booleans())
    ):
        for j in range(draw(st.integers(1, 3))):
            trial_rows.append([f"x{j}", "m0", f"v{j}", draw(st.sampled_from(["TC", "IW"]))])
    if not in_order:
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


# -- enrollmap, phrase and transcript files ------------------------------------

ENROLL_DEFECTS = (
    "none",
    "wrong field count",
    "empty field",
    "duplicate model id",
    "wrong rep count",
    "undecodable byte",
    "two defects",
)


def _break_enroll_row(draw, rows, defect):
    index = draw(st.integers(0, len(rows) - 1))
    row = rows[index]
    if defect == "wrong field count":
        if len(row) > 1 and draw(st.booleans()):
            del row[draw(st.integers(1, len(row) - 1)):]
        else:
            row.append(draw(st.sampled_from(["r1,r2,r3", "extra", ""])))
    elif defect == "empty field":
        field = draw(st.integers(0, 3))
        if field < 2:
            _put(row, field, "")
        else:  # an empty repetition id: r1,,r3 or ,r2,r3
            _put(row, 2, ",".join("" if k == field - 2 else f"r{k}" for k in range(3)))
    elif defect == "duplicate model id":
        rows.insert(draw(st.integers(index + 1, len(rows))), [row[0], "p9", "r7,r8,r9"])
    elif defect == "wrong rep count":
        _put(row, 2, ",".join(f"r{k}" for k in range(draw(st.sampled_from([0, 1, 2, 4])))))


@st.composite
def enrollmap_files(draw, defect):
    """The bytes of an enrollmap with one defect."""
    id_chars = draw(st.sampled_from(["ab\u00e9 ", _ID_CHARS]))
    rows = []
    for i in range(draw(st.integers(0 if defect == "none" else 1, 6))):
        reps = [f"r{i}{k}" + draw(st.text(id_chars, max_size=2)) for k in range(3)]
        model_id = f"m{i % 4}" + draw(st.text(id_chars, max_size=2))
        rows.append([model_id, f"p{i % 3}", ",".join(reps)])
    return _with_defects(draw, rows, defect, ENROLL_DEFECTS, _break_enroll_row)


def _enroll_outcome(parse, path):
    """(model id, phrase id, rep ids) rows, or the error; parse_enrollmap
    returns model id -> EnrollEntry, parse_enrollmap_ref the rows."""
    try:
        entries = parse(path)
    except TdsvError as exc:
        return type(exc), str(exc)
    if isinstance(entries, dict):
        entries = [(key,) + astuple(entry) for key, entry in entries.items()]
    return entries


@pytest.mark.parametrize("defect", ENROLL_DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parse_enrollmap_matches_value_by_value_parse(tmp_path, defect, data):
    path = tmp_path / "em.tsv"
    path.write_bytes(data.draw(enrollmap_files(defect)))
    expected = _enroll_outcome(parse_enrollmap_ref, str(path))
    assert _enroll_outcome(parse_enrollmap, str(path)) == expected
    if defect not in ("none", "two defects"):
        assert issubclass(expected[0], TdsvError)


ID_TEXT_DEFECTS = (
    "none",
    "missing tab",
    "empty id",
    "duplicate id",
    "blank text",
    "undecodable byte",
    "two defects",
)
# Text characters: tabs, spaces and separators that are not line breaks,
# Latin and Persian letters, and a combining mark that NFC composes.
_TEXT_CHARS = "ab\u00e9e\u0301 \t\x0b\x0c\x1c\x85\u2028\u0633"
# Texts that are empty once NFC-normalized and trimmed.
_BLANK_TEXTS = st.sampled_from(["", " ", "\t", " \x0b\u2028", "\u3000", "\x1c\x1d"])


def _break_id_text_row(draw, rows, defect):
    index = draw(st.integers(0, len(rows) - 1))
    row = rows[index]
    if defect == "missing tab":
        rows[index] = [row[0] + " " + "".join(row[1:]).replace("\t", " ")]
    elif defect == "empty id":
        row[0] = ""
    elif defect == "duplicate id":
        rows.insert(draw(st.integers(index + 1, len(rows))), [row[0], draw(st.text(_TEXT_CHARS))])
    elif defect == "blank text":
        row[1:] = [draw(_BLANK_TEXTS)]


@st.composite
def id_text_files(draw, defect):
    """The bytes of a phrase or transcript file with one defect."""
    id_chars = draw(st.sampled_from(["ab\u00e9 ", _ID_CHARS]))
    rows = [
        [f"k{i % 4}" + draw(st.text(id_chars, max_size=2)), draw(st.text(_TEXT_CHARS, max_size=6))]
        for i in range(draw(st.integers(0 if defect == "none" else 1, 6)))
    ]
    return _with_defects(draw, rows, defect, ID_TEXT_DEFECTS, _break_id_text_row)


def _id_text_outcome(parse, path):
    """(id, text) rows, or the error; parse_phrases and parse_transcripts
    return id -> record, parse_id_text_ref the rows."""
    try:
        table = parse(path)
    except TdsvError as exc:
        return type(exc), str(exc)
    if isinstance(table, dict):
        return [(key,) + astuple(record) for key, record in table.items()]
    return table


_ID_TEXT_READERS = {
    "phrases": (parse_phrases, lambda path: parse_id_text_ref(path, phrases=True)),
    "transcripts": (parse_transcripts, lambda path: parse_id_text_ref(path, phrases=False)),
}


@pytest.mark.parametrize("reader", sorted(_ID_TEXT_READERS))
@pytest.mark.parametrize("defect", ID_TEXT_DEFECTS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parse_id_text_matches_value_by_value_parse(tmp_path, reader, defect, data):
    parse, parse_ref = _ID_TEXT_READERS[reader]
    path = tmp_path / "it.tsv"
    path.write_bytes(data.draw(id_text_files(defect)))
    expected = _id_text_outcome(parse_ref, str(path))
    assert _id_text_outcome(parse, str(path)) == expected
    if defect in ("missing tab", "empty id", "duplicate id", "undecodable byte"):
        assert issubclass(expected[0], TdsvError)


# Text near the enrollmap, phrase and transcript formats.
_NEAR_LINES = st.lists(st.one_of(
    st.sampled_from(["\t", "\n", "\r", "\r\n", ",", " ", "\x0b", "\u2028", "\u0301", "m1",
                     "p1", "r1", "r1,r2,r3", "a b"]),
    st.characters(blacklist_categories=("Cs",)),
), max_size=40).map("".join)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_NEAR_LINES)
@example("m1\tp1\tr1,r2,r3\r\nm2\tp1\tr1,r2,r3\rp1\t \u0301\n")
def test_line_readers_on_arbitrary_text_match_oracles(tmp_path, text):
    """Any text reads as enrollmap, phrases and transcripts as the oracles
    read it, or raises the same TdsvError; a bare exception fails the
    test."""
    path = _write(tmp_path / "f.tsv", text)
    assert _enroll_outcome(parse_enrollmap, path) == _enroll_outcome(parse_enrollmap_ref, path)
    for parse, parse_ref in _ID_TEXT_READERS.values():
        assert _id_text_outcome(parse, path) == _id_text_outcome(parse_ref, path)


# -- every writer against its reader ------------------------------------------

# Ids and texts over an alphabet of field and line separators, the
# enrollmap's ',', a space, non-ASCII letters and a lone surrogate (as
# surrogateescape reads a byte that is not UTF-8). A plain value is
# non-empty text without the characters that every field refuses; a
# hostile one is plain text with one of those inserted, or any text over
# the whole alphabet.
_PLAIN = st.text(", a\u00e9\u0633", min_size=1, max_size=4)
_HOSTILE = st.one_of(
    st.builds("{}{}{}".format, _PLAIN, st.sampled_from("\t\n\r\udcff"), _PLAIN),
    st.text("\t\n\r, a\u00e9\u0633\udcff", max_size=4),
)
_ROUND_TRIP_VALUES = st.one_of(_PLAIN, _HOSTILE)
# Plain values without the ',' that a rep id may not hold.
_PLAIN_REP_IDS = st.text(" a\u00e9\u0633", min_size=1, max_size=4)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP_FORMATS = ("embeddings", "trials", "phrases", "transcripts", "enrollmap", "scores")


def _built(build, *args, refusals=ValueError):
    """build(*args), or None where it refuses its values."""
    try:
        return build(*args)
    except refusals:
        return None


# The formats whose records are keyed by their ids: a mapping, id -> record,
# whose writer refuses a key that check_token refuses.
_KEYED_FORMATS = ("phrases", "transcripts", "enrollmap")


def _written_and_read(draw, fmt, path):
    """(the records built, what the reader returns for the file the writer
    wrote of them); a table refused as a whole, when built or by its writer,
    is (None, None). A writer that refuses leaves the file as it was, and
    no other file."""
    n = draw(st.integers(0, 4))

    def column(values=_ROUND_TRIP_VALUES, unique=False):
        """n values."""
        return draw(st.lists(values, min_size=n, max_size=n, unique=unique))

    def id_columns(*columns):
        """A table's id columns of plain values, but for one hostile value
        in a table of two rows or more: one bad id refuses the whole table,
        or, in an enrollmap, its entry, which leaves a row to read back."""
        if n >= 2:
            draw(st.sampled_from(columns))[draw(st.integers(0, n - 1))] = draw(_HOSTILE)
        return columns

    if fmt == "embeddings":
        (ids,) = id_columns(column(_PLAIN, unique=True))
        assume(len(set(ids)) == n)
        dim = draw(st.integers(1, 3))
        matrix = np.array(column(st.lists(_DOUBLES, min_size=dim, max_size=dim))).reshape(n, dim)
        table = _built(EmbeddingTable, ids, matrix)
        write, read = write_embeddings, lambda p: parse_embeddings(p)[0]
    elif fmt == "trials":
        columns = id_columns(column(_PLAIN), column(_PLAIN), column(_PLAIN))
        table = _built(TrialColumns, *columns, column(st.integers(UNLABELED, 3)))
        write, read = write_trials, parse_trials
    elif fmt == "scores":
        (ids,) = id_columns(column(_PLAIN, unique=True))
        assume(len(set(ids)) == n)
        score, passed, cer = column(_FINITE), column(st.booleans()), column(_FINITE)
        table = _built(ScoreColumns, ids, np.array(score), np.array(passed, bool), np.array(cer))
        write, read = write_scores, parse_scores
    else:
        # Drawn keys of plain values, but now and then for one hostile or
        # non-str key; a record refused when built is left out.
        keys = column(_PLAIN, unique=True)
        if n and draw(st.booleans()):
            bad = st.one_of(_HOSTILE, st.sampled_from([0, None, b"k"]))
            keys[draw(st.integers(0, n - 1))] = draw(bad)
        if fmt == "enrollmap":
            # Phrase and rep ids of plain values without ',', the rep
            # separator, but for one hostile value: one entry is refused.
            phrase_ids, *reps = id_columns(*[column(_PLAIN_REP_IDS) for _ in range(4)])
            records = map(partial(_built, EnrollEntry), phrase_ids, zip(*reps))
            write, read = write_enrollmap, parse_enrollmap
        else:
            record, refusals, write, read = {
                "phrases": (Phrase, (ValueError, EmptyReference), write_phrases, parse_phrases),
                "transcripts": (Transcript, ValueError, write_transcripts, parse_transcripts),
            }[fmt]
            records = (_built(record, text, refusals=refusals) for text in column())
        table = {key: r for key, r in zip(keys, records) if r is not None}
    if table is None:
        return None, None
    refused = fmt in _KEYED_FORMATS and None in map(partial(_built, core.check_token), table)
    path.write_bytes(b"old\n")
    try:
        write(table, path)
    except ValueError:
        assert refused
        assert path.read_bytes() == b"old\n" and os.listdir(path.parent) == [path.name]
        return None, None
    assert not refused
    return table, read(path)


@pytest.mark.parametrize("fmt", ROUND_TRIP_FORMATS)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_record_is_refused_or_reads_back_equal(tmp_path, fmt, data):
    """Scores and CERs compare at their written .6f and .4f, embeddings
    bit for bit, everything else by ==."""
    written, read = _written_and_read(data.draw, fmt, tmp_path / "f.tsv")
    if fmt == "scores" and written is not None:
        assert read.trial_ids == written.trial_ids
        assert read.passed.tolist() == written.passed.tolist()
        for column, spec in (("score", ".6f"), ("cer", ".4f")):
            assert [format(v, spec) for v in getattr(read, column).tolist()] == [
                format(v, spec) for v in getattr(written, column).tolist()
            ]
    elif fmt == "embeddings" and written is not None:
        assert read.ids == written.ids and read.matrix.tobytes() == written.matrix.tobytes()
        assert read.matrix.shape == written.matrix.shape
    else:
        assert read == written


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


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=st.lists(st.sampled_from([b"a", b"\xc3\xa9", b"\r", b"\n", b"\r\n"])).map(b"".join),
    size=st.integers(1, 8),
    bound=st.integers(0, 40),
)
def test_pieces_are_whole_lines_of_bounded_reads(monkeypatch, data, size, bound):
    # the pieces are bytes.splitlines' lines, every \r\n whole, read at most
    # _PIECE_BYTES at a time; with a bound, the lines of the first bound bytes
    monkeypatch.setattr(tsvio, "_PIECE_BYTES", size)
    reads = []

    class Spy(io.BytesIO):
        def read(self, n=-1):
            reads.append(n)
            return super().read(n)

    assert list(tsvio._pieces(Spy(data))) == data.splitlines(True)
    assert list(tsvio._pieces(Spy(data), bound)) == data[:bound].splitlines(True)
    assert all(0 < n <= size for n in reads)


# Seeds of one 32-bit word and of two, at their edges and at the sign bit.
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _draws(rng, n, bound):
    """What the synth entities draw: normals into a row, a uniform, and
    integers; the last integers(bound) leaves half of a 64-bit draw in the
    bit generator's 32-bit buffer, which the next seed's state must empty."""
    normals = np.empty(n)
    rng.standard_normal(out=normals)
    return normals.tobytes(), rng.random(), int(rng.integers(2**40)), int(rng.integers(bound))


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_EDGE_SEEDS)), min_size=1),
    n=st.integers(0, 70),
    bound=st.integers(1, 2**32 - 1),
)
@example(seeds=_EDGE_SEEDS, n=256, bound=3)
def test_batch_generators_draw_what_default_rng_draws(seeds, n, bound):
    rngs = synth._generators(seeds)
    first = next(rngs)
    drawn = [_draws(first, n, bound)]
    for rng in rngs:
        assert rng is first  # one Generator given each state: the batch, not its fallback
        drawn.append(_draws(rng, n, bound))
    assert drawn == [_draws(np.random.default_rng(seed), n, bound) for seed in seeds]


def test_batch_that_disagrees_with_numpy_falls_back_to_default_rng(monkeypatch):
    cfg = SimConfig(
        n_speakers=5,
        n_phrases=3,
        spaces=(SpaceSpec("a", 9, 0.3), SpaceSpec("b", 4, 0.0)),
        trials_per_type=6,
        transcript_error_rate_correct=0.3,
        transcript_error_rate_wrong=0.5,
        master_seed=7,
    )

    def made():
        ds = gen_dataset(cfg)
        texts = {utt: t.text for utt, t in ds.transcripts.items()}
        tables = {name: (t.ids, t.matrix.tobytes()) for name, t in ds.embeddings.items()}
        return texts, tables, ds.trials, ds.utt_speaker, ds.utt_phrase

    expected = made()
    monkeypatch.setattr(synth, "_PCG_MULT", synth._PCG_MULT + 2)
    state, inc = next(synth._pcg64_states([7]))
    assert np.random.PCG64(7).state["state"] != {"state": state, "inc": inc}
    assert len({id(rng) for rng in list(synth._generators([7, 8, 9]))}) == 3
    assert made() == expected
