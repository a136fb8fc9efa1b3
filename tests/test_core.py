"""Vector primitives, shared domain types, and the cosine score."""

import re
from dataclasses import fields

import numpy as np
import pytest

from oracles import embedding_tables, trial_table
from tdsvkit import (
    LABEL_CODES,
    UNLABELED,
    ConfigInvalid,
    DcfParams,
    DegenerateVector,
    DimensionMismatch,
    DuplicateId,
    EmbeddingTable,
    EnrollEntry,
    GateConfig,
    Phrase,
    ScoreColumns,
    SimConfig,
    SpaceSpec,
    Transcript,
    TrialColumns,
    TrialLabel,
    as_embedding,
    corrupt_transcript,
    l2_normalize,
    score_all,
    split_scores,
)
from tdsvkit import core
from tdsvkit.core import IdColumn, check_text, check_token, check_unique, normalize_rows
from tdsvkit.errors import TdsvError
from tdsvkit.tsvio import parse_scores, write_scores


class TestNormalizeRows:
    def test_row_bits_do_not_depend_on_the_matrix(self):
        # each row is divided by the square root of numpy's pairwise sum of
        # its own squares, the documented formula, whatever matrix holds it;
        # np.linalg.norm is no reference, since on a 1-D row it is a BLAS
        # ddot, whose summation order depends on the CPU
        rng = np.random.default_rng(4)
        for dim in (2, 3, 64, 67, 256, 300):
            rows = rng.standard_normal((5, dim)) * rng.uniform(0.01, 100.0, (5, 1))
            out = normalize_rows(rows)
            for row, unit in zip(rows, out):
                assert np.array_equal(unit, row / np.sqrt(np.add.reduce(row * row))), dim
                assert np.array_equal(normalize_rows(row[np.newaxis])[0], unit)
                assert np.array_equal(l2_normalize(row), unit)

    def test_leaves_its_input(self):
        rows = np.array([[3.0, 4.0], [0.0, 2.0]])
        assert np.array_equal(normalize_rows(rows), [[0.6, 0.8], [0.0, 1.0]])
        assert np.array_equal(rows, [[3.0, 4.0], [0.0, 2.0]])

    def test_rejects_degenerate_rows(self):
        with pytest.raises(DegenerateVector, match="norm 0.000e\\+00"):
            normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateVector, match="norm 1.000e-13"):
            normalize_rows(np.array([[1e-13, 0.0]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateVector, match="NaN or infinite"):
                normalize_rows(np.array([[3.0, 4.0], [1.0, bad]]))
        # a finite row whose norm overflows is not scaled to zeros; the first
        # rejected row names the error, and no numpy warning is issued
        for rows, match in (([[3.0, 4.0], [1e200, 1e200]], "norm overflows"),
                            ([[1e200, 0.0], [0.0, 0.0]], "norm overflows"),
                            ([[0.0, 0.0], [1e200, 0.0]], "norm 0.000e\\+00")):
            with pytest.raises(DegenerateVector, match=match):
                normalize_rows(np.array(rows))


class TestL2Normalize:
    def test_three_four_five(self):
        # 3/5 and 4/5 are exact doubles
        assert np.array_equal(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_already_unit(self):
        assert np.array_equal(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(DegenerateVector):
            l2_normalize([0.0, 0.0])

    def test_tiny_norm(self):
        with pytest.raises(DegenerateVector):
            l2_normalize([1e-13, 0.0])

    def test_nonfinite(self):
        with pytest.raises(DegenerateVector):
            l2_normalize([1.0, float("nan")])

    def test_overflowing_norm(self):
        overflow = "^cannot normalize vector: its norm overflows$"
        for v in ([1e200, 1e200], [1e154, -1e154], [1.7e308]):
            with pytest.raises(DegenerateVector, match=overflow):
                l2_normalize(v)
        # a large norm that does not overflow still normalizes
        assert np.allclose(l2_normalize([3e150, 4e150]), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_not_1d(self):
        with pytest.raises(DimensionMismatch):
            l2_normalize([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DimensionMismatch):
            l2_normalize([])

    def test_unit_norm_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            dim = int(rng.integers(1, 65))
            v = rng.standard_normal(dim)
            if np.linalg.norm(v) <= 1e-12:
                continue
            u = l2_normalize(v)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-9
            s = float(10.0 ** rng.uniform(-6, 6))
            assert np.allclose(l2_normalize(s * v), u, atol=1e-9)


def _cosines(pairs):
    """score_all's score of each (enrollment vector, test vector) pair, from
    a one-trial run in one space that holds the pair, since a space holds
    vectors of one dim. The enrollment vector serves as all three
    repetitions of the model, and the transcript passes the gate."""
    entries = {"m": EnrollEntry("p", ("r",) * 3)}
    transcripts, phrases = {"u": Transcript("open")}, {"p": Phrase("open")}
    scores = []
    for enr, test in pairs:
        tables = embedding_tables({"a": {"r": enr, "u": test}})
        run = score_all(
            trial_table([("t", "m", "u")]), entries, tables, transcripts, phrases, GateConfig(),
        )
        scores.extend(run.records.score.tolist())
    return scores


class TestCosine:
    """The cosine score as score_all computes it, in one embedding space."""

    def test_identical(self):
        assert _cosines([([1.0, 0.0], [1.0, 0.0])]) == [1.0]

    def test_orthogonal(self):
        assert _cosines([([1.0, 0.0], [0.0, 1.0])]) == [0.0]

    def test_antiparallel_scale_invariant(self):
        assert _cosines([([1.0, 0.0], [-2.0, 0.0])]) == [-1.0]

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _cosines([([1.0, 0.0], [1.0, 0.0, 0.0])])

    def test_degenerate_side(self):
        with pytest.raises(DegenerateVector):
            _cosines([([0.0, 0.0], [1.0, 0.0])])
        with pytest.raises(DegenerateVector):
            _cosines([([1.0, 0.0], [0.0, 0.0])])

    def test_symmetry_and_scale(self):
        rng = np.random.default_rng(12)
        pairs = []
        for _ in range(300):
            dim = int(rng.integers(1, 65))
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            if min(np.linalg.norm(a), np.linalg.norm(b)) > 1e-12:
                s = float(10.0 ** rng.uniform(-3, 3))
                t = float(10.0 ** rng.uniform(-3, 3))
                pairs.append(((a, b), (b, a), (s * a, t * b)))
        c, swapped, scaled = (_cosines(side) for side in zip(*pairs))
        assert max(abs(x - y) for x, y in zip(c, swapped)) <= 1e-12
        assert max(abs(x - y) for x, y in zip(c, scaled)) <= 1e-9

    def test_clamped_range_bulk(self):
        # rounding can overshoot by ~1e-16; the clamp must hold the closed
        # interval over many dims
        rng = np.random.default_rng(13)
        for _ in range(10):
            pairs = []
            for _ in range(1_000):
                a = rng.standard_normal(int(rng.integers(1, 1025)))
                pairs.append((a, a * float(rng.uniform(0.5, 2.0))))
            assert all(-1.0 <= c <= 1.0 for c in _cosines(pairs))


class TestTrialTypes:
    def test_only_tc_is_target(self):
        # score i carries label code i; the metrics keep TC alone as target
        codes = np.array([LABEL_CODES[label] for label in TrialLabel], np.int8)
        targets, nontargets = split_scores(codes.astype(float), codes)
        assert targets.tolist() == [LABEL_CODES[TrialLabel.TC]]
        assert sorted(nontargets.tolist()) == sorted(
            LABEL_CODES[label] for label in TrialLabel if label is not TrialLabel.TC
        )

    def test_speaker_and_phrase_match(self):
        assert {l for l in TrialLabel if l.same_speaker} == {
            TrialLabel.TC,
            TrialLabel.TW,
        }
        assert {l for l in TrialLabel if l.same_phrase} == {
            TrialLabel.TC,
            TrialLabel.IC,
        }

    def test_label_optional(self):
        trials = trial_table([("t1", "m1", "u1"), ("t2", "m1", "u2", "TW")])
        assert len(trials) == 2
        assert trials.labels.dtype == np.int8
        assert trials.labels.tolist() == [UNLABELED, LABEL_CODES[TrialLabel.TW]]
        assert len(trial_table([])) == 0
        for code in (UNLABELED, len(TrialLabel) - 1):
            assert TrialColumns(["t1"], ["m1"], ["u1"], [code]).labels.tolist() == [code]
        for code in (UNLABELED - 1, len(TrialLabel)):
            with pytest.raises(ValueError, match=f"^label code {code} is not in -1..3$"):
                TrialColumns(["t1", "t2"], ["m1", "m1"], ["u1", "u2"], [0, code])

    @pytest.mark.parametrize("code", [0.5, 2.9, 3.7, True])
    def test_codes_that_are_not_whole_numbers(self, code):
        # astype(int8) would read these as TC, IC, IW and TW
        with pytest.raises(ValueError, match="^label codes must be integers, got"):
            TrialColumns(["t1"], ["m1"], ["u1"], [code])

    def test_empty_label_column_of_any_dtype(self):
        for codes in ([], np.array([]), np.array([], bool)):
            assert TrialColumns([], [], [], codes).labels.dtype == np.int8

    def test_token_validation(self):
        # each id column fails as check_token fails on its first bad id
        for column, what in enumerate(("trial_id", "model_id", "test_id")):
            for bad in ("", "x\ty", "x\ny", "x\ry", 5):
                with pytest.raises(ValueError) as expected:
                    check_token(bad, what)
                for tail in ([], ["d\te"]):  # alone, then ahead of another bad id
                    ids = [["a", "b", "c"][: 2 + len(tail)] for _ in range(3)]
                    ids[column][1:] = [bad] + tail
                    with pytest.raises(ValueError) as exc_info:
                        TrialColumns(*ids, [UNLABELED] * len(ids[0]))
                    assert str(exc_info.value) == str(expected.value)
        for lengths in ((2, 1, 2, 2), (1, 1, 1, 2), (2, 2, 1, 2)):
            columns = [[f"x{i}" for i in range(n)] for n in lengths[:3]]
            with pytest.raises(ValueError, match="^trial columns differ in length$"):
                TrialColumns(*columns, [0] * lengths[3])


class TestColumnsEquality:
    """== on the column tables compares id columns and arrays, dtype included,
    and never asks an array for its truth value."""

    @staticmethod
    def _trials(test_ids=("u1", "u2", "u3"), codes=(0, 1, UNLABELED)):
        return TrialColumns(["t1", "t2", "t3"], ["m1", "m1", "m2"], list(test_ids), list(codes))

    @staticmethod
    def _scores(trial_ids=("t1", "t2"), score=(0.5, -1.0), cer=(0.0, 0.25), dtype=np.float64):
        return ScoreColumns(
            list(trial_ids), np.array(score, dtype=dtype), np.array([True, False]),
            np.array(cer, dtype=np.float64),
        )

    def test_equal(self):
        assert self._trials() == self._trials()
        assert not self._trials() != self._trials()
        assert self._scores() == self._scores()
        empty = TrialColumns([], [], [], [])
        assert empty == TrialColumns([], [], [], np.array([], dtype=np.int8))

    def test_differing_id(self):
        assert self._trials() != self._trials(test_ids=("u1", "u2", "u4"))
        assert self._scores() != self._scores(trial_ids=("t1", "t3"))

    def test_differing_code_or_score(self):
        assert self._trials() != self._trials(codes=(0, 2, UNLABELED))
        assert self._scores() != self._scores(score=(0.5, -0.999999))
        assert self._scores() != self._scores(cer=(0.0, 0.5))
        assert self._scores() != self._scores(dtype=np.float32)

    def test_different_type(self):
        assert self._trials() != self._scores()
        assert self._scores() != self._trials()
        assert self._trials() != list(zip(["t1", "t2", "t3"]))


class TestEmbeddingTable:
    def test_rows_and_len(self):
        table = EmbeddingTable(["u1", "u2", "é"], [[1, 2], [3, 4], [5, 6]])
        assert len(table) == 3 and table.rows == {"u1": 0, "u2": 1, "é": 2}
        assert table.matrix.dtype == np.float64 and table.matrix.flags.c_contiguous
        assert table.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        fortran = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        assert EmbeddingTable(["a", "b", "c"], fortran).matrix.flags.c_contiguous
        matrix = np.zeros((2, 3))
        assert EmbeddingTable(["a", "b"], matrix).matrix is matrix  # no copy
        empty = EmbeddingTable([], np.empty((0, 4)))
        assert len(empty) == 0 and empty.rows == {}

    def test_not_a_matrix(self):
        for matrix in ([1.0, 2.0], np.zeros((1, 2, 2)), np.zeros((1, 0)), [[1.0], [1.0, 2.0]], []):
            with pytest.raises(DimensionMismatch):
                EmbeddingTable(["a"] * max(len(matrix), 1), matrix)

    def test_id_count_is_row_count(self):
        with pytest.raises(DimensionMismatch, match="^2 embedding ids for 3 rows$"):
            EmbeddingTable(["a", "b"], np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch, match="^1 embedding ids for 0 rows$"):
            EmbeddingTable(["a"], np.empty((0, 2)))

    def test_nonfinite_value_names_its_row(self):
        for bad in (np.nan, np.inf, -np.inf):
            matrix = np.ones((3, 2))
            matrix[1:, 0] = bad
            with pytest.raises(DegenerateVector, match="^embedding 'b' contains NaN or infinite"):
                EmbeddingTable(["a", "b", "c"], matrix)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId, match="^duplicate embedding id 'b'$"):
            EmbeddingTable(["a", "b", "c", "b", "a"], np.ones((5, 2)))

    def test_bad_token(self):
        for bad in ("", "x\ty", "x\ny", "x\ry", 5):
            with pytest.raises(ValueError, match="embedding id"):
                EmbeddingTable(["a", bad], np.ones((2, 2)))

    def test_equality(self):
        table = EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert table == EmbeddingTable(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert table != EmbeddingTable(["a", "c"], [[1.0, 2.0], [3.0, 4.0]])
        assert table != EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.5]])
        assert table != EmbeddingTable(["a"], [[1.0, 2.0]])
        assert table != TrialColumns(["a", "b"], ["m", "m"], ["u", "u"], [0, 0])


class TestIdColumn:
    """The id columns of TrialColumns and ScoreColumns: one buffer, read as
    a list of str."""

    def test_sequence_of_str(self):
        ids = ["t1", "é", "a\x00", "t1"]
        column = IdColumn(ids)
        assert column.buffer == "\nt1\né\na\x00\nt1".encode()
        assert len(column) == 4 and column.tolist() == ids and list(column) == ids
        assert (column[0], column[-1], column[np.int64(1)]) == ("t1", "t1", "é")
        assert "é" in column and column.index("t1") == 0 and column.count("t1") == 2
        assert repr(column) == f"IdColumn({ids!r})"
        for index in (4, -5):
            with pytest.raises(IndexError):
                column[index]
        empty = IdColumn()
        assert (len(empty), empty.tolist(), empty.buffer) == (0, [], b"")

    def test_equality(self):
        column = IdColumn(["a", "b"])
        assert column == IdColumn(("a", "b")) == ["a", "b"] and not column != ["a", "b"]
        assert column != IdColumn(["a", "c"]) and column != ["a"] and column != ("a", "b")
        assert IdColumn.from_buffer(b"\na\nb") == column
        with pytest.raises(TypeError):
            hash(column)

    def test_tables_hold_id_columns(self):
        trials = TrialColumns(["t1", "t2"], ["m", "m"], ["u1", "u2"], [0, 1])
        scores = ScoreColumns(trials.trial_ids, [0.5, 0.5], [True, True], [0.0, 0.0])
        for column in (trials.trial_ids, trials.model_ids, trials.test_ids, scores.trial_ids):
            assert type(column) is IdColumn
        assert scores.trial_ids is trials.trial_ids and trials.model_ids == ["m", "m"]
        table = EmbeddingTable(IdColumn(["a", "b"]), np.ones((2, 2)))
        assert type(table.ids) is list and table.rows == {"a": 0, "b": 1}

    def test_tables_check_ids_once(self, monkeypatch):
        # a column's ids were checked when it was built: an embedding space
        # does not check them again, and a score set given a list tests its
        # uniqueness on that list's str
        def unexpected(*args):
            raise AssertionError("checked again")

        column = IdColumn(["a", "b"])
        monkeypatch.setattr(core, "check_tokens", unexpected)
        EmbeddingTable(column, np.ones((2, 2)))
        monkeypatch.setattr(IdColumn, "distinct", unexpected)
        ScoreColumns(["a", "b"], [0.5, 0.5], [True, True], [0.0, 0.0])
        with pytest.raises(AssertionError, match="^checked again$"):
            ScoreColumns(column, [0.5, 0.5], [True, True], [0.0, 0.0])

    def test_buffer_must_start_at_a_separator(self):
        for buffer in (b"a", b"a\nb"):
            with pytest.raises(ValueError, match="^an id column buffer must start with a newline$"):
                IdColumn.from_buffer(buffer)


class TestCheckUnique:
    def test_names_the_first_repeat(self):
        check_unique([], "id")
        check_unique(["a", "b"], "id")
        with pytest.raises(DuplicateId, match="^duplicate trial id 'b'$"):
            check_unique(["a", "b", "c", "b", "a"], "trial id")

    def test_id_column(self):
        check_unique(IdColumn(["a", "b"]), "id")
        for ids in (["ab", "cd", "ab"], ["a", "bc", "bc"], ["u\x00", "u\x00"]):
            with pytest.raises(DuplicateId, match=f"^duplicate trial id '{ids[-1]}'$"):
                check_unique(IdColumn(ids), "trial id")
        check_unique(IdColumn(["u\x00", "u\x00\x00", "u"]), "id")  # NULs are bytes of the id

    def test_ids_of_several_lengths(self, monkeypatch):
        # no hash decides: a set of the ids' bytes does, at any size
        monkeypatch.setattr(core, "_row_hashes", None)
        ids = [f"t{i}" for i in range(20_000)]
        check_unique(IdColumn(ids), "trial id")
        with pytest.raises(DuplicateId, match="^duplicate trial id 't123'$"):
            check_unique(IdColumn(ids + ["t123"]), "trial id")


class TestKeyedRecords:
    """A phrase, transcript or enrollmap record holds no id: its key in the
    mapping that holds it is the only one."""

    def test_no_record_holds_an_id(self):
        assert [f.name for f in fields(Phrase)] == ["text"]
        assert [f.name for f in fields(Transcript)] == ["text"]
        assert [f.name for f in fields(EnrollEntry)] == ["phrase_id", "rep_ids"]

    @pytest.mark.parametrize("value", [None, b"x", 5, ["x"]], ids=["None", "bytes", "int", "list"])
    def test_text_that_is_not_a_string_is_named(self, value):
        message = f"^text must be a string, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            check_text(value)
        for record in (Phrase, Transcript):
            with pytest.raises(ValueError, match=message):
                record(value)

    def test_a_str_is_not_three_rep_ids(self):
        message = "^rep_ids must be a sequence of ids, not the str 'abc'$"
        with pytest.raises(ValueError, match=message):
            EnrollEntry("p", "abc")

    @pytest.mark.parametrize("kind", [list, tuple, iter])
    def test_rep_ids_are_kept_as_a_tuple(self, kind):
        entry = EnrollEntry("p", kind(["a", "b", "c"]))
        assert entry.rep_ids == ("a", "b", "c")
        assert hash(entry) == hash(EnrollEntry("p", ("a", "b", "c")))


def _score_columns(ids=("a", "b"), score=(0.5, -1.0), passed=(True, False), cer=(0.0, 0.5)):
    return ScoreColumns(list(ids), np.array(score), np.array(passed), np.array(cer))


class TestScoreColumns:
    """ScoreColumns checks itself as it is built, so that write_scores never
    writes what parse_scores rejects."""

    def test_valid_columns_are_kept_as_given(self):
        columns = _score_columns()
        assert len(columns) == 2
        score = np.array([0.5, -1.0], dtype=np.float32)
        assert ScoreColumns(["a", "b"], score, columns.passed, columns.cer).score is score
        assert len(ScoreColumns([], np.array([]), np.array([], bool), np.array([]))) == 0

    def test_lists_become_arrays(self, tmp_path):
        columns = ScoreColumns(["t1", "t2"], [0.5, -0.2], [True, False], [0.1, 0.2])
        path = tmp_path / "scores.tsv"
        write_scores(columns, path)
        assert parse_scores(path) == columns

    def test_columns_of_different_lengths(self):
        for columns in (
            dict(ids=["a", "b", "c"]), dict(score=[0.1]), dict(passed=[True]), dict(cer=[]),
        ):
            with pytest.raises(ValueError, match="^score columns differ in length$"):
                _score_columns(**columns)

    def test_bad_trial_id(self):
        for bad in ("", "x\ty", "x\ny", "x\ry", 5):
            with pytest.raises(ValueError, match="trial_id"):
                _score_columns(ids=("a", bad))

    def test_passed_must_be_bool(self):
        for passed in ([1, 0], [1.0, 0.0], ["PASS", "PUNITIVE"]):
            with pytest.raises(ValueError, match="^the passed column must be bool$"):
                _score_columns(passed=passed)

    def test_nonfinite_score_or_cer(self):
        for what in ("score", "cer"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"^{what} column holds NaN or infinite"):
                    _score_columns(**{what: (0.0, bad)})

    def test_repeated_trial_id(self):
        with pytest.raises(DuplicateId, match="^duplicate trial id 'a'$"):
            _score_columns(ids=("a", "a"))

    def test_what_parse_scores_rejects_cannot_be_built(self, tmp_path):
        # each row set, written as write_scores formats it, is a file
        # parse_scores rejects; the table that would write it is refused
        path = tmp_path / "scores.tsv"
        for rows in (
            [("a", 0.5, True, 0.0), ("b", np.nan, True, 0.0)],
            [("a", 0.5, True, np.inf), ("b", 0.5, True, 0.0)],
            [("a", 0.5, True, 0.0), ("a", 0.5, False, 0.0)],
            [("a\tb", 0.5, True, 0.0)],
            [("a\nb", 0.5, True, 0.0)],
            [("", 0.5, True, 0.0)],
        ):
            lines = [
                f"{i}\t{s:.6f}\t{'PASS' if p else 'PUNITIVE'}\t{c:.4f}\n" for i, s, p, c in rows
            ]
            path.write_text("".join(lines), encoding="utf-8")
            with pytest.raises(TdsvError):
                parse_scores(path)
            with pytest.raises((ValueError, TdsvError)):
                _score_columns(*zip(*rows))


class TestAsEmbedding:
    def test_coerces_lists(self):
        v = as_embedding([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            as_embedding([])
        with pytest.raises(DegenerateVector):
            as_embedding([1.0, float("inf")])


# A config number given True, which Python counts as the number 1, each with
# the message that names its field.
BOOL_NUMBERS = {
    "cer_threshold": (lambda: GateConfig(True), r"^cer_threshold must be >= 0, got True$"),
    "c_miss": (lambda: DcfParams(True), r"^c_miss must be finite and > 0, got True$"),
    "c_fa": (lambda: DcfParams(c_fa=True), r"^c_fa must be finite and > 0, got True$"),
    "noise_sigma": (lambda: SpaceSpec("a", 4, True), r"^space 'a': noise_sigma must be finite"),
    "transcript_error_rate_correct": (
        lambda: SimConfig(transcript_error_rate_correct=True),
        r"^transcript_error_rate_correct must lie in \[0, 1\], got True$",
    ),
    "transcript_error_rate_wrong": (
        lambda: SimConfig(transcript_error_rate_wrong=True),
        r"^transcript_error_rate_wrong must lie in \[0, 1\], got True$",
    ),
    "rate": (lambda: corrupt_transcript("abc", True, 0), r"^rate must lie in \[0, 1\], got True$"),
}


@pytest.mark.parametrize("name", BOOL_NUMBERS)
def test_config_numbers_refuse_bool(name):
    build, message = BOOL_NUMBERS[name]
    with pytest.raises(ConfigInvalid, match=message):
        build()
