"""TSV parsers and writers: round-trips and per-line diagnostics."""

import errno
import io
import mmap
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import child_env, drained, piped
from oracles import (
    embedding_table,
    parse_embeddings_ref,
    trial_rows,
    trial_table,
    write_det_ref,
    write_embeddings_ref,
)
from tdsvkit import (
    BadHeader,
    BadLabel,
    BadRepCount,
    DegenerateVector,
    DimMismatch,
    DimensionMismatch,
    DuplicateId,
    EnrollEntry,
    GateConfig,
    LABEL_CODES,
    MalformedLine,
    Phrase,
    ScoreColumns,
    SimConfig,
    SpaceSpec,
    Transcript,
    TrialColumns,
    TrialLabel,
    UNLABELED,
    TdsvError,
    UnparseableFloat,
    gen_dataset,
    score_all,
    tsvio,
)
from tdsvkit.core import check_token
from tdsvkit.metrics import ErrorRates, det_points, sweep
from tdsvkit.tsvio import (
    parse_embeddings,
    parse_enrollmap,
    parse_phrases,
    parse_scores,
    parse_transcripts,
    parse_trials,
    write_dataset,
    write_det,
    write_embeddings,
    write_enrollmap,
    write_phrases,
    write_scores,
    write_transcripts,
    write_trials,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8", newline="\n")
    return str(path)


class TestEmbeddingsFormat:
    def test_minimal_file(self, tmp_path):
        table, dim = parse_embeddings(_write(tmp_path / "e.tsv", "#dim 2\nu1\t0.6 0.8\n"))
        assert dim == 2
        assert table == embedding_table({"u1": [0.6, 0.8]})
        assert table.matrix.flags.c_contiguous

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        table = embedding_table({f"u{i}": rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8)
                                 for i in range(40)})
        path = tmp_path / "e.tsv"
        write_embeddings(table, path)
        parsed, dim = parse_embeddings(path)
        assert dim == 7
        assert parsed.ids == table.ids  # order preserved
        assert parsed.matrix.tobytes() == table.matrix.tobytes()

    def test_write_rejects_row_of_wrong_length(self, tmp_path):
        # a table holds rows of one length, so no such table reaches the writer
        path = tmp_path / "e.tsv"
        tables = (
            {"x": [1.0, 2.0], "y": [float("nan"), 1.0, 2.0]},
            {"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0, 4.0]},
            {"x": np.zeros((1, 3))},
            {"x": 1.0},
            {"x": []},
        )
        for vectors in tables:
            with pytest.raises(DimensionMismatch):
                write_embeddings(embedding_table(vectors), path)
        assert not path.exists()

    def test_write_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "e.tsv"
        for bad in (float("nan"), float("inf"), float("-inf")):
            vectors = {"x": [1.0, 2.0, 3.0], "y": np.array([2.0, bad, 1.0])}
            with pytest.raises(DegenerateVector, match="'y' contains NaN or infinite"):
                write_embeddings(embedding_table(vectors), path)
        assert not path.exists()

    def test_write_rejects_ids_the_reader_rejects(self, tmp_path):
        path = tmp_path / "e.tsv"
        for bad in ("", "a\tb", "a\nb", "a\rb", 7):
            with pytest.raises(ValueError, match="embedding id"):
                write_embeddings(embedding_table({"ok": [1.0], bad: [2.0]}), path)
        assert not path.exists()
        # a lone surrogate, as surrogateescape decodes a stray byte, has no
        # UTF-8 form; no table holds one, so the file is never opened
        path.write_text("#dim 1\nold\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="embedding id 'b\\\\udc80c' cannot be encoded"):
            vectors = {"ok": [1.0], "né": [2.0], "b\udc80c": [3.0], "z\udcff": [4.0]}
            write_embeddings(embedding_table(vectors), path)
        assert path.read_text(encoding="utf-8") == "#dim 1\nold\t1\n"

    def test_write_empty_table(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_embeddings(embedding_table({}, 4), path)
        assert path.read_bytes() == b"#dim 4\n"
        table, dim = parse_embeddings(path)
        assert dim == 4 and len(table) == 0 and table.matrix.shape == (0, 4)

    def test_skips_blank_lines(self, tmp_path):
        table, _ = parse_embeddings(
            _write(tmp_path / "e.tsv", "#dim 1\nu1\t0.5\n\nu2\t1.5\n\n")
        )
        assert table.ids == ["u1", "u2"]
        assert table.matrix.tolist() == [[0.5], [1.5]]

    def test_bad_header(self, tmp_path):
        for content in ("", "dim 2\n", "#dim x\n", "#dim 0\n", "#dim -1\n", "u1\t0.5\n"):
            with pytest.raises(BadHeader, match=":1:"):
                parse_embeddings(_write(tmp_path / "bad.tsv", content))

    def test_dim_mismatch_names_line(self, tmp_path):
        path = _write(tmp_path / "e.tsv", "#dim 2\nu1\t0.6 0.8\nu2\t0.1 0.2 0.3\n")
        with pytest.raises(DimMismatch, match=":3:"):
            parse_embeddings(path)
        with pytest.raises(DimMismatch):
            parse_embeddings(_write(tmp_path / "f.tsv", "#dim 2\nu1\t0.6\n"))

    def test_duplicate_id(self, tmp_path):
        path = _write(tmp_path / "e.tsv", "#dim 1\nu1\t0.5\nu1\t0.7\n")
        with pytest.raises(DuplicateId, match="u1"):
            parse_embeddings(path)

    def test_unparseable_float_names_column(self, tmp_path):
        path = _write(tmp_path / "e.tsv", "#dim 3\nu1\t0.5 zap 0.7\n")
        with pytest.raises(UnparseableFloat, match="column 2"):
            parse_embeddings(path)

    def test_rejects_nonfinite(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            path = _write(tmp_path / "e.tsv", f"#dim 2\nu1\t0.5 {bad}\n")
            with pytest.raises(UnparseableFloat, match="non-finite"):
                parse_embeddings(path)

    def test_missing_tab(self, tmp_path):
        with pytest.raises(MalformedLine, match=":2:"):
            parse_embeddings(_write(tmp_path / "e.tsv", "#dim 1\nu1 0.5\n"))

    def test_empty_id(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_embeddings(_write(tmp_path / "e.tsv", "#dim 1\n\t0.5\n"))

    def test_dim_too_large_for_its_rows(self, tmp_path):
        # no rows x dim matrix is allocated for a dim the rows cannot hold
        path = _write(tmp_path / "e.tsv", "#dim 100000000000\nu1\t1 0\n")
        with pytest.raises(DimMismatch) as exc:
            parse_embeddings(path)
        assert str(exc.value) == f"{path}:2: expected 100000000000 values, got 2"
        # ... and a row that holds the dim may come before the short one
        with pytest.raises(DimMismatch, match=":3: expected 4 values, got 1"):
            parse_embeddings(_write(tmp_path / "f.tsv", "#dim 4\nu1\t1 2 3 4\nu2\t1\n"))

    def test_dim_numpy_cannot_index(self, tmp_path):
        largest = (2**63 - 1) // 8  # float64 values
        for digits in ("99999999999999999999", "9" * 5000, str(largest + 1)):
            for rows in ("u1\t1 0\n", ""):
                path = _write(tmp_path / "e.tsv", f"#dim {digits}\n{rows}")
                with pytest.raises(BadHeader) as exc:
                    parse_embeddings(path)
                assert str(exc.value) == (
                    f"{path}:1: declared dim must be at most {largest}, got {digits}"
                )
        table, dim = parse_embeddings(_write(tmp_path / "e.tsv", f"#dim {largest}\n"))
        assert dim == largest and table.matrix.shape == (0, largest)

    def test_rows_are_bounded_by_the_bytes(self, tmp_path):
        # a header-only file of a huge dim allocates no rows of that size,
        # which a host that overcommits memory would grant
        path = _write(tmp_path / "e.tsv", "#dim 100000000000\n")
        tracemalloc.start()
        try:
            table, dim = parse_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (table.ids, table.matrix.shape, dim) == ([], (0, 10**11), 10**11)
        assert peak < 1 << 20

    def test_file_rewritten_while_read(self, tmp_path, monkeypatch):
        # the first of two parts has room for as many rows as it had lines
        # when they were counted; more rows by the time it is parsed mean
        # the file was rewritten meanwhile: an OSError, not an IndexError
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
        path = _write(tmp_path / "e.tsv", "#dim 1\n" + "".join(f"u{i}\t1\n" for i in range(20)))
        real = tsvio._lines

        def rewritten(path, lines, n=1, offset=0):
            if n == 2:  # the first part: each line now two rows
                lines = (row for line in lines for row in (line, b"x" + line))
            return real(path, lines, n, offset)

        monkeypatch.setattr(tsvio, "_lines", rewritten)
        with pytest.raises(OSError) as exc:
            parse_embeddings(path)
        assert str(exc.value) == f"{path}: the file changed while it was read"
        _no_child_left()

    def test_file_that_grows_while_read(self, tmp_path, monkeypatch):
        # rows appended after the size was read fail as an OSError, not an
        # IndexError from a matrix with room for the rows of that size, nor
        # a table of the rows up to it: in one part and, where the host
        # splits, in two
        real = tsvio._lines

        def growing(path, f, *args):
            for n, line in real(path, f, *args):
                yield n, line
                if n == 2:  # the first row
                    with open(path, "a", encoding="utf-8") as out:
                        out.write("".join(f"v{i}\t1\n" for i in range(100)))

        monkeypatch.setattr(tsvio, "_lines", growing)
        for split_bytes in (tsvio._SPLIT_BYTES, 0):
            monkeypatch.setattr(tsvio, "_SPLIT_BYTES", split_bytes)
            path = _write(tmp_path / "e.tsv", "#dim 1\nu1\t1\nu2\t1\n")
            with pytest.raises(OSError, match="grew while it was read"):
                parse_embeddings(path)
        _no_child_left()

    # Layouts text mode reads as the plain file, each read in one pass.
    LAYOUTS = {
        "\\r\\n line ends": "#dim 2\r\nu1\t1 2\r\nu2\t3 4\r\n",
        "lone \\r line ends": "#dim 2\nu1\t1 2\ru2\t3 4\r",
        "no final newline": "#dim 2\nu1\t1 2\nu2\t3 4",
        "blank lines": "#dim 2\n\nu1\t1 2\n\r\n\nu2\t3 4\n\n",
        "\\r ending the file": "#dim 2\nu1\t1 2\nu2\t3 4\r",
        "header only, no newline": "#dim 2",
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_read_without_the_scan(self, tmp_path, monkeypatch, layout):
        path = tmp_path / "e.tsv"
        path.write_bytes(self.LAYOUTS[layout].encode())
        opened = []

        def spy(*args):
            opened.append(args[0])
            return open(*args)

        monkeypatch.setattr(tsvio, "open", spy, raising=False)
        n = 0 if layout.startswith("header") else 2
        assert _outcome(path) == (["u1", "u2"][:n], np.array([[1.0, 2], [3, 4]])[:n].tobytes())
        assert opened == [path]

    @pytest.mark.parametrize(
        "text", ["#dim 2\nu1\t1\r2\n", "#dim 2\ru1\t1 2\n", "#dim 1\nu\xe9\t1\n"]
    )
    def test_text_the_reader_leaves_to_the_scan(self, tmp_path, monkeypatch, text):
        # a \r that does not end a line, or bytes that are not UTF-8: read
        # as the oracle reads them, or the byte it cannot decode named, in
        # one part and, where the host splits, in two. A lone \r that ends
        # the header is a line end as any other.
        path = tmp_path / "e.tsv"
        path.write_bytes(text.encode("latin-1"))
        try:
            expected = _outcome(path, parse_embeddings_ref)
        except UnicodeDecodeError as exc:
            expected = MalformedLine, f"{path}:2: not valid UTF-8 at byte offset {exc.start}"
        assert _outcome(path) == expected
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
        assert _outcome(path) == expected

    @pytest.mark.parametrize("header_end", ["\r", "\n"])
    def test_lone_cr_file_is_read_in_bounded_pieces(self, tmp_path, monkeypatch, header_end):
        # a file of lone \r line ends reads as the same file with \n ends,
        # in two parts where the host splits, the second the child's, and in
        # one; every read this process makes of either file takes
        # _PIECE_BYTES at most
        rows = [f"u{i}\t{i} {i / 7!r}" for i in range(300)]
        lf = _write(tmp_path / "lf.tsv", "#dim 2\n" + "\n".join(rows) + "\n")
        cr = _write(tmp_path / "cr.tsv", "#dim 2" + header_end + "\r".join(rows) + "\r")
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(tsvio, "_PIECE_BYTES", 64)
        sizes = []

        class Spy(io.BufferedReader):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        def spy(file, *args):  # the fork's pipe ends pass through
            return Spy(io.FileIO(file)) if file in (lf, cr) else open(file, *args)

        monkeypatch.setattr(tsvio, "open", spy, raising=False)
        parts, real = [], tsvio._read_rows
        monkeypatch.setattr(tsvio, "_read_rows", lambda p, *args: parts.append(p) or real(p, *args))
        expected = _outcome(lf)
        assert _outcome(cr) == expected
        assert parts == [lf, cr]  # one part each in this process
        monkeypatch.setattr(tsvio, "_splits", lambda size: False)
        assert _outcome(cr) == expected
        assert len(sizes) > 100
        assert all(0 < size <= 64 for size in sizes)


class TestTrialsFormat:
    def test_labeled_and_unlabeled(self, tmp_path):
        path = _write(tmp_path / "t.tsv", "t1\tm1\tu1\tTW\nt2\tm1\tu2\n")
        trials = parse_trials(path)
        assert isinstance(trials, TrialColumns) and len(trials) == 2
        assert trials.labels.dtype == np.int8
        assert trial_rows(trials) == [
            ("t1", "m1", "u1", LABEL_CODES[TrialLabel.TW]),
            ("t2", "m1", "u2", UNLABELED),
        ]

    def test_roundtrip(self, tmp_path):
        # mixed labeled and unlabeled rows, all unlabeled rows, and no rows
        cases = [
            (
                [("t1", "m1", "u1", "TC"), ("t2", "m2", "u2"), ("t3", "m1", "u3", "IW")],
                "t1\tm1\tu1\tTC\nt2\tm2\tu2\nt3\tm1\tu3\tIW\n",
            ),
            ([("t1", "m1", "u1"), ("t2", "m2", "u2")], "t1\tm1\tu1\nt2\tm2\tu2\n"),
            ([], ""),
        ]
        path = tmp_path / "t.tsv"
        for rows, text in cases:
            trials = trial_table(rows)
            write_trials(trials, path)
            assert path.read_text(encoding="utf-8") == text
            assert trial_rows(parse_trials(path)) == trial_rows(trials)

    def test_bad_label(self, tmp_path):
        with pytest.raises(BadLabel, match="XX"):
            parse_trials(_write(tmp_path / "t.tsv", "t1\tm1\tu1\tXX\n"))
        with pytest.raises(BadLabel):
            parse_trials(_write(tmp_path / "t.tsv", "t1\tm1\tu1\ttc\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_trials(_write(tmp_path / "t.tsv", "t1\tm1\n"))
        with pytest.raises(MalformedLine):
            parse_trials(_write(tmp_path / "t.tsv", "t1\tm1\tu1\tTC\textra\n"))

    def test_empty_field(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_trials(_write(tmp_path / "t.tsv", "t1\t\tu1\n"))


class TestIdTextFormats:
    def test_phrases_roundtrip_mixed_script(self, tmp_path):
        phrases = {
            "p1": Phrase("hello there world"),
            "p2": Phrase("سلام بر همه"),
        }
        path = tmp_path / "p.tsv"
        write_phrases(phrases, path)
        assert parse_phrases(path) == phrases

    def test_transcripts_allow_empty_text(self, tmp_path):
        transcripts = {"u1": Transcript(""), "u2": Transcript("a b")}
        path = tmp_path / "tr.tsv"
        write_transcripts(transcripts, path)
        assert path.read_bytes() == b"u1\t\nu2\ta b\n"
        assert parse_transcripts(path) == transcripts

    def test_phrase_empty_text_rejected(self, tmp_path):
        with pytest.raises(MalformedLine, match="empty"):
            parse_phrases(_write(tmp_path / "p.tsv", "p1\t \n"))

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(DuplicateId):
            parse_phrases(_write(tmp_path / "p.tsv", "p1\ta\np1\tb\n"))
        with pytest.raises(DuplicateId):
            parse_transcripts(_write(tmp_path / "t.tsv", "u1\ta\nu1\tb\n"))

    def test_missing_tab(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_phrases(_write(tmp_path / "p.tsv", "p1 hello\n"))

    def test_text_keeps_interior_tabs(self, tmp_path):
        parsed = parse_transcripts(_write(tmp_path / "t.tsv", "u1\ta\tb\n"))
        assert parsed["u1"].text == "a\tb"


class TestEnrollmapFormat:
    def test_roundtrip(self, tmp_path):
        entries = {
            "m1": EnrollEntry("p1", ("r1", "r2", "r3")),
            "m2": EnrollEntry("p2", ("r4", "r5", "r6")),
        }
        path = tmp_path / "em.tsv"
        write_enrollmap(entries, path)
        assert path.read_bytes() == b"m1\tp1\tr1,r2,r3\nm2\tp2\tr4,r5,r6\n"
        assert parse_enrollmap(path) == entries

    def test_bad_rep_count(self, tmp_path):
        with pytest.raises(BadRepCount, match="got 2"):
            parse_enrollmap(_write(tmp_path / "em.tsv", "m1\tp1\tr1,r2\n"))
        with pytest.raises(BadRepCount, match="got 4"):
            parse_enrollmap(_write(tmp_path / "em.tsv", "m1\tp1\tr1,r2,r3,r4\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_enrollmap(_write(tmp_path / "em.tsv", "m1\tp1\n"))

    def test_empty_rep_id(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_enrollmap(_write(tmp_path / "em.tsv", "m1\tp1\tr1,,r3\n"))

    def test_duplicate_model(self, tmp_path):
        content = "m1\tp1\tr1,r2,r3\nm1\tp2\tr4,r5,r6\n"
        with pytest.raises(DuplicateId, match="m1"):
            parse_enrollmap(_write(tmp_path / "em.tsv", content))


def _score_columns(*rows):
    """ScoreColumns of (trial id, score, passed, cer) rows."""
    ids, scores, passed, cers = zip(*rows) if rows else ((), (), (), ())
    return ScoreColumns(
        list(ids), np.array(scores, dtype=np.float64), np.array(passed, dtype=bool),
        np.array(cers, dtype=np.float64),
    )


class TestScoresFormat:
    def test_line_shape(self, tmp_path):
        records = _score_columns(("t1", 0.912345678, True, 0.0), ("t2", -1.0, False, 0.91234))
        assert len(records) == 2
        path = tmp_path / "s.tsv"
        write_scores(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t1\t0.912346\tPASS\t0.0000"
        assert lines[1] == "t2\t-1.000000\tPUNITIVE\t0.9123"

    def test_roundtrip(self, tmp_path):
        records = _score_columns(("t1", 0.25, True, 0.1), ("t2", -1.0, False, 1.5))
        path = tmp_path / "s.tsv"
        write_scores(records, path)
        parsed = parse_scores(path)
        assert parsed.trial_ids == ["t1", "t2"]
        assert parsed.score.tolist() == pytest.approx([0.25, -1.0], abs=1e-6)
        assert parsed.passed.tolist() == [True, False]
        assert parsed.cer.tolist() == pytest.approx([0.1, 1.5], abs=1e-4)

    def test_roundtrip_of_scored_dataset(self, tmp_path):
        cfg = SimConfig(
            n_speakers=10, trials_per_type=20, transcript_error_rate_correct=0.3,
            transcript_error_rate_wrong=0.3, master_seed=9,
        )
        ds = gen_dataset(cfg)
        run = score_all(
            ds.trials, ds.enroll_entries, ds.embeddings, ds.transcripts, ds.phrases,
            GateConfig(),
        )
        records = run.records
        assert records.passed.any() and not records.passed.all()
        path = tmp_path / "s.tsv"
        write_scores(records, path)
        parsed = parse_scores(path)
        assert parsed.trial_ids == records.trial_ids
        assert parsed.passed.tolist() == records.passed.tolist()
        assert parsed.score.tolist() == [round(x, 6) for x in records.score.tolist()]
        assert parsed.cer.tolist() == [round(x, 4) for x in records.cer.tolist()]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.tsv"
        write_scores(_score_columns(), path)
        assert path.read_text(encoding="utf-8") == ""
        parsed = parse_scores(path)
        assert parsed.trial_ids == []
        assert parsed.score.size == parsed.passed.size == parsed.cer.size == 0

    def test_diagnostics(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_scores(_write(tmp_path / "s.tsv", "t1\t0.5\tPASS\n"))
        with pytest.raises(MalformedLine, match="MAYBE"):
            parse_scores(_write(tmp_path / "s.tsv", "t1\t0.5\tMAYBE\t0.1\n"))
        with pytest.raises(UnparseableFloat, match="column 2"):
            parse_scores(_write(tmp_path / "s.tsv", "t1\tzap\tPASS\t0.1\n"))
        with pytest.raises(DuplicateId):
            parse_scores(
                _write(tmp_path / "s.tsv", "t1\t0.5\tPASS\t0.1\nt1\t0.4\tPASS\t0.1\n")
            )

    def test_rejects_nonfinite(self, tmp_path):
        for bad in ("nan", "inf", "-inf", "NaN", "-Infinity"):
            path = _write(tmp_path / "s.tsv", f"t0\t0.1\tPASS\t0.0\nt1\t{bad}\tPASS\t0.1\n")
            with pytest.raises(UnparseableFloat, match=f":2: column 2: non-finite value '{bad}'"):
                parse_scores(path)
            path = _write(tmp_path / "s.tsv", f"t1\t0.5\tPUNITIVE\t{bad}\n")
            with pytest.raises(UnparseableFloat, match=f":1: column 4: non-finite value '{bad}'"):
                parse_scores(path)


# 20,000 good lines (3 to 20002), which take a later line past the first
# 8 KiB decode buffer
_FAR_TRIALS = b"".join(b"t%d\tm1\tu1\tTC\n" % i for i in range(3, 20003))
_FAR_SCORES = b"".join(b"t%d\t0.5\tPASS\t0.1\n" % i for i in range(3, 20003))


class TestNotUtf8:
    """Every reader names the line of the first byte that is not UTF-8."""

    READERS = {
        "embeddings header": (parse_embeddings, b"#dim \xff2\nr1\t1 0\n", 1),
        "embeddings row": (parse_embeddings, b"#dim 2\nr1\t1 0\nr\xfe2\t1 0\n", 3),
        "trials": (parse_trials, b"t1\tm1\tu1\nt\xff\xfe2\tm1\tu1\n", 2),
        "labeled trials": (parse_trials, b"t1\tm1\tu1\tTC\nt\xff\xfe2\tm1\tu1\tTC\n", 2),
        "phrases": (parse_phrases, b"p1\topen\np2\tshut \xff\n", 2),
        "transcripts": (parse_transcripts, b"u1\t\nu2\t\xc3\n", 2),
        "enrollmap": (parse_enrollmap, b"m1\tp1\tr1,r2,r3\nm\xfe\tp1\tr1,r2,r3\n", 2),
        "scores": (parse_scores, b"t1\t0.5\tPASS\t0.1\nt\xff\xfe2\t0.4\tPASS\t0.1\n", 2),
        "after crlf": (parse_scores, b"t1\t0.5\tPASS\t0.1\r\nt2\t0.4\tPASS\t0.1\r\n\xff\n", 3),
        "after lone cr": (parse_scores, b"t1\t0.5\tPASS\t0.1\rt2\t0.4\tPASS\t0.1\r\xff", 3),
        "mixed breaks and blanks": (parse_phrases, b"p1\ta\r\n\r\n\rp2\tb\n\np3\t\xff", 6),
        "truncated sequence at end": (parse_phrases, b"p1\topen\np2\t\xd8", 2),
        "byte before a far bad line": (
            parse_scores,
            b"t1\t0.5\tPASS\t0.1\nt\xff2\t0.5\tPASS\t0.1\n" + _FAR_SCORES + b"t9\t0.5\tPASS\n",
            2,
        ),
        "past the first buffer": (
            parse_trials,
            b"".join(b"t%d\tm1\tu1\tTC\n" % i for i in range(20000)) + b"t\xff\tm1\tu1\n",
            20001,
        ),
    }

    @pytest.mark.parametrize("case", sorted(READERS))
    def test_names_line_of_first_bad_byte(self, tmp_path, case):
        reader, raw, line = self.READERS[case]
        path = tmp_path / "f.tsv"
        path.write_bytes(raw)
        offset = next(i for i, b in enumerate(raw) if b >= 0x80)
        with pytest.raises(MalformedLine) as exc_info:
            reader(path)
        assert str(exc_info.value) == f"{path}:{line}: not valid UTF-8 at byte offset {offset}"
        assert exc_info.value.line_no == line

    # A bad line and a later undecodable byte: the bad line is reported,
    # however far the byte lies (past the first decode buffer or not).
    FIRST_BAD_LINE = {
        "trials, byte on the next line": (
            parse_trials,
            b"t1\tm1\tu1\tTC\nt2\tm1\nt\xff3\tm1\tu1\tTC\n",
            "2: expected 3 or 4 tab-separated fields, got 2",
        ),
        "trials, far byte": (
            parse_trials,
            b"t1\tm1\tu1\nt2\tm1\n" + _FAR_TRIALS.replace(b"\tTC", b"") + b"t\xff\tm1\tu1\n",
            "2: expected 3 or 4 tab-separated fields, got 2",
        ),
        "labeled trials, far byte": (
            parse_trials,
            b"t1\tm1\tu1\tTC\nt2\tm1\n" + _FAR_TRIALS + b"t\xff\tm1\tu1\tTC\n",
            "2: expected 3 or 4 tab-separated fields, got 2",
        ),
        "scores, far byte": (
            parse_scores,
            b"t1\t0.5\tPASS\t0.1\nt2\t0.5\tPASS\n" + _FAR_SCORES + b"t\xff\t0.5\tPASS\t0.1\n",
            "2: expected 4 tab-separated fields, got 3",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FIRST_BAD_LINE))
    def test_first_bad_line_wins(self, tmp_path, case):
        reader, raw, tail = self.FIRST_BAD_LINE[case]
        path = tmp_path / "f.tsv"
        path.write_bytes(raw)
        with pytest.raises(MalformedLine) as exc_info:
            reader(path)
        assert str(exc_info.value) == f"{path}:{tail}"


# Per reader: a valid file (a trial list that mixes labeled and unlabeled
# lines, which the bulk check refuses), one with a bad line and one with a
# byte that is not UTF-8.
_READ_ONCE = {
    "embeddings": (
        parse_embeddings,
        [b"#dim 2\nu1\t1 2\r\n\nu2\t3 4\r", b"#dim 2\nu1\t1 2\nu2\t3\n", b"#dim 2\nu\xff\t1 2\n"],
    ),
    "trials": (
        parse_trials,
        [b"t1\tm1\tu1\tTC\nt2\tm1\tu2\n", b"t1\tm1\tu1\tTC\nt2\tm1\tu2\tZZ\n", b"t1\tm1\tu\xfe\n"],
    ),
    "scores": (
        parse_scores,
        [b"t1\t0.5\tPASS\t0\r\n", b"t1\t0.5\tPASS\t0\nt2\tx\tPASS\t0\n", b"t\xff\t0.5\tPASS\t0\n"],
    ),
    "phrases": (parse_phrases, [b"p1\topen\rp2\tshut\n", b"p1\topen\np2\n", b"p1\t\xc3\n"]),
    "transcripts": (parse_transcripts, [b"u1\t\nu2\tb\n", b"u1\ta\nu1\tb\n", b"u1\t\xc3(\n"]),
    "enrollmap": (
        parse_enrollmap,
        [b"m1\tp1\tr1,r2,r3\n", b"m1\tp1\tr1,r2\n", b"m1\tp1\tr1,r\x802,r3\n"],
    ),
}
_KINDS = ("valid", "bad line", "bad byte")


def _read(parse, path):
    """(None, parse(path)), or its (error class, message), the path named
    <path>."""
    try:
        return None, parse(path)
    except TdsvError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("fmt", _READ_ONCE)
def test_pipe_reads_as_the_file(tmp_path, fmt, kind):
    # a pipe, which can be read once, gives what the file gives
    parse, contents = _READ_ONCE[fmt]
    content = contents[_KINDS.index(kind)]
    path = tmp_path / "f.tsv"
    path.write_bytes(content)
    expected = _read(parse, path)
    assert (expected[0] is None) == (kind == "valid")
    with piped(content) as pipe:
        assert _read(parse, pipe) == expected


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("fmt", ["trials", "scores", "phrases", "transcripts", "enrollmap"])
def test_text_reader_opens_its_path_once(tmp_path, monkeypatch, fmt, kind):
    parse, contents = _READ_ONCE[fmt]
    path = tmp_path / "f.tsv"
    path.write_bytes(contents[_KINDS.index(kind)])
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(tsvio, "open", counted, raising=False)
    _read(parse, path)
    assert opened == [path]


# Per writer: a builder of what it would write with a lone surrogate (as
# surrogateescape decodes a stray byte) after a valid row, and the field
# the error names. No such record can be built, so no writer opens its file
# to write one.
_BAD = "x\udcff"
_UNWRITABLE = {
    "embeddings": (lambda: embedding_table({"ok": [1.0], _BAD: [2.0]}), "embedding id"),
    "trials": (lambda: trial_table([("t1", "m", "u"), ("t2", "m", _BAD)]), "test_id"),
    "scores": (
        lambda: _score_columns(("t1", 0.5, True, 0.0), (_BAD, 0.5, True, 0.0)), "trial_id"
    ),
    "transcripts": (lambda: {"u": Transcript("ok"), "v": Transcript(_BAD)}, "text"),
    "phrases": (lambda: {"p": Phrase("ok"), "q": Phrase(_BAD)}, "text"),
    "enrollmap": (
        lambda: {"m1": EnrollEntry("p", ("a", "b", "c")), "m2": EnrollEntry("p", ("a", _BAD, "c"))},
        "rep_id",
    ),
}


@pytest.mark.parametrize("writer", sorted(_UNWRITABLE))
def test_writer_checks_encoding_before_it_opens_the_file(writer):
    build, what = _UNWRITABLE[writer]
    with pytest.raises(ValueError, match=f"^{what} 'x\\\\udcff' cannot be encoded as UTF-8$"):
        build()


# Per writer of a format keyed by id (id -> record, the key its record's
# only id): a record, the writer, and the name the error gives the key.
_KEYED = {
    "transcripts": (Transcript("x"), write_transcripts, "utt_id"),
    "phrases": (Phrase("x"), write_phrases, "phrase_id"),
    "enrollmap": (EnrollEntry("p", ("a", "b", "c")), write_enrollmap, "model_id"),
}


@pytest.mark.parametrize("fmt", sorted(_KEYED))
def test_writer_refuses_a_bad_key_before_it_opens_the_file(tmp_path, monkeypatch, fmt):
    # A mapping cannot repeat a key, so what the writer checks is that each
    # key is an id: check_token's refusal, raised before output_file runs.
    record, write, what = _KEYED[fmt]
    path = tmp_path / "f.tsv"
    path.write_bytes(b"old\n")
    monkeypatch.setattr(tsvio, "output_file", lambda path: pytest.fail("the file was opened"))
    for key in (5, None, b"k", "", "a\tb", "a\nb", "a\rb", _BAD):
        with pytest.raises(ValueError) as expected:
            check_token(key, what)
        with pytest.raises(ValueError) as refused:
            write({"ok": record, key: record}, path)
        assert str(refused.value) == str(expected.value)
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["f.tsv"]


class TestDetFormat:
    def test_header_and_rows(self, tmp_path):
        points = ErrorRates(
            np.array([-1.0, 2.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])
        )
        path = tmp_path / "d.tsv"
        write_det(points, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#p_miss\tp_fa\tthreshold"
        assert lines[1] == "0.000000\t1.000000\t-1.000000"
        assert lines[2] == "1.000000\t0.000000\t2.000000"

    def test_empty_points(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_det(ErrorRates(np.empty(0), np.empty(0), np.empty(0)), path)
        assert path.read_text(encoding="utf-8") == "#p_miss\tp_fa\tthreshold\n"

    @staticmethod
    def written_by(monkeypatch, tmp_path, points):
        """(the bytes write_det writes for points, whether it wrote them by
        _write_rows), after checking them against write_det_ref's."""
        calls = []

        def rows(*args):
            calls.append(args)
            return write_rows(*args)

        write_rows = tsvio._write_rows
        monkeypatch.setattr(tsvio, "_write_rows", rows)
        fast, ref = tmp_path / "fast.tsv", tmp_path / "ref.tsv"
        write_det(points, fast)
        write_det_ref(points, ref)
        assert fast.read_bytes() == ref.read_bytes()
        return fast.read_bytes(), bool(calls)

    @pytest.mark.parametrize(
        "columns",
        [
            [[0.5, np.nan], [0.25, 0.0], [0.0, 1.0]],
            [[0.5, 0.0], [np.inf, 0.0], [0.0, 1.0]],
            [[0.5, 0.0], [0.25, 0.0], [-1.0, -np.inf]],
            [[0.5, 0.0], [0.25, 0.0], [-1.0, 1e300]],
            [[0.5, 0.0], [0.25, 0.0], [-1.0, 999.9999996]],  # rounds to 1000.000000
            [np.array([3, -7]), [0.25, 0.0], [-1.0, 2.0]],
            [[0.5, 0.0], np.array([True, False]), [-1.0, 2.0]],
            [np.array([0, 1]), np.array([1, 0]), np.array([False, True])],
        ],
    )
    def test_points_out_of_the_kernel_range_are_written_by_one_percent(
        self, tmp_path, monkeypatch, columns
    ):
        points = ErrorRates(*map(np.asarray, columns))
        _, fallback = self.written_by(monkeypatch, tmp_path, points)
        assert fallback

    @pytest.mark.parametrize(
        "lengths", [(0, 0, 0), (3, 5, 4), (5, 0, 2), (1, 1, 7), (9000, 8200, 8193)]
    )
    def test_unequal_and_empty_columns_write_the_shortest_length(
        self, tmp_path, monkeypatch, lengths
    ):
        rng = np.random.default_rng(sum(lengths))
        points = ErrorRates(*[rng.uniform(-2.0, 2.0, n) for n in lengths])
        text, fallback = self.written_by(monkeypatch, tmp_path, points)
        assert text.count(b"\n") == 1 + min(lengths)
        assert not fallback

    def test_seeded_sweep_points_match_the_row_by_row_writer(self, tmp_path, monkeypatch):
        # scores at 6 decimals, as a score file holds them: every threshold
        # between two of them is a tie candidate at the 7th decimal
        rng = np.random.default_rng(40_000)
        targets = np.round(rng.normal(0.4, 0.3, 20_000), 6)
        nontargets = np.round(rng.normal(-0.2, 0.3, 60_000), 6)
        points = det_points(sweep(targets, nontargets))
        assert len(points) >= 40_000
        text, fallback = self.written_by(monkeypatch, tmp_path, points)
        assert text.count(b"\n") == 1 + len(points)
        assert not fallback

    def test_points_in_range_do_not_need_the_percent_writer(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("_write_rows called")

        monkeypatch.setattr(tsvio, "_write_rows", refuse)
        points = ErrorRates(np.array([-2.0, 0.5, 999.5]), np.array([0.0, 0.5, 1.0]),
                            np.array([1.0, 1 / 3, -0.0]))
        path = tmp_path / "d.tsv"
        write_det(points, path)
        assert path.read_bytes() == (
            b"#p_miss\tp_fa\tthreshold\n0.000000\t1.000000\t-2.000000\n"
            b"0.500000\t0.333333\t0.500000\n1.000000\t-0.000000\t999.500000\n"
        )


class TestWriteDataset:
    def test_fixed_names_and_roundtrip(self, tmp_path):
        cfg = SimConfig(
            n_speakers=4,
            n_phrases=3,
            spaces=(SpaceSpec("a", 8, 0.1), SpaceSpec("b", 12, 0.0)),
            trials_per_type=3,
            transcript_error_rate_wrong=0.2,
            master_seed=77,
        )
        ds = gen_dataset(cfg)
        paths = write_dataset(ds, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "embeddings_a.tsv",
            "embeddings_b.tsv",
            "enrollmap.tsv",
            "phrases.tsv",
            "transcripts.tsv",
            "trials.tsv",
        ]
        assert trial_rows(parse_trials(paths["trials"])) == trial_rows(ds.trials)
        assert parse_enrollmap(paths["enrollmap"]) == ds.enroll_entries
        parsed_phrases = parse_phrases(paths["phrases"])
        assert {k: v.text for k, v in parsed_phrases.items()} == {
            k: v.text for k, v in ds.phrases.items()
        }
        parsed_tr = parse_transcripts(paths["transcripts"])
        assert {k: v.text for k, v in parsed_tr.items()} == {
            k: v.text for k, v in ds.transcripts.items()
        }
        for name, dim in (("a", 8), ("b", 12)):
            table, parsed_dim = parse_embeddings(paths[f"embeddings_{name}"])
            assert parsed_dim == dim
            assert table == ds.embeddings[name]


class _DiskFull:
    """A text file that raises ENOSPC, as a full disk does, once more than
    limit characters have been written to it."""

    def __init__(self, file, limit):
        self._file, self._left = file, limit

    def write(self, text):
        self._left -= len(text)
        if self._left < 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._file.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()


# Per writer: a call that writes some 400 characters or more to a path.
_WRITES = {
    "embeddings": lambda path: write_embeddings(
        embedding_table({f"u{i}": [i / 7, 1.0] for i in range(20)}), path
    ),
    "trials": lambda path: write_trials(
        trial_table([(f"t{i}", "m", "u") for i in range(40)]), path
    ),
    "scores": lambda path: write_scores(
        _score_columns(*[(f"t{i}", 0.5, True, 0.0) for i in range(20)]), path
    ),
    "det": lambda path: write_det(ErrorRates(*[np.zeros(20)] * 3), path),
    "phrases": lambda path: write_phrases({f"p{i}": Phrase("open it") for i in range(40)}, path),
    "transcripts": lambda path: write_transcripts(
        {f"u{i}": Transcript("open it") for i in range(40)}, path
    ),
    "enrollmap": lambda path: write_enrollmap(
        {f"m{i}": EnrollEntry("p", ("a", "b", "c")) for i in range(40)}, path
    ),
}


class TestOutputFile:
    """Every writer goes through tsvio.output_file: its path holds either
    what it held before or all of the new bytes, and no other file is left
    beside it."""

    @staticmethod
    def disk_full(monkeypatch, limit):
        """Make the text files the writers open raise ENOSPC past limit characters."""

        def full(file, mode="r", **kwargs):
            return _DiskFull(open(file, mode, **kwargs), limit) if "w" in mode else open(
                file, mode, **kwargs
            )

        monkeypatch.setattr(tsvio, "open", full, raising=False)

    @pytest.mark.parametrize("existed", [True, False])
    @pytest.mark.parametrize("fmt", sorted(_WRITES))
    def test_writer_that_fails_partway_leaves_the_earlier_file(
        self, tmp_path, monkeypatch, fmt, existed
    ):
        path = tmp_path / "f.tsv"
        if existed:
            path.write_bytes(b"old\n")
        self.disk_full(monkeypatch, 100)
        with pytest.raises(OSError, match="No space left"):
            _WRITES[fmt](path)
        assert os.listdir(tmp_path) == (["f.tsv"] if existed else [])
        if existed:
            assert path.read_bytes() == b"old\n"

    @pytest.mark.skipif(
        not tsvio._splits(tsvio._SPLIT_BYTES), reason="no two-process path on this host"
    )
    def test_split_embedding_writer_that_fails_partway(self, tmp_path, monkeypatch):
        path = tmp_path / "e.tsv"
        path.write_bytes(b"old\n")
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
        self.disk_full(monkeypatch, 100)
        with pytest.raises(OSError, match="No space left"):
            _WRITES["embeddings"](path)
        assert os.listdir(tmp_path) == ["e.tsv"] and path.read_bytes() == b"old\n"
        _no_child_left()

    @pytest.mark.parametrize("fmt", sorted(_WRITES))
    def test_file_gets_the_mode_open_gives(self, tmp_path, fmt):
        # a new file 0o666 less the umask, an existing one its own mode
        umask = os.umask(0o022)
        os.umask(umask)
        new, old = tmp_path / "new.tsv", tmp_path / "old.tsv"
        old.write_bytes(b"old\n")
        old.chmod(0o640)
        for path in (new, old):
            _WRITES[fmt](path)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert old.read_bytes() == new.read_bytes() != b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["new.tsv", "old.tsv"]

    @pytest.mark.parametrize("fmt", sorted(_WRITES))
    def test_symlink_keeps_pointing_at_the_new_bytes(self, tmp_path, fmt):
        plain, target, link = tmp_path / "plain.tsv", tmp_path / "target.tsv", tmp_path / "link"
        _WRITES[fmt](plain)
        target.write_bytes(b"old\n")
        link.symlink_to(target.name)
        _WRITES[fmt](link)
        assert link.is_symlink() and target.read_bytes() == plain.read_bytes()
        target.unlink()  # a dangling link: the file it names is made
        _WRITES[fmt](link)
        assert link.is_symlink() and target.read_bytes() == plain.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["link", "plain.tsv", "target.tsv"]

    @pytest.mark.parametrize("fmt", sorted(_WRITES) + ["embeddings in two processes"])
    def test_fifo_is_written_in_place(self, tmp_path, monkeypatch, fmt):
        if fmt not in _WRITES:
            if not tsvio._splits(tsvio._SPLIT_BYTES):
                pytest.skip("no two-process path on this host")
            monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
            fmt = "embeddings"
        _WRITES[fmt](tmp_path / "plain.tsv")
        with drained() as (fifo, got):
            _WRITES[fmt](fifo)
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == [(tmp_path / "plain.tsv").read_bytes()]

    @pytest.mark.parametrize("fails", ["chmod", "open", "open after wrapping"])
    def test_descriptor_is_closed_when_the_file_cannot_be_opened(
        self, tmp_path, monkeypatch, fails
    ):
        # the new file's descriptor is closed once, and the file unlinked,
        # when giving it the path's mode or opening it as text raises, also
        # when open fails after wrapping it (open then closes what it made);
        # the error raised is open's own
        path = tmp_path / "f.tsv"
        path.write_bytes(b"old\n")
        fds, real_open = [], os.open

        def os_open(*args, **kwargs):
            fds.append(real_open(*args, **kwargs))
            return fds[-1]

        def refuse(*args, **kwargs):
            if fails == "open after wrapping":
                open(*args, **kwargs).close()
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(tsvio.os, "open", os_open)
        if fails == "chmod":
            monkeypatch.setattr(tsvio.os, "chmod", refuse)
        else:
            monkeypatch.setattr(tsvio, "open", refuse, raising=False)
        with pytest.raises(OSError, match="Input/output error") as raised:
            with tsvio.output_file(path) as f:
                f.write("new\n")
        assert raised.value.errno == errno.EIO and raised.value.__context__ is None
        assert len(fds) == 1
        with pytest.raises(OSError) as exc:
            os.fstat(fds[0])
        assert exc.value.errno == errno.EBADF
        assert os.listdir(tmp_path) == ["f.tsv"] and path.read_bytes() == b"old\n"

    def test_process_whose_stdout_is_closed(self, tmp_path):
        # with no descriptor 1 to compare the path with (a job run as
        # `cmd >&-`), the path is written by temporary file and replace
        path = tmp_path / "f.tsv"
        path.write_bytes(b"old\n")
        before = path.stat().st_ino
        child = (
            "import os, sys\nfrom tdsvkit import tsvio\nos.close(1)\n"
            "with tsvio.output_file(sys.argv[1]) as f:\n    f.write('new\\n')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert path.read_bytes() == b"new\n" and path.stat().st_ino != before
        assert os.listdir(tmp_path) == ["f.tsv"]


def _outcome(path, parse=parse_embeddings):
    """(ids, value bytes) of parse(path), or its (error class, message)."""
    try:
        table, _ = parse(path)
    except TdsvError as exc:
        return type(exc), str(exc)
    return table.ids, table.matrix.tobytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def _exits_within(pid, seconds):
    """Whether child pid exits within seconds; it is reaped either way,
    killed first if it has not exited."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if os.waitpid(pid, os.WNOHANG)[0]:
            return True
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.parametrize("cpus, splits", [(None, False), (1, False), (2, True)])
def test_split_without_cpu_affinity(monkeypatch, cpus, splits):
    # a platform that can fork but has no sched_getaffinity (macOS): the
    # CPU count decides, and no count is one CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert tsvio._splits(tsvio._SPLIT_BYTES) is splits
    assert tsvio._splits(tsvio._SPLIT_BYTES - 1) is False


@pytest.mark.skipif(
    not tsvio._splits(tsvio._SPLIT_BYTES), reason="no two-process path on this host"
)
class TestSplitFiles:
    """Embedding files of at least _SPLIT_BYTES, read and written in two
    processes: the values, bytes and diagnostics of a read in one part, and
    no child process left behind on any path."""

    @pytest.fixture
    def path(self, tmp_path):
        """A file of 4,000 rows at dim 16, about 1.3 MB, written in two
        processes and checked against the value-by-value writer."""
        rng = np.random.default_rng(5)
        ids = [f"u{i}" for i in range(4000)]
        table = embedding_table(dict(zip(ids, rng.standard_normal((4000, 16)))))
        path, ref = tmp_path / "e.tsv", tmp_path / "ref.tsv"
        write_embeddings(table, path)
        write_embeddings_ref(table, ref)
        assert path.stat().st_size >= tsvio._SPLIT_BYTES
        assert path.read_bytes() == ref.read_bytes()
        assert parse_embeddings(path) == (table, 16)
        return path

    @pytest.fixture
    def parts(self, monkeypatch):
        """One entry per part this process parses: the number of ids it
        takes as the first part's, 0 for the first part or a whole file."""
        calls, real = [], tsvio._read_rows

        def spy(path, lines, dim, out, taken=()):
            calls.append(len(taken))
            return real(path, lines, dim, out, taken)

        monkeypatch.setattr(tsvio, "_read_rows", spy)
        return calls

    @pytest.fixture
    def forks(self, monkeypatch):
        """One entry per fork: whether the child's part was used."""
        calls, real = [], tsvio._in_two_parts

        def spy(first, second):
            parts = real(first, second)
            calls.append(parts[1] is not None)
            return parts

        monkeypatch.setattr(tsvio, "_in_two_parts", spy)
        return calls

    @staticmethod
    def whole(path, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(tsvio, "_splits", lambda size: False)
            return _outcome(path)

    def test_roundtrip(self, forks, path):
        assert forks == [True, True]  # the fixture's write and read
        _no_child_left()

    # Edits of the last row, which is in the child's part.
    ROW_EDITS = {
        "bad token": lambda row: row.rsplit(" ", 1)[0] + " zap",
        "non-finite value": lambda row: row.rsplit(" ", 1)[0] + " nan",
        "too few values": lambda row: row.rsplit(" ", 1)[0],
        "id of the first part": lambda row: "u7" + row[row.index("\t"):],
        "empty id": lambda row: row[row.index("\t"):],
        "byte not UTF-8": lambda row: row[:-3] + "\udcff" + row[-2:],
        # two lines to both readers, the first with one empty value
        "lone \\r after the tab": lambda row: row.replace("\t", "\t\r", 1),
    }

    @pytest.mark.parametrize("edit", ROW_EDITS)
    def test_bad_row_in_the_childs_part(self, path, monkeypatch, forks, parts, edit):
        # the child fails, or its ids repeat one of the first part's: this
        # process then reads the second part itself, the first part's ids
        # taken, and parses the first part once
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[-2] = self.ROW_EDITS[edit](lines[-2])
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogateescape")
        del parts[:]
        outcome = _outcome(path)
        assert isinstance(outcome[0], type) and issubclass(outcome[0], TdsvError)
        assert outcome[1].startswith(f"{path}:4001: ")
        assert len(parts) == 2 and parts[0] == 0 < parts[1]
        assert outcome == self.whole(path, monkeypatch)
        assert len(forks) == 1
        _no_child_left()

    # Layouts that text mode reads as the unedited file.
    FILE_EDITS = {
        "\\r\\n line ends": lambda text: text.replace("\n", "\r\n"),
        "lone \\r line ends": lambda text: text.replace("\n", "\r").replace("\r", "\n", 1),
        "lone \\r line ends, header included": lambda text: text.replace("\n", "\r"),
        "no final newline": lambda text: text[:-1],
        "one trailing blank line": lambda text: text + "\n",
        "blank lines": lambda text: text.replace("\n", "\n\n"),
    }

    @pytest.mark.parametrize("edit", FILE_EDITS)
    def test_layout_gives_the_unedited_table(self, path, monkeypatch, edit):
        expected = _outcome(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(self.FILE_EDITS[edit](text), encoding="utf-8", newline="")
        assert _outcome(path) == self.whole(path, monkeypatch) == expected
        _no_child_left()

    @pytest.mark.parametrize("edit", FILE_EDITS)
    def test_layout_read_without_the_scan(self, path, monkeypatch, forks, parts, edit):
        # each layout in two parts, the second the child's: this process
        # parses the first part only
        text = path.read_text(encoding="utf-8")
        path.write_text(self.FILE_EDITS[edit](text), encoding="utf-8", newline="")
        expected = self.whole(path, monkeypatch)
        del parts[:]
        assert _outcome(path) == expected
        assert (forks, parts) == ([True], [0])
        _no_child_left()

    def test_child_that_dies(self, path, tmp_path, monkeypatch, forks):
        real = tsvio._in_two_parts
        monkeypatch.setattr(
            tsvio, "_in_two_parts", lambda first, _: real(first, lambda: os._exit(3))
        )
        table, dim = parse_embeddings(path)
        again = tmp_path / "again.tsv"
        write_embeddings(table, again)
        assert forks == [False, False]
        assert again.read_bytes() == path.read_bytes()
        assert _outcome(path) == self.whole(path, monkeypatch)
        _no_child_left()

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_fork_warning_of_a_threaded_process(self, path, tmp_path, monkeypatch, forks, op):
        """Python 3.12+ warns in the parent of a fork of a process with
        threads, as numpy's OpenBLAS ones are; the split ignores that one
        warning, so under an "error" filter it neither fails nor falls back."""
        table, _ = parse_embeddings(path)
        real = os.fork

        def fork():
            pid = real()
            if pid:
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                    "may lead to deadlocks in the child.",
                    DeprecationWarning,
                    stacklevel=2,
                )
            return pid

        monkeypatch.setattr(tsvio.os, "fork", fork)
        again = tmp_path / "again.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if op == "read":
                assert parse_embeddings(path) == (table, 16)
            else:
                write_embeddings(table, again)
                assert again.read_bytes() == path.read_bytes()
        assert forks[-1] is True
        _no_child_left()

    def test_no_process_to_fork(self, path, tmp_path, monkeypatch, forks, parts):
        """A fork that fails leaves the child's part of the read and of the
        write to this process, which parses the first part once: same
        table, same bytes."""
        table, _ = parse_embeddings(path)

        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(tsvio.os, "fork", fork)
        del parts[:]
        assert parse_embeddings(path) == (table, 16)
        assert len(parts) == 2 and parts[0] == 0 < parts[1]
        again = tmp_path / "again.tsv"
        write_embeddings(table, again)
        assert again.read_bytes() == path.read_bytes()
        assert forks[1:] == [False, False]
        _no_child_left()

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_error_in_the_parent_just_after_the_fork(self, path, tmp_path, monkeypatch, op):
        """An error the fork raises in the parent once the child exists (an
        interrupt, a warning turned into an error) closes both pipe ends,
        so the child, whose pid the split never learns, exits on its own:
        the write's child fails to write its 650 kB instead of blocking."""
        table, _ = parse_embeddings(path)
        real_pipe, real_fork, ends, children = os.pipe, os.fork, [], []

        def pipe():
            ends.extend(real_pipe())
            return tuple(ends[-2:])

        def fork():
            pid = real_fork()
            if pid:
                children.append(pid)
                raise RuntimeError("after the fork")
            return pid

        monkeypatch.setattr(tsvio.os, "pipe", pipe)
        monkeypatch.setattr(tsvio.os, "fork", fork)
        with pytest.raises(RuntimeError, match="after the fork"):
            if op == "read":
                parse_embeddings(path)
            else:
                write_embeddings(table, tmp_path / "again.tsv")
        open_ends = [end for end in ends if _is_open(end)]
        exited = [_exits_within(pid, 10) for pid in children]
        for end in open_ends:
            os.close(end)
        assert (len(ends), len(children)) == (2, 1)
        assert (open_ends, exited) == ([], [True])
        _no_child_left()

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="the fork warning is new in Python 3.12")
    def test_split_read_and_write_print_nothing_in_dev_mode(self, path, tmp_path):
        """-X dev shows every DeprecationWarning, and numpy's threads run in
        the child; its stderr stays empty all the same."""
        child = (
            "import sys\nfrom tdsvkit import tsvio\n"
            "real, calls = tsvio._in_two_parts, []\n"
            "tsvio._in_two_parts = lambda *parts: calls.append(1) or real(*parts)\n"
            "table, dim = tsvio.parse_embeddings(sys.argv[1])\n"
            "tsvio.write_embeddings(table, sys.argv[2])\n"
            "print(len(calls))\n"
        )
        again = tmp_path / "again.tsv"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-c", child, str(path), str(again)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")
        assert again.read_bytes() == path.read_bytes()

    def test_interrupt_in_the_parent(self, path, monkeypatch):
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child that would outlast the call if not killed

        monkeypatch.setattr(tsvio, "_read_rows", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            parse_embeddings(path)
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_interrupt_in_the_wait_for_the_child(self, path, monkeypatch):
        # an interrupt in the parent's wait kills and reaps the child, and
        # closes both pipe ends, before it is raised
        real_pipe, real_fork, real_wait = os.pipe, os.fork, os.waitpid
        ends, children, waits = [], [], []

        def pipe():
            ends.extend(real_pipe())
            return tuple(ends[-2:])

        def fork():
            pid = real_fork()
            if pid:
                children.append(pid)
            return pid

        def waitpid(pid, options):
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return real_wait(pid, options)

        monkeypatch.setattr(tsvio.os, "pipe", pipe)
        monkeypatch.setattr(tsvio.os, "fork", fork)
        monkeypatch.setattr(tsvio.os, "waitpid", waitpid)
        with pytest.raises(KeyboardInterrupt):
            parse_embeddings(path)
        monkeypatch.undo()
        assert len(children) == 1 and waits == children * 2
        with pytest.raises(ChildProcessError):
            os.waitpid(children[0], os.WNOHANG)
        assert (len(ends), [end for end in ends if _is_open(end)]) == (2, [])

    def test_dim_too_large_for_its_rows(self, tmp_path, monkeypatch):
        # no mapping is asked for rows that a dim of 10**11 leaves no room
        # for: the first row's DimMismatch, as in one part
        path = _write(tmp_path / "e.tsv", "#dim 100000000000\n" + "u\t1 0\n" * 200_000)
        assert os.path.getsize(path) >= tsvio._SPLIT_BYTES
        sizes, real = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda fd, size: sizes.append(size) or real(fd, size))
        with pytest.raises(DimMismatch) as exc:
            parse_embeddings(path)
        assert str(exc.value) == f"{path}:2: expected 100000000000 values, got 2"
        assert sizes == [1]
        _no_child_left()

    # Inputs of 40 rows that a pipe gives as the file does, each with
    # whether the child's part comes back when the child is forked.
    PIPED = {
        "valid": ("", True),
        "bad row in the second part": ("u35\t1 zap\n", False),
        "id repeated across the parts": ("u3\t1 2\n", True),
        "byte not UTF-8": ("u\udcff\t1 2\n", False),
    }

    @pytest.mark.parametrize("fork", ["works", "fails"])
    @pytest.mark.parametrize("case", PIPED)
    def test_pipe_in_two_parts(self, tmp_path, monkeypatch, forks, case, fork):
        # a pipe is copied once to a temporary file and read as the file,
        # in two parts, the child opening the copy; the copy is gone after
        # the read returns or raises
        row, child_part_used = self.PIPED[case]
        rows = [f"u{i}\t{i} {i / 7!r}\n" for i in range(40)]
        if row:
            rows[35] = row
        content = "".join(["#dim 2\n", *rows]).encode(errors="surrogateescape")
        path = tmp_path / "e.tsv"
        path.write_bytes(content)
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
        expected = _read(parse_embeddings, path)
        assert (expected[0] is None) == (case == "valid")

        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if fork == "fails":
            monkeypatch.setattr(tsvio.os, "fork", no_fork)
        del forks[:]
        spool = tmp_path / "spool"
        spool.mkdir()
        with piped(content) as pipe:
            monkeypatch.setattr(tempfile, "tempdir", str(spool))
            assert _read(parse_embeddings, pipe) == expected
        assert forks == [fork == "works" and child_part_used]
        assert os.listdir(spool) == []
        _no_child_left()

    def test_line_after_the_rows_a_part_has_room_for(self, tmp_path, monkeypatch):
        # The second part, 5 rows of the fewest bytes a row can take and
        # then 'x\n', has room for 5 rows; the line after them is read too.
        monkeypatch.setattr(tsvio, "_SPLIT_BYTES", 0)
        rows = "".join(f"{c}\t1\n" for c in "abcdefghij")
        path = _write(tmp_path / "e.tsv", f"#dim 1\n{rows}x\n")
        with pytest.raises(MalformedLine, match=":12: expected"):
            parse_embeddings(path)
