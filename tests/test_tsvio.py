"""TSV parsers and writers: round-trips and per-line diagnostics."""

import numpy as np
import pytest

from tdsvkit import (
    BadHeader,
    BadLabel,
    BadRepCount,
    DimMismatch,
    DuplicateId,
    EnrollEntry,
    GateOutcome,
    MalformedLine,
    Phrase,
    ScoreRecord,
    SimConfig,
    SpaceSpec,
    Transcript,
    Trial,
    TrialLabel,
    UnparseableFloat,
    gen_dataset,
)
from tdsvkit.metrics import ErrorRates
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
        assert np.array_equal(table["u1"], [0.6, 0.8])

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        table = {f"u{i}": rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8)
                 for i in range(40)}
        path = tmp_path / "e.tsv"
        write_embeddings(table, 7, path)
        parsed, dim = parse_embeddings(path)
        assert dim == 7
        assert list(parsed) == list(table)  # order preserved
        for uid in table:
            assert np.array_equal(parsed[uid], table[uid])

    def test_skips_blank_lines(self, tmp_path):
        table, _ = parse_embeddings(
            _write(tmp_path / "e.tsv", "#dim 1\nu1\t0.5\n\nu2\t1.5\n\n")
        )
        assert list(table) == ["u1", "u2"]

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


class TestTrialsFormat:
    def test_labeled_and_unlabeled(self, tmp_path):
        path = _write(tmp_path / "t.tsv", "t1\tm1\tu1\tTW\nt2\tm1\tu2\n")
        trials = parse_trials(path)
        assert trials[0].label is TrialLabel.TW
        assert trials[1].label is None

    def test_roundtrip(self, tmp_path):
        trials = [
            Trial("t1", "m1", "u1", TrialLabel.TC),
            Trial("t2", "m2", "u2", None),
            Trial("t3", "m1", "u3", TrialLabel.IW),
        ]
        path = tmp_path / "t.tsv"
        write_trials(trials, path)
        assert parse_trials(path) == trials

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
            "p1": Phrase("p1", "hello there world"),
            "p2": Phrase("p2", "سلام بر همه"),
        }
        path = tmp_path / "p.tsv"
        write_phrases(phrases, path)
        parsed = parse_phrases(path)
        assert {k: v.text for k, v in parsed.items()} == {
            k: v.text for k, v in phrases.items()
        }

    def test_transcripts_allow_empty_text(self, tmp_path):
        transcripts = {"u1": Transcript("u1", ""), "u2": Transcript("u2", "a b")}
        path = tmp_path / "tr.tsv"
        write_transcripts(transcripts, path)
        parsed = parse_transcripts(path)
        assert parsed["u1"].text == ""
        assert parsed["u2"].text == "a b"

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
        entries = [
            EnrollEntry("m1", "p1", ("r1", "r2", "r3")),
            EnrollEntry("m2", "p2", ("r4", "r5", "r6")),
        ]
        path = tmp_path / "em.tsv"
        write_enrollmap(entries, path)
        parsed = parse_enrollmap(path)
        assert list(parsed.values()) == entries

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


class TestScoresFormat:
    def test_line_shape(self, tmp_path):
        records = [
            ScoreRecord("t1", 0.912345678, GateOutcome(True, 0.0)),
            ScoreRecord("t2", -1.0, GateOutcome(False, 0.91234)),
        ]
        path = tmp_path / "s.tsv"
        write_scores(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t1\t0.912346\tPASS\t0.0000"
        assert lines[1] == "t2\t-1.000000\tPUNITIVE\t0.9123"

    def test_roundtrip(self, tmp_path):
        records = [
            ScoreRecord("t1", 0.25, GateOutcome(True, 0.1)),
            ScoreRecord("t2", -1.0, GateOutcome(False, 1.5)),
        ]
        path = tmp_path / "s.tsv"
        write_scores(records, path)
        parsed = parse_scores(path)
        assert parsed.trial_ids == ["t1", "t2"]
        assert parsed.score.tolist() == pytest.approx([0.25, -1.0], abs=1e-6)
        assert parsed.passed.tolist() == [True, False]
        assert parsed.cer.tolist() == pytest.approx([0.1, 1.5], abs=1e-4)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.tsv"
        write_scores([], path)
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


class TestDetFormat:
    def test_header_and_rows(self, tmp_path):
        points = ErrorRates(
            np.array([-1.0, 2.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]), 2, 3
        )
        path = tmp_path / "d.tsv"
        write_det(points, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#p_miss\tp_fa\tthreshold"
        assert lines[1] == "0.000000\t1.000000\t-1.000000"
        assert lines[2] == "1.000000\t0.000000\t2.000000"

    def test_empty_points(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_det(ErrorRates(np.empty(0), np.empty(0), np.empty(0), 0, 0), path)
        assert path.read_text(encoding="utf-8") == "#p_miss\tp_fa\tthreshold\n"


class TestWriteDataset:
    def test_fixed_names_and_roundtrip(self, tmp_path):
        cfg = SimConfig(
            n_speakers=4,
            n_phrases=3,
            spaces=(SpaceSpec("a", 8, 0.1), SpaceSpec("b", 12, 0.0)),
            trials_per_type={label: 3 for label in TrialLabel},
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
        assert parse_trials(paths["trials"]) == ds.trials
        assert list(parse_enrollmap(paths["enrollmap"]).values()) == ds.enroll_entries
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
            assert set(table) == set(ds.embeddings[name])
            for uid in table:
                assert np.array_equal(table[uid], ds.embeddings[name][uid])
