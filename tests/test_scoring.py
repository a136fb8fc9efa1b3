"""Enrollment, fusion, and trial scoring through score_all."""

import math
import re

import numpy as np
import pytest

from oracles import embedding_tables, fused_cosine_ref, trial_table
from tdsvkit import (
    DegenerateVector,
    DimensionMismatch,
    DuplicateId,
    LABEL_CODES,
    UNLABELED,
    EnrollEntry,
    GateConfig,
    MissingModel,
    MissingPhrase,
    MissingSpace,
    MissingTranscript,
    Phrase,
    Transcript,
    TrialLabel,
    UnlabeledRecords,
    build_enrollment,
    enroll,
    score_all,
    split_scores,
)


class TestEnroll:
    def test_identical_reps(self):
        c = enroll([[3.0, 4.0]] * 3)
        assert c == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_hand_arithmetic(self):
        c = enroll([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        expect = [2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)]
        assert c == pytest.approx(expect, abs=1e-12)
        assert c == pytest.approx([0.894427, 0.447214], abs=1e-6)

    def test_scale_invariant_per_rep(self):
        a = enroll([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = enroll([[5.0, 0.0], [0.0, 0.01], [300.0, 300.0]])
        assert a == pytest.approx(b, abs=1e-12)

    def test_cancellation_collapses(self):
        # three unit vectors at 120 degrees sum to zero exactly
        u1 = [1.0, 0.0]
        u2 = [-0.5, math.sqrt(3.0) / 2.0]
        u3 = [-0.5, -math.sqrt(3.0) / 2.0]
        with pytest.raises(DegenerateVector):
            enroll([u1, u2, u3])
        with pytest.raises(DegenerateVector):
            enroll([[1.0, 0.0], [-1.0, 0.0]])

    def test_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            enroll([[1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0]])

    def test_empty(self):
        with pytest.raises(DimensionMismatch):
            enroll([])

    def test_permutation_invariance_and_unit_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            dim = int(rng.integers(2, 65))
            reps = [rng.standard_normal(dim) for _ in range(3)]
            base = enroll(reps)
            assert abs(np.linalg.norm(base) - 1.0) <= 1e-9
            assert np.array_equal(base, enroll(reps))  # bit-stable re-run
            perm = enroll([reps[2], reps[0], reps[1]])
            assert perm == pytest.approx(base, abs=1e-12)


def _score_one(centroids, test_per_space, hyp_text, phrases, order=("a", "b")):
    """(score, gate passed) of trial t1 from a strict one-trial score_all
    run: model m1 on phrase p1, whose vector per space (centroids, in order)
    serves as all three of its repetitions, against the test vectors u1.
    hyp_text None leaves u1 without a transcript."""
    tables = {space: {"e1": np.asarray(vec)} for space, vec in zip(order, centroids)}
    for space, vec in test_per_space.items():
        tables[space]["u1"] = vec
    transcripts = {} if hyp_text is None else {"u1": Transcript("u1", hyp_text)}
    run = score_all(
        trial_table([("t1", "m1", "u1")]), {"m1": EnrollEntry("m1", "p1", ("e1",) * 3)},
        embedding_tables(tables), transcripts, phrases, GateConfig(),
    )
    [score], [passed] = run.records.score.tolist(), run.records.passed.tolist()
    return score, passed


_PHRASES = {"p1": Phrase("p1", "open the door")}


class TestFuse:
    """Fusion as score_all computes it: the cosine of the concatenated
    per-space unit vectors."""

    def test_single_space_is_normalization(self):
        for test, cosine in (([3.0, 4.0], 1.0), ([8.0, -6.0], 0.0)):
            test = {"a": np.array(test)}
            score, _ = _score_one([[0.6, 0.8]], test, "open the door", _PHRASES, ("a",))
            assert score == pytest.approx(cosine, abs=1e-12)

    def test_two_spaces(self):
        # each block is normalized on its own: the plain concatenations
        # [1,0,0,1] and [1,0,0,2] would give 3/sqrt(10), not 1
        test = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}
        score, _ = _score_one([[1.0, 0.0], [0.0, 1.0]], test, "open the door", _PHRASES)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_block(self):
        test = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 0.0])}
        with pytest.raises(DegenerateVector):
            _score_one([[1.0, 0.0], [0.0, 1.0]], test, "open the door", _PHRASES)

    def test_hand_identity_example(self):
        test = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])}
        score, _ = _score_one([[1.0, 0.0], [0.0, 1.0]], test, "open the door", _PHRASES)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_cosines_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            d1 = int(rng.integers(16, 513))
            d2 = int(rng.integers(16, 513))
            a1, a2 = rng.standard_normal(d1), rng.standard_normal(d1)
            b1, b2 = rng.standard_normal(d2), rng.standard_normal(d2)
            test = {"a": a2, "b": b2}
            score, _ = _score_one([a1, b1], test, "open the door", _PHRASES)
            assert abs(score - fused_cosine_ref([a1, b1], [a2, b2])) <= 1e-9


def _tiny_world():
    """Two spaces, one model enrolled on p1, plus matching test vectors."""
    tables = {
        "a": {
            "r0": np.array([1.0, 0.0]),
            "r1": np.array([1.0, 0.0]),
            "r2": np.array([1.0, 0.0]),
            "u1": np.array([0.8, 0.6]),
        },
        "b": {
            "r0": np.array([0.0, 1.0]),
            "r1": np.array([0.0, 1.0]),
            "r2": np.array([0.0, 1.0]),
            "u1": np.array([0.6, 0.8]),
        },
    }
    entry = EnrollEntry("m1", "p1", ("r0", "r1", "r2"))
    phrases = {"p1": Phrase("p1", "open the door")}
    return tables, entry, phrases


class TestBuildEnrollment:
    def test_happy_path(self):
        tables, entry, _ = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        assert len(centroids) == 2
        assert centroids[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert centroids[1] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_missing_rep(self):
        tables, entry, _ = _tiny_world()
        del tables["b"]["r1"]
        with pytest.raises(MissingSpace, match="'r1'"):
            build_enrollment(entry, embedding_tables(tables))

    def test_rep_count_pinned(self):
        with pytest.raises(ValueError):
            EnrollEntry("m1", "p1", ("r0", "r1"))
        with pytest.raises(ValueError):
            EnrollEntry("m1", "p1", ("r0", "r1", "r2", "r3"))


class TestScoreTrial:
    """One-trial runs of score_all."""

    def test_perfect_match_scores_one(self):
        tables, entry, phrases = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        score, passed = _score_one(centroids, dict(zip("ab", centroids)), "open the door", phrases)
        assert passed
        assert score == pytest.approx(1.0, abs=1e-12)
        assert score <= 1.0

    def test_gate_fail_is_punitive_exactly(self):
        tables, entry, phrases = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        test = {"a": tables["a"]["u1"], "b": tables["b"]["u1"]}
        bad = "completely different words"
        score, passed = _score_one(centroids, test, bad, phrases)
        assert not passed
        assert score == -1.0
        # punitive scores ignore embedding content entirely
        test2 = {"a": tables["a"]["u1"] * 3.7, "b": -tables["b"]["u1"]}
        assert _score_one(centroids, test2, bad, phrases) == (score, passed)

    def test_mean_of_per_space_cosines(self):
        tables, entry, phrases = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        # centroids are [1,0] and [0,1]; pick tests with cosines 0.8 and 0.6
        test = {"a": np.array([0.8, 0.6]), "b": np.array([0.8, 0.6])}
        score, _ = _score_one(centroids, test, "open the door", phrases)
        assert score == pytest.approx(0.7, abs=1e-9)

    def test_missing_phrase(self):
        tables, entry, _ = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        test = {"a": tables["a"]["u1"], "b": tables["b"]["u1"]}
        with pytest.raises(MissingPhrase, match="^trial 't1': phrase 'p1'"):
            _score_one(centroids, test, "x", {})

    def test_missing_transcript(self):
        tables, entry, phrases = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        test = {"a": tables["a"]["u1"], "b": tables["b"]["u1"]}
        with pytest.raises(MissingTranscript, match="^trial 't1': .*'u1'"):
            _score_one(centroids, test, None, phrases)

    def test_missing_test_space(self):
        tables, entry, phrases = _tiny_world()
        centroids = build_enrollment(entry, embedding_tables(tables))
        with pytest.raises(MissingSpace, match="^trial 't1': .*'b'"):
            _score_one(centroids, {"a": tables["a"]["u1"]}, "open the door", phrases)


def _world_for_batch():
    tables, entry, phrases = _tiny_world()
    transcripts = {"u1": Transcript("u1", "open the door")}
    return tables, {"m1": entry}, transcripts, phrases


class TestScoreAll:
    def test_empty_input(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        run = score_all(
            trial_table([]), entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
        )
        assert len(run.records) == 0 and run.labels.size == 0 and run.skipped == []

    def test_order_and_labels_preserved(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        transcripts["u1b"] = Transcript("u1b", "wrong phrase entirely")
        for space in tables:
            tables[space]["u1b"] = tables[space]["u1"]
        trials = trial_table([
            ("t1", "m1", "u1", "TC"),
            ("t2", "m1", "u1b", "TW"),
            ("t3", "m1", "u1"),
        ])
        run = score_all(
            trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
        )
        assert run.records.trial_ids == ["t1", "t2", "t3"]
        assert run.labels.dtype == np.int8
        assert run.labels.tolist() == [
            LABEL_CODES[TrialLabel.TC], LABEL_CODES[TrialLabel.TW], UNLABELED
        ]
        assert run.records.passed.tolist() == [True, False, True]
        assert run.records.score[1] == -1.0
        assert run.records.score[0] == run.records.score[2]
        with pytest.raises(UnlabeledRecords):
            split_scores(run.records.score, run.labels)
        targets, nontargets = split_scores(run.records.score[:2], run.labels[:2])
        assert targets.tolist() == [run.records.score[0]] and nontargets.tolist() == [-1.0]

    def test_duplicate_trial_id(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        trials = trial_table([("t1", "m1", "u1"), ("t1", "m1", "u1")])
        with pytest.raises(DuplicateId, match="trial 't1'"):
            score_all(
                trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            )
        run = score_all(
            trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            strict=False,
        )
        assert len(run.records) == 1
        assert run.skipped == [("t1", run.skipped[0][1])]
        assert run.skipped[0][1].startswith("DuplicateId")

    def test_missing_model_strict_names_trial(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        trials = trial_table([("t9", "nope", "u1")])
        with pytest.raises(MissingModel) as exc_info:
            score_all(
                trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            )
        assert "t9" in str(exc_info.value) and "nope" in str(exc_info.value)

    def test_lenient_skips_and_scores_rest(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        trials = trial_table([
            ("t1", "m1", "u1"),
            ("t2", "nope", "u1"),
            ("t3", "m1", "missing-utt"),
        ])
        run = score_all(
            trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            strict=False,
        )
        assert run.records.trial_ids == ["t1"]
        assert [tid for tid, _ in run.skipped] == ["t2", "t3"]
        assert run.skipped[0][1].startswith("MissingModel")
        assert run.skipped[1][1].startswith("MissingSpace")

    def test_scores_within_bounds(self):
        rng = np.random.default_rng(33)
        tables = {"a": {}, "b": {}}
        transcripts = {}
        phrases = {"p1": Phrase("p1", "open the door")}
        reps = ("r0", "r1", "r2")
        for space in tables:
            for rid in reps:
                tables[space][rid] = rng.standard_normal(8)
        entries = {"m1": EnrollEntry("m1", "p1", reps)}
        rows = []
        for i in range(50):
            uid = f"u{i}"
            for space in tables:
                tables[space][uid] = rng.standard_normal(8)
            text = "open the door" if i % 2 == 0 else "shut the window now"
            transcripts[uid] = Transcript(uid, text)
            rows.append((f"t{i}", "m1", uid))
        run = score_all(
            trial_table(rows), entries, embedding_tables(tables), transcripts, phrases,
            GateConfig(),
        )
        assert len(run.records) == 50
        for score, passed in zip(run.records.score.tolist(), run.records.passed.tolist()):
            assert -1.0 <= score <= 1.0
            if not passed:
                assert score == -1.0


class TestBatchPath:
    def test_matches_fused_cosine_per_trial(self):
        rng = np.random.default_rng(34)
        order = ["a", "b", "c"]
        dims = {"a": 16, "b": 7, "c": 33}
        tables = {s: {} for s in order}
        phrases = {"p1": Phrase("p1", "open the door")}
        entries, rows, transcripts = {}, [], {}
        for m in range(5):
            reps = tuple(f"m{m}r{i}" for i in range(3))
            for s in order:
                for rid in reps:
                    tables[s][rid] = rng.standard_normal(dims[s])
            entries[f"m{m}"] = EnrollEntry(f"m{m}", "p1", reps)
        for i in range(60):
            uid = f"u{i}"
            for s in order:
                tables[s][uid] = rng.standard_normal(dims[s]) * rng.uniform(0.1, 10.0)
            text = "open the door" if i % 3 else "open the dour"
            transcripts[uid] = Transcript(uid, text)
            rows.append((f"t{i}", f"m{i % 5}", uid))
        run = score_all(
            trial_table(rows), entries, embedding_tables(tables), transcripts, phrases,
            GateConfig(),
        )
        assert len(run.records) == 60
        assert run.records.score.dtype == np.float64
        for (_, model_id, test_id), score in zip(rows, run.records.score.tolist()):
            fused = fused_cosine_ref(
                build_enrollment(entries[model_id], embedding_tables(tables)),
                [tables[s][test_id] for s in order],
            )
            assert abs(score - fused) <= 1e-12

    def test_gate_runs_once_per_distinct_pair(self, monkeypatch):
        from tdsvkit import scoring

        calls = []
        real_gate = scoring.gate

        def counting_gate(hyp, phrase, cfg):
            calls.append((hyp.text, phrase.text))
            return real_gate(hyp, phrase, cfg)

        monkeypatch.setattr(scoring, "gate", counting_gate)
        tables, entries, transcripts, phrases = _world_for_batch()
        for i, text in enumerate(["open the door", "open the door", "shut it", "shut it"]):
            uid = f"v{i}"
            transcripts[uid] = Transcript(uid, text)
            for space in tables:
                tables[space][uid] = tables[space]["u1"]
        trials = trial_table((f"t{i}", "m1", f"v{i}") for i in range(4))
        run = score_all(
            trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
        )
        assert sorted(calls) == [("open the door", "open the door"), ("shut it", "open the door")]
        assert run.records.passed.tolist() == [True, True, False, False]

    def test_degenerate_test_vector_only_matters_when_gate_passes(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        for space in tables:
            tables[space]["z1"] = np.zeros(2)
            tables[space]["z2"] = np.zeros(2)
        transcripts["z1"] = Transcript("z1", "completely different words")
        transcripts["z2"] = Transcript("z2", "open the door")
        bad_first = trial_table([("t1", "m1", "z2"), ("t2", "nope", "u1")])
        with pytest.raises(DegenerateVector) as exc_info:
            score_all(
                bad_first, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            )
        assert str(exc_info.value) == "trial 't1': cannot normalize vector with norm 0.000e+00"
        trials = trial_table([("t0", "m1", "z1"), ("t1", "m1", "z2"), ("t2", "m1", "u1")])
        run = score_all(
            trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            strict=False,
        )
        assert run.records.score[0] == -1.0
        assert run.records.trial_ids == ["t0", "t2"]
        assert run.skipped == [
            ("t1", "DegenerateVector: cannot normalize vector with norm 0.000e+00")
        ]

    def test_overflowing_test_vector_is_degenerate(self):
        # its norm overflows; scoring it would divide a finite dot by inf
        tables, entries, transcripts, phrases = _world_for_batch()
        for space in tables:
            tables[space]["big"] = np.array([1e200, 1e200])
        transcripts["big"] = Transcript("big", "open the door")
        transcripts["big-wrong"] = Transcript("big-wrong", "completely different words")
        for space in tables:
            tables[space]["big-wrong"] = tables[space]["big"]
        trials = trial_table([("t0", "m1", "big-wrong"), ("t1", "m1", "big"), ("t2", "m1", "u1")])
        with pytest.raises(DegenerateVector, match="^trial 't1': .*norm overflows$"):
            score_all(
                trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            )
        run = score_all(
            trials, entries, embedding_tables(tables), transcripts, phrases, GateConfig(),
            strict=False,
        )
        assert run.records.trial_ids == ["t0", "t2"] and run.records.score[0] == -1.0
        assert run.skipped == [
            ("t1", "DegenerateVector: cannot normalize vector: its norm overflows")
        ]

    def test_build_error_order(self):
        # per space in the mapping's order, a missing repetition before a
        # degenerate one: m2's zero repetition in space a is reported before
        # its repetition missing from space b
        tables, entries, transcripts, phrases = _world_for_batch()
        tables["a"]["z"], tables["b"]["z"] = np.zeros(2), np.array([1.0, 0.0])
        tables["a"]["r9"] = np.array([1.0, 0.0])
        entries = {"m2": EnrollEntry("m2", "p1", ("r0", "z", "r9"))}
        trials = trial_table([("t1", "m2", "u1")])
        zero = "model 'm2' in space 'a': cannot normalize vector with norm 0.000e+00"
        missing = "repetition 'r9' of model 'm2' missing from space 'b'"
        for order, error, message in (
            ("ab", DegenerateVector, zero), ("ba", MissingSpace, missing),
        ):
            spaces = embedding_tables({space: tables[space] for space in order})
            args = trials, entries, spaces, transcripts, phrases, GateConfig()
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                score_all(*args)
            run = score_all(*args, strict=False)
            assert run.skipped == [("t1", f"{error.__name__}: {message}")]

    def test_build_errors_stand_in_for_missing_model(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        # m2 lacks a repetition in space b, m3 one in space a; m1 builds
        entries["m2"] = EnrollEntry("m2", "p1", ("r0", "r9", "r2"))
        entries["m3"] = EnrollEntry("m3", "p1", ("r8", "r1", "r2"))
        tables["a"]["r9"] = tables["a"]["r0"]
        build_error = "repetition 'r9' of model 'm2' missing from space 'b'"
        rows = [("t1", "m2", "u1"), ("t2", "m1", "u1"), ("t3", "m2", "u1")]
        run = score_all(
            trial_table(rows), entries, embedding_tables(tables), transcripts, phrases,
            GateConfig(),
            strict=False,
        )
        reason = f"MissingSpace: {build_error}"
        assert run.skipped == [("t1", reason), ("t3", reason)]
        assert run.records.trial_ids == ["t2"]
        # strict: the first build error in entry order, as it is, before any trial
        with pytest.raises(MissingSpace, match=f"^{build_error}$"):
            score_all(
                trial_table(rows[1:2]), entries, embedding_tables(tables), transcripts, phrases,
                GateConfig(),
            )

    def test_no_spaces_rejected(self):
        tables, entries, transcripts, phrases = _world_for_batch()
        with pytest.raises(ValueError):
            score_all(
                trial_table([("t1", "m1", "u1")]), entries, {}, transcripts, phrases,
                GateConfig(),
            )
