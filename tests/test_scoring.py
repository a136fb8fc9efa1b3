"""Enrollment, fusion, and trial scoring through score_all."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import fused_cosine_ref
from tdsvkit import (
    DegenerateVector,
    DimensionMismatch,
    DuplicateId,
    EnrollEntry,
    EnrollmentModel,
    GateConfig,
    MissingModel,
    MissingPhrase,
    MissingSpace,
    MissingTranscript,
    Phrase,
    Transcript,
    Trial,
    TrialLabel,
    build_enrollment,
    enroll,
    score_all,
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


def _score_one(model, test_per_space, hyp_text, phrases, order=("a", "b")):
    """The record of trial t1 (model against test vectors u1) from a strict
    one-trial score_all run; hyp_text None leaves u1 without a transcript."""
    tables = {space: {"u1": vec} for space, vec in test_per_space.items()}
    transcripts = {} if hyp_text is None else {"u1": Transcript("u1", hyp_text)}
    run = score_all(
        [Trial("t1", model.model_id, "u1")], {model.model_id: model}, tables,
        transcripts, phrases, GateConfig(), list(order),
    )
    [record] = run.records
    return record


_PHRASES = {"p1": Phrase("p1", "open the door")}


def _model(*centroids):
    """Model m1 on phrase p1 with the given centroids in spaces a, b, ..."""
    return EnrollmentModel("m1", "p1", dict(zip("abc", map(np.asarray, centroids))))


class TestFuse:
    """Fusion as score_all computes it: the cosine of the concatenated
    per-space unit vectors."""

    def test_single_space_is_normalization(self):
        model = _model([0.6, 0.8])
        rec = _score_one(model, {"a": np.array([3.0, 4.0])}, "open the door", _PHRASES, ("a",))
        assert rec.score == pytest.approx(1.0, abs=1e-12)
        rec = _score_one(model, {"a": np.array([8.0, -6.0])}, "open the door", _PHRASES, ("a",))
        assert rec.score == pytest.approx(0.0, abs=1e-12)

    def test_two_spaces(self):
        # each block is normalized on its own: the plain concatenations
        # [1,0,0,1] and [1,0,0,2] would give 3/sqrt(10), not 1
        model = _model([1.0, 0.0], [0.0, 1.0])
        test = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}
        rec = _score_one(model, test, "open the door", _PHRASES)
        assert rec.score == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_block(self):
        model = _model([1.0, 0.0], [0.0, 1.0])
        test = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 0.0])}
        with pytest.raises(DegenerateVector):
            _score_one(model, test, "open the door", _PHRASES)

    def test_hand_identity_example(self):
        model = _model([1.0, 0.0], [0.0, 1.0])
        test = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])}
        rec = _score_one(model, test, "open the door", _PHRASES)
        assert rec.score == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_cosines_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            d1 = int(rng.integers(16, 513))
            d2 = int(rng.integers(16, 513))
            a1, a2 = rng.standard_normal(d1), rng.standard_normal(d1)
            b1, b2 = rng.standard_normal(d2), rng.standard_normal(d2)
            test = {"a": a2, "b": b2}
            rec = _score_one(_model(a1, b1), test, "open the door", _PHRASES)
            assert abs(rec.score - fused_cosine_ref([a1, b1], [a2, b2])) <= 1e-9


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
        model = build_enrollment(entry, tables, ["a", "b"])
        assert model.centroid_per_space["a"] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert model.centroid_per_space["b"] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_missing_space_table(self):
        tables, entry, _ = _tiny_world()
        with pytest.raises(MissingSpace, match="'c'"):
            build_enrollment(entry, tables, ["a", "c"])

    def test_missing_rep(self):
        tables, entry, _ = _tiny_world()
        del tables["b"]["r1"]
        with pytest.raises(MissingSpace, match="'r1'"):
            build_enrollment(entry, tables, ["a", "b"])

    def test_rep_count_pinned(self):
        with pytest.raises(ValueError):
            EnrollEntry("m1", "p1", ("r0", "r1"))
        with pytest.raises(ValueError):
            EnrollEntry("m1", "p1", ("r0", "r1", "r2", "r3"))


class TestScoreTrial:
    """One-trial runs of score_all."""

    def test_perfect_match_scores_one(self):
        tables, entry, phrases = _tiny_world()
        model = build_enrollment(entry, tables, ["a", "b"])
        test = {"a": model.centroid_per_space["a"], "b": model.centroid_per_space["b"]}
        rec = _score_one(model, test, "open the door", phrases)
        assert rec.gate.passed
        assert rec.score == pytest.approx(1.0, abs=1e-12)
        assert rec.score <= 1.0

    def test_gate_fail_is_punitive_exactly(self):
        tables, entry, phrases = _tiny_world()
        model = build_enrollment(entry, tables, ["a", "b"])
        test = {"a": tables["a"]["u1"], "b": tables["b"]["u1"]}
        bad = "completely different words"
        rec = _score_one(model, test, bad, phrases)
        assert not rec.gate.passed
        assert rec.score == -1.0
        # punitive scores ignore embedding content entirely
        test2 = {"a": tables["a"]["u1"] * 3.7, "b": -tables["b"]["u1"]}
        rec2 = _score_one(model, test2, bad, phrases)
        assert rec2.score == rec.score

    def test_mean_of_per_space_cosines(self):
        tables, entry, phrases = _tiny_world()
        model = build_enrollment(entry, tables, ["a", "b"])
        # centroids are [1,0] and [0,1]; pick tests with cosines 0.8 and 0.6
        test = {"a": np.array([0.8, 0.6]), "b": np.array([0.8, 0.6])}
        rec = _score_one(model, test, "open the door", phrases)
        assert rec.score == pytest.approx(0.7, abs=1e-9)

    def test_missing_phrase(self):
        tables, entry, _ = _tiny_world()
        model = build_enrollment(entry, tables, ["a", "b"])
        test = {"a": tables["a"]["u1"], "b": tables["b"]["u1"]}
        with pytest.raises(MissingPhrase, match="^trial 't1': phrase 'p1'"):
            _score_one(model, test, "x", {})

    def test_missing_transcript(self):
        tables, entry, phrases = _tiny_world()
        model = build_enrollment(entry, tables, ["a", "b"])
        test = {"a": tables["a"]["u1"], "b": tables["b"]["u1"]}
        with pytest.raises(MissingTranscript, match="^trial 't1': .*'u1'"):
            _score_one(model, test, None, phrases)

    def test_missing_test_space(self):
        tables, entry, phrases = _tiny_world()
        model = build_enrollment(entry, tables, ["a", "b"])
        with pytest.raises(MissingSpace, match="^trial 't1': .*'b'"):
            _score_one(model, {"a": tables["a"]["u1"]}, "open the door", phrases)


def _world_for_batch():
    tables, entry, phrases = _tiny_world()
    model_by_id = {"m1": build_enrollment(entry, tables, ["a", "b"])}
    transcripts = {"u1": Transcript("u1", "open the door")}
    return tables, model_by_id, transcripts, phrases


class TestScoreAll:
    def test_empty_input(self):
        tables, models, transcripts, phrases = _world_for_batch()
        run = score_all([], models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        assert run.records == [] and run.skipped == []

    def test_order_and_labels_preserved(self):
        tables, models, transcripts, phrases = _world_for_batch()
        transcripts["u1b"] = Transcript("u1b", "wrong phrase entirely")
        for space in tables:
            tables[space]["u1b"] = tables[space]["u1"]
        trials = [
            Trial("t1", "m1", "u1", TrialLabel.TC),
            Trial("t2", "m1", "u1b", TrialLabel.TW),
        ]
        run = score_all(trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        assert [r.trial_id for r in run.records] == ["t1", "t2"]
        assert run.records[0].label is TrialLabel.TC
        assert run.records[0].gate.passed
        assert not run.records[1].gate.passed
        assert run.records[1].score == -1.0

    def test_duplicate_trial_id(self):
        tables, models, transcripts, phrases = _world_for_batch()
        trials = [Trial("t1", "m1", "u1"), Trial("t1", "m1", "u1")]
        with pytest.raises(DuplicateId, match="trial 't1'"):
            score_all(trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        run = score_all(
            trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"],
            strict=False,
        )
        assert len(run.records) == 1
        assert run.skipped == [("t1", run.skipped[0][1])]
        assert run.skipped[0][1].startswith("DuplicateId")

    def test_missing_model_strict_names_trial(self):
        tables, models, transcripts, phrases = _world_for_batch()
        trials = [Trial("t9", "nope", "u1")]
        with pytest.raises(MissingModel) as exc_info:
            score_all(trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        assert "t9" in str(exc_info.value) and "nope" in str(exc_info.value)

    def test_lenient_skips_and_scores_rest(self):
        tables, models, transcripts, phrases = _world_for_batch()
        trials = [
            Trial("t1", "m1", "u1"),
            Trial("t2", "nope", "u1"),
            Trial("t3", "m1", "missing-utt"),
        ]
        run = score_all(
            trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"],
            strict=False,
        )
        assert [r.trial_id for r in run.records] == ["t1"]
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
        models = {
            "m1": build_enrollment(EnrollEntry("m1", "p1", reps), tables, ["a", "b"])
        }
        trials = []
        for i in range(50):
            uid = f"u{i}"
            for space in tables:
                tables[space][uid] = rng.standard_normal(8)
            text = "open the door" if i % 2 == 0 else "shut the window now"
            transcripts[uid] = Transcript(uid, text)
            trials.append(Trial(f"t{i}", "m1", uid))
        run = score_all(trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        for rec in run.records:
            assert -1.0 <= rec.score <= 1.0
            if not rec.gate.passed:
                assert rec.score == -1.0


class TestScoreRecord:
    def test_replace_label(self):
        tables, models, transcripts, phrases = _world_for_batch()
        run = score_all(
            [Trial("t1", "m1", "u1")], models, tables, transcripts, phrases,
            GateConfig(), ["a", "b"],
        )
        labeled = dataclasses.replace(run.records[0], label=TrialLabel.TC)
        assert labeled.label is TrialLabel.TC
        assert labeled.score == run.records[0].score


class TestBatchPath:
    def test_matches_fused_cosine_per_trial(self):
        rng = np.random.default_rng(34)
        order = ["a", "b", "c"]
        dims = {"a": 16, "b": 7, "c": 33}
        tables = {s: {} for s in order}
        phrases = {"p1": Phrase("p1", "open the door")}
        models, trials, transcripts = {}, [], {}
        for m in range(5):
            reps = tuple(f"m{m}r{i}" for i in range(3))
            for s in order:
                for rid in reps:
                    tables[s][rid] = rng.standard_normal(dims[s])
            models[f"m{m}"] = build_enrollment(EnrollEntry(f"m{m}", "p1", reps), tables, order)
        for i in range(60):
            uid = f"u{i}"
            for s in order:
                tables[s][uid] = rng.standard_normal(dims[s]) * rng.uniform(0.1, 10.0)
            text = "open the door" if i % 3 else "open the dour"
            transcripts[uid] = Transcript(uid, text)
            trials.append(Trial(f"t{i}", f"m{i % 5}", uid))
        run = score_all(trials, models, tables, transcripts, phrases, GateConfig(), order)
        assert len(run.records) == 60
        for trial, rec in zip(trials, run.records):
            model = models[trial.model_id]
            fused = fused_cosine_ref(
                [model.centroid_per_space[s] for s in order],
                [tables[s][trial.test_id] for s in order],
            )
            assert abs(rec.score - fused) <= 1e-12
            assert type(rec.score) is float

    def test_gate_runs_once_per_distinct_pair(self, monkeypatch):
        from tdsvkit import scoring

        calls = []
        real_gate = scoring.gate

        def counting_gate(hyp, phrase, cfg):
            calls.append((hyp.text, phrase.text))
            return real_gate(hyp, phrase, cfg)

        monkeypatch.setattr(scoring, "gate", counting_gate)
        tables, models, transcripts, phrases = _world_for_batch()
        for i, text in enumerate(["open the door", "open the door", "shut it", "shut it"]):
            uid = f"v{i}"
            transcripts[uid] = Transcript(uid, text)
            for space in tables:
                tables[space][uid] = tables[space]["u1"]
        trials = [Trial(f"t{i}", "m1", f"v{i}") for i in range(4)]
        run = score_all(trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        assert sorted(calls) == [("open the door", "open the door"), ("shut it", "open the door")]
        assert [r.gate.passed for r in run.records] == [True, True, False, False]

    def test_degenerate_test_vector_only_matters_when_gate_passes(self):
        tables, models, transcripts, phrases = _world_for_batch()
        for space in tables:
            tables[space]["z1"] = np.zeros(2)
            tables[space]["z2"] = np.zeros(2)
        transcripts["z1"] = Transcript("z1", "completely different words")
        transcripts["z2"] = Transcript("z2", "open the door")
        bad_first = [Trial("t1", "m1", "z2"), Trial("t2", "nope", "u1")]
        with pytest.raises(DegenerateVector) as exc_info:
            score_all(bad_first, models, tables, transcripts, phrases, GateConfig(), ["a", "b"])
        assert str(exc_info.value) == "trial 't1': cannot normalize vector with norm 0.000e+00"
        trials = [Trial("t0", "m1", "z1"), Trial("t1", "m1", "z2"), Trial("t2", "m1", "u1")]
        run = score_all(
            trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"],
            strict=False,
        )
        assert [(r.trial_id, r.score) for r in run.records][0] == ("t0", -1.0)
        assert [r.trial_id for r in run.records] == ["t0", "t2"]
        assert run.skipped == [
            ("t1", "DegenerateVector: cannot normalize vector with norm 0.000e+00")
        ]

    def test_dimension_mismatch(self):
        tables, models, transcripts, phrases = _world_for_batch()
        tables["a"]["u1"] = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="trial 't1': cosine of dim 4 against dim 5"):
            score_all(
                [Trial("t1", "m1", "u1")], models, tables, transcripts, phrases,
                GateConfig(), ["a", "b"],
            )

    def test_enroll_errors_stand_in_for_missing_model(self):
        tables, models, transcripts, phrases = _world_for_batch()
        build_error = MissingSpace("repetition 'r1' of model 'm2' missing from space 'b'")
        trials = [Trial("t1", "m2", "u1"), Trial("t2", "m1", "u1"), Trial("t3", "m2", "u1")]
        run = score_all(
            trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"],
            strict=False, enroll_errors={"m2": build_error},
        )
        reason = f"MissingSpace: {build_error}"
        assert run.skipped == [("t1", reason), ("t3", reason)]
        assert [r.trial_id for r in run.records] == ["t2"]
        with pytest.raises(MissingSpace, match="^trial 't1': repetition 'r1'"):
            score_all(
                trials, models, tables, transcripts, phrases, GateConfig(), ["a", "b"],
                enroll_errors={"m2": build_error},
            )

    def test_no_spaces_rejected(self):
        tables, models, transcripts, phrases = _world_for_batch()
        with pytest.raises(ValueError):
            score_all(
                [Trial("t1", "m1", "u1")], models, tables, transcripts, phrases,
                GateConfig(), [],
            )
