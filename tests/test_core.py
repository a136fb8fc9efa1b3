"""Vector primitives, shared domain types, and the cosine score."""

import numpy as np
import pytest

from oracles import trial_table
from tdsvkit import (
    LABEL_CODES,
    UNLABELED,
    DegenerateVector,
    DimensionMismatch,
    EnrollEntry,
    GateConfig,
    Phrase,
    Transcript,
    TrialColumns,
    TrialLabel,
    as_embedding,
    l2_normalize,
    score_all,
    split_scores,
)
from tdsvkit.core import check_token


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
    """score_all's scores of a one-space trial table with one row per
    (enrollment vector, test vector) pair. The enrollment vector serves as
    all three repetitions of its model, and every transcript passes the
    gate."""
    tables, entries, transcripts, rows = {"a": {}}, {}, {}, []
    for i, (enr, test) in enumerate(pairs):
        tables["a"][f"r{i}"], tables["a"][f"u{i}"] = np.asarray(enr), np.asarray(test)
        entries[f"m{i}"] = EnrollEntry(f"m{i}", "p", (f"r{i}",) * 3)
        transcripts[f"u{i}"] = Transcript(f"u{i}", "open")
        rows.append((f"t{i}", f"m{i}", f"u{i}"))
    phrases = {"p": Phrase("p", "open")}
    run = score_all(trial_table(rows), entries, tables, transcripts, phrases, GateConfig(), ["a"])
    return run.records.score.tolist()


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
