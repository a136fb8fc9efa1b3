"""Edit distance, CER, and the phrase gate."""

import math
import unicodedata

import numpy as np
import pytest

from tdsvkit import (
    ConfigInvalid,
    EmptyReference,
    GateConfig,
    Phrase,
    Transcript,
    cer,
    edit_distance,
    gate,
    normalize_text,
)

from oracles import edit_distance_ref

_MIXED = "abcdefgh ابپتثجچح xyz"


def _random_string(rng, max_len):
    n = int(rng.integers(0, max_len + 1))
    return "".join(_MIXED[int(rng.integers(len(_MIXED)))] for _ in range(n))


class TestEditDistance:
    def test_identical(self):
        assert edit_distance("abc", "abc") == 0

    def test_single_substitution(self):
        assert edit_distance("abc", "abd") == 1

    def test_delete_all(self):
        assert edit_distance("ab", "") == 2
        assert edit_distance("", "ab") == 2

    def test_classic(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_nfc_equivalence(self):
        composed = "café"
        decomposed = "café"
        assert composed != decomposed
        assert edit_distance(composed, decomposed) == 0

    def test_metric_properties(self):
        # symmetry, identity, triangle inequality, and length bounds over
        # random mixed-script triples
        rng = np.random.default_rng(21)
        for _ in range(1000):
            a = _random_string(rng, 20)
            b = _random_string(rng, 20)
            c = _random_string(rng, 20)
            dab = edit_distance(a, b)
            assert dab == edit_distance(b, a)
            assert edit_distance(a, a) == 0
            assert edit_distance(a, c) <= dab + edit_distance(b, c)
            na = len(unicodedata.normalize("NFC", a))
            nb = len(unicodedata.normalize("NFC", b))
            assert abs(na - nb) <= dab <= max(na, nb)

    def test_matches_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            a = _random_string(rng, 25)
            b = _random_string(rng, 25)
            assert edit_distance(a, b) == edit_distance_ref(a, b)


class TestCer:
    def test_identical(self):
        assert cer("hello", "hello") == 0.0

    def test_one_in_five(self):
        assert cer("hallo", "hello") == 0.2

    def test_empty_hypothesis(self):
        assert cer("", "ab") == 1.0

    def test_can_exceed_one(self):
        assert cer("aaaaaa", "ab") == 2.5

    def test_empty_reference(self):
        with pytest.raises(EmptyReference):
            cer("anything", "")
        with pytest.raises(EmptyReference):
            cer("anything", "   ")

    def test_trims_but_keeps_interior_spaces(self):
        assert cer("  ab cd  ", "ab cd") == 0.0
        assert cer("abcd", "ab cd") == 0.2


class TestGate:
    def test_pass_on_exact_match(self):
        out = gate(
            Transcript("hello world"),
            Phrase("hello world"),
            GateConfig(),
        )
        assert out.passed and out.cer == 0.0

    def test_fail_above_threshold(self):
        out = gate(
            Transcript("hallo"),
            Phrase("hello"),
            GateConfig(cer_threshold=0.1),
        )
        assert not out.passed
        assert out.cer == 0.2

    def test_boundary_inclusive(self):
        out = gate(
            Transcript("hallo"),
            Phrase("hello"),
            GateConfig(cer_threshold=0.2),
        )
        assert out.passed

    def test_threshold_zero_exact_only(self):
        cfg = GateConfig(cer_threshold=0.0)
        assert gate(Transcript("café"), Phrase("café"), cfg).passed
        assert not gate(Transcript("cafe"), Phrase("café"), cfg).passed

    def test_infinite_threshold_disables(self):
        hyp = Transcript("zzz")
        ref = Phrase("hello there")
        assert not gate(hyp, ref, GateConfig()).passed
        assert gate(hyp, ref, GateConfig(cer_threshold=math.inf)).passed

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            hyp = _random_string(rng, 15)
            ref = _random_string(rng, 15) or "x"
            if not normalize_text(ref):
                continue
            outcomes = [
                gate(Transcript(hyp), Phrase(ref), GateConfig(t)).passed
                for t in (0.0, 0.1, 0.3, 0.5, 1.0, 2.0)
            ]
            # once passing, stays passing as the threshold loosens
            assert outcomes == sorted(outcomes)


class TestConfigs:
    def test_gateconfig_defaults(self):
        cfg = GateConfig()
        assert cfg.cer_threshold == 0.3
        assert cfg.punitive_score == -1.0

    def test_bad_threshold(self):
        with pytest.raises(ConfigInvalid):
            GateConfig(cer_threshold=-0.1)
        with pytest.raises(ConfigInvalid):
            GateConfig(cer_threshold=float("nan"))
        with pytest.raises(ConfigInvalid, match="^cer_threshold must be >= 0, got x$"):
            GateConfig("x")

    def test_bad_punitive(self):
        with pytest.raises(ConfigInvalid):
            GateConfig(punitive_score=-0.5)
        with pytest.raises(ConfigInvalid):
            GateConfig(punitive_score=float("nan"))
        with pytest.raises(ConfigInvalid, match="finite"):
            GateConfig(punitive_score=float("-inf"))
        with pytest.raises(ConfigInvalid, match="^punitive_score .* got None$"):
            GateConfig(0.3, None)

    def test_punitive_below_floor_ok(self):
        assert GateConfig(punitive_score=-7.0).punitive_score == -7.0

    def test_phrase_requires_text(self):
        with pytest.raises(EmptyReference):
            Phrase("")
        with pytest.raises(EmptyReference):
            Phrase(" \t ")

    def test_transcript_may_be_empty(self):
        assert Transcript("").text == ""
