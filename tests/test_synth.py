"""Synthetic dataset generator: determinism, validity, statistics."""

import re
import string

import numpy as np
import pytest

from oracles import fused_cosine_ref, trial_rows
from tdsvkit import (
    LABEL_CODES,
    UNLABELED,
    ConfigInvalid,
    DimensionMismatch,
    GateConfig,
    SimConfig,
    SpaceSpec,
    TrialColumns,
    TrialLabel,
    cer,
    corrupt_transcript,
    derive_seed,
    gen_dataset,
    gen_speakers,
    gen_utterance,
    score_all,
    validate_labels,
)
from tdsvkit.core import normalize_rows


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "trial", 1, 2) == derive_seed(42, "trial", 1, 2)

    def test_sensitive_to_every_argument(self):
        base = derive_seed(42, "trial", 1, 2)
        assert derive_seed(43, "trial", 1, 2) != base
        assert derive_seed(42, "test", 1, 2) != base
        assert derive_seed(42, "trial", 2, 2) != base
        assert derive_seed(42, "trial", 1, 3) != base

    def test_range(self):
        for seed in (0, 1, 2**64 - 1):
            value = derive_seed(seed, "anything", 0)
            assert 0 <= value < 2**64

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_value_out_of_range_is_named(self, bad):
        with pytest.raises(ConfigInvalid, match=f"master_seed .* got {bad}$"):
            derive_seed(bad, "trial", 1)
        with pytest.raises(ConfigInvalid, match=f"index .* got {bad}$"):
            derive_seed(0, "trial", 1, bad)


class TestSpaceSpec:
    def test_valid(self):
        sp = SpaceSpec("alpha", 64, 0.05)
        assert sp.name == "alpha"

    def test_bad_names(self):
        for name in ("", "a b", "a:b", "a=b", "a\tb", "a/b"):
            with pytest.raises(ConfigInvalid):
                SpaceSpec(name, 8, 0.0)

    def test_bad_dim_and_sigma(self):
        with pytest.raises(ConfigInvalid):
            SpaceSpec("a", 1, 0.0)
        with pytest.raises(ConfigInvalid):
            SpaceSpec("a", 8, -0.1)
        with pytest.raises(ConfigInvalid):
            SpaceSpec("a", 8, float("inf"))
        for sigma in ("x", None):
            with pytest.raises(ConfigInvalid, match="noise_sigma"):
                SpaceSpec("a", 4, sigma)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.n_speakers == 50
        assert cfg.n_phrases == 10
        assert [sp.dim for sp in cfg.spaces] == [64, 64]
        assert cfg.trials_per_type == 10

    def test_field_validation(self):
        with pytest.raises(ConfigInvalid, match="n_speakers"):
            SimConfig(n_speakers=1)
        with pytest.raises(ConfigInvalid, match="n_phrases"):
            SimConfig(n_phrases=1)
        with pytest.raises(ConfigInvalid, match="spaces"):
            SimConfig(spaces=())
        with pytest.raises(ConfigInvalid, match="duplicate"):
            SimConfig(spaces=(SpaceSpec("a", 8, 0.0), SpaceSpec("a", 8, 0.0)))
        with pytest.raises(ConfigInvalid, match="trials_per_type"):
            SimConfig(trials_per_type=-1)
        with pytest.raises(ConfigInvalid, match="trials_per_type"):
            SimConfig(trials_per_type=2.5)
        with pytest.raises(ConfigInvalid, match="transcript_error_rate_correct"):
            SimConfig(transcript_error_rate_correct=1.5)
        with pytest.raises(ConfigInvalid, match="transcript_error_rate_wrong"):
            SimConfig(transcript_error_rate_wrong=-0.1)
        with pytest.raises(ConfigInvalid, match="master_seed"):
            SimConfig(master_seed=-1)
        with pytest.raises(ConfigInvalid, match="master_seed"):
            SimConfig(master_seed=2**64)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigInvalid, match="master_seed .* got True"):
            SimConfig(master_seed=True)
        with pytest.raises(ConfigInvalid, match="trials_per_type .* got False"):
            SimConfig(trials_per_type=False)

    @pytest.mark.parametrize("rate", ["0.1", None, float("nan")])
    def test_error_rate_must_be_a_number(self, rate):
        with pytest.raises(ConfigInvalid, match=f"transcript_error_rate_wrong .* got {rate!r}"):
            SimConfig(transcript_error_rate_wrong=rate)


class TestGenSpeakers:
    def test_deterministic(self):
        a = gen_speakers(4, 16, 7)
        b = gen_speakers(4, 16, 7)
        assert np.array_equal(a, b)

    def test_shape_and_norms(self):
        means = gen_speakers(5, 32, 0)
        assert means.shape == (5, 32)
        assert np.allclose(np.linalg.norm(means, axis=1), 1.0, atol=1e-9)

    def test_prefix_stable(self):
        # speaker i depends only on (seed, i), not on how many speakers exist
        assert np.array_equal(gen_speakers(3, 16, 7), gen_speakers(6, 16, 7)[:3])

    def test_high_dim_near_orthogonal(self):
        means = gen_speakers(46, 512, 3)
        cosines = []
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                cosines.append(abs(fused_cosine_ref([means[i]], [means[j]])))
        assert len(cosines) >= 1000
        assert np.mean(cosines) < 0.1

    def test_bad_args(self):
        with pytest.raises(ConfigInvalid):
            gen_speakers(0, 16, 0)
        with pytest.raises(ConfigInvalid):
            gen_speakers(3, 1, 0)
        with pytest.raises(ConfigInvalid, match="got -1$"):
            gen_speakers(3, 16, -1)


class TestGenUtterance:
    def test_sigma_zero_is_exact_copy(self):
        mean = gen_speakers(1, 16, 5)[0]
        utt = gen_utterance(mean, 0.0, 123)
        assert np.array_equal(utt, mean)
        utt[0] = 99.0  # returned array must be a copy
        assert mean[0] != 99.0

    def test_deterministic(self):
        mean = gen_speakers(1, 16, 5)[0]
        assert np.array_equal(gen_utterance(mean, 0.1, 9), gen_utterance(mean, 0.1, 9))
        assert not np.array_equal(
            gen_utterance(mean, 0.1, 9), gen_utterance(mean, 0.1, 10)
        )

    def test_unit_norm(self):
        mean = gen_speakers(1, 64, 5)[0]
        utt = gen_utterance(mean, 0.3, 1)
        assert abs(np.linalg.norm(utt) - 1.0) <= 1e-9

    def test_requires_unit_mean(self):
        with pytest.raises(ConfigInvalid):
            gen_utterance(np.array([3.0, 4.0]), 0.1, 0)
        with pytest.raises(ConfigInvalid):
            gen_utterance(np.array([1.0, 0.0]), -0.1, 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0])
    def test_bad_seed_is_named(self, sigma, seed):
        with pytest.raises(ConfigInvalid, match=f"seed .* got {seed!r}$"):
            gen_utterance(np.array([0.6, 0.8]), sigma, seed)

    @pytest.mark.parametrize("mean", [np.float64(1.0), np.array([[0.6, 0.8]])])
    def test_mean_must_be_one_vector(self, mean):
        shape = np.shape(mean)
        with pytest.raises(DimensionMismatch, match=f"got shape {re.escape(str(shape))}"):
            gen_utterance(mean, 0.5, 1)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_nan_mean_is_not_unit_norm(self, sigma):
        with pytest.raises(ConfigInvalid, match="unit norm"):
            gen_utterance(np.array([np.nan, 1.0]), sigma, 1)

    def test_small_sigma_concentrates_near_mean(self):
        # at sigma 0.05 and dim 64 the cosine to the mean stays high; the
        # bounds here were measured, with margin, over many seeds
        mean = gen_speakers(1, 64, 2)[0]
        cosines = [
            fused_cosine_ref([gen_utterance(mean, 0.05, derive_seed(2, "mc", k))], [mean])
            for k in range(1000)
        ]
        above = sum(1 for c in cosines if c > 0.9)
        assert above / len(cosines) >= 0.95
        assert np.mean(cosines) > 0.92


class TestCorruptTranscript:
    def test_rate_zero_unchanged(self):
        assert corrupt_transcript("hello world", 0.0, 1) == "hello world"

    def test_deterministic(self):
        a = corrupt_transcript("hello world", 0.5, 42)
        assert a == corrupt_transcript("hello world", 0.5, 42)

    def test_rate_one_with_disjoint_alphabet(self):
        # every character takes an edit and substitutions can never restore
        # the original, so the output is guaranteed to differ
        for k in range(50):
            out = corrupt_transcript("aaaa", 1.0, k, alphabet="xyz")
            assert out != "aaaa"
            assert cer(out, "aaaa") > 0

    def test_empirical_cer_tracks_rate(self):
        reference = "the quick brown fox"
        for rate in (0.1, 0.3, 0.5):
            total = 0.0
            for k in range(1000):
                out = corrupt_transcript(reference, rate, derive_seed(9, "c", k))
                total += cer(out, reference)
            assert abs(total / 1000 - rate) <= 0.1

    def test_bad_args(self):
        with pytest.raises(ConfigInvalid):
            corrupt_transcript("x", 1.5, 0)
        with pytest.raises(ConfigInvalid):
            corrupt_transcript("x", 0.5, 0, alphabet="")
        with pytest.raises(ConfigInvalid, match="rate .* got 'x'$"):
            corrupt_transcript("x", "x", 0)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigInvalid, match=f"seed .* got {seed}$"):
                corrupt_transcript("x", 0.5, seed)


def _small_cfg(**overrides):
    defaults = dict(
        n_speakers=6,
        n_phrases=4,
        spaces=(SpaceSpec("a", 16, 0.05), SpaceSpec("b", 16, 0.05)),
        trials_per_type=5,
        master_seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestGenDataset:
    def test_counts(self):
        ds = gen_dataset(_small_cfg())
        assert len(ds.trials) == 20
        assert len(ds.enroll_entries) == 6
        assert len(ds.phrases) == 4
        assert ds.trials.labels.dtype == np.int8
        for label in TrialLabel:
            assert np.count_nonzero(ds.trials.labels == LABEL_CODES[label]) == 5
        # embeddings per space: 3 reps per model plus one test utt per trial
        for name in ("a", "b"):
            assert len(ds.embeddings[name]) == 6 * 3 + 20

    def test_label_construction_audit(self):
        assert validate_labels(gen_dataset(_small_cfg())) == 20
        assert validate_labels(gen_dataset(_small_cfg(master_seed=99))) == 20

    def test_label_audit_names_the_first_wrong_label(self):
        ds = gen_dataset(_small_cfg())
        t = ds.trials
        for labels, given in ((np.roll(t.labels, 1), "TrialLabel.IW"), ([UNLABELED] * 20, "None")):
            ds.trials = TrialColumns(t.trial_ids, t.model_ids, t.test_ids, labels)
            message = f"trial 'trl00000' labeled {given} but construction says TrialLabel.TC"
            with pytest.raises(ValueError, match=f"^{message}$"):
                validate_labels(ds)

    def test_deterministic(self):
        d1 = gen_dataset(_small_cfg())
        d2 = gen_dataset(_small_cfg())
        assert d1.trials == d2.trials
        assert d1.enroll_entries == d2.enroll_entries
        assert {p: d1.phrases[p].text for p in d1.phrases} == {
            p: d2.phrases[p].text for p in d2.phrases
        }
        assert {u: d1.transcripts[u].text for u in d1.transcripts} == {
            u: d2.transcripts[u].text for u in d2.transcripts
        }
        for name in ("a", "b"):
            assert d1.embeddings[name].ids == d2.embeddings[name].ids
            assert d1.embeddings[name].matrix.tobytes() == d2.embeddings[name].matrix.tobytes()

    def test_seed_changes_content(self):
        d1 = gen_dataset(_small_cfg())
        d2 = gen_dataset(_small_cfg(master_seed=12))
        texts1 = [d1.phrases[p].text for p in sorted(d1.phrases)]
        texts2 = [d2.phrases[p].text for p in sorted(d2.phrases)]
        assert texts1 != texts2

    def test_scripts_alternate(self):
        ds = gen_dataset(_small_cfg())
        latin = ds.phrases["phr000"].text
        persian = ds.phrases["phr001"].text
        assert all(c.isascii() for c in latin)
        assert not any(c.isascii() and c != " " for c in persian)

    def test_transcripts_follow_spoken_phrase(self):
        # with zero error rates the transcript equals the actually-spoken
        # phrase: the enrolled one for TC/IC, a different one for TW/IW
        ds = gen_dataset(_small_cfg())
        enrolled = {e.model_id: e.phrase_id for e in ds.enroll_entries}
        for _, model_id, test_id, code in trial_rows(ds.trials):
            spoken = ds.utt_phrase[test_id]
            assert ds.transcripts[test_id].text == ds.phrases[spoken].text
            if list(TrialLabel)[code].same_phrase:
                assert spoken == enrolled[model_id]
            else:
                assert spoken != enrolled[model_id]

    def test_statistical_sanity_tc_above_ic(self):
        # at default noise the speaker signal dominates: mean TC cosine
        # beats mean IC cosine by a wide margin for every seed
        for seed in range(10):
            cfg = SimConfig(master_seed=seed)
            ds = gen_dataset(cfg)
            entries = {e.model_id: e for e in ds.enroll_entries}
            run = score_all(
                ds.trials, entries, ds.embeddings, ds.transcripts, ds.phrases,
                GateConfig(),
            )
            scores = run.records.score
            tc = scores[run.labels == LABEL_CODES[TrialLabel.TC]].mean()
            ic = scores[run.labels == LABEL_CODES[TrialLabel.IC]].mean()
            assert tc > ic + 0.3


class TestPerEntityContract:
    """gen_dataset seeds every generator of a run in one batch and makes each
    space's rows in one batch; every speaker mean, row, trial and transcript
    must still be what np.random.default_rng of its own sub-seed makes alone:
    the one-entity functions, or the picks as gen_dataset states them."""

    def test_every_speaker_mean_matches_its_own_draw(self):
        cfg = _small_cfg(spaces=(SpaceSpec("a", 67, 0.0), SpaceSpec("b", 2, 0.0)))
        ds = gen_dataset(cfg)
        for j, sp in enumerate(cfg.spaces):
            space_seed = derive_seed(cfg.master_seed, "space", j)
            means = gen_speakers(cfg.n_speakers, sp.dim, space_seed)
            for i, mean in enumerate(means):
                rng = np.random.default_rng(derive_seed(space_seed, "speaker", i))
                expected = normalize_rows(rng.standard_normal((1, sp.dim)))[0]
                assert mean.tobytes() == expected.tobytes(), (sp.name, i)
            # a noise-free space's rows are its speaker means
            table = ds.embeddings[sp.name]
            for utt_id, speaker in ds.utt_speaker.items():
                assert table.matrix[table.rows[utt_id]].tobytes() == means[speaker].tobytes()

    def test_every_trial_and_transcript_matches_its_own_generator(self):
        cfg = _small_cfg(
            trials_per_type=40,
            transcript_error_rate_correct=0.3,
            transcript_error_rate_wrong=0.6,
        )
        ds = gen_dataset(cfg)
        seed, n, n_phrases = cfg.master_seed, cfg.n_speakers, cfg.n_phrases
        phrase_ids = sorted(ds.phrases)
        alphabet = "".join(
            sorted(set(string.ascii_letters).union(*(p.text for p in ds.phrases.values())))
        )
        changed = 0
        for row, (model_id, test_id) in enumerate(zip(ds.trials.model_ids, ds.trials.test_ids)):
            li, t = divmod(row, cfg.trials_per_type)
            label = list(TrialLabel)[li]
            rng = np.random.default_rng(derive_seed(seed, "trial", li, t))
            mi = int(rng.integers(n))
            si = mi if label.same_speaker else (mi + 1 + int(rng.integers(n - 1))) % n
            pi = mi % n_phrases
            if not label.same_phrase:
                pi = (pi + 1 + int(rng.integers(n_phrases - 1))) % n_phrases
            assert (model_id, ds.utt_speaker[test_id]) == (f"mdl{mi:04d}", si), row
            assert ds.utt_phrase[test_id] == phrase_ids[pi], row
            rate = (
                cfg.transcript_error_rate_correct
                if label.same_phrase
                else cfg.transcript_error_rate_wrong
            )
            spoken = ds.phrases[phrase_ids[pi]].text
            expected = corrupt_transcript(
                spoken, rate, derive_seed(seed, "transcript", li, t), alphabet
            )
            assert ds.transcripts[test_id].text == expected, row
            changed += expected != spoken
        assert changed > len(ds.trials) // 2  # the corruption draws are exercised

    def test_every_row_matches_gen_utterance(self):
        # dim 67 puts rows at offsets that are not 16-byte multiples and is
        # long enough for a norm summed in another order to move a last
        # bit; 298 rows cross a block boundary of synth._perturb; the
        # noise-free space copies its speaker means
        spaces = (SpaceSpec("noisy", 67, 0.7), SpaceSpec("clean", 2, 0.0))
        cfg = _small_cfg(spaces=spaces, trials_per_type=70)
        ds = gen_dataset(cfg)
        seed = cfg.master_seed
        for j, sp in enumerate(spaces):
            means = gen_speakers(cfg.n_speakers, sp.dim, derive_seed(seed, "space", j))
            table = ds.embeddings[sp.name]
            expected = {}
            for i, entry in enumerate(ds.enroll_entries):
                for k, rep_id in enumerate(entry.rep_ids):
                    expected[rep_id] = gen_utterance(
                        means[i], sp.noise_sigma, derive_seed(seed, "rep", j, i, k)
                    )
            for row, test_id in enumerate(ds.trials.test_ids):
                li, t = divmod(row, cfg.trials_per_type)
                expected[test_id] = gen_utterance(
                    means[ds.utt_speaker[test_id]], sp.noise_sigma,
                    derive_seed(seed, "test", j, li, t),
                )
            assert table.ids == list(expected)
            assert table.matrix.dtype == np.float64
            for vector, (utt_id, expected_vector) in zip(table.matrix, expected.items()):
                assert np.array_equal(vector, expected_vector), (sp.name, utt_id)
            if sp.noise_sigma == 0.0:
                for utt_id, speaker in ds.utt_speaker.items():
                    assert np.array_equal(table.matrix[table.rows[utt_id]], means[speaker])
