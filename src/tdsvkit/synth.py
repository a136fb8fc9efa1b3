"""Seeded synthetic dataset generator.

Desk-scale verification data with known ground truth. Each speaker is a
unit-norm Gaussian mean direction per embedding space; utterances perturb
that mean with isotropic noise and re-normalize. Transcripts start from the
actually-spoken phrase and take independent per-character corruption edits.
Every entity draws its randomness from a sub-seed hashed out of
(master_seed, entity kind, indices), so single entities can be regenerated
in isolation and batch output never depends on generation order.
"""

import hashlib
import math
import string
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LABEL_CODES,
    REPS_PER_MODEL,
    UNLABELED,
    EmbeddingTable,
    EnrollEntry,
    TrialColumns,
    TrialLabel,
    normalize_rows,
)
from .errors import ConfigInvalid, DegenerateVector
from .textgate import Phrase, Transcript

_LATIN = "abcdefghijklmnopqrstuvwxyz"
_PERSIAN = "ءآابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"

# Rows per block when _perturb builds a space's utterance rows.
_BLOCK_ROWS = 256


def derive_seed(master_seed: int, kind: str, *indices: int) -> int:
    """Stable 64-bit sub-seed for one entity.

    blake2b over the master seed, a kind tag, and the entity indices. Unique
    per (kind, indices) for practical purposes, and independent of how many
    other entities exist.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master_seed).to_bytes(8, "little"))
    h.update(kind.encode("utf-8"))
    for idx in indices:
        h.update(int(idx).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class SpaceSpec:
    """One embedding space: its name, dimensionality, and noise level."""

    name: str
    dim: int
    noise_sigma: float

    def __post_init__(self):
        bad = set(":=\t\n\r ") & set(self.name)
        if not self.name or bad:
            raise ConfigInvalid(
                f"space name {self.name!r} must be non-empty with no "
                "':', '=', or whitespace"
            )
        if not (isinstance(self.dim, int) and self.dim >= 2):
            raise ConfigInvalid(f"space '{self.name}': dim must be an int >= 2")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigInvalid(
                f"space '{self.name}': noise_sigma must be finite and >= 0"
            )


def _default_spaces() -> tuple:
    return (SpaceSpec("alpha", 64, 0.05), SpaceSpec("beta", 64, 0.05))


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; validation names the offending field."""

    n_speakers: int = 50
    n_phrases: int = 10
    spaces: tuple = field(default_factory=_default_spaces)
    trials_per_type: int = 10  # trials of each label
    transcript_error_rate_correct: float = 0.0
    transcript_error_rate_wrong: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n_speakers, int) and self.n_speakers >= 2):
            raise ConfigInvalid("n_speakers must be an int >= 2 (impostors must exist)")
        if not (isinstance(self.n_phrases, int) and self.n_phrases >= 2):
            raise ConfigInvalid("n_phrases must be an int >= 2 (wrong phrases must exist)")
        if not self.spaces:
            raise ConfigInvalid("spaces must declare at least one embedding space")
        names = [sp.name for sp in self.spaces]
        if len(set(names)) != len(names):
            raise ConfigInvalid(f"spaces contains duplicate names {names}")
        if not (isinstance(self.trials_per_type, int) and self.trials_per_type >= 0):
            raise ConfigInvalid(
                f"trials_per_type must be an int >= 0, got {self.trials_per_type!r}"
            )
        for fname in ("transcript_error_rate_correct", "transcript_error_rate_wrong"):
            rate = getattr(self, fname)
            if not (0.0 <= rate <= 1.0):
                raise ConfigInvalid(f"{fname} must lie in [0, 1], got {rate}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise ConfigInvalid("master_seed must be an unsigned 64-bit integer")


@dataclass
class SyntheticDataset:
    """Generated tables plus ground-truth maps for label auditing.

    embeddings holds one EmbeddingTable per space, with the rows of both
    enrollment repetitions and test utterances. utt_speaker / utt_phrase /
    model_speaker record the construction truth (speaker index, spoken
    phrase id) behind every test utterance and model.
    """

    config: SimConfig
    phrases: dict
    enroll_entries: list
    embeddings: dict
    transcripts: dict
    trials: TrialColumns
    model_speaker: dict
    utt_speaker: dict
    utt_phrase: dict

    @property
    def space_order(self) -> tuple:
        return tuple(sp.name for sp in self.config.spaces)


def _perturb(means: np.ndarray, speakers, sigma: float, noise) -> np.ndarray:
    """Rows normalize(means[s] + sigma * g) for s, g in zip(speakers, noise).

    means holds unit-norm speaker means, one per row. The rows are made in
    the noise matrix itself, which is overwritten and returned, a block of
    rows at a time, so that no temporary is as large as the matrix. IEEE
    multiplication and addition commute, so the bits are the formula's.
    sigma = 0 returns the means themselves (copied), bit-for-bit, and reads
    no noise. A sigma large enough to overflow raises DegenerateVector, with
    no numpy warning.
    """
    if (np.abs(np.linalg.norm(means, axis=1) - 1.0) > 1e-6).any():
        raise ConfigInvalid("speaker_mean must be unit norm")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ConfigInvalid(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return means[speakers]
    with np.errstate(over="ignore"):
        for start in range(0, len(noise), _BLOCK_ROWS):
            block = noise[start : start + _BLOCK_ROWS]
            block *= sigma
            block += means[speakers[start : start + _BLOCK_ROWS]]
            block[:] = normalize_rows(block)
    return noise


def gen_speakers(n: int, dim: int, seed: int) -> np.ndarray:
    """n unit-norm mean directions, one independent sub-seeded draw each."""
    if n < 1:
        raise ConfigInvalid(f"n must be >= 1, got {n}")
    if dim < 2:
        raise ConfigInvalid(f"dim must be >= 2, got {dim}")
    out = np.empty((n, dim), dtype=np.float64)
    for i in range(n):
        np.random.default_rng(derive_seed(seed, "speaker", i)).standard_normal(out=out[i])
    return normalize_rows(out)


def gen_utterance(speaker_mean: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Unit-norm perturbation of a speaker mean: normalize(mean + sigma*g).

    sigma = 0 returns the mean itself (copied), bit-for-bit.
    """
    means = np.asarray(speaker_mean, dtype=np.float64)[np.newaxis]
    noise = np.random.default_rng(seed).standard_normal(means.shape) if sigma > 0 else None
    return _perturb(means, [0], sigma, noise)[0]


def corrupt_transcript(
    reference: str, rate: float, seed: int, alphabet: str = string.ascii_letters
) -> str:
    """Independent per-character corruption of a reference string.

    Each code point, with probability rate, takes one edit chosen uniformly
    from substitute / delete / insert-after, with replacement characters
    drawn from the alphabet.
    """
    if not (0.0 <= rate <= 1.0):
        raise ConfigInvalid(f"rate must lie in [0, 1], got {rate}")
    if not alphabet:
        raise ConfigInvalid("alphabet must be non-empty")
    rng = np.random.default_rng(seed)
    out = []
    for ch in reference:
        if rng.random() >= rate:
            out.append(ch)
            continue
        op = int(rng.integers(3))
        if op == 0:
            out.append(alphabet[int(rng.integers(len(alphabet)))])
        elif op == 1:
            pass
        else:
            out.append(ch)
            out.append(alphabet[int(rng.integers(len(alphabet)))])
    return "".join(out)


def _phrase_text(master_seed: int, index: int) -> str:
    """2-4 words of 3-8 characters; even indices Latin, odd Persian."""
    rng = np.random.default_rng(derive_seed(master_seed, "phrase", index))
    charset = _LATIN if index % 2 == 0 else _PERSIAN
    n_words = int(rng.integers(2, 5))
    words = []
    for _ in range(n_words):
        n_chars = int(rng.integers(3, 9))
        words.append(
            "".join(charset[int(rng.integers(len(charset)))] for _ in range(n_chars))
        )
    return " ".join(words)


def gen_dataset(cfg: SimConfig) -> SyntheticDataset:
    """Generate one full dataset: phrases, enrollments, trials, transcripts.

    Models pair speaker i with phrase i mod n_phrases. The TrialColumns rows
    come in TrialLabel order, trials_per_type of each; each trial picks
    its model uniformly, then (per its label) the same or a uniformly-chosen
    other speaker and the same or a uniformly-chosen other phrase. The
    transcript corrupts the phrase the test utterance actually speaks, at
    the correct-phrase rate for TC/IC and the wrong-phrase rate for TW/IW.
    """
    seed = cfg.master_seed
    phrase_ids = [f"phr{i:03d}" for i in range(cfg.n_phrases)]
    phrases = {
        pid: Phrase(pid, _phrase_text(seed, i)) for i, pid in enumerate(phrase_ids)
    }

    alphabet_chars = set(string.ascii_letters)
    for phrase in phrases.values():
        alphabet_chars.update(phrase.text)
    alphabet = "".join(sorted(alphabet_chars))

    means = [
        gen_speakers(cfg.n_speakers, sp.dim, derive_seed(seed, "space", j))
        for j, sp in enumerate(cfg.spaces)
    ]
    # Each space's utterance rows (repetitions, then test utterances) are made
    # in one _perturb call: row r speaks as speaker row_speakers[r], and its
    # noise, in a space j with sigma > 0, comes from its own draw, sub-seeded
    # by row_keys[r] = (kind, indices) as derive_seed(seed, kind, j, *indices).
    row_ids, row_speakers, row_keys = [], [], []
    enroll_entries = []
    model_speaker = {}
    for i in range(cfg.n_speakers):
        model_id = f"mdl{i:04d}"
        phrase_id = phrase_ids[i % cfg.n_phrases]
        rep_ids = tuple(f"{model_id}-rep{k}" for k in range(REPS_PER_MODEL))
        row_ids.extend(rep_ids)
        row_speakers.extend([i] * REPS_PER_MODEL)
        row_keys.extend(("rep", (i, k)) for k in range(REPS_PER_MODEL))
        enroll_entries.append(EnrollEntry(model_id, phrase_id, rep_ids))
        model_speaker[model_id] = i

    trial_ids, model_ids, test_ids = [], [], []
    transcripts = {}
    utt_speaker = {}
    utt_phrase = {}
    counter = 0
    for li, label in enumerate(TrialLabel):
        for t in range(cfg.trials_per_type):
            rng = np.random.default_rng(derive_seed(seed, "trial", li, t))
            mi = int(rng.integers(cfg.n_speakers))
            model_id = f"mdl{mi:04d}"
            enrolled_pi = mi % cfg.n_phrases
            if label.same_speaker:
                si = mi
            else:
                si = (mi + 1 + int(rng.integers(cfg.n_speakers - 1))) % cfg.n_speakers
            if label.same_phrase:
                pi = enrolled_pi
            else:
                pi = (enrolled_pi + 1 + int(rng.integers(cfg.n_phrases - 1))) % cfg.n_phrases
            utt_id = f"utt{counter:05d}"
            trial_id = f"trl{counter:05d}"
            row_ids.append(utt_id)
            row_speakers.append(si)
            row_keys.append(("test", (li, t)))
            rate = (
                cfg.transcript_error_rate_correct
                if label.same_phrase
                else cfg.transcript_error_rate_wrong
            )
            spoken = phrases[phrase_ids[pi]].text
            transcripts[utt_id] = Transcript(
                utt_id,
                corrupt_transcript(
                    spoken, rate, derive_seed(seed, "transcript", li, t), alphabet
                ),
            )
            trial_ids.append(trial_id)
            model_ids.append(model_id)
            test_ids.append(utt_id)
            utt_speaker[utt_id] = si
            utt_phrase[utt_id] = phrase_ids[pi]
            counter += 1

    # One space's noise matrix at a time: it becomes that space's rows.
    embeddings = {}
    for j, sp in enumerate(cfg.spaces):
        noise = None
        if sp.noise_sigma > 0:
            noise = np.empty((len(row_ids), sp.dim))
            for row, (kind, indices) in zip(noise, row_keys):
                rng = np.random.default_rng(derive_seed(seed, kind, j, *indices))
                rng.standard_normal(out=row)
        try:
            rows = _perturb(means[j], row_speakers, sp.noise_sigma, noise)
        except DegenerateVector as exc:
            message = f"space '{sp.name}' at noise_sigma {sp.noise_sigma!r}: {exc}"
            raise DegenerateVector(message) from None
        embeddings[sp.name] = EmbeddingTable(row_ids, rows)

    labels = np.repeat(np.arange(len(TrialLabel), dtype=np.int8), cfg.trials_per_type)
    return SyntheticDataset(
        config=cfg,
        phrases=phrases,
        enroll_entries=enroll_entries,
        embeddings=embeddings,
        transcripts=transcripts,
        trials=TrialColumns(trial_ids, model_ids, test_ids, labels),
        model_speaker=model_speaker,
        utt_speaker=utt_speaker,
        utt_phrase=utt_phrase,
    )


def validate_labels(ds: SyntheticDataset) -> int:
    """Re-derive every trial's label from the ground-truth maps.

    Independent audit of the construction invariant: TC = same speaker and
    same phrase, TW = same speaker only, IC = same phrase only, IW =
    neither. Returns the number of trials checked; raises ValueError on the
    first inconsistency.
    """
    model_phrase = {e.model_id: e.phrase_id for e in ds.enroll_entries}
    t = ds.trials
    rows = zip(t.trial_ids, t.model_ids, t.test_ids, t.labels.tolist())
    for trial_id, model_id, test_id, code in rows:
        same_speaker = ds.model_speaker[model_id] == ds.utt_speaker[test_id]
        same_phrase = model_phrase[model_id] == ds.utt_phrase[test_id]
        expected = next(
            label for label in TrialLabel
            if (label.same_speaker, label.same_phrase) == (same_speaker, same_phrase)
        )
        if code != LABEL_CODES[expected]:
            label = None if code == UNLABELED else list(TrialLabel)[code]
            raise ValueError(
                f"trial '{trial_id}' labeled {label} but construction says {expected}"
            )
    return len(t)
