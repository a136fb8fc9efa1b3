"""Seeded synthetic dataset generator.

Desk-scale verification data with known ground truth. Each speaker is a
unit-norm Gaussian mean direction per embedding space; utterances perturb
that mean with isotropic noise and re-normalize. Transcripts start from the
actually-spoken phrase and take independent per-character corruption edits.
Every entity draws its randomness from a sub-seed hashed out of
(master_seed, entity kind, indices), so single entities can be regenerated
in isolation and batch output never depends on generation order.

An entity's draws are those of np.random.default_rng(its sub-seed), which the
one-entity functions (gen_utterance, corrupt_transcript) call. gen_speakers
and gen_dataset seed their generators in batches instead (_generators), one
batch where each kind of draw is taken: the phrases, a space's speaker means,
the trials' picks, their transcripts, and a noisy space's utterance rows.
numpy's SeedSequence mixing runs over every sub-seed of a batch at once as
uint32 arrays, PCG64's two seeding steps follow as Python ints, and one reused
Generator takes each state in turn. The states are bit-equal to default_rng's;
each batch first compares a few of them with numpy's own seeding and, on any
mismatch, makes every generator of the batch with default_rng.
"""

import functools
import hashlib
import math
import os
import string
from dataclasses import dataclass

import numpy as np

from .core import (
    LABEL_CODES,
    REPS_PER_MODEL,
    UNLABELED,
    EmbeddingTable,
    EnrollEntry,
    TrialColumns,
    TrialLabel,
    is_int,
    is_real,
    normalize_rows,
    row_norms,
)
from .errors import ConfigInvalid, DegenerateVector, DimensionMismatch
from .textgate import Phrase, Transcript

_LATIN = "abcdefghijklmnopqrstuvwxyz"
_PERSIAN = "ءآابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"

# Rows per block when _perturb builds a space's utterance rows.
_BLOCK_ROWS = 256

# numpy's SeedSequence constants (O'Neill's seed_seq_fe: a pool of four 32-bit
# words, XSHIFT 16) and PCG64's 128-bit LCG multiplier, restated for
# _generators. NEP 19 pins a seeded generator's stream, not this derivation,
# so _generators checks it against numpy on _PROBE_SEEDS and a batch's first
# _CHECKED seeds.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# Seeds of one and of two 32-bit words, at their edges.
_PROBE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
_CHECKED = 3
# Seeds mixed per array pass, which bounds the batch's memory on large runs.
_SEED_BLOCK = 4096


def _seed(value, what: str = "seed") -> int:
    """value as an int if it is a seed, an is_int value in [0, 2**64), the
    package's one seed rule; otherwise ConfigInvalid naming it as what."""
    if is_int(value) and 0 <= value < 2**64:
        return int(value)
    raise ConfigInvalid(f"{what} must be an unsigned 64-bit integer, got {value!r}")


def derive_seed(master_seed: int, kind: str, *indices: int) -> int:
    """Stable 64-bit sub-seed for one entity.

    blake2b over the master seed, a kind tag, and the entity indices, each
    a _seed. Unique per (kind, indices) for practical purposes, and
    independent of how many other entities exist.
    """
    h = _hashed(_seed(master_seed, "derive_seed: master_seed"), kind).copy()
    for idx in indices:
        h.update(_seed(idx, "derive_seed: index").to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


@functools.lru_cache(maxsize=64)
def _hashed(master_seed: int, kind: str):
    """derive_seed's blake2b state after the master seed and the kind, which
    a run's many sub-seeds of one kind share; each caller copies it."""
    h = hashlib.blake2b(digest_size=8)
    h.update(master_seed.to_bytes(8, "little"))
    h.update(kind.encode("utf-8"))
    return h


def _seeding_words(seeds) -> np.ndarray:
    """The four uint64 words np.random.SeedSequence(s).generate_state(4,
    np.uint64) gives for each 64-bit seed s, as a (len(seeds), 4) array.

    SeedSequence's entropy is a seed's 32-bit words, low first, and a seed
    below 2**32 mixes as [lo, 0] does: its pool's second word hashes 0
    either way. So every seed takes one path: hash two words and two zeros
    into the pool, mix each pool word into every other, then hash the pool
    out into eight 32-bit words, low word of each uint64 first. The hash
    constants step the same for every seed, so they stay Python ints.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    pool = [hashmix(word) for word in entropy + [zero, zero]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)], axis=1)


def _pcg64_states(seeds):
    """Yield PCG64's (state, inc) as np.random.PCG64(s) sets it, for each
    64-bit seed s in turn. PCG64 takes the 128-bit words w0:w1 as its initial
    state and w2:w3 as its stream, and seeds as pcg_setseq_128_srandom_r does:
    inc = stream * 2 + 1, then two LCG steps from state 0, the initial state
    added between them."""
    for start in range(0, len(seeds), _SEED_BLOCK):
        for w0, w1, w2, w3 in _seeding_words(seeds[start : start + _SEED_BLOCK]).tolist():
            inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
            yield ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc


def _generators(seeds: list):
    """Yield, for each 64-bit seed in turn, a generator that draws what
    np.random.default_rng(seed) draws. It is one Generator, given each
    seed's state through the bit generator's public state setter, which also
    empties the 32-bit buffer of integers(); so draw from each before taking
    the next. The states of _PROBE_SEEDS and of the first _CHECKED seeds are
    first compared with numpy's own; on any mismatch, every generator comes
    from default_rng."""
    probes = list(_PROBE_SEEDS) + seeds[:_CHECKED]
    states = _pcg64_states(probes + seeds)
    for seed, (state, inc) in zip(probes, states):
        if np.random.PCG64(seed).state["state"] != {"state": state, "inc": inc}:
            yield from map(np.random.default_rng, seeds)
            return
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


@dataclass(frozen=True)
class SpaceSpec:
    """One embedding space: its name, dimensionality, and noise level. The
    name is also part of a file name, embeddings_<name>.tsv, so it holds no
    path separator."""

    name: str
    dim: int
    noise_sigma: float

    def __post_init__(self):
        bad = set(":=\t\n\r /" + os.sep + (os.altsep or "")) & set(self.name)
        if not self.name or bad:
            raise ConfigInvalid(
                f"space name {self.name!r} must be non-empty with no "
                "':', '=', whitespace or path separator"
            )
        if not (is_int(self.dim) and self.dim >= 2):
            raise ConfigInvalid(f"space '{self.name}': dim must be an int >= 2")
        if not (is_real(self.noise_sigma) and 0.0 <= self.noise_sigma < math.inf):
            raise ConfigInvalid(
                f"space '{self.name}': noise_sigma must be finite and >= 0"
            )


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; validation names the offending field."""

    n_speakers: int = 50
    n_phrases: int = 10
    spaces: tuple = (SpaceSpec("alpha", 64, 0.05), SpaceSpec("beta", 64, 0.05))
    trials_per_type: int = 10  # trials of each label
    transcript_error_rate_correct: float = 0.0
    transcript_error_rate_wrong: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        if not (is_int(self.n_speakers) and self.n_speakers >= 2):
            raise ConfigInvalid("n_speakers must be an int >= 2 (impostors must exist)")
        if not (is_int(self.n_phrases) and self.n_phrases >= 2):
            raise ConfigInvalid("n_phrases must be an int >= 2 (wrong phrases must exist)")
        if not self.spaces:
            raise ConfigInvalid("spaces must declare at least one embedding space")
        names = [sp.name for sp in self.spaces]
        if len(set(names)) != len(names):
            raise ConfigInvalid(f"spaces contains duplicate names {names}")
        if not (is_int(self.trials_per_type) and self.trials_per_type >= 0):
            raise ConfigInvalid(
                f"trials_per_type must be an int >= 0, got {self.trials_per_type!r}"
            )
        for fname in ("transcript_error_rate_correct", "transcript_error_rate_wrong"):
            _check_rate(fname, getattr(self, fname))
        _seed(self.master_seed, "master_seed")


def _check_rate(name: str, rate) -> None:
    """ConfigInvalid unless rate is a number in [0, 1], and not a bool."""
    if not (is_real(rate) and 0.0 <= rate <= 1.0):
        raise ConfigInvalid(f"{name} must lie in [0, 1], got {rate!r}")


@dataclass
class SyntheticDataset:
    """Generated tables plus ground-truth maps for label auditing.

    enroll_entries maps model id to EnrollEntry, as tsvio.parse_enrollmap
    returns it and scoring.score_all takes it. embeddings holds one
    EmbeddingTable per space, in the order of SimConfig.spaces (the fusion
    order), with the rows of both enrollment repetitions and test
    utterances. utt_speaker / utt_phrase / model_speaker record the
    construction truth (speaker index, spoken phrase id) behind every test
    utterance and model.
    """

    phrases: dict
    enroll_entries: dict
    embeddings: dict
    transcripts: dict
    trials: TrialColumns
    model_speaker: dict
    utt_speaker: dict
    utt_phrase: dict


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
    if not (np.abs(row_norms(means) - 1.0) <= 1e-6).all():  # a NaN norm fails too
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
    """n unit-norm mean directions, one independent sub-seeded draw each:
    speaker i is normalize(default_rng(derive_seed(seed, "speaker", i))
    .standard_normal(dim))."""
    if not (is_int(n) and n >= 1):
        raise ConfigInvalid(f"n must be >= 1, got {n}")
    if not (is_int(dim) and dim >= 2):
        raise ConfigInvalid(f"dim must be >= 2, got {dim}")
    seeds = [derive_seed(seed, "speaker", i) for i in range(n)]
    out = np.empty((n, dim), dtype=np.float64)
    for row, rng in zip(out, _generators(seeds)):
        rng.standard_normal(out=row)
    return normalize_rows(out)


def gen_utterance(speaker_mean: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Unit-norm perturbation of a speaker mean: normalize(mean + sigma*g).

    sigma = 0 returns the mean itself (copied), bit-for-bit.
    """
    means = np.asarray(speaker_mean, dtype=np.float64)[np.newaxis]
    if means.ndim != 2:
        raise DimensionMismatch(f"speaker_mean must be 1-D, got shape {means.shape[1:]}")
    rng = np.random.default_rng(_seed(seed))
    noise = rng.standard_normal(means.shape) if sigma > 0 else None
    return _perturb(means, [0], sigma, noise)[0]


def corrupt_transcript(
    reference: str, rate: float, seed: int, alphabet: str = string.ascii_letters
) -> str:
    """Independent per-character corruption of a reference string.

    Each code point, with probability rate, takes one edit chosen uniformly
    from substitute / delete / insert-after, with replacement characters
    drawn from the alphabet.
    """
    _check_rate("rate", rate)
    if not alphabet:
        raise ConfigInvalid("alphabet must be non-empty")
    return _corrupt(reference, rate, np.random.default_rng(_seed(seed)), alphabet)


def _corrupt(reference: str, rate: float, rng, alphabet: str) -> str:
    """corrupt_transcript with its draws taken from the generator rng."""
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


def _phrase_text(rng, index: int) -> str:
    """2-4 words of 3-8 characters drawn from the generator rng; even
    indices Latin, odd Persian."""
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
    rngs = _generators([derive_seed(seed, "phrase", i) for i in range(cfg.n_phrases)])
    phrases = {
        pid: Phrase(pid, _phrase_text(rng, i))
        for i, (pid, rng) in enumerate(zip(phrase_ids, rngs))
    }

    alphabet_chars = set(string.ascii_letters)
    for phrase in phrases.values():
        alphabet_chars.update(phrase.text)
    alphabet = "".join(sorted(alphabet_chars))

    # Each space's utterance rows (repetitions, then test utterances) are made
    # in one _perturb call: row r speaks as speaker row_speakers[r], and its
    # noise, in a space j with sigma > 0, comes from its own draw, sub-seeded
    # by row_keys[r] = (kind, indices) as derive_seed(seed, kind, j, *indices).
    trial_keys = [(li, t) for li in range(len(TrialLabel)) for t in range(cfg.trials_per_type)]
    row_keys = [("rep", (i, k)) for i in range(cfg.n_speakers) for k in range(REPS_PER_MODEL)]
    row_keys += [("test", key) for key in trial_keys]
    row_ids, row_speakers = [], []
    enroll_entries = {}
    model_speaker = {}
    for i in range(cfg.n_speakers):
        model_id = f"mdl{i:04d}"
        phrase_id = phrase_ids[i % cfg.n_phrases]
        rep_ids = tuple(f"{model_id}-rep{k}" for k in range(REPS_PER_MODEL))
        row_ids.extend(rep_ids)
        row_speakers.extend([i] * REPS_PER_MODEL)
        enroll_entries[model_id] = EnrollEntry(model_id, phrase_id, rep_ids)
        model_speaker[model_id] = i

    trial_ids, model_ids, test_ids = [], [], []
    transcripts = {}
    utt_speaker = {}
    utt_phrase = {}
    picks = _generators([derive_seed(seed, "trial", li, t) for li, t in trial_keys])
    edits = _generators([derive_seed(seed, "transcript", li, t) for li, t in trial_keys])
    for counter, ((li, _), rng, edit_rng) in enumerate(zip(trial_keys, picks, edits)):
        label = list(TrialLabel)[li]
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
        rate = (
            cfg.transcript_error_rate_correct
            if label.same_phrase
            else cfg.transcript_error_rate_wrong
        )
        spoken = phrases[phrase_ids[pi]].text
        transcripts[utt_id] = Transcript(utt_id, _corrupt(spoken, rate, edit_rng, alphabet))
        trial_ids.append(trial_id)
        model_ids.append(model_id)
        test_ids.append(utt_id)
        utt_speaker[utt_id] = si
        utt_phrase[utt_id] = phrase_ids[pi]

    # One space's noise matrix at a time: it becomes that space's rows.
    embeddings = {}
    for j, sp in enumerate(cfg.spaces):
        means = gen_speakers(cfg.n_speakers, sp.dim, derive_seed(seed, "space", j))
        noise = None
        if sp.noise_sigma > 0:
            noise = np.empty((len(row_ids), sp.dim))
            rngs = _generators([derive_seed(seed, kind, j, *idx) for kind, idx in row_keys])
            for row, rng in zip(noise, rngs):
                rng.standard_normal(out=row)
        try:
            rows = _perturb(means, row_speakers, sp.noise_sigma, noise)
        except DegenerateVector as exc:
            message = f"space '{sp.name}' at noise_sigma {sp.noise_sigma!r}: {exc}"
            raise DegenerateVector(message) from None
        embeddings[sp.name] = EmbeddingTable(row_ids, rows)

    labels = np.repeat(np.arange(len(TrialLabel), dtype=np.int8), cfg.trials_per_type)
    return SyntheticDataset(
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
    t = ds.trials
    rows = zip(t.trial_ids, t.model_ids, t.test_ids, t.labels.tolist())
    for trial_id, model_id, test_id, code in rows:
        same_speaker = ds.model_speaker[model_id] == ds.utt_speaker[test_id]
        same_phrase = ds.enroll_entries[model_id].phrase_id == ds.utt_phrase[test_id]
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
