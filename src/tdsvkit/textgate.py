"""Phrase-content verification.

Character error rate between an ASR hypothesis and the enrolled reference
phrase, and the pass/fail gate that drives punitive scoring. Text is
NFC-normalized and trimmed of leading/trailing whitespace before comparison;
interior spaces count as characters, and there is no case folding. CER can
exceed 1.0 for long hypotheses (gross ASR failures are not clipped).
"""

import math
import unicodedata
from dataclasses import dataclass

from .core import check_text, is_real
from .errors import ConfigInvalid, EmptyReference


def normalize_text(text: str) -> str:
    """NFC-normalize and trim leading/trailing whitespace."""
    return unicodedata.normalize("NFC", text).strip()


@dataclass(frozen=True)
class Phrase:
    """A reference phrase (Persian or English script), keyed by its id."""

    text: str

    def __post_init__(self):
        if not normalize_text(check_text(self.text)):
            raise EmptyReference("phrase is empty after normalization")


@dataclass(frozen=True)
class Transcript:
    """ASR hypothesis for a test utterance, keyed by its id; text may be empty."""

    text: str

    def __post_init__(self):
        check_text(self.text)


@dataclass(frozen=True)
class GateConfig:
    """Phrase-gate settings.

    cer_threshold: trials with CER above this fail the gate. math.inf
    disables the gate (everything passes). The default 0.3 is the operating
    point of the strongest ASR configuration.

    punitive_score: score assigned to gate-failed trials. Must be finite
    (score files hold finite values only) and <= -1.0, the floor of the
    cosine range, so punished trials rank below every genuine cosine score.
    """

    cer_threshold: float = 0.3
    punitive_score: float = -1.0

    def __post_init__(self):
        if not (is_real(self.cer_threshold) and self.cer_threshold >= 0.0):
            raise ConfigInvalid(
                f"cer_threshold must be >= 0, got {self.cer_threshold}"
            )
        if not (is_real(self.punitive_score) and -math.inf < self.punitive_score <= -1):
            raise ConfigInvalid(
                f"punitive_score must be finite and <= -1.0, got {self.punitive_score}"
            )


@dataclass(frozen=True)
class GateOutcome:
    """Gate decision with the computed CER carried along for reporting."""

    passed: bool
    cer: float


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance over unicode code points after NFC normalization.

    Minimum number of single-character insertions, deletions, and
    substitutions transforming a into b. Bit-parallel: Myers' algorithm
    (JACM 46(3), 1999) in Hyyrö's edit-distance form, with one Python int
    per DP column as the bit vector of vertical deltas over the shorter
    string (the pattern, m code points). O(ceil(m/w) * n) word operations
    for the longer string of n code points and machine word size w.
    """
    a = unicodedata.normalize("NFC", a)
    b = unicodedata.normalize("NFC", b)
    if a == b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return len(a)
    # peq[c]: bit i set iff pattern position i holds c
    peq = {}
    bit = 1
    for ch in b:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, len(b)  # vertical +1 / -1 deltas; D[m][0]
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)  # horizontal +1 deltas (unmasked)
        mh = pv & xh  # horizontal -1 deltas
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of the table is D[0][j] = j: shift in a +1 delta
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return dist


def cer(hypothesis: str, reference: str) -> float:
    """Character error rate of hypothesis against reference.

    edit_distance / reference length in code points, both sides normalized
    first (NFC + trim). Raises EmptyReference when the normalized reference
    has length zero.
    """
    hyp = normalize_text(hypothesis)
    ref = normalize_text(reference)
    if not ref:
        raise EmptyReference("reference phrase empty after normalization")
    return edit_distance(hyp, ref) / len(ref)


def gate(hypothesis: Transcript, reference: Phrase, cfg: GateConfig) -> GateOutcome:
    """Pass iff CER(hypothesis, reference) <= cfg.cer_threshold."""
    value = cer(hypothesis.text, reference.text)
    return GateOutcome(passed=value <= cfg.cer_threshold, cer=value)
