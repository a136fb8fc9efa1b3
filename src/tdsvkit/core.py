"""Shared domain types and elementary vector operations.

A trial list is one TrialColumns table. Embeddings are plain 1-D float64
numpy arrays; every public operation validates its inputs and works in
double precision. All functions here are pure and safe for concurrent use.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateVector, DimensionMismatch

# Norms at or below this are treated as degenerate (zero-ish) vectors.
EPS = 1e-12


class TrialLabel(Enum):
    """Trial taxonomy: speaker match x phrase match. Only TC is a target."""

    TC = "TC"  # target speaker, correct phrase
    TW = "TW"  # target speaker, wrong phrase
    IC = "IC"  # impostor, correct phrase
    IW = "IW"  # impostor, wrong phrase

    @property
    def same_speaker(self) -> bool:
        return self in (TrialLabel.TC, TrialLabel.TW)

    @property
    def same_phrase(self) -> bool:
        return self in (TrialLabel.TC, TrialLabel.IC)


# Columnar label arrays hold a label's position in TrialLabel; UNLABELED marks
# a trial listed without a label.
LABEL_CODES = {label: code for code, label in enumerate(TrialLabel)}
UNLABELED = -1


def check_token(value: str, what: str = "id") -> str:
    """Validate an opaque id token: non-empty, no tab or newline."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} contains tab or newline")
    return value


@dataclass(frozen=True)
class TrialColumns:
    """A trial list as columns in file order, as tsvio reads and writes it,
    synth.gen_dataset builds it and scoring.score_all scores it. labels
    holds int8 label codes (LABEL_CODES; UNLABELED for no label). len() is
    the number of rows. Columns of different lengths, an id that
    check_token rejects, or a code outside UNLABELED..3 raise ValueError."""

    trial_ids: list
    model_ids: list
    test_ids: list
    labels: np.ndarray  # int8

    def __post_init__(self):
        codes = np.asarray(self.labels)
        columns = dict(trial_id=self.trial_ids, model_id=self.model_ids, test_id=self.test_ids)
        if {len(ids) for ids in columns.values()} != {len(codes)}:
            raise ValueError("trial columns differ in length")
        for what, ids in columns.items():
            # check_token, for its message, only where one scan of the column fails
            try:
                joined = " ".join(ids)
            except TypeError:  # an id that is not a string
                joined = "\n"
            if "" in ids or "\t" in joined or "\n" in joined or "\r" in joined:
                for value in ids:
                    check_token(value, what)
        bad = codes[(codes < UNLABELED) | (codes >= len(TrialLabel))]
        if bad.size:
            raise ValueError(f"label code {bad[0]} is not in {UNLABELED}..{len(TrialLabel) - 1}")
        object.__setattr__(self, "labels", codes.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.trial_ids)


def as_embedding(values) -> np.ndarray:
    """Coerce to a 1-D float64 vector, rejecting empty or non-finite input."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(
            f"embedding must be a 1-D vector of dim >= 1, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise DegenerateVector("embedding contains NaN or infinite values")
    return v


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit euclidean norm, preserving direction.

    Raises DegenerateVector when the norm is at or below EPS.
    """
    v = as_embedding(v)
    norm = float(np.linalg.norm(v))
    if norm <= EPS:
        raise DegenerateVector(f"cannot normalize vector with norm {norm:.3e}")
    return v / norm
