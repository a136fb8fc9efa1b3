"""Shared domain types and elementary vector operations.

Embeddings are plain 1-D float64 numpy arrays; every public operation
validates its inputs and works in double precision. All functions here are
pure and safe for concurrent use.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
    def is_target(self) -> bool:
        return self is TrialLabel.TC

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
class Trial:
    """One verification attempt: an enrollment model against a test utterance.

    The label is present for evaluation sets and absent for blind scoring.
    """

    trial_id: str
    model_id: str
    test_id: str
    label: Optional[TrialLabel] = None

    def __post_init__(self):
        check_token(self.trial_id, "trial_id")
        check_token(self.model_id, "model_id")
        check_token(self.test_id, "test_id")


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


def cosine(a, b) -> float:
    """Cosine similarity between two vectors, clamped to [-1, 1].

    The clamp guards against floating-point overshoot of ~1e-16 so that
    downstream threshold logic can assume the closed interval.
    """
    a = as_embedding(a)
    b = as_embedding(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"cosine of dim {a.shape[0]} against dim {b.shape[0]}"
        )
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= EPS or nb <= EPS:
        raise DegenerateVector("cosine of a degenerate (near-zero) vector")
    value = float(np.dot(a, b)) / (na * nb)
    return min(1.0, max(-1.0, value))
