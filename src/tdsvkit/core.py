"""Shared domain types and elementary vector operations.

A trial list is one TrialColumns table. Embeddings are plain 1-D float64
numpy arrays; every public operation validates its inputs and works in
double precision. All functions here are pure and safe for concurrent use.
"""

from dataclasses import dataclass, fields
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


def check_tokens(values: list, what: str = "id") -> None:
    """check_token over a list of values in one scan of their joined text;
    check_token runs on each value, for its message, only where that scan
    fails."""
    try:
        joined = " ".join(values)
    except TypeError:  # a value that is not a string
        joined = "\n"
    if "" in values or "\t" in joined or "\n" in joined or "\r" in joined:
        for value in values:
            check_token(value, what)


def columns_eq(a, b):
    """== for the column tables (TrialColumns, scoring.ScoreColumns): equal
    when b has a's type and every column matches, id lists by == and arrays
    by dtype and np.array_equal. The dataclass default would compare the
    arrays with ==, whose truth value is ambiguous past one row."""
    if type(b) is not type(a):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.asarray(x), np.asarray(y)
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


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
            check_tokens(ids, what)
        bad = codes[(codes < UNLABELED) | (codes >= len(TrialLabel))]
        if bad.size:
            raise ValueError(f"label code {bad[0]} is not in {UNLABELED}..{len(TrialLabel) - 1}")
        object.__setattr__(self, "labels", codes.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.trial_ids)

    __eq__ = columns_eq


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


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D float64 matrix scaled to unit euclidean norm, as a
    new matrix; the one normalization of the package. A row's norm is
    sqrt(row.dot(row)), summed in the order of np.linalg.norm on a 1-D
    vector, so a row comes out with the same bits whatever matrix holds it.

    Raises DegenerateVector when a value is not finite or a norm is at or
    below EPS.
    """
    if not np.isfinite(rows).all():
        raise DegenerateVector("embedding contains NaN or infinite values")
    norms = np.sqrt([row.dot(row) for row in rows])
    small = norms[norms <= EPS]
    if small.size:
        raise DegenerateVector(f"cannot normalize vector with norm {small[0]:.3e}")
    return rows / norms[:, np.newaxis]


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit euclidean norm, preserving direction.

    Raises DegenerateVector when the norm is at or below EPS.
    """
    return normalize_rows(as_embedding(v)[np.newaxis])[0]
