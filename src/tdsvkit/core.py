"""Shared record types and elementary vector operations.

The record types the readers, writers, generator and scorer pass between
them live here, but for Phrase and Transcript, which live in textgate with
the gate that compares them: a trial list is one TrialColumns table, an
embedding space one EmbeddingTable (ids plus an (N, D) float64 matrix), an
enrollmap record one EnrollEntry and a score set one ScoreColumns table.
Each checks itself when it is built, by check_token and check_text: the
package's one rule for what a TSV value may hold. Every public operation
validates its inputs and works in double precision. All functions here are
pure and safe for concurrent use.
"""

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateVector, DimensionMismatch, DuplicateId

# Norms at or below this are treated as degenerate (zero-ish) vectors.
EPS = 1e-12

# Repetitions per enrollment model.
REPS_PER_MODEL = 3

# Values per block of row_dots. A block holds the two gathered row sets, so
# a small one keeps a dot over many rows from raising the peak memory.
_DOT_BLOCK = 1 << 13

_SURROGATE_RE = re.compile("[\ud800-\udfff]")


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


def check_label_codes(codes) -> None:
    """ValueError unless every one of codes is an integer in UNLABELED..3."""
    codes = np.asarray(codes)
    if codes.size and codes.dtype.kind not in "iu":
        raise ValueError(f"label codes must be integers, got {codes.dtype} codes")
    bad = codes[(codes < UNLABELED) | (codes >= len(TrialLabel))]
    if bad.size:
        raise ValueError(f"label code {bad[0]} is not in {UNLABELED}..{len(TrialLabel) - 1}")


def is_real(value) -> bool:
    """Whether value is a real number and not a bool, which counts as one in Python."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_int(value) -> bool:
    """Whether value is an integer, numpy's included, and not a bool. A plain
    int is answered before the slower abstract-class test."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def undecodable(text: str) -> bool:
    """Whether text holds a lone surrogate (as "surrogateescape" reads a byte
    that is not UTF-8), which has no UTF-8 form. ASCII text is not searched."""
    return not text.isascii() and _SURROGATE_RE.search(text) is not None


def check_token(value: str, what: str = "id") -> str:
    """Validate an opaque id token: non-empty, no tab or line break, and a
    UTF-8 form (check_text)."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} contains tab or newline")
    return check_text(value, what)


def check_tokens(values: list, what: str = "id") -> None:
    """check_token over a list of values in one scan of their joined text;
    check_token runs on each value, for its message, only where that scan
    fails."""
    try:
        joined = " ".join(values)
    except TypeError:  # a value that is not a string
        joined = "\n"
    if "" in values or "\t" in joined or "\n" in joined or "\r" in joined or undecodable(joined):
        for value in values:
            check_token(value, what)


def check_text(value: str, what: str = "text") -> str:
    """Validate the text that ends a line, which may be empty: no line break,
    and a UTF-8 form."""
    if "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} contains a line break")
    if undecodable(value):
        raise ValueError(f"{what} {value!r} cannot be encoded as UTF-8")
    return value


def check_unique(values: list, what: str) -> None:
    """Raise DuplicateId naming the first of values that repeats an earlier
    one: "duplicate <what> '<value>'". One set test decides; the value by
    value scan runs only to name the repeat."""
    if len(set(values)) != len(values):
        seen = set()
        repeat_value = next(v for v in values if v in seen or seen.add(v))
        raise DuplicateId(f"duplicate {what} '{repeat_value}'")


def columns_eq(a, b):
    """== for the column tables (TrialColumns, ScoreColumns): equal
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
    check_token rejects, a code outside UNLABELED..3, or float or bool codes
    in a column that is not empty raise ValueError."""

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
        check_label_codes(codes)
        object.__setattr__(self, "labels", codes.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.trial_ids)

    __eq__ = columns_eq


@dataclass(frozen=True)
class EmbeddingTable:
    """One embedding space: row i of the C-contiguous float64 (N, D) matrix
    is the vector of ids[i]; rows maps each id to its row index, and len()
    is N. An id that check_token rejects raises ValueError, an id listed
    twice DuplicateId, a matrix that is not 2-D with D >= 1 and one row per
    id DimensionMismatch, and a value that is not finite DegenerateVector."""

    ids: list
    matrix: np.ndarray
    rows: dict = field(init=False, repr=False)

    def __post_init__(self):
        matrix = as_matrix(self.matrix)
        if len(self.ids) != len(matrix):
            raise DimensionMismatch(f"{len(self.ids)} embedding ids for {len(matrix)} rows")
        check_tokens(self.ids, "embedding id")
        check_unique(self.ids, "embedding id")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            bad = self.ids[np.argmin(finite)]
            raise DegenerateVector(f"embedding '{bad}' contains NaN or infinite values")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rows", dict(zip(self.ids, range(len(matrix)))))

    def __len__(self) -> int:
        return len(self.ids)

    __eq__ = columns_eq


@dataclass(frozen=True)
class EnrollEntry:
    """Raw enrollmap record: which repetitions build which model. A rep id
    may not hold ',', the enrollmap's separator."""

    model_id: str
    phrase_id: str
    rep_ids: tuple

    def __post_init__(self):
        check_token(self.model_id, "model_id")
        check_token(self.phrase_id, "phrase_id")
        if len(self.rep_ids) != REPS_PER_MODEL:
            raise ValueError(
                f"model '{self.model_id}' needs exactly {REPS_PER_MODEL} "
                f"repetition ids, got {len(self.rep_ids)}"
            )
        for rid in self.rep_ids:
            if "," in check_token(rid, "rep_id"):
                raise ValueError(f"rep_id {rid!r} contains ','")


@dataclass(frozen=True)
class ScoreColumns:
    """A score set as columns in trial order: what scoring.score_all
    returns, tsvio.write_scores writes and tsvio.parse_scores reads. len()
    is the number of rows. Columns of different lengths, a trial id that
    check_token rejects, a passed column that is not bool, or a score or
    CER that is not finite raise ValueError, and a trial id listed twice
    DuplicateId. A value column is kept as np.asarray gives it: an array
    as given, never converted, and a list as an array."""

    trial_ids: list
    score: np.ndarray  # float64
    passed: np.ndarray  # bool: the gate passed (flag PASS)
    cer: np.ndarray  # float64

    def __post_init__(self):
        for what in ("score", "passed", "cer"):
            object.__setattr__(self, what, np.asarray(getattr(self, what)))
        if {len(self.score), len(self.passed), len(self.cer)} != {len(self.trial_ids)}:
            raise ValueError("score columns differ in length")
        check_tokens(self.trial_ids, "trial_id")
        if self.passed.dtype != bool:
            raise ValueError("the passed column must be bool")
        for what in ("score", "cer"):
            if not np.isfinite(getattr(self, what)).all():
                raise ValueError(f"{what} column holds NaN or infinite values")
        check_unique(self.trial_ids, "trial id")

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


def as_matrix(values) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 matrix of dim >= 1, copying only
    what is not one already."""
    try:
        matrix = np.ascontiguousarray(values, dtype=np.float64)
    except ValueError as exc:  # rows of different lengths, or not numbers
        raise DimensionMismatch(f"embeddings do not form a matrix: {exc}") from None
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise DimensionMismatch(f"embedding matrix must be 2-D with dim >= 1, got {matrix.shape}")
    return matrix


def row_dots(a: np.ndarray, b: np.ndarray, a_rows, b_rows) -> np.ndarray:
    """a[a_rows[k]] . b[b_rows[k]] for each k, as a float64 vector: the one
    dot product of the package. Each is np.add.reduce over the product of
    the two rows, numpy's pairwise sum, with no BLAS call and no fused
    multiply-add, so its bits depend on neither the CPU, nor the matrix that
    holds a row, nor the other pairs. The rows are gathered and multiplied a
    block of _DOT_BLOCK values at a time, so no temporary grows with the
    number of pairs. A dot that overflows is inf, with no numpy warning."""
    a_rows = np.asarray(a_rows, dtype=np.intp)
    b_rows = np.asarray(b_rows, dtype=np.intp)
    out = np.empty(len(a_rows))
    step = max(1, _DOT_BLOCK // max(1, a.shape[1]))
    with np.errstate(over="ignore"):
        for start in range(0, len(a_rows), step):
            block = np.take(a, a_rows[start : start + step], axis=0)
            block *= np.take(b, b_rows[start : start + step], axis=0)
            np.add.reduce(block, axis=1, out=out[start : start + step])
    return out


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's euclidean norm, the square root of its row_dots with
    itself, so a row's norm does not depend on the CPU or on the matrix that
    holds it. A norm that overflows is inf, with no numpy warning."""
    every = np.arange(len(rows))
    return np.sqrt(row_dots(rows, rows, every, every))


def check_norm(norm: float) -> None:
    """The package's one test that a vector of this norm can be normalized:
    DegenerateVector unless EPS < norm < inf."""
    if norm == np.inf:
        raise DegenerateVector("cannot normalize vector: its norm overflows")
    if not norm > EPS:
        raise DegenerateVector(f"cannot normalize vector with norm {norm:.3e}")


def normalize_rows(rows) -> np.ndarray:
    """Each row of a 2-D float64 matrix (as_matrix) scaled to unit euclidean
    norm, as a new matrix; the one normalization of the package. Each row
    is divided by its row_norms norm, so it comes out with the same bits
    whatever matrix holds it. Raises DegenerateVector when a value is not
    finite or, at the first row it rejects, check_norm does.
    """
    rows = as_matrix(rows)
    if not np.isfinite(rows).all():
        raise DegenerateVector("embedding contains NaN or infinite values")
    norms = row_norms(rows)
    for norm in norms.tolist():
        check_norm(norm)
    return rows / norms[:, np.newaxis]


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit euclidean norm, preserving direction.

    Raises DegenerateVector when the norm is at or below EPS or overflows.
    """
    return normalize_rows(as_embedding(v)[np.newaxis])[0]
