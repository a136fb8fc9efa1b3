"""Shared record types and elementary vector operations.

The record types the readers, writers, generator and scorer pass between
them live here, but for Phrase and Transcript, which live in textgate with
the gate that compares them: a trial list is one TrialColumns table, an
embedding space one EmbeddingTable (ids plus an (N, D) float64 matrix), an
enrollmap record one EnrollEntry and a score set one ScoreColumns table.
Each id is stated once: a column of a table, or the key of the mapping
(phrase, transcript or model id -> record) that holds a record, which has no
id of its own. Each type checks itself when it is built, by check_token and
check_text: the package's one rule for what a TSV value may hold. Every
public operation validates its inputs and works in double precision. All
functions here are pure and safe for concurrent use.

The id columns of a trial list and a score set are IdColumns: one UTF-8
buffer with a "\\n" before each id, in the layout of Apache Arrow's
variable-size binary column, so a column holds no Python object per id.
The tables take a list of str as before and convert it, checking its ids
in scans of the buffer. A cache hit (embcache) rebuilds a column from the
entry's bytes, which hold this very buffer after the entry's key, and
checks it by the same scans; nothing makes a str per id until a caller
iterates the column or calls tolist().
"""

import operator
import re
from collections.abc import Sequence
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

_LF = ord("\n")
# The multiplier of IdColumn's row hash: odd, so each step is a bijection.
_MIX = np.uint64(0xFF51AFD7ED558CCD)


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
    """check_token over a list of values, in scans of their UTF-8 bytes:
    what IdColumn(values, what) checks."""
    IdColumn(values, what)


def check_text(value: str, what: str = "text") -> str:
    """Validate the text that ends a line, which may be empty: a str, no
    line break, and a UTF-8 form."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    if "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} contains a line break")
    if undecodable(value):
        raise ValueError(f"{what} {value!r} cannot be encoded as UTF-8")
    return value


def check_unique(values, what: str) -> None:
    """Raise DuplicateId naming the first of values, a list or an IdColumn,
    that repeats an earlier one: "duplicate <what> '<value>'". One set test
    decides, or for an IdColumn its own test (IdColumn.distinct); the value
    by value scan runs only to name the repeat."""
    if isinstance(values, IdColumn):
        if values.distinct():
            return
        values = values.tolist()
    if len(set(values)) != len(values):
        seen = set()
        repeat_value = next(v for v in values if v in seen or seen.add(v))
        raise DuplicateId(f"duplicate {what} '{repeat_value}'")


class IdColumn(Sequence):
    """A read-only sequence of ids (str) held as one UTF-8 buffer, the ids in
    order, each after a "\\n": b"\\nt1\\nt2" for ["t1", "t2"], b"" for none.
    This is the layout of Apache Arrow's variable-size binary column, with
    the separators kept in the buffer: the n + 1 offsets are where each
    id's "\\n" is, and the buffer's length. They are found by one scan of
    the buffer the first time an id is looked up by index; a column that is
    only counted, compared, iterated or converted never holds them.

    IdColumn(values, what) takes a sequence of str, and from_buffer a
    buffer; either refuses what check_token refuses of any one id, and
    with check_token's message for the first such id: the buffer is
    checked by a few scans (no empty id, no tab or \\r byte, and UTF-8),
    and check_token runs on each id only when a scan fails.
    len() is the number of ids; == is one comparison of buffers with
    another IdColumn and id by id with a list; iteration and tolist()
    decode the buffer once and split it."""

    __slots__ = ("_buffer", "_n", "_offsets")

    def __init__(self, values=(), what: str = "id"):
        values = values if isinstance(values, list) else list(values)
        try:
            buffer = ("\n" + "\n".join(values)).encode() if values else b""
        except (TypeError, UnicodeEncodeError):  # a value not a str, or a lone surrogate
            buffer = b"\n"  # which the scans refuse
        if _count_ids(buffer) != len(values):  # a "\n" in an id, or a scan failed
            _refuse(values, what)
        self._buffer, self._n, self._offsets = buffer, len(values), None

    @classmethod
    def from_buffer(cls, buffer: bytes, what: str = "id") -> "IdColumn":
        """The column whose buffer (see IdColumn) is buffer, checked as the
        ids IdColumn takes are; ValueError also when buffer does not start
        with a "\\n"."""
        buffer = bytes(buffer)
        n = _count_ids(buffer)
        if n < 0 or not (buffer.isascii() or _decodes(buffer)):
            ids = buffer.decode("utf-8", "surrogateescape").split("\n")
            if ids[0]:
                raise ValueError("an id column buffer must start with a newline")
            _refuse(ids[1:], what)
        column = cls.__new__(cls)
        column._buffer, column._n, column._offsets = buffer, n, None
        return column

    @property
    def buffer(self) -> bytes:
        return self._buffer

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index) -> str:
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("id column index out of range")
        if self._offsets is None:
            seps = np.flatnonzero(np.frombuffer(self._buffer, np.uint8) == _LF)
            self._offsets = np.append(seps, len(self._buffer))
        start, stop = self._offsets[i : i + 2].tolist()
        return self._buffer[start + 1 : stop].decode()

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other):
        if isinstance(other, IdColumn):
            return self._buffer == other._buffer
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"IdColumn({self.tolist()!r})"

    def tolist(self) -> list:
        """The ids as a new list of str."""
        return self._buffer.decode().split("\n")[1:]

    def distinct(self) -> bool:
        """Whether no id repeats. A column of ids of one length is decided
        by one sort of a 64-bit hash of each id's row of bytes (its "\\n"
        included): ids whose hashes all differ are distinct. Any other
        column, or a hash that repeats, is decided by a set of the ids'
        bytes."""
        n, buffer = self._n, self._buffer
        if n > 1:
            width, rest = divmod(len(buffer), n)
            bytes_ = np.frombuffer(buffer, np.uint8)
            if not rest and (bytes_[::width] == _LF).all():  # one width
                hashes = np.sort(_row_hashes(bytes_.reshape(n, width)))
                if (hashes[1:] != hashes[:-1]).all():
                    return True
        return len(set(buffer.split(b"\n"))) == n + 1


def _count_ids(buffer: bytes) -> int:
    """The number of ids in buffer, its "\\n"s, when it is empty or starts
    with a "\\n" and holds no empty id and no tab or \\r byte; else -1.
    Two scans for a byte and one pass of numpy over a mask of the "\\n"s."""
    if b"\t" in buffer or b"\r" in buffer:
        return -1
    seps = np.frombuffer(buffer, np.uint8) == _LF
    if buffer and (not seps[0] or seps[-1] or (seps[1:] & seps[:-1]).any()):
        return -1
    return int(np.count_nonzero(seps))


def _decodes(buffer: bytes) -> bool:
    """Whether buffer is UTF-8, which has no form for a surrogate."""
    try:
        buffer.decode()
    except UnicodeDecodeError:
        return False
    return True


def _refuse(values: list, what: str):
    """Raise check_token's error for the first of values it refuses."""
    for value in values:
        check_token(value, what)
    raise ValueError(f"{what} column cannot be held as one buffer")  # check_token refused none


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """A uint64 hash of each row of an (n, width) uint8 matrix, mixing in
    8 bytes at a time by xor, an odd multiply and a xor-shift: equal rows
    hash alike."""
    words = np.zeros((len(rows), -(-rows.shape[1] // 8) * 8), np.uint8)
    words[:, : rows.shape[1]] = rows
    hashes = np.zeros(len(rows), np.uint64)
    for word in words.view(np.uint64).T:
        hashes ^= word
        hashes *= _MIX
        hashes ^= hashes >> np.uint64(29)
    return hashes


def _id_column(values, what: str) -> IdColumn:
    """values as an IdColumn: itself if it is one, else IdColumn(values, what)."""
    return values if isinstance(values, IdColumn) else IdColumn(values, what)


def columns_eq(a, b):
    """== for the column tables (TrialColumns, ScoreColumns): equal when b
    has a's type and every column matches, id columns by == and arrays by
    dtype and np.array_equal. The dataclass default would compare the
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
    holds int8 label codes (LABEL_CODES; UNLABELED for no label), and each
    id column an IdColumn, built from the list of str (or the IdColumn) it
    is given. len() is the number of rows. Columns of different lengths, an
    id that check_token rejects, a code outside UNLABELED..3, or float or
    bool codes in a column that is not empty raise ValueError."""

    trial_ids: IdColumn
    model_ids: IdColumn
    test_ids: IdColumn
    labels: np.ndarray  # int8

    def __post_init__(self):
        codes = np.asarray(self.labels)
        columns = dict(trial_id=self.trial_ids, model_id=self.model_ids, test_id=self.test_ids)
        if {len(ids) for ids in columns.values()} != {len(codes)}:
            raise ValueError("trial columns differ in length")
        for what, ids in columns.items():
            object.__setattr__(self, f"{what}s", _id_column(ids, what))
        check_label_codes(codes)
        object.__setattr__(self, "labels", codes.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.trial_ids)

    __eq__ = columns_eq


@dataclass(frozen=True)
class EmbeddingTable:
    """One embedding space: row i of the C-contiguous float64 (N, D) matrix
    is the vector of ids[i]; rows maps each id to its row index, and len()
    is N. ids is a list; an IdColumn, as a cache hit gives, is made one,
    its ids already checked by its own scans. An id that check_token
    rejects raises ValueError, an id listed
    twice DuplicateId, a matrix that is not 2-D with D >= 1 and one row per
    id DimensionMismatch, and a value that is not finite DegenerateVector."""

    ids: list
    matrix: np.ndarray
    rows: dict = field(init=False, repr=False)

    def __post_init__(self):
        checked = isinstance(self.ids, IdColumn)
        if checked:
            object.__setattr__(self, "ids", self.ids.tolist())
        matrix = as_matrix(self.matrix)
        if len(self.ids) != len(matrix):
            raise DimensionMismatch(f"{len(self.ids)} embedding ids for {len(matrix)} rows")
        if not checked:
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
    """Raw enrollmap record: the phrase and the repetitions that build the
    model whose id keys it in an enrollmap mapping. rep_ids is any sequence
    but a str, kept as a tuple. A rep id may not hold ',', the enrollmap's
    separator."""

    phrase_id: str
    rep_ids: tuple

    def __post_init__(self):
        check_token(self.phrase_id, "phrase_id")
        if isinstance(self.rep_ids, str):
            raise ValueError(f"rep_ids must be a sequence of ids, not the str {self.rep_ids!r}")
        object.__setattr__(self, "rep_ids", tuple(self.rep_ids))
        if len(self.rep_ids) != REPS_PER_MODEL:
            raise ValueError(
                f"a model needs exactly {REPS_PER_MODEL} repetition ids, got {len(self.rep_ids)}"
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
    DuplicateId. trial_ids is an IdColumn, built from the list of str (or
    the IdColumn) it is given. Uniqueness is tested on what was given: a
    list by a set of the str it holds, a column (a cache hit) by
    IdColumn.distinct. A value column is kept as np.asarray gives it: an
    array as given, never converted, and a list as an array."""

    trial_ids: IdColumn
    score: np.ndarray  # float64
    passed: np.ndarray  # bool: the gate passed (flag PASS)
    cer: np.ndarray  # float64

    def __post_init__(self):
        for what in ("score", "passed", "cer"):
            object.__setattr__(self, what, np.asarray(getattr(self, what)))
        if {len(self.score), len(self.passed), len(self.cer)} != {len(self.trial_ids)}:
            raise ValueError("score columns differ in length")
        given = self.trial_ids
        object.__setattr__(self, "trial_ids", _id_column(given, "trial_id"))
        if self.passed.dtype != bool:
            raise ValueError("the passed column must be bool")
        for what in ("score", "cer"):
            if not np.isfinite(getattr(self, what)).all():
                raise ValueError(f"{what} column holds NaN or infinite values")
        check_unique(given, "trial id")

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
