"""TSV file formats: parsers and writers.

All files are UTF-8 text with one record per line and tab-separated fields.
Embedding files open with a `#dim <D>` header and hold space-separated
floats serialized at 17 significant digits, which round-trips doubles
exactly. Parsers read each input once, so a pipe serves as well as a file,
and raise a per-line diagnostic (path:line: detail) on any malformed input
instead of crashing, bytes that are not UTF-8 included. Every reader splits
lines as text mode does, at \\n, \\r\\n or a lone \\r, as _pieces does. Writers
emit deterministic bytes for identical inputs ("\\n" endings on every
platform). Each table's rows but an embedding space's and a DET file's are
formatted by one % (_write_rows), every id an argument, so a '%' in an id
stays literal. An embedding space's values are formatted in blocks by
fmt17.format_rows, which gives the bytes of "%.17g": exactly, by numpy
arithmetic, for every value x with 1e-4 <= |x| < 1, and by Python's
"%.17g" for the rest. A DET file's points are formatted by
fmt6.format_columns, which gives the bytes of "%.6f" by numpy arithmetic
when every value is a float64 that rounds below 1000 (|x| < 999.9999995);
any other DET table is formatted by one % whole.
The record types check their values when they are built (core.check_token,
core.check_text). A phrase, transcript or enrollmap record holds no id: it
is read and written as id -> record. A writer checks only what no one
record can, those keys (core.check_tokens), and leaves an existing file as
it was if one is refused. So every file written here reads back as what
was written. Every writer writes through output_file, so a write that
fails partway leaves its path as it was too.
One row loop reads every embedding file, in one part; an input that is not
a regular file (a pipe) is read as a temporary copy. The writer splits a
file of _SPLIT_BYTES or more in two, when the host can fork onto a second
CPU, with the bytes of one process, and writes the child's half itself
where the fork or the child fails (_in_two_parts). The record types read
and written here come from core and textgate, so reading a file loads no
scoring code.

Formats:
    embeddings   #dim <D>            then  <id>\\t<v1> <v2> ... <vD>
    trials       <trial_id>\\t<model_id>\\t<test_id>[\\t<label>]
    phrases      <phrase_id>\\t<text>
    transcripts  <utt_id>\\t<text>
    enrollmap    <model_id>\\t<phrase_id>\\t<rep1>,<rep2>,<rep3>
    scores       <trial_id>\\t<score .6f>\\t<PASS|PUNITIVE>\\t<cer .4f>
    det          #p_miss\\tp_fa\\tthreshold   then  rows at .6f
"""

import math
import os
import re
import shutil
import stat
import tempfile
from contextlib import contextmanager, suppress
from itertools import chain, repeat
from typing import List, Mapping, Optional, Tuple

import numpy as np

from .core import (
    LABEL_CODES,
    REPS_PER_MODEL,
    UNLABELED,
    EmbeddingTable,
    EnrollEntry,
    ScoreColumns,
    TrialColumns,
    check_token,
    check_tokens,
)
from .errors import (
    BadHeader,
    BadLabel,
    BadRepCount,
    DimMismatch,
    DuplicateId,
    EmptyReference,
    MalformedLine,
    TdsvError,
    UnparseableFloat,
)
from .textgate import Phrase, Transcript

_HEADER_RE = re.compile(r"#dim (\d+)")
# The largest dim of a float64 matrix numpy can allocate, even with no rows.
_MAX_DIM = int(np.iinfo(np.intp).max) // 8
# An embedding file of at least this many bytes is written in two processes
# (see _splits): a fork and the pipe back cost a few ms on a 2-core host,
# which a smaller file does not win back. Every file is read in one.
_SPLIT_BYTES = 1 << 20
# The most bytes _pieces reads at once. A line longer than this, a row of
# more than about 10,000 values, is read in several reads and joined.
_PIECE_BYTES = 1 << 18
# The most values write_embeddings formats at once (a row at least), so that
# no temporary of the formatter grows with the table: about 2 MiB of lanes.
_FORMAT_VALUES = 1 << 16
_LF, _CR = ord("\n"), ord("\r")
_FLAG_NAMES = ("PUNITIVE", "PASS")  # indexed by the passed flag
_FLAGS = frozenset(_FLAG_NAMES)
_NAME_CODES = {label.name: code for label, code in LABEL_CODES.items()}
# The text after a trial's test id, per label code.
_LABEL_FIELDS = {code: f"\t{name}" for name, code in _NAME_CODES.items()} | {UNLABELED: ""}


def _pieces(f, bound=math.inf):
    """Yield the lines of the next bound bytes of the binary file f, or of
    all the rest, each with its line end, as bytes.splitlines(True) splits
    them: at \\n, \\r\\n or a lone \\r, as text mode does. The bytes come in
    reads of _PIECE_BYTES at most, each split once. The last line of a read
    that does not end in \\n may go on in the next read (a line cut short, or
    a \\r a \\n may follow), so it is held, and joined once a read ends it."""
    held = []  # the start of a line that no read so far has ended
    while bound > 0 and (read := f.read(min(_PIECE_BYTES, bound))):
        bound -= len(read)
        if held and held[-1][-1] == _CR:
            read = held.pop() + read
        lines = read.splitlines(True)
        if held:
            held.append(lines[0])
            if len(lines) == 1 and read[-1] != _LF:
                continue
            lines[0] = b"".join(held)
            held = []
        if read[-1] != _LF:
            held.append(lines.pop())
        yield from lines
    if held:
        yield b"".join(held)


def _lines(path, lines, n=1, offset=0):
    """Yield (line_no, line) for each line, with its line end, of lines
    (_pieces of a binary file, or bytes.splitlines(True)), numbered from n
    and decoded strictly: a bad byte raises MalformedLine naming its offset,
    counted from offset, where the lines start in their file."""
    for n, raw in enumerate(lines, n):
        try:
            yield n, raw.rstrip(b"\r\n").decode()
        except UnicodeDecodeError as exc:
            detail = f"not valid UTF-8 at byte offset {offset + exc.start}"
            raise MalformedLine(path, n, detail) from None
        offset += len(raw)


def _bulk_or_scan(path, bulk, scan):
    """Read path once: bulk(its non-empty lines), or, when its bytes are not
    UTF-8 or bulk returns None, scan(path, (line_no, line) pairs), which
    names the first bad line. One copy of the file is alive at a time: the
    bytes go once decoded, the text once split into the lines the scan gets,
    numbered as _lines would, as \\r\\n and a lone \\r became \\n first."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        return scan(path, _lines(path, raw.splitlines(True)))
    del raw
    if "\r" in text:  # as _pieces splits; str.splitlines also splits at \\f, U+2028, ...
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.removesuffix("\n").split("\n")
    del text
    parsed = bulk(lines if "" not in lines else list(filter(None, lines)))
    return parsed if parsed is not None else scan(path, enumerate(lines, 1))


def _columns(lines: List[str], n_fields: int) -> Optional[List[list]]:
    """The fields of tab-separated lines as n_fields column lists, or None
    when some line has another number of fields."""
    if set(map(str.count, lines, repeat("\t"))) - {n_fields - 1}:
        return None
    fields = "\t".join(lines).split("\t") if lines else []
    return [fields[i::n_fields] for i in range(n_fields)]


def _finite_field(path, n: int, col: int, token: str) -> float:
    """Parse one float field of line n; nan and infinities are rejected."""
    try:
        value = float(token)
    except ValueError:
        raise UnparseableFloat(path, n, f"column {col}: {token!r} is not a float") from None
    if not math.isfinite(value):
        raise UnparseableFloat(path, n, f"column {col}: non-finite value {token!r}")
    return value


def _declared_dim(path, header: str) -> int:
    """The dim a `#dim <D>` header line declares, or BadHeader."""
    m = _HEADER_RE.fullmatch(header)
    if m is None:
        raise BadHeader(path, 1, f"expected '#dim <D>' header, got {header!r}")
    try:
        dim = int(m.group(1))
    except ValueError:  # more digits than int() converts
        dim = _MAX_DIM + 1
    if dim < 1:
        raise BadHeader(path, 1, f"declared dim must be >= 1, got {dim}")
    if dim > _MAX_DIM:
        raise BadHeader(path, 1, f"declared dim must be at most {_MAX_DIM}, got {m.group(1)}")
    return dim


def _splits(size: int) -> bool:
    """Whether an embedding file of size bytes is written in two processes:
    it is at least _SPLIT_BYTES long, this platform can fork, and this
    process may run on two or more CPUs."""
    if size < _SPLIT_BYTES or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _in_two_parts(first, second) -> tuple:
    """(first(), the bytes second() returns), where first runs in this
    process and second in a forked child that pipes its bytes back
    meanwhile. The bytes are None when no process can be forked or the
    child fails: the caller then does second's part itself. Both pipe ends
    are closed, and a forked child reaped, before this returns or raises;
    the child is killed first unless its bytes were read, and killed then
    reaped if the wait for it is interrupted, which is raised once the
    child is gone.

    A forked child, not a spawned one: it shares this process's memory and
    modules, where a spawned one would import numpy again: about 0.1 s, more
    than half of what the split saves in writing score-embed's two spaces
    (36 MB). It runs only second() and exits, taking no lock that another
    thread of this process might hold, so the warning of Python 3.12+ that
    a fork with threads (numpy's) may deadlock is ignored.
    """
    import gc  # here, as only a split needs them
    import signal
    import warnings

    r, w = ends = list(os.pipe())
    pid = theirs = None
    try:
        with suppress(OSError), warnings.catch_warnings():  # OSError: no process to spare
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded")
            pid = os.fork()
        if pid == 0:  # the child, which never returns
            status = 1
            try:
                gc.disable()  # so that no finalizer of this process's garbage runs twice
                os.close(r)  # so that its write fails, not blocks, once the parent's end is closed
                with open(w, "wb") as pipe:
                    pipe.write(second())
                status = 0
            finally:
                os._exit(status)
        os.close(ends.pop())  # w, so that the pipe ends when the child does
        mine = first()
        if pid is not None:
            theirs = os.fdopen(r, "rb", closefd=False).read()
    finally:
        for end in ends:
            os.close(end)
        if pid:
            try:
                if theirs is None:
                    os.kill(pid, signal.SIGKILL)
                if os.waitpid(pid, 0)[1]:
                    theirs = None
            except BaseException:  # an interrupt in the wait: the child goes all the same
                with suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):  # reaped before the interrupt
                    os.waitpid(pid, 0)
                raise
    return mine, theirs


@contextmanager
def _regular_file(path):
    """path opened for reading bytes when it is a regular file; any other
    input (a pipe) copied once to a temporary file, which is yielded open
    at its start, as a file that has a size and reopens by its name (which
    embcache hashes), and removed on exit."""
    with open(path, "rb") as f:
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            yield f
            return
        with tempfile.NamedTemporaryFile() as copy:
            shutil.copyfileobj(f, copy)
            copy.seek(0)  # which also writes out what the copy still buffers
            yield copy


def parse_embeddings(path) -> Tuple[EmbeddingTable, int]:
    """Read one embedding space; returns (its EmbeddingTable, declared dim).
    An input that is not a regular file (a pipe) is read from a temporary
    copy (_regular_file), removed before this returns or raises; every
    diagnostic names path all the same (_read_embeddings)."""
    with _regular_file(path) as f:
        return _read_embeddings(path, f)


def _read_embeddings(path, f) -> Tuple[EmbeddingTable, int]:
    """parse_embeddings(path), read from f, the open regular file of path's
    bytes (_regular_file(path)), at its start; every diagnostic names path.
    f is read in one pass up to its size at this call, into a matrix with
    _room for its bytes. A file found to have grown or changed while it was
    read raises OSError."""
    size = os.fstat(f.fileno()).st_size
    pieces = _pieces(f, size)
    header = next(pieces, b"")
    dim = _declared_dim(path, next(_lines(path, [header]))[1])
    rows = np.empty((_room(size - len(header), dim), dim))
    ids = list(_read_rows(path, _lines(path, pieces, 2, len(header)), dim, rows))
    if os.fstat(f.fileno()).st_size > size:
        raise OSError(f"{path}: the file grew while it was read")
    return EmbeddingTable(ids, rows[: len(ids)]), dim


def _read_rows(path, lines, dim: int, out) -> dict:
    """The ids of the non-blank (line_no, line) pairs of lines, in order, as
    a dict's keys, each checked as a row of dim values and written to row i
    of the matrix out. An id seen before is a DuplicateId. The id is checked
    first, then the values are parsed in one call and checked as a whole;
    values that fail that check are parsed again one by one, so the
    diagnostic names the line and column a per-value parse would. A row
    past the end of out raises OSError: out had room for the file as it
    was."""
    ids = {}  # a dict keeps the order and finds a repeated id at once
    for n, line in lines:
        if not line:
            continue
        utt_id, tab, rest = line.partition("\t")
        if not tab:
            raise MalformedLine(path, n, "expected '<id>\\t<v1> <v2> ...'")
        if not utt_id:
            raise MalformedLine(path, n, "empty id field")
        if utt_id in ids:
            raise DuplicateId(f"{path}:{n}: duplicate id '{utt_id}'")
        tokens = rest.split(" ")
        try:
            values = np.fromiter(map(float, tokens), np.float64)
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            for col, token in enumerate(tokens, start=1):
                _finite_field(path, n, col, token)
        if values.size != dim:
            raise DimMismatch(path, n, f"expected {dim} values, got {values.size}")
        if len(ids) == len(out):
            raise OSError(f"{path}: the file changed while it was read")
        out[len(ids)] = values
        ids[utt_id] = None
    return ids


def _room(n_bytes: int, dim: int) -> int:
    """The most rows of dim values n_bytes of text can hold: a row takes at
    least 2 * dim + 1 bytes and a line end, but for the file's last row."""
    return (n_bytes + 1) // (2 * dim + 2)


def _open_on(fd: int, st: os.stat_result) -> bool:
    """Whether descriptor fd is open on the file st is the stat of."""
    try:
        return os.path.samestat(os.fstat(fd), st)
    except OSError:  # fd is closed
        return False


@contextmanager
def output_file(path):
    """Open path for writing text, as open(path, "w", encoding="utf-8",
    newline="\\n") would, such that path holds either its earlier bytes or
    all the new ones. Every writer of the package writes through it.

    The text goes to a new file beside path, made with the permissions
    open would give, an existing file's own included. When the with block
    ends, os.replace moves it over path, or over the file a symlink path
    names; on any exception it is unlinked and path is left as it was. Two
    kinds of path are written in place, with no such guarantee. The file
    this process's stdout or stderr is open on (/dev/stdout redirected to a
    file) is written through a dup of that descriptor, at its offset, so
    what the process prints next follows the text, not into a file that
    was replaced. Any other path that exists and is not a regular file (a
    FIFO) is opened, since replacing it would replace the device node.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None:
        std = [fd for fd in (1, 2) if _open_on(fd, st)]
        if std or not stat.S_ISREG(st.st_mode):
            with open(os.dup(std[0]) if std else path, "w", encoding="utf-8", newline="\n") as f:
                yield f
            return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    new = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as open(path) names it
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        try:
            if st is not None:
                os.chmod(new, stat.S_IMODE(st.st_mode))
            with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as f:
                yield f
        finally:
            os.close(fd)  # here alone: the file leaves fd open, also when open fails
        os.replace(new, target)
    except BaseException:
        os.unlink(new)
        raise


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Write one embedding space in row order, every value at 17
    significant digits, so that parse_embeddings reads back every file
    written here, bit-equal: a table holds only ids and values the reader
    accepts. Each line is the bytes of f"{id}\\t{v1:.17g} ... {vD:.17g}\\n".

    The values are formatted in whole rows, at most _FORMAT_VALUES (or one
    row) at a time, by fmt17.format_rows:
    a numpy kernel gives each value x with 1e-4 <= |x| < 1 its "%.17g"
    text exactly (a double-double product with the power of ten that brings
    its 17 digits before the point, rounded half to even as "%.17g" rounds),
    and every other value takes Python's own "%.17g". So a file keeps the
    bytes of C's "%.17g", as every file written before and its digests do,
    for under a third of the cost of one % per row.

    A file that _splits, by the size of its first row times its row count,
    is written in two processes: a forked child formats the second half of
    the rows and pipes back their bytes, which this process appends after it
    has written the first half. If the fork or the child fails, this process
    writes the second half too, so the bytes are the same either way.
    """
    from .fmt17 import format_rows  # here, as no other command writes an embedding file

    dim = table.matrix.shape[1]
    step = max(1, _FORMAT_VALUES // dim)

    def lines(start, stop):
        for i in range(start, stop, step):
            j = min(i + step, stop)
            yield "".join(map("{}\t{}\n".format, table.ids[i:j], format_rows(table.matrix[i:j])))

    n = len(table)
    half = n // 2 if n > 1 and _splits(n * len(next(lines(0, 1)))) else 0
    with output_file(path) as f:
        f.write(f"#dim {dim}\n")
        tail = None
        if half:
            _, tail = _in_two_parts(
                lambda: f.writelines(lines(0, half)), lambda: "".join(lines(half, n)).encode()
            )
        if tail is None:
            f.writelines(lines(half, n))
        else:
            f.flush()
            f.buffer.write(tail)


def parse_trials(path) -> TrialColumns:
    """Read a trial list into columns; the label field is optional per line.

    A file whose lines are all labeled or all unlabeled is checked in bulk;
    any anomaly, a mix included, scans the lines already read one by one, so
    the diagnostic names the first bad line. Trial ids may repeat.
    """
    return _bulk_or_scan(path, _bulk_trials, _scan_trials)


def _bulk_trials(lines: List[str]) -> Optional[TrialColumns]:
    """The columns when every line is a well-formed trial line and all or
    none of them carry a label; None otherwise."""
    columns = _columns(lines, 4) or _columns(lines, 3)
    if columns is None:
        return None
    trial_ids, model_ids, test_ids, *names = columns
    codes = [UNLABELED] * len(trial_ids)
    if names:  # an unknown name gets code -2, which TrialColumns rejects
        codes = list(map(_NAME_CODES.get, names[0], repeat(-2)))
    try:
        return TrialColumns(trial_ids, model_ids, test_ids, codes)
    except ValueError:  # an empty id or an unknown label name
        return None


def _scan_trials(path, lines) -> TrialColumns:
    """Parse the (line_no, line) pairs of a trial list one by one, raising
    the first problem in line order, and within a line in the order field
    count, label, empty id."""
    columns = [], [], [], []
    for n, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise MalformedLine(path, n, f"expected 3 or 4 tab-separated fields, got {len(fields)}")
        code = UNLABELED
        if len(fields) == 4:
            code = _NAME_CODES.get(fields[3])
            if code is None:
                raise BadLabel(path, n, f"label must be one of TC/TW/IC/IW, got {fields[3]!r}")
        if "" in fields[:3]:
            what = ("trial_id", "model_id", "test_id")[fields.index("")]
            raise MalformedLine(path, n, f"{what} must be a non-empty string")
        for column, value in zip(columns, fields[:3] + [code]):
            column.append(value)
    return TrialColumns(*columns)


def write_trials(trials: TrialColumns, path) -> None:
    """Write a trial list; a trial without a label gets no label field."""
    labels = map(_LABEL_FIELDS.__getitem__, trials.labels.tolist())
    rows = zip(trials.trial_ids, trials.model_ids, trials.test_ids, labels)
    _write_rows(path, "%s\t%s\t%s%s\n", rows)


def _parse_id_text(path, factory) -> dict:
    """Shared reader for the two `<id>\\t<text>` formats: id -> factory(text)."""
    table = {}
    with open(path, "rb") as f:
        for n, line in _lines(path, _pieces(f)):
            if not line:
                continue
            if "\t" not in line:
                raise MalformedLine(path, n, "expected '<id>\\t<text>'")
            key, text = line.split("\t", 1)
            if not key:
                raise MalformedLine(path, n, "empty id field")
            if key in table:
                raise DuplicateId(f"{path}:{n}: duplicate id '{key}'")
            try:
                table[key] = factory(text)
            except EmptyReference:  # the one way a text fails; the phrase lacks its id
                detail = f"phrase '{key}' is empty after normalization"
                raise MalformedLine(path, n, detail) from None
    return table


def parse_phrases(path) -> dict:
    """Read the reference phrase table: phrase_id -> Phrase."""
    return _parse_id_text(path, Phrase)


def parse_transcripts(path) -> dict:
    """Read ASR hypotheses: utt_id -> Transcript. Empty text is legal."""
    return _parse_id_text(path, Transcript)


def _write_keyed(table: Mapping, path, what: str, fields) -> None:
    """Write id -> record as `<id>\\t<fields(record)>` lines, every id checked first."""
    check_tokens(list(table), what)
    _write_rows(path, "%s\t%s\n", ((key, fields(record)) for key, record in table.items()))


def write_phrases(phrases: Mapping, path) -> None:
    _write_keyed(phrases, path, "phrase_id", lambda r: r.text)


def write_transcripts(transcripts: Mapping, path) -> None:
    _write_keyed(transcripts, path, "utt_id", lambda r: r.text)


def parse_enrollmap(path) -> dict:
    """Read the enrollment map: model_id -> EnrollEntry (three rep ids)."""
    entries = {}
    with open(path, "rb") as f:
        for n, line in _lines(path, _pieces(f)):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(
                    path, n, f"expected 3 tab-separated fields, got {len(fields)}"
                )
            model_id, phrase_id, reps_field = fields
            if model_id in entries:
                raise DuplicateId(f"{path}:{n}: duplicate model id '{model_id}'")
            rep_ids = reps_field.split(",")
            if len(rep_ids) != REPS_PER_MODEL:
                raise BadRepCount(
                    path,
                    n,
                    f"expected {REPS_PER_MODEL} comma-separated repetition ids, "
                    f"got {len(rep_ids)}",
                )
            try:
                check_token(model_id, "model_id")
                entries[model_id] = EnrollEntry(phrase_id, rep_ids)
            except ValueError as exc:
                raise MalformedLine(path, n, str(exc)) from None
    return entries


def write_enrollmap(entries: Mapping, path) -> None:
    _write_keyed(entries, path, "model_id", lambda e: f"{e.phrase_id}\t{','.join(e.rep_ids)}")


def parse_scores(path) -> ScoreColumns:
    """Read a score file into columns (labels come from a trial list, not
    from this file).

    The file is checked in bulk; any anomaly scans the lines already read
    one by one, so the diagnostic names the first bad line.
    """
    return _bulk_or_scan(path, _bulk_scores, _scan_scores)


def _bulk_scores(lines: List[str]) -> Optional[ScoreColumns]:
    """The columns when every line is a well-formed score line and no trial
    id repeats; None otherwise."""
    columns = _columns(lines, 4)
    if columns is None:
        return None
    trial_ids, score_s, flags, cer_s = columns
    n = len(trial_ids)
    if not _FLAGS.issuperset(flags):
        return None
    try:
        score = np.fromiter(map(float, score_s), np.float64, n)
        cer = np.fromiter(map(float, cer_s), np.float64, n)
        passed = np.fromiter(map("PASS".__eq__, flags), bool, n)
        return ScoreColumns(trial_ids, score, passed, cer)
    except (ValueError, TdsvError):  # a bad float, or what ScoreColumns rejects
        return None


def _scan_scores(path, lines) -> ScoreColumns:
    """Parse the (line_no, line) pairs of a score file one by one, raising
    the first problem in line and then column order."""
    trial_ids, scores, passed, cers = [], [], [], []
    seen = set()
    for n, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedLine(path, n, f"expected 4 tab-separated fields, got {len(fields)}")
        trial_id, score_s, flag, cer_s = fields
        if not trial_id:
            raise MalformedLine(path, n, "empty trial id field")
        if trial_id in seen:
            raise DuplicateId(f"{path}:{n}: duplicate trial id '{trial_id}'")
        seen.add(trial_id)
        scores.append(_finite_field(path, n, 2, score_s))
        if flag not in _FLAGS:
            raise MalformedLine(path, n, f"gate flag must be PASS or PUNITIVE, got {flag!r}")
        cers.append(_finite_field(path, n, 4, cer_s))
        trial_ids.append(trial_id)
        passed.append(flag == "PASS")
    return ScoreColumns(trial_ids, np.array(scores), np.array(passed, bool), np.array(cers))


def _write_rows(path, row: str, rows, head: str = "") -> None:
    """Write head, then every row, a tuple of one value per conversion in
    row, formatted by row in one % (the bytes of one f-string per row, as
    "%.6f" % x gives those of f"{x:.6f}"). Each value is an argument, so a
    '%' stays literal."""
    values = tuple(chain.from_iterable(rows))
    with output_file(path) as f:
        f.write(head)
        f.write(row * (len(values) // row.count("%")) % values)


def write_scores(records: ScoreColumns, path) -> None:
    """Write a score set: 6-decimal score, gate flag, 4-decimal CER."""
    flags = map(_FLAG_NAMES.__getitem__, records.passed.tolist())
    rows = zip(records.trial_ids, records.score.tolist(), flags, records.cer.tolist())
    _write_rows(path, "%s\t%.6f\t%s\t%.4f\n", rows)


def write_det(points, path) -> None:
    """Write DET operating points (metrics.ErrorRates) under a
    `#p_miss\\tp_fa\\tthreshold` header: p_miss, p_fa and threshold at 6
    decimals, as many rows as the shortest column has values.

    fmt6.format_columns gives the rows the bytes of "%.6f" by numpy
    arithmetic when all three columns are float64 and every value rounds
    to at most three digits before the point (|x| < 999.9999995): p_miss
    and p_fa always do, and the thresholds of metrics.sweep do for every
    score within +-998. Any other table (a NaN, an infinity, a larger
    value, an int or bool column) is written whole by one % (_write_rows),
    so the bytes are the same either way."""
    from .fmt6 import format_columns  # here, as no other command writes a DET file

    head = "#p_miss\tp_fa\tthreshold\n"
    columns = (points.p_miss, points.p_fa, points.threshold)
    text = None
    if all(column.dtype == np.float64 for column in columns):
        n = min(map(len, columns))
        text = format_columns([column[:n] for column in columns])
    if text is None:
        _write_rows(path, "%.6f\t%.6f\t%.6f\n", zip(*(c.tolist() for c in columns)), head)
        return
    with output_file(path) as f:
        f.write(head)
        f.write(text)


def write_dataset(ds, out_dir) -> dict:
    """Write a synthetic dataset under fixed file names; returns the paths.

    Emits phrases.tsv, enrollmap.tsv, trials.tsv, transcripts.tsv, and one
    embeddings_<space>.tsv per space of ds.embeddings. Each file is whole or
    as it was (output_file), but the directory is not: a failed run may leave
    some files new and the rest old.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = [
        ("phrases", write_phrases, ds.phrases),
        ("enrollmap", write_enrollmap, ds.enroll_entries),
        ("trials", write_trials, ds.trials),
        ("transcripts", write_transcripts, ds.transcripts),
    ] + [(f"embeddings_{name}", write_embeddings, table) for name, table in ds.embeddings.items()]
    paths = {}
    for name, write, value in files:
        paths[name] = os.path.join(out_dir, f"{name}.tsv")
        write(value, paths[name])
    return paths
