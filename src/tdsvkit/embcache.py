"""A cache of the column tables parsed from large input files, keyed by
their content.

Three table types are kept, each one _Kind: an embedding space
(EmbeddingTable, read by load, which score calls for each --embeddings), a
score file (ScoreColumns, load_scores) and a trial list (TrialColumns,
load_trials), which evaluate and det read and score reads its --trials
through. A kind is the table type, the arrays its entry holds with their
exact dtype and ndim, and tsvio's reader; all three go through the one
lookup, parse-on-miss, re-hash, store and prune path of _load.

A file of tsvio._SPLIT_BYTES or more is looked up under one hash of a
format tag, the source of the code that decides what a file parses to
(tsvio.py and core.py), the kind and the digests of the file's two
halves, so an entry can only serve the bytes, the code and the kind it was
made from. A hit loads the stored columns and rebuilds the table type,
which checks them again; a miss parses the file and stores its table. A
smaller file parses in tens of ms (an embedding file of 1.04 MB in 17-32
ms, 2 CPUs) and is never cached. A piped embedding file, which its parser
reads from a temporary copy, is copied once to a temporary file, which is
keyed, parsed and hashed again in its place, so it hits the entry of the
same bytes read from a file. A piped score file or trial list, which its
parser reads once as it streams, is parsed as it is and never cached.

An entry is an .npz of one array per field of the table. An id column is
the UTF-8 bytes of the entry's key and then the ids, each after a newline:
the key, then the buffer of the column as a core.IdColumn (a numpy string
array would drop an id's trailing NULs). A hit checks the key and builds
the IdColumn straight from the bytes after it, with no str per id; a few
scans of those bytes, and for a score file IdColumn.distinct, check them
again. A trial list or score file keeps that column; an embedding space
makes it a list, its ids already checked by those scans. A value column
is the array the parse gives, of the kind's dtype and ndim. An entry that
is missing, corrupt, written for another key or of another form (another
field, dtype or ndim) is a miss, and a failed write leaves the cache as
it was, as every write through tsvio.output_file does: neither changes an
output byte. A miss stores its
table only when the file hashes to the key again after the parse, so an
entry is never the parse of other bytes than its key's. A file that fails
to parse is never stored, so its diagnostic is the parser's. After each
store, the oldest entries by mtime (a hit refreshes it) go until the
directory fits BUDGET_BYTES, output_file's temporary files that a killed
store left included.

The entries live in $XDG_CACHE_HOME/tdsvkit, or ~/.cache/tdsvkit. The
cache is off, and costs no hash, unless that directory can be made or is
a directory of this user that no one else may write.
"""

import os
import stat
import threading
import zipfile
from dataclasses import fields
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from . import core, tsvio
from .core import EmbeddingTable, ScoreColumns, TrialColumns

try:  # the builtin module: hashlib would load OpenSSL, a few MB of RSS
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# Changes whenever the entry form does.
_FORMAT = b"tdsvkit column cache 2\n"
# The most bytes of entries the cache directory keeps.
BUDGET_BYTES = 1 << 30
_CHUNK = 1 << 18


class _Kind(NamedTuple):
    """What one table type's entries hold, and how it is parsed."""

    table: type  # built from an entry's columns by keyword, which checks them
    arrays: dict  # value column -> (dtype, ndim); every other field is an id column
    parse: Callable  # path -> its table, by tsvio's public reader
    # (path, f) -> the table read from f, path's temporary copy; None for a
    # kind whose parser reads a pipe as it streams, which is not cached
    read: Optional[Callable] = None

    @property
    def columns(self) -> list:
        """The table's fields that an entry holds, in order."""
        return [f.name for f in fields(self.table) if f.init]


# The readers are looked up on tsvio at each call, as a test or a tracer
# may have replaced them there.
_EMBEDDINGS = _Kind(
    EmbeddingTable,
    {"matrix": (np.float64, 2)},
    lambda path: tsvio.parse_embeddings(path)[0],
    lambda path, f: tsvio._read_embeddings(path, f)[0],
)
_SCORES = _Kind(
    ScoreColumns,
    {"score": (np.float64, 1), "passed": (np.bool_, 1), "cer": (np.float64, 1)},
    lambda path: tsvio.parse_scores(path),
)
_TRIALS = _Kind(
    TrialColumns,
    {"labels": (np.int8, 1)},
    lambda path: tsvio.parse_trials(path),
)


def _cache_dir() -> str:
    """$XDG_CACHE_HOME/tdsvkit, or ~/.cache/tdsvkit when that variable is
    unset or not an absolute path (the XDG base directory rule)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "tdsvkit")


def load(path) -> Tuple[EmbeddingTable, int]:
    """tsvio.parse_embeddings(path): the same table and dim, or the same
    error, read from the cache when this code has parsed these bytes
    before (_load)."""
    table = _load(path, _EMBEDDINGS)
    return table, table.matrix.shape[1]


def load_scores(path) -> ScoreColumns:
    """tsvio.parse_scores(path), or its error, through the cache (_load)."""
    return _load(path, _SCORES)


def load_trials(path) -> TrialColumns:
    """tsvio.parse_trials(path), or its error, through the cache (_load)."""
    return _load(path, _TRIALS)


def _load(path, kind: _Kind):
    """kind's table of path, or the parser's error: read from the cache
    when this code has parsed these bytes as this kind before, else parsed
    and stored. An input that is not a regular file (a pipe) is parsed as
    it is when kind has no read; otherwise it is copied once to a temporary
    file (tsvio._regular_file), which is keyed, parsed and hashed again
    before a store in its place, and removed before this returns or
    raises."""
    if kind.read is None and not _is_regular(path):
        return kind.parse(path)
    with tsvio._regular_file(path) as f:
        large = os.fstat(f.fileno()).st_size >= tsvio._SPLIT_BYTES
        directory = _private_dir() if large else None
        try:
            key = _key(f.name, kind) if directory else None
        except OSError:
            key = None
        if key is None:
            return _parse(path, f, kind)
        entry = os.path.join(directory, key + ".npz")
        table = _read(entry, key, kind)
        if table is None:
            table = _parse(path, f, kind)
            _store(entry, key, f.name, table, kind)
        return table


def _is_regular(path) -> bool:
    """Whether path is a regular file; False when it cannot be looked at,
    which the parser then reports."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def _parse(path, f, kind: _Kind):
    """kind.parse(path) when f is path's own file, else kind.read of f,
    path's temporary copy, whose diagnostics name path."""
    if f.name == os.fspath(path):
        return kind.parse(path)
    return kind.read(path, f)


def _private_dir() -> Optional[str]:
    """The cache directory, made with mode 0o700 if missing, or None when
    it cannot be made or written, or is not this user's alone: another
    user could plant an entry under a key anyone can compute."""
    directory = _cache_dir()
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
    except OSError:
        return None
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return None
    if st.st_mode & 0o022 or not os.access(directory, os.W_OK | os.X_OK):
        return None
    return directory


def _source_digest() -> bytes:
    """The digest of the format tag and of tsvio's and core's source."""
    h = blake2b(_FORMAT)
    for module in (tsvio, core):
        with open(module.__file__, "rb") as f:
            h.update(blake2b(f.read()).digest())
    return h.digest()


def _key(path, kind: _Kind) -> str:
    """The cache key of path read as kind, as hex, from the digests of its
    two halves. The second half is hashed in a thread while this one hashes
    the first: blake2b lets go of the GIL, so on two idle CPUs this takes
    about 0.55-0.75 of the time of one pass (a 20.6 MB file: 15.6-21.8 ms
    against 29.0-40.6 ms, medians of 9 in each of five runs), and on a busy
    host about as long (33.6 against 32.7 ms)."""
    size = os.path.getsize(path)
    halves = [(0, size // 2), (size // 2, size)]
    digests = [None, None]

    def digest(i):
        try:
            digests[i] = _digest(path, *halves[i])
        except OSError:
            pass  # the key fails below

    second = threading.Thread(target=digest, args=(1,))
    second.start()
    try:
        digest(0)
    finally:
        second.join()  # before any fork: the parse forks on a miss
    if None in digests:
        raise OSError(f"cannot read {path}")
    tag = kind.table.__name__.encode() + b"\n"
    return blake2b(_source_digest() + tag + b"".join(digests), digest_size=32).hexdigest()


def _digest(path, start: int, stop: int) -> bytes:
    """The digest of bytes [start, stop) of path."""
    h = blake2b(digest_size=32)
    buffer = memoryview(bytearray(_CHUNK))  # one buffer, not a new one a read
    with open(path, "rb", buffering=0) as f:
        f.seek(start)
        while start < stop and (n := f.readinto(buffer[: min(_CHUNK, stop - start)])):
            h.update(buffer[:n])
            start += n
    return h.digest()


def _read(entry: str, key: str, kind: _Kind):
    """kind's table the entry holds, or None unless it is an entry for key
    whose every column has the form a parse gives it."""
    try:
        # np.load leaks the file it opens when that is no zip archive
        with open(entry, "rb") as f, np.load(f, allow_pickle=False) as npz:
            if sorted(npz.files) != sorted(kind.columns):
                return None
            columns = {name: npz[name] for name in kind.columns}
        for name, array in columns.items():
            if (array.dtype, array.ndim) != kind.arrays.get(name, (np.uint8, 1)):
                return None
            if name not in kind.arrays:  # an id column: its key, then its buffer
                if array[: len(key)].tobytes() != key.encode():
                    return None
                columns[name] = core.IdColumn.from_buffer(array[len(key) :].tobytes())
        table = kind.table(**columns)
    except Exception:
        # An entry is input from outside this run: zipfile alone raises
        # BadZipFile, NotImplementedError or RuntimeError on bytes it cannot
        # read, and the table type raises on columns it refuses. Whatever
        # fails is a miss, and is not reported, as the cache changes no
        # output byte. The zip CRC guards the stored values.
        return None
    try:
        os.utime(entry)  # so that pruning takes the least recently used first
    except OSError:
        pass
    return table


def _store(entry: str, key: str, path, table, kind: _Kind) -> None:
    """Write the entry of kind's table, parsed from path, through
    tsvio.output_file unless path no longer hashes to key, then prune; any
    OSError leaves the cache as it is."""
    columns = {}
    for name in kind.columns:
        column = getattr(table, name)
        if name not in kind.arrays:
            column = np.frombuffer(key.encode() + core._id_column(column, name).buffer, np.uint8)
        columns[name] = column
    if sum(column.nbytes for column in columns.values()) > BUDGET_BYTES:
        return
    try:
        with tsvio.output_file(entry) as f:
            _write_npz(f.buffer, **columns)
            # The bytes may have changed while they were parsed, even
            # to the same size and mtime.
            if _key(path, kind) != key:
                raise OSError(f"{path} changed while it was parsed")
        _prune(os.path.dirname(entry))
    except OSError:
        pass


def _write_npz(f, **arrays: np.ndarray) -> None:
    """np.savez(f, **arrays) for C-contiguous arrays, written from their own
    buffers: np.savez copies an array into 16 MiB chunks on the way into
    the archive, which raises a miss's peak RSS."""
    with zipfile.ZipFile(f, "w") as archive:
        for name, array in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                header = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(member, header)
                member.write(array.reshape(-1).view(np.uint8))


def _prune(directory: str) -> None:
    """Delete the oldest entries and temporary files by mtime until the
    rest fit BUDGET_BYTES."""
    files = []
    with os.scandir(directory) as items:
        for item in items:
            if item.name.endswith((".npz", ".tmp")) and item.is_file(follow_symlinks=False):
                st = item.stat(follow_symlinks=False)
                files.append((st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= BUDGET_BYTES:
            break
        os.unlink(path)
        total -= size
