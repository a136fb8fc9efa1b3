"""A cache of parsed embedding files, keyed by their content.

score parses each embedding file through load(). A file of
tsvio._SPLIT_BYTES or more is looked up under one hash of a format tag,
the source of the code that decides what a file parses to (tsvio.py and
core.py) and the digests of the file's two halves, so an entry can only
serve the bytes and the code it was made from. A hit loads the stored ids and matrix, which
EmbeddingTable checks again; a miss parses the file and stores its table.
A smaller file parses in 17-32 ms (1.04 MB, 2 CPUs) and is never cached.
An input that is not a regular file (a pipe) is copied once to a temporary
file, which is keyed, parsed and hashed again in its place, so it hits the
entry of the same bytes read from a file.

An entry is an .npz of two arrays: `ids`, the UTF-8 bytes of the entry's
key and the ids, one a line (an id holds no newline, so this splits back
exactly; a numpy string array would drop an id's trailing NULs), and
`matrix`, the float64 matrix. An entry that is missing, corrupt, written
for another key or of another form is a miss, and a failed write leaves
the cache as it was, as every write through tsvio.output_file does:
neither changes an output byte. A miss stores its table only when the
file hashes to the key again after the parse, so an entry is never the
parse of other bytes than its key's. A file that fails to parse is never
stored, so its diagnostic is the parser's. After each store, the oldest
entries by mtime (a hit refreshes it) go until the directory fits
BUDGET_BYTES, output_file's temporary files that a killed store left
included.

The entries live in $XDG_CACHE_HOME/tdsvkit, or ~/.cache/tdsvkit. The
cache is off, and costs no hash, unless that directory can be made or is
a directory of this user that no one else may write.
"""

import os
import threading
import zipfile
from typing import Optional, Tuple

import numpy as np

from . import core, tsvio
from .core import EmbeddingTable

try:  # the builtin module: hashlib would load OpenSSL, a few MB of RSS
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# Changes whenever the entry form does.
_FORMAT = b"tdsvkit embedding cache 1\n"
# The most bytes of entries the cache directory keeps.
BUDGET_BYTES = 1 << 30
_CHUNK = 1 << 18


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
    before. An input that is not a regular file (a pipe) is copied once to
    a temporary file (tsvio._regular_file), which is keyed, parsed and
    hashed again before a store in its place, and removed before this
    returns or raises."""
    with tsvio._regular_file(path) as f:
        large = os.fstat(f.fileno()).st_size >= tsvio._SPLIT_BYTES
        directory = _private_dir() if large else None
        try:
            key = _key(f.name) if directory else None
        except OSError:
            key = None
        if key is None:
            return _parse(path, f)
        entry = os.path.join(directory, key + ".npz")
        table = _read(entry, key)
        if table is not None:
            return table, table.matrix.shape[1]
        table, dim = _parse(path, f)
        _store(entry, key, f.name, table)
        return table, dim


def _parse(path, f) -> Tuple[EmbeddingTable, int]:
    """tsvio.parse_embeddings(path) when f is path's own file, else the
    parse of f, path's temporary copy, whose diagnostics name path."""
    if f.name == os.fspath(path):
        return tsvio.parse_embeddings(path)
    return tsvio._read_embeddings(path, f)


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


def _key(path) -> str:
    """The cache key of the embedding file path, as hex, from the digests
    of its two halves. The second half is hashed in a thread while this
    one hashes the first: blake2b lets go of the GIL, so on two CPUs this
    takes little more than half the time of one pass."""
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
    return blake2b(_source_digest() + b"".join(digests), digest_size=32).hexdigest()


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


def _read(entry: str, key: str) -> Optional[EmbeddingTable]:
    """The table the entry holds, or None unless it is an entry for key."""
    try:
        # np.load leaks the file it opens when that is no zip archive
        with open(entry, "rb") as f, np.load(f, allow_pickle=False) as npz:
            if sorted(npz.files) != ["ids", "matrix"]:
                return None
            blob, matrix = npz["ids"], npz["matrix"]
        if (blob.dtype, blob.ndim, matrix.dtype, matrix.ndim) != (np.uint8, 1, np.float64, 2):
            return None
        head, _, text = blob.tobytes().decode("utf-8").partition("\n")
        if head != key:
            return None
        table = EmbeddingTable(text.split("\n") if text else [], matrix)
    except Exception:
        # An entry is input from outside this run: zipfile alone raises
        # BadZipFile, NotImplementedError or RuntimeError on bytes it cannot
        # read. Whatever fails is a miss, and is not reported, as the cache
        # changes no output byte. The zip CRC guards the stored values.
        return None
    try:
        os.utime(entry)  # so that pruning takes the least recently used first
    except OSError:
        pass
    return table


def _store(entry: str, key: str, path, table: EmbeddingTable) -> None:
    """Write the entry of table, parsed from path, through tsvio.output_file
    unless path no longer hashes to key, then prune; any OSError leaves the
    cache as it is."""
    blob = np.frombuffer("\n".join([key, *table.ids]).encode("utf-8"), np.uint8)
    if blob.nbytes + table.matrix.nbytes > BUDGET_BYTES:
        return
    try:
        with tsvio.output_file(entry) as f:
            _write_npz(f.buffer, ids=blob, matrix=table.matrix)
            # The bytes may have changed while they were parsed, even
            # to the same size and mtime.
            if _key(path) != key:
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
