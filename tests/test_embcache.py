"""The embedding cache of `score` (tdsvkit.embcache): a hit gives the table
and every output byte of a parse, and no entry that is bad, stale or
foreign, and no cache directory that fails, changes an output byte."""

import errno
import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from tdsvkit import embcache, tsvio
from tdsvkit.cli import main
from tdsvkit.core import EmbeddingTable


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A one-space dataset whose embedding file is large enough to cache."""
    data = tmp_path_factory.mktemp("embcache") / "data"
    with redirect_stdout(io.StringIO()):
        code = main(["simulate", "--seed", "3", "--n-speakers", "80", "--space", "a:256:0.5",
                     "--err-correct", "0.1", "--err-wrong", "0.1", "--out", str(data)])
    assert code == 0
    assert os.path.getsize(data / "embeddings_a.tsv") >= tsvio._SPLIT_BYTES
    return data


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh, empty cache home for one test; returns the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "tdsvkit"


@pytest.fixture
def parses(monkeypatch):
    """The paths tsvio.parse_embeddings is called on, in call order."""
    calls = []
    parse = tsvio.parse_embeddings

    def counted(path):
        calls.append(str(path))
        return parse(path)

    monkeypatch.setattr(tsvio, "parse_embeddings", counted)
    return calls


@pytest.fixture
def hashes(monkeypatch):
    """The paths embcache hashes, in call order."""
    calls = []
    key = embcache._key

    def counted(path):
        calls.append(str(path))
        return key(path)

    monkeypatch.setattr(embcache, "_key", counted)
    return calls


def _score(data, out, embeddings=None):
    """`tdsvkit score` in process: (exit code, stdout, stderr, score bytes)."""
    argv = ["score"] + [
        a for name in ("trials", "enrollmap", "phrases", "transcripts")
        for a in (f"--{name}", str(data / f"{name}.tsv"))
    ] + ["--embeddings", f"a={embeddings or data / 'embeddings_a.tsv'}", "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def _uncached(monkeypatch, data, out, embeddings=None):
    """_score with the cache taken out of the score path."""
    with monkeypatch.context() as m:
        m.setattr(embcache, "load", tsvio.parse_embeddings)
        return _score(data, out, embeddings)


def _entries(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def _same_table(a, b):
    return a.ids == b.ids and a.matrix.tobytes() == b.matrix.tobytes() and a.matrix.shape == b.matrix.shape


def _edited(src, dst):
    """A copy of the embedding file src whose last value has another
    second decimal: the same size, another value."""
    raw = bytearray(src.read_bytes())
    i = raw.index(b".", raw.rindex(b" ")) + 2
    raw[i] = ord("1") if raw[i] != ord("1") else ord("2")
    dst.write_bytes(bytes(raw))
    return dst


def test_cold_warm_and_unwritable_give_the_same_output(
    dataset, cache, tmp_path, monkeypatch, parses, hashes
):
    want = _uncached(monkeypatch, dataset, tmp_path / "ref.tsv")
    assert want[0] == 0 and want[2] == "" and want[3]
    assert len(parses) == 1
    assert _score(dataset, tmp_path / "cold.tsv") == want
    assert len(parses) == 2 and len(_entries(cache)) == 1
    assert len(hashes) == 2  # the lookup, and the check before the store
    assert _score(dataset, tmp_path / "warm.tsv") == want
    assert len(parses) == 2 and len(hashes) == 3  # a hit: no parse
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))  # no directory can be made in it
    assert _score(dataset, tmp_path / "unwritable.tsv") == want
    assert len(parses) == 3 and len(hashes) == 3  # off: not even a hash


def test_relative_cache_home_means_the_home_cache(dataset, tmp_path, monkeypatch):
    # the XDG rule: a relative XDG_CACHE_HOME is ignored, as if unset
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "xdg")
    monkeypatch.chdir(tmp_path)
    embcache.load(dataset / "embeddings_a.tsv")
    assert len(_entries(tmp_path / "home" / ".cache" / "tdsvkit")) == 1
    assert os.listdir(tmp_path) == ["home"]


def _open_to_all(cache, monkeypatch):
    cache.mkdir(parents=True)
    cache.chmod(0o777)


def _of_another_user(cache, monkeypatch):
    cache.mkdir(parents=True, mode=0o700)
    monkeypatch.setattr(os, "getuid", lambda: os.stat(cache).st_uid + 1)


@pytest.mark.parametrize("share", [_open_to_all, _of_another_user])
def test_shared_cache_directory_turns_the_cache_off(
    dataset, cache, tmp_path, monkeypatch, parses, hashes, share
):
    """Another user could plant an entry in a directory that is not this
    user's alone, under a key anyone can compute."""
    want = _uncached(monkeypatch, dataset, tmp_path / "ref.tsv")
    share(cache, monkeypatch)
    assert _score(dataset, tmp_path / "s1.tsv") == want
    assert _score(dataset, tmp_path / "s2.tsv") == want
    assert len(parses) == 3 and hashes == [] and _entries(cache) == []


def test_hit_is_the_parsed_table(dataset, cache):
    path = dataset / "embeddings_a.tsv"
    parsed, dim = tsvio.parse_embeddings(path)
    assert not cache.exists()  # the parser itself writes nothing
    cold, warm = embcache.load(path), embcache.load(path)
    assert cold[1] == warm[1] == dim
    assert _same_table(cold[0], parsed) and _same_table(warm[0], parsed)


def test_hit_refreshes_the_entry_mtime(dataset, cache):
    embcache.load(dataset / "embeddings_a.tsv")
    (entry,) = cache.iterdir()
    os.utime(entry, (1, 1))
    embcache.load(dataset / "embeddings_a.tsv")
    assert entry.stat().st_mtime > 1


def test_hit_whose_mtime_cannot_be_refreshed(dataset, cache, monkeypatch, parses):
    # the table comes back all the same; the entry only ages for pruning
    path = dataset / "embeddings_a.tsv"
    cold, refused = embcache.load(path), []

    def utime(*args):
        refused.append(args)
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(embcache.os, "utime", utime)
    warm = embcache.load(path)
    assert len(parses) == 1 and len(refused) == 1
    assert warm[1] == cold[1] and _same_table(warm[0], cold[0])


def test_file_whose_halves_cannot_be_hashed(dataset, cache, monkeypatch, parses):
    # a read of either half that fails leaves no key: the parse's table,
    # and nothing stored
    path = dataset / "embeddings_a.tsv"
    parsed, dim = tsvio.parse_embeddings(path)
    for half in (0, 1):
        real = embcache._digest

        def digest(p, start, stop):
            if start == half * (os.path.getsize(p) // 2):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real(p, start, stop)

        with monkeypatch.context() as m:
            m.setattr(embcache, "_digest", digest)
            table, got = embcache.load(path)
        assert got == dim and _same_table(table, parsed)
    assert len(parses) == 3 and _entries(cache) == []


def test_small_file_is_not_cached(cache, tmp_path):
    path = tmp_path / "e.tsv"
    tsvio.write_embeddings(EmbeddingTable(["u1", "u2"], np.eye(2)), path)
    table, dim = embcache.load(path)
    assert (table.ids, dim) == (["u1", "u2"], 2)
    assert not cache.exists()


def _truncated(entry, other):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def _zero_bytes(entry, other):
    entry.write_bytes(b"")


def _foreign(entry, other):
    os.replace(other, entry)  # another file's entry under this key


def _extra_key(entry, other):
    with np.load(entry) as npz:
        np.savez(entry, ids=npz["ids"], matrix=npz["matrix"], more=np.zeros(1))


def _string_ids(entry, other):
    with np.load(entry) as npz:
        ids = np.array(npz["ids"].tobytes().decode().split("\n"))
        np.savez(entry, ids=ids, matrix=npz["matrix"])


def _float32_matrix(entry, other):
    with np.load(entry) as npz:
        np.savez(entry, ids=npz["ids"], matrix=npz["matrix"].astype(np.float32))


@pytest.mark.parametrize(
    "spoil", [_truncated, _zero_bytes, _foreign, _extra_key, _string_ids, _float32_matrix]
)
def test_bad_entry_is_a_miss(dataset, cache, tmp_path, monkeypatch, parses, spoil):
    want = _uncached(monkeypatch, dataset, tmp_path / "ref.tsv")
    assert _score(dataset, tmp_path / "cold.tsv") == want
    (entry,) = cache.iterdir()
    embcache.load(_edited(dataset / "embeddings_a.tsv", tmp_path / "other.tsv"))
    (other,) = set(cache.iterdir()) - {entry}
    spoil(entry, other)
    del parses[:]
    assert _score(dataset, tmp_path / "spoiled.tsv") == want
    assert len(parses) == 1
    assert _score(dataset, tmp_path / "again.tsv") == want  # the miss stored a good entry
    assert len(parses) == 1


def test_same_size_edit_is_a_miss(dataset, cache, tmp_path, parses):
    path = shutil.copy(dataset / "embeddings_a.tsv", tmp_path / "e.tsv")
    before = embcache.load(path)[0]
    stat = os.stat(path)
    _edited(dataset / "embeddings_a.tsv", tmp_path / "e.tsv")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # as a coarse clock would leave it
    after = embcache.load(path)[0]
    assert len(parses) == 2 and len(_entries(cache)) == 2
    assert _same_table(after, tsvio.parse_embeddings(path)[0])
    assert not _same_table(after, before)


def test_file_rewritten_while_parsed_is_not_stored(dataset, cache, tmp_path, monkeypatch):
    path = shutil.copy(dataset / "embeddings_a.tsv", tmp_path / "e.tsv")
    parse = tsvio.parse_embeddings

    def rewrite_then_parse(p):  # the parse no longer reads the bytes that were hashed
        stat = os.stat(p)
        _edited(dataset / "embeddings_a.tsv", tmp_path / "e.tsv")
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # as a coarse clock would leave it
        assert os.stat(p).st_ino == stat.st_ino
        return parse(p)

    monkeypatch.setattr(tsvio, "parse_embeddings", rewrite_then_parse)
    embcache.load(path)
    assert _entries(cache) == []


def test_leftover_temporary_file_does_not_stop_a_store(dataset, cache, parses):
    """A store that was killed leaves its temporary file beside the entry;
    the next miss of that key, in a process of the same pid, stores all
    the same."""
    path = dataset / "embeddings_a.tsv"
    cache.mkdir(parents=True, mode=0o700)
    entry = cache / (embcache._key(path) + ".npz")
    (cache / f"{entry.name}.{os.getpid()}.tmp").write_bytes(b"PK")
    cold = embcache.load(path)[0]
    assert entry.exists()
    warm = embcache.load(path)[0]
    assert len(parses) == 1 and _same_table(cold, warm)


def test_changed_source_digest_is_a_miss(dataset, cache, monkeypatch, parses):
    path = dataset / "embeddings_a.tsv"
    first = embcache.load(path)[0]
    monkeypatch.setattr(embcache, "_source_digest", lambda: b"other code")
    second = embcache.load(path)[0]
    assert len(parses) == 2 and len(_entries(cache)) == 2
    assert _same_table(first, second)


def test_malformed_file_is_not_stored(dataset, cache, tmp_path, monkeypatch):
    raw = (dataset / "embeddings_a.tsv").read_bytes()
    cut = raw.rindex(b" ", 0, len(raw) - 1) + 1
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(raw[:cut] + b"x" * (len(raw) - cut - 1) + b"\n")  # same size, last value bad
    want = _uncached(monkeypatch, dataset, tmp_path / "ref.tsv", embeddings=bad)
    assert want[0] == 1 and want[2].startswith(f"error=UnparseableFloat: {bad}:")
    assert _score(dataset, tmp_path / "s1.tsv", embeddings=bad) == want
    assert _score(dataset, tmp_path / "s2.tsv", embeddings=bad) == want
    assert _entries(cache) == []


def test_missing_file_gives_the_parser_error(dataset, cache, tmp_path, monkeypatch):
    missing = tmp_path / "none.tsv"
    want = _uncached(monkeypatch, dataset, tmp_path / "ref.tsv", embeddings=missing)
    assert want[0] == 1 and want[2].startswith("error=IoError: ")
    assert _score(dataset, tmp_path / "s.tsv", embeddings=missing) == want


# Ids a numpy string array would change ('\x00' at the end) or that a
# careless join or format could: '%', non-ASCII letters and spaces.
_IDS = ["u\x00", "u\x00\x00", "\x00u", "100%", "%s", "é", "س ص", " lead", "trail ", "a b"]


def test_ids_come_back_equal_from_a_warm_cache(cache, tmp_path, parses):
    n = 300
    ids = _IDS + [f"r{i}" for i in range(n - len(_IDS))]
    matrix = np.random.default_rng(5).standard_normal((n, 256))
    path = tmp_path / "e.tsv"
    tsvio.write_embeddings(EmbeddingTable(ids, matrix), path)
    assert os.path.getsize(path) >= tsvio._SPLIT_BYTES
    cold, warm = embcache.load(path)[0], embcache.load(path)[0]
    assert len(parses) == 1
    assert warm.ids == cold.ids == ids
    assert warm.matrix.tobytes() == cold.matrix.tobytes() == matrix.tobytes()


def test_zero_ids_come_back_from_a_warm_cache(cache, tmp_path, parses):
    path = tmp_path / "e.tsv"
    path.write_bytes(b"#dim 7\n" + b"\n" * tsvio._SPLIT_BYTES)
    cold, warm = embcache.load(path), embcache.load(path)
    assert len(parses) == 1
    assert (warm[0].ids, warm[0].matrix.shape, warm[1]) == ([], (0, 7), 7) == (
        cold[0].ids, cold[0].matrix.shape, cold[1])


def test_pruning_keeps_the_newest_within_the_budget(dataset, cache, tmp_path, monkeypatch):
    first = dataset / "embeddings_a.tsv"
    embcache.load(first)
    (old,) = cache.iterdir()
    leaked = cache / f"{old.name}.99.tmp"
    leaked.write_bytes(b"x" * 100)
    os.utime(leaked, (1, 1))
    os.utime(old, (2, 2))
    monkeypatch.setattr(embcache, "BUDGET_BYTES", old.stat().st_size + 50)
    embcache.load(_edited(first, tmp_path / "second.tsv"))
    (new,) = cache.iterdir()
    assert new != old
    # an entry larger than the whole budget is never stored
    monkeypatch.setattr(embcache, "BUDGET_BYTES", 1000)
    embcache.load(first)
    assert list(cache.iterdir()) == [new]
