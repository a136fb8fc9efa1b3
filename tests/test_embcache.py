"""The cache of parsed tables (tdsvkit.embcache): a hit gives the table and
every output byte of a parse, and no entry that is bad, stale or foreign,
and no cache directory that fails, changes an output byte.

The contract tests run on each kind of table the cache keeps, through the
`case` fixture: at module level on an embedding file that `score` reads,
and in TestScoreFilesAndTrialLists on a score file and a trial list that
`evaluate` reads. Every module-level test that takes `case` is one of
them; a test of embedding files alone does not take it."""

import errno
import inspect
import io
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import piped, write_labeled_set
from tdsvkit import embcache, tsvio
from tdsvkit.cli import main
from tdsvkit.core import EmbeddingTable, TrialLabel
from tdsvkit.errors import BadLabel, UnparseableFloat


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


@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    """A score file and its trial list, each large enough to cache."""
    data = tmp_path_factory.mktemp("labeled")
    write_labeled_set(data)
    return data


def _run(argv, out=None):
    """The CLI in process: (exit code, stdout, stderr, the bytes of out)."""
    if out is not None and out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = out.read_bytes() if out is not None and out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def _score(data, out, embeddings=None):
    """`tdsvkit score` in process: (exit code, stdout, stderr, score bytes)."""
    argv = ["score"] + [
        a for name in ("trials", "enrollmap", "phrases", "transcripts")
        for a in (f"--{name}", str(data / f"{name}.tsv"))
    ] + ["--embeddings", f"a={embeddings or data / 'embeddings_a.tsv'}", "--out", str(out)]
    return _run(argv, out)


@dataclass(frozen=True)
class Case:
    """One kind of table the cache keeps, and a file of it that is large
    enough to cache, among the other inputs of the command that reads it."""

    name: str  # "embeddings", "scores" or "trials", as in tsvio.parse_<name>
    path: Path
    data: Path
    error: type  # what the parser raises on the file's last line made bad (_malformed)

    @property
    def kind(self):
        return {
            "embeddings": embcache._EMBEDDINGS,
            "scores": embcache._SCORES,
            "trials": embcache._TRIALS,
        }[self.name]

    def load(self, path=None):
        """The table the cache gives for path, this case's file by default."""
        path = path or self.path
        if self.name == "embeddings":
            table, dim = embcache.load(path)
            assert dim == table.matrix.shape[1]
            return table
        return getattr(embcache, f"load_{self.name}")(path)

    def parse(self, path=None):
        """The table tsvio's parser gives for path, this case's file by default."""
        parsed = getattr(tsvio, f"parse_{self.name}")(path or self.path)
        return parsed[0] if self.name == "embeddings" else parsed

    def key(self, path=None) -> str:
        return embcache._key(str(path or self.path), self.kind)

    def report(self, out_dir, path=None):
        """(exit code, stdout, stderr, output bytes) of the command that
        reads this case's file, or path in its place: score of the
        dataset's space a, or evaluate of the labeled set."""
        if self.name == "embeddings":
            return _score(self.data, out_dir / "scores.tsv", path)
        files = {"scores": self.data / "scores.tsv", "trials": self.data / "trials.tsv"}
        files[self.name] = path or self.path
        return _run(["evaluate", "--scores", str(files["scores"]),
                     "--trials", str(files["trials"])])


@pytest.fixture
def case(request):
    """The kind of table a test runs on: the dataset's embedding space a,
    or, as TestScoreFilesAndTrialLists passes it, the labeled set's score
    file or trial list."""
    name = getattr(request, "param", "embeddings")
    if name == "embeddings":
        data = request.getfixturevalue("dataset")
        return Case(name, data / "embeddings_a.tsv", data, UnparseableFloat)
    data = request.getfixturevalue("labeled")
    return Case(name, data / f"{name}.tsv", data, {"scores": UnparseableFloat, "trials": BadLabel}[name])


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh, empty cache home for one test; returns the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "tdsvkit"


@pytest.fixture
def parses(monkeypatch, case):
    """The paths the case's tsvio parser is called on, in call order."""
    calls = []
    name = f"parse_{case.name}"
    parse = getattr(tsvio, name)

    def counted(path):
        calls.append(str(path))
        return parse(path)

    monkeypatch.setattr(tsvio, name, counted)
    return calls


@pytest.fixture
def hashes(monkeypatch, case):
    """The paths embcache hashes as the case's kind, in call order."""
    calls = []
    key = embcache._key

    def counted(path, kind):
        if kind is case.kind:
            calls.append(str(path))
        return key(path, kind)

    monkeypatch.setattr(embcache, "_key", counted)
    return calls


def _uncached(monkeypatch, report, *args):
    """report(*args) with the cache taken out of every command."""
    with monkeypatch.context() as m:
        m.setattr(embcache, "load", tsvio.parse_embeddings)
        m.setattr(embcache, "load_scores", tsvio.parse_scores)
        m.setattr(embcache, "load_trials", tsvio.parse_trials)
        return report(*args)


def _entries(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def _same_table(a, b):
    """Whether a and b are tables of one type with equal id lists and value
    arrays of the same dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape, y.tobytes()):
                return False
        elif x != y:
            return False
    return True


def _edited(src, dst):
    """A copy of src with one digit changed, the same size and another
    value: the second after the last '.' (the last value of an embedding or
    score file), or the last digit of a file with no '.' (a trial list's
    last test id)."""
    raw = bytearray(src.read_bytes())
    dot = raw.rfind(b".")
    i = dot + 2 if dot >= 0 else max(raw.rfind(digit) for digit in b"0123456789")
    raw[i] = ord("1") if raw[i] != ord("1") else ord("2")
    dst.write_bytes(bytes(raw))
    return dst


def _malformed(src, dst):
    """A copy of src whose last line ends in 'x' where its last value or
    label ends: the same size, and a last line that does not parse."""
    raw = bytearray(src.read_bytes())
    raw[-2] = ord("x")  # the byte before the final line end
    dst.write_bytes(bytes(raw))
    return dst


def test_cold_warm_and_unwritable_give_the_same_output(
    case, cache, tmp_path, monkeypatch, parses, hashes
):
    entry = case.key() + ".npz"
    del hashes[:]
    want = _uncached(monkeypatch, case.report, tmp_path)
    assert want[0] == 0 and want[2] == "" and want[1]
    if case.name == "embeddings":
        assert want[3]  # score wrote scores.tsv
    assert len(parses) == 1
    assert case.report(tmp_path) == want
    assert len(parses) == 2 and entry in _entries(cache)
    assert len(hashes) == 2  # the lookup, and the check before the store
    assert case.report(tmp_path) == want
    assert len(parses) == 2 and len(hashes) == 3  # a hit: no parse
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))  # no directory can be made in it
    assert case.report(tmp_path) == want
    assert len(parses) == 3 and len(hashes) == 3  # off: not even a hash


def test_relative_cache_home_means_the_home_cache(case, tmp_path, monkeypatch):
    # the XDG rule: a relative XDG_CACHE_HOME is ignored, as if unset
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "xdg")
    monkeypatch.chdir(tmp_path)
    case.load()
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
    case, cache, tmp_path, monkeypatch, parses, hashes, share
):
    """Another user could plant an entry in a directory that is not this
    user's alone, under a key anyone can compute."""
    want = _uncached(monkeypatch, case.report, tmp_path)
    share(cache, monkeypatch)
    assert case.report(tmp_path) == want
    assert case.report(tmp_path) == want
    assert len(parses) == 3 and hashes == [] and _entries(cache) == []


def test_hit_is_the_parsed_table(case, cache, parses):
    parsed = case.parse()
    assert not cache.exists()  # the parser itself writes nothing
    cold, warm = case.load(), case.load()
    assert len(parses) == 2  # this test's own, and the miss
    assert _same_table(cold, parsed) and _same_table(warm, parsed)


def test_hit_refreshes_the_entry_mtime(case, cache):
    case.load()
    (entry,) = cache.iterdir()
    os.utime(entry, (1, 1))
    case.load()
    assert entry.stat().st_mtime > 1


def test_hit_whose_mtime_cannot_be_refreshed(case, cache, monkeypatch, parses):
    # the table comes back all the same; the entry only ages for pruning
    cold, refused = case.load(), []

    def utime(*args):
        refused.append(args)
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(embcache.os, "utime", utime)
    warm = case.load()
    assert len(parses) == 1 and len(refused) == 1
    assert _same_table(warm, cold)


def test_file_whose_halves_cannot_be_hashed(case, cache, monkeypatch, parses):
    # a read of either half that fails leaves no key: the parse's table,
    # and nothing stored
    parsed = case.parse()
    for half in (0, 1):
        real = embcache._digest

        def digest(p, start, stop):
            if start == half * (os.path.getsize(p) // 2):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real(p, start, stop)

        with monkeypatch.context() as m:
            m.setattr(embcache, "_digest", digest)
            table = case.load()
        assert _same_table(table, parsed)
    assert len(parses) == 3 and _entries(cache) == []


def test_small_file_is_not_cached(case, cache, tmp_path):
    path = tmp_path / "small.tsv"  # the first three lines
    path.write_bytes(b"".join(case.path.read_bytes().splitlines(True)[:3]))
    table = case.load(path)
    assert len(table) in (2, 3) and _same_table(table, case.parse(path))
    assert not cache.exists()


def _rewritten(entry, change):
    """Write the entry's arrays again, as change(arrays) leaves them."""
    with np.load(entry) as npz:
        arrays = {name: npz[name] for name in npz.files}
    change(arrays)
    np.savez(entry, **arrays)


def _id_columns(arrays):
    """The names of the id columns of an entry's arrays, in order."""
    return [name for name, array in arrays.items() if array.dtype == np.uint8]


def _truncated(entry, other):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def _zero_bytes(entry, other):
    entry.write_bytes(b"")


def _foreign(entry, other):
    os.replace(other, entry)  # another file's entry under this key


def _extra_key(entry, other):
    _rewritten(entry, lambda arrays: arrays.update(more=np.zeros(1)))


def _string_ids(entry, other):
    def change(arrays):
        name = _id_columns(arrays)[0]
        arrays[name] = np.array(arrays[name].tobytes().decode().split("\n"))

    _rewritten(entry, change)


def _float32_matrix(entry, other):
    # the first value column: the matrix, the scores or the label codes
    def change(arrays):
        name = next(name for name in arrays if name not in _id_columns(arrays))
        arrays[name] = arrays[name].astype(np.float32)

    _rewritten(entry, change)


@pytest.mark.parametrize(
    "spoil", [_truncated, _zero_bytes, _foreign, _extra_key, _string_ids, _float32_matrix]
)
def test_bad_entry_is_a_miss(case, cache, tmp_path, monkeypatch, parses, spoil):
    want = _uncached(monkeypatch, case.report, tmp_path)
    assert case.report(tmp_path) == want
    entry = cache / (case.key() + ".npz")
    other_file = _edited(case.path, tmp_path / "other.tsv")
    case.load(other_file)
    other = cache / (case.key(other_file) + ".npz")
    assert entry.exists() and other.exists()
    spoil(entry, other)
    del parses[:]
    assert case.report(tmp_path) == want
    assert len(parses) == 1
    assert case.report(tmp_path) == want  # the miss stored a good entry
    assert len(parses) == 1


# Entries whose columns a table type would take, or take as other values,
# but no parse gives. Each changes the arrays of an entry.
def _float32_score(arrays):
    arrays["score"] = arrays["score"].astype(np.float32)


def _two_dimensional_passed(arrays):
    arrays["passed"] = arrays["passed"].reshape(-1, 1)


def _int64_labels(arrays):
    arrays["labels"] = arrays["labels"].astype(np.int64)


def _label_code_out_of_range(arrays):
    arrays["labels"][0] = len(TrialLabel)


def _duplicate_id(arrays):
    name = _id_columns(arrays)[0]
    key, first, _, *rest = arrays[name].tobytes().split(b"\n")
    arrays[name] = np.frombuffer(b"\n".join([key, first, first, *rest]), np.uint8)


def _wrong_key_line(arrays):
    for name in _id_columns(arrays):
        key, ids = arrays[name].tobytes().split(b"\n", 1)
        arrays[name] = np.frombuffer(b"\n".join([b"0" * len(key), ids]), np.uint8)


# A trial list may repeat a trial id, so its table takes a duplicate.
_FORGED = {
    "embeddings": (_duplicate_id, _wrong_key_line),
    "scores": (_float32_score, _two_dimensional_passed, _duplicate_id, _wrong_key_line),
    "trials": (_int64_labels, _label_code_out_of_range, _wrong_key_line),
}


def test_forged_columns_are_misses(case, cache, tmp_path, monkeypatch, parses):
    # each is a miss, whose parse gives the report and writes the entry again
    want = _uncached(monkeypatch, case.report, tmp_path)
    assert case.report(tmp_path) == want
    entry = cache / (case.key() + ".npz")
    good = case.parse()
    for forge in _FORGED[case.name]:
        _rewritten(entry, forge)
        del parses[:]
        assert case.report(tmp_path) == want, forge.__name__
        assert len(parses) == 1, forge.__name__
        assert _same_table(embcache._read(str(entry), case.key(), case.kind), good), forge.__name__


def test_same_size_edit_is_a_miss(case, cache, tmp_path, parses):
    path = shutil.copy(case.path, tmp_path / "e.tsv")
    before = case.load(path)
    stat = os.stat(path)
    _edited(case.path, tmp_path / "e.tsv")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # as a coarse clock would leave it
    after = case.load(path)
    assert len(parses) == 2 and len(_entries(cache)) == 2
    assert _same_table(after, case.parse(path))
    assert not _same_table(after, before)


def test_file_rewritten_while_parsed_is_not_stored(case, cache, tmp_path, monkeypatch):
    path = shutil.copy(case.path, tmp_path / "e.tsv")
    name = f"parse_{case.name}"
    parse = getattr(tsvio, name)

    def rewrite_then_parse(p):  # the parse no longer reads the bytes that were hashed
        stat = os.stat(p)
        _edited(case.path, tmp_path / "e.tsv")
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # as a coarse clock would leave it
        assert os.stat(p).st_ino == stat.st_ino
        return parse(p)

    monkeypatch.setattr(tsvio, name, rewrite_then_parse)
    case.load(path)
    assert _entries(cache) == []


def test_leftover_temporary_file_does_not_stop_a_store(case, cache, parses):
    """A store that was killed leaves its temporary file beside the entry;
    the next miss of that key, in a process of the same pid, stores all
    the same."""
    cache.mkdir(parents=True, mode=0o700)
    entry = cache / (case.key() + ".npz")
    (cache / f"{entry.name}.{os.getpid()}.tmp").write_bytes(b"PK")
    cold = case.load()
    assert entry.exists()
    warm = case.load()
    assert len(parses) == 1 and _same_table(cold, warm)


def test_changed_source_digest_is_a_miss(case, cache, monkeypatch, parses):
    first = case.load()
    monkeypatch.setattr(embcache, "_source_digest", lambda: b"other code")
    second = case.load()
    assert len(parses) == 2 and len(_entries(cache)) == 2
    assert _same_table(first, second)


def test_malformed_file_is_not_stored(case, cache, tmp_path, monkeypatch):
    bad = _malformed(case.path, tmp_path / "bad.tsv")
    want = _uncached(monkeypatch, case.report, tmp_path, bad)
    assert want[0] == 1 and want[2].startswith(f"error={case.error.__name__}: {bad}:")
    assert case.report(tmp_path, bad) == want
    assert case.report(tmp_path, bad) == want
    assert case.key(bad) + ".npz" not in _entries(cache)
    assert len(_entries(cache)) == (case.name == "trials")  # evaluate read the scores first


@pytest.fixture
def spool(tmp_path, monkeypatch):
    """An empty directory that tempfile makes its files in for one test."""
    directory = tmp_path / "spool"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


def test_piped_file_misses_then_hits(dataset, cache, spool, parses, hashes):
    # the pipe's temporary copy, which the parser makes too, is keyed,
    # parsed and hashed again before the store; the entry is the one the
    # file itself hits
    path = dataset / "embeddings_a.tsv"
    parsed, dim = tsvio.parse_embeddings(path)
    del parses[:]
    for run, n_hashes in (("miss", 2), ("hit", 3)):
        with piped(path.read_bytes()) as pipe:
            table, got = embcache.load(pipe)
        assert got == dim and _same_table(table, parsed), run
        assert len(_entries(cache)) == 1 and len(hashes) == n_hashes, run
        assert os.listdir(spool) == [], run
    assert _same_table(embcache.load(path)[0], parsed)
    assert parses == [] and len(_entries(cache)) == 1


def test_bad_piped_row_gives_the_file_diagnostic(case, cache, spool, tmp_path):
    bad = _malformed(case.path, tmp_path / "bad.tsv")
    with pytest.raises(case.error) as parsed:
        case.parse(bad)
    with pytest.raises(case.error) as from_file:
        case.load(bad)
    assert str(from_file.value) == str(parsed.value)
    with piped(bad.read_bytes()) as pipe:
        with pytest.raises(case.error) as from_pipe:
            case.load(pipe)
        assert str(from_pipe.value) == str(parsed.value).replace(str(bad), pipe)
    assert _entries(cache) == [] and os.listdir(spool) == []


def test_missing_file_gives_the_parser_error(case, cache, tmp_path, monkeypatch):
    missing = tmp_path / "none.tsv"
    want = _uncached(monkeypatch, case.report, tmp_path, missing)
    assert want[0] == 1 and want[2].startswith("error=IoError: ")
    assert case.report(tmp_path, missing) == want


def test_pruning_keeps_the_newest_within_the_budget(case, cache, tmp_path, monkeypatch):
    case.load()
    (old,) = cache.iterdir()
    leaked = cache / f"{old.name}.99.tmp"
    leaked.write_bytes(b"x" * 100)
    os.utime(leaked, (1, 1))
    os.utime(old, (2, 2))
    monkeypatch.setattr(embcache, "BUDGET_BYTES", old.stat().st_size + 50)
    case.load(_edited(case.path, tmp_path / "second.tsv"))
    (new,) = cache.iterdir()
    assert new != old
    # an entry larger than the whole budget is never stored
    monkeypatch.setattr(embcache, "BUDGET_BYTES", 1000)
    case.load()
    assert list(cache.iterdir()) == [new]


def test_same_bytes_have_a_key_per_kind(case):
    kinds = (embcache._EMBEDDINGS, embcache._SCORES, embcache._TRIALS)
    assert len({embcache._key(str(case.path), kind) for kind in kinds}) == 3


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


@pytest.mark.parametrize("case", ["scores", "trials"], indirect=True)
class TestScoreFilesAndTrialLists:
    """The contract tests, on a score file and a trial list that evaluate
    reads: every module-level test that takes `case` (added below), and
    what a pipe of them does."""

    def test_piped_file_streams_into_the_parser(self, case, cache, parses, hashes):
        # the public parser reads the pipe itself, once, as it streams: no
        # temporary copy, no hash, nothing cached
        parsed = case.parse()
        del parses[:]
        pipes = []
        for run in range(2):
            with piped(case.path.read_bytes()) as pipe:
                assert _same_table(case.load(pipe), parsed), run
            pipes.append(pipe)
        assert parses == pipes and hashes == [] and not cache.exists()


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and "case" in inspect.signature(_test).parameters:
        setattr(TestScoreFilesAndTrialLists, _name, staticmethod(_test))
