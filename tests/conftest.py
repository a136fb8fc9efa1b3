"""Fixtures and helpers shared by every test module."""

import contextlib
import os
import tempfile
import threading

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point XDG_CACHE_HOME at a directory of this session, so that the
    cache of parsed tables that `score`, `evaluate` and `det` read through,
    in process and in the CLI subprocesses that inherit os.environ, never
    reads or writes the user's own cache."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache-home"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH, for a child."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_labeled_set(directory, n=40000, seed=7):
    """Write scores.tsv and trials.tsv of n trials into directory, each
    file 1 MiB or more, so that the commands read both through the cache
    of parsed tables: the four labels in even shares in a seeded order,
    scores in trial-list order, and a tie block of PUNITIVE scores at -1
    made mostly of wrong-phrase trials, as the benchmark's score set."""
    import numpy as np

    from tdsvkit import tsvio
    from tdsvkit.core import ScoreColumns, TrialColumns

    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 4).astype(np.int8)
    wrong_phrase = labels % 2 == 1  # TW and IW
    passed = rng.random(n) >= np.where(wrong_phrase, 0.9, 0.05)
    means = np.array([0.65, 0.45, 0.15, 0.05])[labels]
    score = np.where(passed, np.round(np.clip(rng.normal(means, 0.15), -1, 1), 6), -1.0)
    cer = np.round(np.where(passed, rng.uniform(0, 0.3, n), rng.uniform(0.31, 1.2, n)), 4)
    ids = [f"trial{i:07d}" for i in range(n)]
    models, tests = [f"model{i % 997:04d}" for i in range(n)], [f"utt{i:07d}" for i in range(n)]
    os.makedirs(directory, exist_ok=True)
    trials, scores = os.path.join(directory, "trials.tsv"), os.path.join(directory, "scores.tsv")
    tsvio.write_trials(TrialColumns(ids, models, tests, labels), trials)
    tsvio.write_scores(ScoreColumns(ids, score, passed, cer), scores)
    assert min(map(os.path.getsize, (trials, scores))) >= tsvio._SPLIT_BYTES


@contextlib.contextmanager
def piped(content: bytes):
    """Yield a path that can be read only once: a FIFO that a writer thread
    feeds content into once a reader opens it. The path becomes an empty
    file before the first byte is written, so an open after a read sees an
    empty stream, as a second open of a pipe from `<(...)` does, and never
    waits for a writer: a reader that reads its path twice fails on its
    output. The writer is always joined."""
    with tempfile.TemporaryDirectory() as d:
        path, empty = os.path.join(d, "pipe"), os.path.join(d, "empty")
        os.mkfifo(path)
        open(empty, "wb").close()

        def feed():
            with open(path, "wb") as f:  # waits for a reader
                os.replace(empty, path)
                try:
                    f.write(content)
                except BrokenPipeError:  # the reader closed the pipe first
                    pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            yield path
        finally:
            # a writer still waiting for a reader is let go by one that
            # reads nothing, and then finds the pipe closed
            while writer.is_alive():
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
                writer.join(0.01)


@contextlib.contextmanager
def drained():
    """Yield (path, got): a FIFO whose bytes a reader thread reads to the
    end, once a writer opens it, and appends to the list got as one bytes
    object. The reader is always joined, so got holds them after the with
    block."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fifo")
        os.mkfifo(path)
        got = []

        def drain():
            with open(path, "rb") as f:  # waits for a writer
                got.append(f.read())

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            yield path, got
        finally:
            # a reader still waiting for a writer is let go by one that
            # writes nothing
            while reader.is_alive():
                with contextlib.suppress(OSError):
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(0.01)
