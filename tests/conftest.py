"""Fixtures and helpers shared by every test module."""

import contextlib
import os
import tempfile
import threading

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point XDG_CACHE_HOME at a directory of this session, so that the
    embedding cache of `score`, in process and in the CLI subprocesses that
    inherit os.environ, never reads or writes the user's own cache."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache-home"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


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
