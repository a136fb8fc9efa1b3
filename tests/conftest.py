"""Fixtures shared by every test module."""

import os

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
