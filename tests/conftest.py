"""Shared fixture builders for the test suite."""

import builtins
import contextlib
import os
import pathlib
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from metaembed.store import EmbeddingTable, SequenceTable


@pytest.fixture(scope="session", autouse=True)
def table_cache(tmp_path_factory):
    """The session's cache of parsed vector tables, outside the user's own; subprocesses inherit it.

    Session-scoped: hypothesis refuses function-scoped fixtures in its tests.  A test that needs an
    empty cache points ``METAEMBED_CACHE`` at a directory of its own.
    """
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("table-cache")
        mp.setenv("METAEMBED_CACHE", str(path))
        yield path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_vector_table(rng, n, dim, prefix="w"):
    ids = [f"{prefix}{i}" for i in range(n)]
    return EmbeddingTable(ids, rng.normal(size=(n, dim)))


def make_sequence_table(rng, ids, dim, max_len=4):
    lengths = rng.integers(1, max_len + 1, size=len(ids))
    return SequenceTable(list(ids), [rng.normal(size=(s, dim)) for s in lengths])


def random_spd(rng, n, jitter=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + (n + jitter) * np.eye(n)


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


@contextlib.contextmanager
def empty_table_cache():
    """An empty cache of parsed vector tables for the ``with``: a new directory, removed after it."""
    with tempfile.TemporaryDirectory() as path, mock.patch.dict(os.environ, {"METAEMBED_CACHE": path}):
        yield pathlib.Path(path)


@contextlib.contextmanager
def counted_opens(path):
    """A list that gains an entry each time *path* is opened inside the ``with``."""
    real, opened = builtins.open, []

    def counting(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real(file, *args, **kwargs)

    with mock.patch("builtins.open", counting):
        yield opened


def traced_peak(fn, *args):
    """The peak of memory traced by ``tracemalloc`` while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_live_at(module, name, fn, *args):
    """The memory traced by ``tracemalloc`` on each entry to ``module.name`` while ``fn(*args)`` runs.

    ``module.name`` is wrapped for the call, so the callers that are counted are those that look
    it up in *module*.
    """
    inner = getattr(module, name)
    live = []

    def entered(*a, **kw):
        live.append(tracemalloc.get_traced_memory()[0])
        return inner(*a, **kw)

    setattr(module, name, entered)
    tracemalloc.start()
    try:
        fn(*args)
        return live
    finally:
        tracemalloc.stop()
        setattr(module, name, inner)


def pytest_configure(config):
    config.addinivalue_line("markers", "large_corpus: a larger reader-oracle corpus, run only with -m large_corpus")


def pytest_collection_modifyitems(config, items):
    if "large_corpus" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="opt-in: run with -m large_corpus")
    for item in items:
        if "large_corpus" in item.keywords:
            item.add_marker(skip)
