import os

import pytest

from ternwords import _pool, builtin_pair


@pytest.fixture(scope="session")
def builtin():
    return builtin_pair()


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Run the pool's tasks in this process, so that no worker process
    starts; the list gets the size of each pool made."""
    sizes = []

    def inline_imap(fn, tasks, size):
        sizes.append(size)
        yield from map(fn, tasks)

    monkeypatch.setattr(_pool, "_imap", inline_imap)
    return sizes


@pytest.fixture()
def set_cpus(monkeypatch):
    """Make the package see ``count`` CPUs (``os.cpu_count()``, with no
    affinity mask); None stands for a platform that cannot tell."""

    def set_count(count):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    return set_count
