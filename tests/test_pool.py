"""The package's one process pool: ordered results and reaped workers."""

import multiprocessing
import subprocess
import sys
from contextlib import closing

import pytest

from ternwords import CountBudgetError, SearchConfig, count_square_free, find_pairs
from ternwords import words
from ternwords._pool import pool_imap

from test_cli import _child_env


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(x)
    return x


class TestPoolImap:
    def test_results_come_in_task_order(self):
        assert list(pool_imap(_square, list(range(50)), 2)) == [x * x for x in range(50)]
        assert multiprocessing.active_children() == []

    def test_closing_early_stops_the_workers(self):
        with closing(pool_imap(_square, list(range(1000)), 2)) as results:
            assert next(results) == 0
        assert multiprocessing.active_children() == []

    def test_a_task_error_reaches_the_caller(self):
        with pytest.raises(ValueError):
            list(pool_imap(_fail_on_three, list(range(10)), 2))
        assert multiprocessing.active_children() == []


def test_workers_are_reaped(set_cpus):
    set_cpus(2)
    find_pairs(SearchConfig(k=18, first_letter=None, parallel_shards=2))
    assert multiprocessing.active_children() == []
    # a result limit stops the pool with shards still queued
    find_pairs(SearchConfig(k=18, first_letter=None, max_results=3, parallel_shards=3))
    assert multiprocessing.active_children() == []
    assert count_square_free(words._PARALLEL_MIN_N) == 821154
    assert multiprocessing.active_children() == []
    # a budget that runs out in the parent's walk, and one in the workers';
    # at n=60 neither is known to be too small before the walk
    for budget in (58, 10**5):
        with pytest.raises(CountBudgetError):
            count_square_free(60, node_budget=budget)
        assert multiprocessing.active_children() == []


# Eight workers whose tasks all fail with a long error, stopped after the
# first result: most are sending a result when they are stopped.  A pool
# that kills a worker holding a lock it shares with the caller hangs here,
# as multiprocessing.Pool.terminate() does.
_STOP_BUSY_WORKERS = """
import os
from contextlib import closing
os.sched_getaffinity = lambda pid: set(range(8))  # more workers than this box may have CPUs
from ternwords._pool import pool_imap

def fail(x):
    raise ValueError(bytes(10**6))  # a long send

for _ in range(30):
    try:
        with closing(pool_imap(fail, list(range(64)), 8)) as results:
            next(results)
    except ValueError:
        pass
print("done")
"""


def test_stopping_busy_workers_never_hangs():
    proc = subprocess.run(
        [sys.executable, "-c", _STOP_BUSY_WORKERS],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "done\n", "")
