"""The package's one process pool: ordered results and reaped workers."""

import gc
import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import closing

import pytest

from ternwords import CountBudgetError, SearchConfig, count_square_free, find_pairs
from ternwords import _pool, words
from ternwords._pool import pool_imap

from test_cli import _child_env


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(x)
    return x


def _slow_first_then_big(x):
    if x == 0:
        time.sleep(0.3)
        return x
    return bytes([x]) * (2 * 10**6)


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

    def test_a_worker_that_runs_ahead_waits_for_its_turn(self, set_cpus):
        # worker 1's 2 MB results fill its pipe while task 0 sleeps on
        # worker 0; it blocks until they are due, and nothing is lost
        set_cpus(2)
        results = list(pool_imap(_slow_first_then_big, list(range(6)), 2))
        assert results == [0] + [bytes([x]) * (2 * 10**6) for x in range(1, 6)]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        _pool.context().get_start_method() != "fork", reason="tasks reach workers by fork"
    )
    def test_tasks_need_not_pickle(self, set_cpus):
        set_cpus(2)
        tasks = [lambda x=x: x * x for x in range(5)]  # local functions do not pickle
        assert list(pool_imap(lambda task: task(), tasks, 2)) == [x * x for x in range(5)]
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
def test_the_pool_closes_its_pipes():
    # a dropped Connection or Process closes its pipes only when it is
    # collected, and warns of nothing; the pool closes them itself after
    # the last result, when the caller stops early and when a task fails,
    # though the error's traceback keeps the pool's frame alive
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    gc.disable()
    try:
        before = open_fds()
        assert list(pool_imap(_square, list(range(20)), 2)) == [x * x for x in range(20)]
        with closing(pool_imap(_square, list(range(1000)), 2)) as results:
            next(results)
        with pytest.raises(ValueError) as failed:
            list(pool_imap(_fail_on_three, list(range(10)), 2))
        assert open_fds() == before, failed
    finally:
        gc.enable()


def test_workers_are_reaped(set_cpus):
    set_cpus(2)
    find_pairs(SearchConfig(k=18, first_letter=None, parallel_shards=2))
    assert multiprocessing.active_children() == []
    # a result limit stops the pool while workers have shards left to run
    find_pairs(SearchConfig(k=18, first_letter=None, max_results=3, parallel_shards=3))
    assert multiprocessing.active_children() == []
    assert count_square_free(words._PARALLEL_MIN_N) == 630666  # a(41), the shortest pooled count
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
