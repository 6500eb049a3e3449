"""The package's one process pool: ordered results and reaped workers."""

import errno
import gc
import os
import signal
import subprocess
import sys
import time
from contextlib import closing, contextmanager

import pytest

from ternwords import CountBudgetError, SearchConfig, count_square_free, find_pairs
from ternwords import _pool, words
from ternwords._pool import pool_imap

from test_cli import _child_env


def assert_no_child():
    """This process has no child left unreaped, exited or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> list:
    return sorted(os.listdir("/proc/self/fd"))


@contextmanager
def leaves_nothing_behind():
    """The block leaves no child unreaped and no descriptor open.  The
    collector is off, as a dropped file closes its descriptor when it is
    collected, and the pool must close each one itself."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("lists open descriptors in /proc")
    gc.disable()
    try:
        before = open_fds()
        yield
        assert open_fds() == before
    finally:
        gc.enable()
    assert_no_child()


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(x)
    return x


def _exit_on_three(x):
    if x == 3:
        os._exit(7)
    return x


def _killed_on_three(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _no_pickle_on_three(x):
    return (x for x in ()) if x == 3 else x  # a generator does not pickle


def _error_that_does_not_pickle_on_three(x):
    if x == 3:
        raise ValueError(lambda: 0)  # a lambda does not pickle
    return x


class TwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _error_that_does_not_unpickle_on_one(x):
    if x == 1:
        raise TwoArgs(x, x)  # pickles, but unpickling calls TwoArgs(msg) with one argument
    return x


def _no_pickle_after_one(x):
    if x == 1:
        _pool.pickle = None  # in worker 1 only: its next result, task 3's, cannot be written
    return x


def _slow_first_then_big(x):
    if x == 0:
        time.sleep(0.3)
        return x
    return bytes([x]) * (2 * 10**6)


class TestPoolImap:
    def test_results_come_in_task_order(self):
        assert list(pool_imap(_square, list(range(50)), 2)) == [x * x for x in range(50)]
        assert_no_child()

    def test_closing_early_stops_the_workers(self):
        with closing(pool_imap(_square, list(range(1000)), 2)) as results:
            assert next(results) == 0
        assert_no_child()

    def test_a_task_error_reaches_the_caller(self):
        with pytest.raises(ValueError):
            list(pool_imap(_fail_on_three, list(range(10)), 2))
        assert_no_child()

    def test_a_worker_that_runs_ahead_waits_for_its_turn(self, set_cpus):
        # worker 1's 2 MB results fill its pipe while task 0 sleeps on
        # worker 0; it blocks until they are due, and nothing is lost
        set_cpus(2)
        results = list(pool_imap(_slow_first_then_big, list(range(6)), 2))
        assert results == [0] + [bytes([x]) * (2 * 10**6) for x in range(1, 6)]
        assert_no_child()

    def test_tasks_need_not_pickle(self, set_cpus):
        set_cpus(2)
        tasks = [lambda x=x: x * x for x in range(5)]  # local functions do not pickle
        assert list(pool_imap(lambda task: task(), tasks, 2)) == [x * x for x in range(5)]
        assert_no_child()

    # task 3 is worker 1's second: the caller reads results 0 .. 2, then
    # meets the end of worker 1's pipe, reaps every worker and says how
    # worker 1 ended
    @pytest.mark.parametrize("task,how", [
        (_exit_on_three, "exited with code 7"),
        (_killed_on_three, "was killed by signal 9"),
    ])
    def test_a_dead_worker_is_named(self, set_cpus, task, how):
        set_cpus(2)
        with leaves_nothing_behind():
            results = pool_imap(task, list(range(10)), 2)
            assert [next(results) for _ in range(3)] == [0, 1, 2]
            with pytest.raises(
                RuntimeError,
                match=rf"^pool worker 1 of 2 {how} before task 3's result$",
            ) as failed:  # its traceback keeps the pool's frame alive
                next(results)
        assert failed.type is RuntimeError

    def test_an_error_that_does_not_pickle_keeps_its_text(self, set_cpus):
        set_cpus(2)
        with leaves_nothing_behind():
            with pytest.raises(
                RuntimeError,
                match=r"^ValueError\(<function _error_that_does_not_pickle_on_three"
                      r"\.<locals>\.<lambda> at 0x[0-9a-f]+>\)$",
            ) as failed:
                list(pool_imap(_error_that_does_not_pickle_on_three, list(range(10)), 2))
        assert failed.type is RuntimeError

    def test_an_error_that_does_not_unpickle_keeps_its_text(self, set_cpus):
        set_cpus(2)
        with leaves_nothing_behind():
            with pytest.raises(RuntimeError, match=r"^TwoArgs\('1 and 1'\)$") as failed:
                list(pool_imap(_error_that_does_not_unpickle_on_one, list(range(4)), 2))
        assert failed.type is RuntimeError

    def test_a_failed_fork_reaps_the_workers_made(self, monkeypatch, set_cpus):
        set_cpus(2)
        fork, pids = os.fork, []

        def fork_once():
            if pids:
                raise OSError(errno.EAGAIN, "fork failed")
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        with leaves_nothing_behind():
            with pytest.raises(OSError) as failed:
                list(pool_imap(_square, range(4), 2))
        assert failed.value.errno == errno.EAGAIN and len(pids) == 1

    def test_a_worker_that_cannot_write_is_named_by_its_exit_code(self, set_cpus):
        # the worker exits 1 when its pipe reaches its end; had it closed
        # the pipe itself first, the caller could kill it in between and
        # name the signal instead
        set_cpus(2)
        with leaves_nothing_behind():
            for _ in range(20):
                with pytest.raises(
                    RuntimeError,
                    match=r"^pool worker 1 of 2 exited with code 1 before task 3's result$",
                ) as failed:
                    list(pool_imap(_no_pickle_after_one, list(range(10)), 2))
        assert failed.type is RuntimeError

    def test_a_result_that_does_not_pickle_is_an_error(self, set_cpus):
        set_cpus(2)
        with leaves_nothing_behind():
            with pytest.raises(TypeError, match="pickle") as failed:
                list(pool_imap(_no_pickle_on_three, list(range(10)), 2))
        assert failed.type is TypeError

    def test_one_worker_runs_in_the_caller(self):
        # so a task that ends its process would end this one; a pid shows it
        assert list(pool_imap(lambda x: os.getpid(), [0, 1, 2], 1)) == [os.getpid()] * 3


def test_the_pool_closes_its_pipes(monkeypatch, set_cpus):
    # a dropped file closes its descriptor only when it is collected; the
    # pool closes its pipes itself after the last result, when the caller
    # stops early and when a task fails, though the error's traceback keeps
    # the pool's frame alive, and a pooled count closes its token pipe
    # whether it fits its budget or not
    set_cpus(2)
    made = []
    token_pipe = words._token_pipe
    monkeypatch.setattr(words, "_token_pipe", lambda tokens: made.append(tokens) or token_pipe(tokens))
    with leaves_nothing_behind():
        assert list(pool_imap(_square, list(range(20)), 2)) == [x * x for x in range(20)]
        with closing(pool_imap(_square, list(range(1000)), 2)) as results:
            next(results)
        with pytest.raises(ValueError) as failed:
            list(pool_imap(_fail_on_three, list(range(10)), 2))
        assert count_square_free(42) == 821154
        with pytest.raises(CountBudgetError) as overrun:
            count_square_free(60, node_budget=10**5)
    assert len(made) == 2, (failed, overrun)  # both counts ran on the pool


def test_workers_are_reaped(set_cpus):
    set_cpus(2)
    find_pairs(SearchConfig(k=18, first_letter=None, parallel_shards=2))
    assert_no_child()
    # a result limit stops the pool while workers have shards left to run
    find_pairs(SearchConfig(k=18, first_letter=None, max_results=3, parallel_shards=3))
    assert_no_child()
    assert count_square_free(words._PARALLEL_MIN_N) == 285750  # a(38), the shortest pooled count
    assert_no_child()
    # a budget that runs out in the parent's walk, and one in the workers';
    # at n=60 neither is known to be too small before the walk
    for budget in (217, 10**5):
        with pytest.raises(CountBudgetError):
            count_square_free(60, node_budget=budget)
        assert_no_child()


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
