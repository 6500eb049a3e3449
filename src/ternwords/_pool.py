"""The package's one process pool: ordered results of a function over tasks.

``pool_imap`` is a generator; wrap it in ``contextlib.closing`` so that a
caller that stops early stops the workers at once.  Workers are forked, so
a task function and its arguments need no re-import and start in the
caller's state.  ``multiprocessing`` is imported when the generator
starts, so commands that never use the pool do not pay for it.

Results come in task order because a sharded search needs it: with a
result limit it must keep the first pairs of the one-process order, and
report the same node count on every run.

Each worker talks to the caller over a pipe of its own, one task at a
time, and shares no lock with anything.  So a worker can be killed at any
moment.  ``multiprocessing.Pool`` does not allow that: its workers send
results under one shared lock, and ``Pool.terminate()`` can kill a worker
that holds it, after which the pool's task thread waits for the lock
forever.  A count stopped by its budget hung that way.
"""

import os


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def context():
    """The ``multiprocessing`` context the pool's workers start in; shared
    objects that a task function takes must come from it."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover
        return multiprocessing.get_context()


def pool_imap(fn, tasks: list, workers: int):
    """Yield ``fn(task)`` for each task, in task order, computed by at most
    ``min(workers, len(tasks), usable_cpus())`` worker processes.

    An exception raised by ``fn`` reaches the caller when its result is
    due.  After the last result every worker is told to exit and joined;
    closing the generator before that, or an exception, terminates the
    workers and joins them instead.
    """
    return _imap(fn, tasks, min(workers, len(tasks), usable_cpus()))


def _imap(fn, tasks: list, size: int):
    from multiprocessing.connection import wait

    ctx = context()
    pending = enumerate(tasks)
    busy = set()  # connections of workers with a task in flight, one each
    procs = []
    done = {}  # results that arrived before their turn, by task index
    finished = False
    try:
        for _ in range(size):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(fn, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            procs.append((proc, conn))
            conn.send(next(pending))
            busy.add(conn)
        for due in range(len(tasks)):
            while due not in done:
                for conn in wait(list(busy)):
                    index, ok, value = conn.recv()
                    done[index] = ok, value
                    task = next(pending, None)
                    if task is None:
                        busy.remove(conn)
                    else:
                        conn.send(task)
            ok, value = done.pop(due)
            if not ok:
                raise value
            yield value
        finished = True
    finally:
        for proc, conn in procs:
            if finished:
                conn.send(None)
            else:
                proc.terminate()
            proc.join()
            proc.close()  # its sentinel pipe, else open until collected
            conn.close()


def _serve(fn, conn):
    """Worker loop: run ``fn`` on each (index, task) received until None."""
    for index, task in iter(conn.recv, None):
        try:
            conn.send((index, True, fn(task)))
        except Exception as exc:  # handed to the caller, which raises it
            conn.send((index, False, exc))
