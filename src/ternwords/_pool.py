"""The package's one process pool: ordered results of a function over tasks.

``pool_imap`` is a generator; wrap it in ``contextlib.closing`` so that a
caller that stops early stops the workers at once.  Workers are forked, so
a task function and its tasks need no pickling or re-import and start in
the caller's state.  ``multiprocessing`` is imported when the generator
starts, so commands that never use the pool do not pay for it.

Results come in task order because a sharded search needs it: with a
result limit it must keep the first pairs of the one-process order, and
report the same node count on every run.

Worker ``w`` of ``size`` inherits its tasks, ``tasks[w::size]``, through
fork, and sends the caller one result per task, in order, over a one-way
pipe of its own; nothing is sent to a worker.  Result ``i`` is the next one
on worker ``i % size``'s pipe, so the caller reads the results in task
order and keeps none that came early: a worker that runs ahead blocks on
its full pipe until its results are due.  Dealing the tasks before any
runs is enough for the pool's traffic: ``count`` makes one task per
worker, and the shard scan of a search aims at four shards or more per
worker, so that the round-robin slices come out with close loads.

A worker shares no lock with anything, so it can be killed at any moment.
``multiprocessing.Pool`` does not allow that: its workers send results
under one shared lock, and ``Pool.terminate()`` can kill a worker that
holds it, after which the pool's task thread waits for the lock forever.
A count stopped by its budget hung that way.
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
    due.  After the last result each worker exits on its own and is joined;
    closing the generator before that, or an exception, terminates the
    workers and joins them instead.
    """
    return _imap(fn, tasks, min(workers, len(tasks), usable_cpus()))


def _imap(fn, tasks: list, size: int):
    ctx = context()
    procs = []
    finished = False
    try:
        for w in range(size):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(fn, tasks[w::size], child_conn), daemon=True)
            proc.start()
            child_conn.close()
            procs.append((proc, conn))
        for due in range(len(tasks)):
            ok, value = procs[due % size][1].recv()
            if not ok:
                raise value
            yield value
        finished = True
    finally:
        for proc, conn in procs:
            if not finished:
                proc.terminate()
            proc.join()
            proc.close()  # its sentinel pipe, else open until collected
            conn.close()


def _serve(fn, tasks, conn):
    """Worker: send ``(True, fn(task))`` for each task in turn, or
    ``(False, error)`` for the first that raises, and stop there."""
    for task in tasks:
        try:
            conn.send((True, fn(task)))
        except Exception as exc:  # handed to the caller, which raises it
            conn.send((False, exc))
            return
