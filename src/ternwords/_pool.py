"""The package's one process pool: ordered results of a function over tasks.

``pool_imap`` is a generator; wrap it in ``contextlib.closing`` so that a
caller that stops early stops the workers at once.  Workers are made with
``os.fork``, so tasks need no pickling; only results are.  A pool of one
worker runs in the caller, as it must where there is no fork.

Results come in task order, as a sharded search with a result limit must
keep the first pairs of the one-process order.  Worker ``w`` of ``size``
inherits ``tasks[w::size]`` and writes one result per task, in order, to a
pipe of its own; result ``i`` is the next on worker ``i % size``'s pipe,
and a worker that runs ahead blocks on its full pipe.  Dealing the tasks
up front is enough: ``count`` makes one task per worker, and a search aims
at four shards or more per worker, so the slices come out with close loads.

A worker shares no lock, so it can be killed at any moment (the count's
budget is a pipe of tokens that never blocks, ``words._token_pipe``);
``multiprocessing.Pool.terminate()`` can kill a worker holding the lock its
workers send under, then wait for that lock forever.  Each worker is
reaped and each pipe closed whatever happens, and a worker that dies
before a result due from it is named, with its exit code or signal.
"""

import os
import pickle


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_imap(fn, tasks: list, workers: int):
    """Yield ``fn(task)`` for each task, in task order, computed by at most
    ``min(workers, len(tasks), usable_cpus())`` worker processes.

    An exception raised by ``fn`` reaches the caller when its result is
    due.  After the last result each worker exits on its own and is reaped;
    closing the generator before that, or an exception, kills the workers
    and reaps them instead.
    """
    return _imap(fn, tasks, min(workers, len(tasks), usable_cpus()))


def _imap(fn, tasks: list, size: int):
    if size < 2 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
        return
    workers, finished, lost = [], False, None  # workers: (pid, result pipe)
    try:
        for w in range(size):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _serve(fn, tasks[w::size], write)  # never returns
            os.close(write)
            workers.append((pid, open(read, "rb")))
        for due in range(len(tasks)):
            try:
                ok, value = pickle.load(workers[due % size][1])
            except (EOFError, pickle.UnpicklingError):  # the worker died
                lost = due
                break
            if not ok:
                raise value
            yield value
        else:
            finished = True
    finally:
        codes = []
        for pid, results in workers:
            if not finished:  # a worker that has exited keeps its status
                os.kill(pid, 9)  # SIGKILL
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            results.close()
    if lost is not None:
        code = codes[lost % size]
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise RuntimeError(f"pool worker {lost % size} of {size} {how} before task {lost}'s result")


def _serve(fn, tasks, fd):
    """Worker: write ``(True, fn(task))`` for each task in turn, or
    ``(False, error)`` for the first that raises or does not pickle, then
    leave through ``os._exit`` (none of the caller's cleanup), 1 on a fault."""
    code = 1
    try:
        with open(fd, "wb") as out:
            for task in tasks:
                try:
                    out.write(pickle.dumps((True, fn(task))))
                except Exception as exc:  # handed to the caller, which raises it
                    out.write(pickle.dumps((False, exc)))
                    break
                out.flush()
        code = 0
    finally:
        os._exit(code)
