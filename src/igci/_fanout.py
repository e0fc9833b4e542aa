"""Map a function over independent items on forked workers, one per CPU.

fan_out(fn, items) returns what [fn(item) for item in items] returns, with
the serial loop's errors and warnings: the exception raised is that of the
earliest failing item, and each item's warnings are shown in item order.
Items are dealt round-robin to min(len(items), CPUs) workers. The calling
process runs share 0 itself; every other share runs in a forked child that
pickles its results back over a pipe and ends with os._exit. With one
worker nothing is forked.
"""

from __future__ import annotations

import os
import pickle
import warnings

__all__: list = []

# The DeprecationWarning that Python 3.12+ gives when a process with threads forks.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(fn, share) -> list:
    """(result, error, warnings) per item, up to and including the first error:
    the share's later items come later in item order too, so none would run."""
    out = []
    for item in share:
        # The live filters act here, as in a serial loop ("error" raises, "ignore"
        # drops); what gets through is kept for the parent to show.
        with warnings.catch_warnings(record=True) as caught:
            try:
                result, error = fn(item), None
            except Exception as exc:
                result, error = None, exc
        out.append((result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        if error is not None:
            break
    return out


def _fork(fn, share):
    """A worker started on share, as its pid and the read end of its pipe; or,
    where the system has no process to spare, the share's results computed here."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # A child of a threaded process (numpy's OpenBLAS pool) could inherit a
            # lock that another thread held. The workers call no BLAS routine and
            # start no thread, so they never wait on one.
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _run_share(fn, share)
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(_run_share(fn, share), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            # Never return into the caller, and flush none of its buffers.
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _receive(pid: int, read_fd: int):
    """A worker's results; if it exits without them, an error in place of its first item."""
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        error = RuntimeError(f"worker process {pid} exited with status {status} before sending its results")
        return [(None, error, [])]
    return pickle.loads(data)


def fan_out(fn, items) -> list:
    """[fn(item) for item in items], computed over forked workers; items is a sequence."""
    workers = max(1, min(len(items), _cpu_count()))
    shares = [items[w::workers] for w in range(workers)]
    children = [_fork(fn, share) for share in shares[1:]]
    done = []
    try:
        done.append(_run_share(fn, shares[0]))
    finally:
        done.extend(_receive(*child) if isinstance(child, tuple) else child for child in children)
    results = []
    for i in range(len(items)):
        result, error, caught = done[i % workers][i // workers]
        for warning in caught:
            # Filters already ran inside the item; show the warning as it came.
            warnings.showwarning(*warning)
        if error is not None:
            raise error
        results.append(result)
    return results
