"""The fork pool behind ``mathutil._chunked``: items come back in index order,
the first failing chunk's error reaches the caller, an error that does not
pickle still arrives by type and message, every worker is reaped however its
chunk or the caller's read ends, and a call whose rule says no never forks."""

import errno
import os
import pickle
import signal
import time
from contextlib import contextmanager

import pytest

from treated import mathutil
from treated.errors import ResourceError


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"the pool ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_every_worker_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_workers(monkeypatch, workers):
    monkeypatch.setattr(mathutil, "_worker_count", lambda count: workers)


def _squares(lo, hi):
    yield from (i * i for i in range(lo, hi))


@pytest.mark.parametrize("workers", [2, 3])
def test_items_come_back_in_index_order(workers, monkeypatch):
    _with_workers(monkeypatch, workers)
    with _deadline(30):
        assert mathutil._chunked(_squares, (), 10, pooled=True) == [i * i for i in range(10)]
    _assert_every_worker_reaped()


def _dies_at(index, die, lo, hi):
    for i in range(lo, hi):
        if i == index:
            die()
        yield i


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_exiting_mid_chunk_raises(workers, monkeypatch):
    # A worker that exits, or is killed as the out-of-memory killer would, before
    # it writes its result: the error names the worker's first index and how it
    # ended, and is still a RuntimeError. The pid it reaps is not waited on again.
    _with_workers(monkeypatch, workers)
    first = {2: 0, 3: 2}[workers]  # the first index of the chunk holding index 3
    for die, cause in [(lambda: os._exit(1), "exit status 1"),
                       (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9")]:
        with _deadline(30), pytest.raises(ResourceError) as info:
            mathutil._chunked(_dies_at, (3, die), 8, pooled=True)
        assert isinstance(info.value, RuntimeError)
        assert str(info.value) == \
            f"the pool worker from index {first} exited without a result ({cause})"
        _assert_every_worker_reaped()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_worker_that_cannot_start_raises(call, monkeypatch):
    # The second pipe or fork fails, as it does when the machine is out of file
    # descriptors or processes: a ResourceError, and the worker already started
    # is killed and reaped, not waited for.
    real = getattr(os, call)
    calls = []

    def second_fails():
        calls.append(call)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    def slow(lo, hi):
        time.sleep(60)
        yield from range(lo, hi)

    _with_workers(monkeypatch, 3)
    monkeypatch.setattr(os, call, second_fails)
    with _deadline(30), pytest.raises(ResourceError) as info:
        mathutil._chunked(slow, (), 6, pooled=True)
    assert str(info.value) == \
        f"cannot start a pool worker: [Errno {errno.EAGAIN}] Resource temporarily unavailable"
    assert len(calls) == 2
    _assert_every_worker_reaped()


class _HoldsALambda(Exception):
    """Does not pickle: one of its attributes is a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


class _TwoArguments(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("error, message", [
    (_HoldsALambda("chunk 1 broke"), "_HoldsALambda: chunk 1 broke"),
    (_TwoArguments("chunk 1 broke", "index 4"), "_TwoArguments: chunk 1 broke at index 4"),
], ids=["dumps", "loads"])
def test_error_that_does_not_pickle_arrives_by_type_and_message(error, message, monkeypatch):
    def raising(lo, hi):
        if lo > 0:
            raise error
        yield from range(lo, hi)

    _with_workers(monkeypatch, 2)
    with _deadline(30), pytest.raises(RuntimeError) as info:
        mathutil._chunked(raising, (), 8, pooled=True)
    assert str(info.value) == message
    _assert_every_worker_reaped()


@pytest.mark.parametrize("workers", [2, 3])
def test_first_failing_chunk_error_wins(workers, monkeypatch):
    # Chunks 0 and 1 fail, chunk 0 last; a third chunk succeeds.
    def failing(lo, hi):
        if lo == 0:
            time.sleep(0.3)
        if lo < 4:
            raise ValueError(f"chunk from index {lo}")
        yield from range(lo, hi)

    _with_workers(monkeypatch, workers)
    with _deadline(30), pytest.raises(ValueError) as info:
        mathutil._chunked(failing, (), 2 * workers, pooled=True)
    assert str(info.value) == "chunk from index 0"
    # The worker's traceback comes with it, as the error's last note.
    assert "in failing\n" in info.value.__notes__[-1]
    _assert_every_worker_reaped()


class _ReadInterrupted(Exception):
    pass


def test_caller_error_while_reading_kills_the_workers(monkeypatch):
    # Chunk 0's result arrives and fails to load here while chunk 1's worker
    # still sleeps: it is killed, not waited for.
    def slow(lo, hi):
        if lo > 0:
            time.sleep(60)
        yield from range(lo, hi)

    def interrupted(data):
        raise _ReadInterrupted

    _with_workers(monkeypatch, 2)
    monkeypatch.setattr(pickle, "loads", interrupted)
    with _deadline(30), pytest.raises(_ReadInterrupted):
        mathutil._chunked(slow, (), 8, pooled=True)
    _assert_every_worker_reaped()


def test_unpooled_call_never_forks(monkeypatch):
    # A caller whose rule says no runs its items here, whatever the worker
    # count; the same call with pooled=True forks both workers.
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    _with_workers(monkeypatch, 2)
    with _deadline(30):
        assert mathutil._chunked(_squares, (), 10, pooled=False) == [i * i for i in range(10)]
        assert forks == []
        mathutil._chunked(_squares, (), 10, pooled=True)
    assert forks == [os.getpid()] * 2
    _assert_every_worker_reaped()


@pytest.mark.parametrize("pooled", [False, True])
def test_both_paths_return_a_list(pooled, monkeypatch):
    _with_workers(monkeypatch, 2)
    with _deadline(30):
        assert type(mathutil._chunked(_squares, (), 10, pooled=pooled)) is list
    _assert_every_worker_reaped()
