"""The fork pool behind ``mathutil._chunked``: items come back in index order,
the first failing chunk's error reaches the caller, an error that does not
pickle still arrives by type and message, and every worker is reaped however
its chunk or the caller's read ends."""

import os
import pickle
import signal
import time
from contextlib import contextmanager

import pytest

from treated import mathutil


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
        assert mathutil._chunked(_squares, (), 10) == [i * i for i in range(10)]
    _assert_every_worker_reaped()


def _dies_at(index, lo, hi):
    for i in range(lo, hi):
        if i == index:
            os._exit(1)
        yield i


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_exiting_mid_chunk_raises(workers, monkeypatch):
    _with_workers(monkeypatch, workers)
    with _deadline(30), pytest.raises(RuntimeError, match="exited without a result"):
        mathutil._chunked(_dies_at, (3,), 8)
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
        mathutil._chunked(raising, (), 8)
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
        mathutil._chunked(failing, (), 2 * workers)
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
        mathutil._chunked(slow, (), 8)
    _assert_every_worker_reaped()
