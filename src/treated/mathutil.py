"""Small numerical helpers: stable logistic transforms, a branch-free select,
the normal quantile, products computed in row blocks, and the fork pool that
runs a generator in chunks and the shared arrays its workers write into."""

from __future__ import annotations

import mmap
import os
import pickle
import signal
from statistics import NormalDist

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ResourceError

_STD_NORMAL = NormalDist()
_in_worker = False  # set in a forked pool worker: pools never nest

# Rows per block in the blocked products. A block stays in cache, and at the
# few columns of the package's designs OpenBLAS runs its product on one
# thread; a whole-array product wakes OpenBLAS's helper threads, which buy no
# speed and spin against forked pool workers.
BLOCK_ROWS = 2048
# Most rows ``row_blocks`` keeps in one block. Up to it the blocked products
# are the plain product, which they return without building the blocks.
_ONE_BLOCK_ROWS = BLOCK_ROWS + 7


def expit(t):
    """Numerically stable logistic function 1 / (1 + exp(-t))."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    # The numerator, 1 for t >= 0 and e below (e <= 1 there), without the
    # mispredicted branch of a where on a random sign; out= keeps a 0-d array.
    out = np.maximum(e, t >= 0, out=np.empty(t.shape))
    e += 1.0
    out /= e
    return out


def select(mask, a, b) -> np.ndarray:
    """``np.where(mask, a, b)`` bit for bit for a boolean ``mask`` and float
    arrays ``a`` and ``b`` of its shape, without a branch per element:
    ``((a ^ b) * mask) ^ b`` on the 64-bit patterns. A where on a random mask
    mispredicts its branch: 476 us against 142 us for this at 65,536 elements
    (2 vCPUs, numpy 2.4)."""
    a_bits = np.asarray(a, dtype=float).view(np.int64)
    b_bits = np.asarray(b, dtype=float).view(np.int64)
    out = np.bitwise_xor(a_bits, b_bits, out=np.empty(np.shape(mask), np.int64))
    out *= mask
    out ^= b_bits
    return out.view(float)


def bernoulli_loglik(a, eta):
    """Log-likelihood of 0/1 responses ``a`` under logits ``eta``."""
    return float(blocked_crossprod(a, eta) - np.logaddexp(0.0, eta).sum())


def row_blocks(n: int) -> list:
    """Slices covering rows [0, n) in blocks of ``BLOCK_ROWS``; a last block
    shorter than 8 rows joins the block before it."""
    ends = (*range(BLOCK_ROWS, n - 7, BLOCK_ROWS), n)
    return [slice(lo, hi) for lo, hi in zip((0, *ends), ends)]


def blocked_matmul(x, v) -> np.ndarray:
    """``x @ v`` for a matrix ``x`` and a vector ``v``, bit for bit, computed
    in row blocks: the full blocks as one stacked product, which numpy runs as
    one BLAS product per block, then the last block alone."""
    n = x.shape[0]
    if n <= _ONE_BLOCK_ROWS:
        return x @ v
    out = np.empty(n)
    tail = row_blocks(n)[-1].start
    # A strided view, not a reshape: each block keeps x's own strides, so
    # BLAS sees the same operand as for x[rows].
    blocks = as_strided(x, (tail // BLOCK_ROWS, BLOCK_ROWS, x.shape[1]),
                        (BLOCK_ROWS * x.strides[0], *x.strides))
    np.matmul(blocks, v, out=out[:tail].reshape(-1, BLOCK_ROWS))
    np.matmul(x[tail:], v, out=out[tail:])
    return out


def blocked_crossprod(x, y):
    """``x.T @ y``, a reduction over the rows of both, summed block by block.

    Bit for bit the whole product when the rows fit in one block; above that
    the sums run in a different order, which moves the result by rounding.
    """
    if x.shape[0] <= _ONE_BLOCK_ROWS:
        return x.T @ y
    blocks = row_blocks(x.shape[0])
    total = x[blocks[0]].T @ y[blocks[0]]
    for rows in blocks[1:]:
        total += x[rows].T @ y[rows]
    return total


def norm_quantile(p: float) -> float:
    """Standard normal quantile, via the standard library's ``NormalDist``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def _worker_count(count: int) -> int:
    """One worker per CPU this process may run on, never more than ``count``;
    1 where processes cannot be forked, and inside a pool worker, so pools
    never nest."""
    if count < 2 or _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def _run_chunk(generator, args: tuple, lo: int, hi: int) -> bytes:
    """A pool worker's pickled ``(True, items)`` for the indices [lo, hi), or ``(False,
    error)``; an error that would not unpickle goes as RuntimeError("Type: message")."""
    try:
        return pickle.dumps((True, list(generator(*args, lo, hi))))
    except BaseException as exc:
        import traceback  # the worker's frames do not pickle: they go as a note
        exc.__notes__ = [*getattr(exc, "__notes__", ()), "".join(traceback.format_exception(exc))]
        try:
            return pickle.dumps((False, pickle.loads(pickle.dumps(exc))))
        except Exception:
            return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def shared_empty(shape) -> np.ndarray:
    """An uninitialized float array, as ``np.empty(shape)``, in an anonymous shared
    mapping that pool workers forked after it write into; raises MemoryError, as
    np.empty does, when the mapping cannot be made.

    A pool worker hands back arrays in these: sent through its pipe, one would be pickled,
    copied and unpickled, growing this process's heap. Untouched pages are never allocated."""
    size = int(np.prod(shape))
    try:
        buffer = mmap.mmap(-1, 8 * max(size, 1))  # a mapping takes at least one byte
    except OSError as exc:
        raise MemoryError(f"cannot map a shared array of shape {shape}: {exc}") from exc
    return np.frombuffer(buffer, dtype=float, count=size).reshape(shape)


def _chunked(generator, args: tuple, count: int, *, pooled: bool) -> list:
    """The items of ``generator(*args, lo, hi)`` over the indices [0, count), as a list in
    index order. When the caller's ``pooled`` rule holds and there is more than one worker
    (see ``_worker_count``), each runs one contiguous chunk of indices in a forked process;
    otherwise the generator runs here. A worker inherits ``generator`` and ``args`` and
    pipes its items back pickled (arrays go in ``shared_empty``); the first failing
    chunk's error is raised, all workers reaped. A worker that exits without a result
    raises ResourceError, naming its first index and its exit status or signal."""
    global _in_worker
    workers = _worker_count(count) if pooled else 1
    if workers == 1:
        return list(generator(*args, 0, count))
    # fork copies only this thread; OpenBLAS's fork handler stops its helper first.
    bounds = [count * i // workers for i in range(workers + 1)]
    pids, pipes = [], []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:
                if (pid := os.fork()) == 0:
                    try:  # a worker leaves through os._exit, whatever its chunk raises
                        _in_worker = True
                        out.write(_run_chunk(generator, args, lo, hi))
                        out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        items = []
        for i, (lo, pipe) in enumerate(zip(bounds, pipes)):
            if not (data := pipe.read()):
                # Reaped here and dropped from pids: the pid may be reused once reaped.
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(i), 0)[1])
                cause = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ResourceError(f"the pool worker from index {lo} exited without a result "
                                    f"({cause})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            items += value
        return items
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
