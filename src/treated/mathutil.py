"""Small numerical helpers: stable logistic transforms, the normal quantile,
products computed in row blocks, and the fork pool that runs a generator in
chunks."""

from __future__ import annotations

import os
from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()

# Rows per block in the blocked products. A block stays in cache, and at the
# few columns of the package's designs OpenBLAS runs its product on one
# thread; a whole-array product wakes OpenBLAS's helper threads, which buy no
# speed and spin against forked pool workers.
BLOCK_ROWS = 2048
# Most rows ``row_blocks`` keeps in one block. Up to it the blocked products
# are the plain product, which they return without building the blocks.
_ONE_BLOCK_ROWS = BLOCK_ROWS + 7
# Fewest rows for which cross-fitting runs its folds in the pool; below it a
# pool's start costs more than it saves. `treated estimate --nuisance fitted
# --folds 5` on d = 2 covariates (2 vCPUs, median of 20 runs) took 363 ms
# serial against 398 ms pooled at 40,000 rows, and 437 against 406 ms at
# 60,000. A warm in-process compute_nuisances breaks even near 15,000 rows;
# a command also pays the pool's imports and workers forked cold.
FOLD_POOL_ROWS = 50_000


def expit(t):
    """Numerically stable logistic function 1 / (1 + exp(-t))."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, e)  # 1 / (1 + e) for t >= 0, e / (1 + e) below
    e += 1.0
    out /= e
    return out


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
    in row blocks."""
    if x.shape[0] <= _ONE_BLOCK_ROWS:
        return x @ v
    out = np.empty(x.shape[0])
    for rows in row_blocks(x.shape[0]):
        np.matmul(x[rows], v, out=out[rows])
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
    if count < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing
    if (multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


# The generator and arguments of the pool this process is a worker of; set
# only in a worker, by the pool's initializer.
_task = None


def _set_task(generator, args):
    global _task
    _task = generator, args


def _run_chunk(lo: int, hi: int) -> list:
    """Run the indices [lo, hi) of the pool's generator in a worker process."""
    generator, args = _task
    return list(generator(*args, lo, hi))


def _chunked(generator, args: tuple, count: int):
    """The items of ``generator(*args, lo, hi)`` over the indices [0, count), in index
    order. With more than one worker (see ``_worker_count``), each runs one contiguous
    chunk of indices in a forked process; otherwise the generator runs here, lazily.
    A worker inherits ``generator`` and ``args`` at fork; a task sends only its
    bounds, and its items come back pickled."""
    workers = _worker_count(count)
    if workers == 1:
        return generator(*args, 0, count)
    # Imported here: at module level they add 12-17 ms to every
    # `import treated.cli`, pooled or not. Fork, not spawn: a worker starts
    # as a copy of this process and imports nothing. The one other thread
    # at fork time is OpenBLAS's, which its own fork handler stops.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    bounds = [count * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_task, initargs=(generator, args)) as pool:
        chunks = [pool.submit(_run_chunk, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [item for chunk in chunks for item in chunk.result()]
