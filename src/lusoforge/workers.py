"""Forked worker pools: the one pool the fine-tuning grid and pre-training share.

`fork_pool(workers, job)` runs calls of `job` in forked processes. A worker
inherits the job, and everything it reaches, from the fork instead of
unpickling it; only each call's arguments and its result cross a pipe.
Each worker pins OpenBLAS to one thread, so the workers do not oversubscribe
the cores they share.

Only `finetune`, `eval` and the pooled branches of `finetune.run_grid` and
`pretrain.train` import this module; no other command loads `multiprocessing`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed  # noqa: F401  (for run_grid)
from concurrent.futures.process import BrokenProcessPool  # noqa: F401  (for the callers)
from contextlib import contextmanager
from typing import Callable


# In a worker, the job of its pool; `_start_worker` sets it as the worker
# starts. The calling process never sets it.
_job: Callable | None = None


def _start_worker(job: Callable):
    """Pool initializer. A forked worker receives `job` with its memory, not
    pickled, so the job may be a closure over the caller's arrays."""
    global _job
    _job = job
    _one_blas_thread()


def _run_job(*args):
    return _job(*args)


def _one_blas_thread():
    """Give this process one OpenBLAS thread: call the thread setter of each
    OpenBLAS it has loaded (see `manifest.openblas_calls`)."""
    from lusoforge.manifest import openblas_calls

    openblas_calls(("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"), 1)


@contextmanager
def fork_pool(workers: int, job: Callable):
    """Yield `submit(*args)`, which runs `job(*args)` in one of `workers`
    forked processes and returns its future. The workers fork at the first
    submit. A worker that dies breaks the pool: every unfinished future then
    raises `BrokenProcessPool`. On leaving, pending calls are cancelled and
    the workers are joined, so no process outlives the block."""
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(job,))
    try:
        yield lambda *args: pool.submit(_run_job, *args)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
