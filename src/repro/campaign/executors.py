"""Executor layer: how a campaign's chunks are scheduled.

The engine splits a population into chunk payloads and hands them,
with one module-level chunk function, to an executor's ``map``.  The
same function and payloads serve every executor (only trace stacks on
a :class:`SharedMemoryExecutor` take
:meth:`~SharedMemoryExecutor.map_shared` instead): each payload
carries its golden cache last -- the engine's own for
:class:`SerialExecutor`, None for the process pools, whose workers
then use their process-wide cache.  Executors only schedule; all
numerical work -- and all randomness -- happens in the
deterministically-seeded chunks, so every executor produces
bit-identical results for the same population
(asserted by the equivalence tests).

* :class:`SerialExecutor` -- runs chunks in order, in process.  The
  right choice up to a few thousand dies, where batching (not
  parallelism) is the win.
* :class:`ProcessPoolExecutor` -- fans chunks out over worker
  processes via :mod:`concurrent.futures`; results are re-assembled in
  submission order.  Worker processes amortize golden-signature work
  through the process-wide default cache.
* :class:`SharedMemoryExecutor` -- a process pool whose bulk array
  inputs travel through :mod:`multiprocessing.shared_memory` instead
  of pickling: the parent publishes an ``(N, T)`` stack once, workers
  attach zero-copy views of their row slices.  Chunk payloads shrink
  from megabytes of trace data to a (name, shape, slice) descriptor.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.obs.trace import (SpanRecord, TraceContext, context_tracer,
                             current_trace_context, current_tracer,
                             install_tracer, span, stamped_records)

T = TypeVar("T")
R = TypeVar("R")


def _traced_chunk_call(payload):
    """Pool-worker shim that joins the parent's trace.

    ``payload`` is ``(worker, context_dict, chunk)``: the worker
    process installs a :func:`context_tracer` rebuilt from the
    shipped :class:`TraceContext`, runs the real chunk worker under
    it, and returns ``(result, record_rows)`` -- its completed spans,
    pid-stamped, for the parent to :meth:`Tracer.absorb`.  Without
    this shim (tracing off) pool workers run the chunk worker
    directly and record nothing.
    """
    worker, context_row, chunk = payload
    tracer = context_tracer(TraceContext.from_dict(context_row))
    previous = install_tracer(tracer)
    try:
        result = worker(chunk)
    finally:
        install_tracer(previous)
    return result, stamped_records(tracer)


def chunked(items: Sequence[T], chunk_size: int) -> List[Sequence[T]]:
    """Split any sliceable sequence into order-preserving chunks.

    Works on lists, tuples and numpy arrays alike (array chunks are
    zero-copy row views); only ``len()`` and basic slicing are
    required of ``items``.
    """
    if chunk_size < 1:
        raise ValueError("chunk size must be >= 1")
    return [items[i:i + chunk_size]
            for i in range(0, len(items), chunk_size)]


class SerialExecutor:
    """In-process, in-order chunk execution."""

    name = "serial"
    needs_picklable_work = False

    def map(self, worker: Callable[[T], R],
            chunks: Iterable[T]) -> List[R]:
        """Apply ``worker`` to every chunk, preserving order.

        With tracing on, every chunk runs under an ``executor.chunk``
        span (stage spans opened inside the chunk nest under it).
        """
        results: List[R] = []
        for index, chunk in enumerate(chunks):
            with span("executor.chunk", executor=self.name,
                      index=index):
                results.append(worker(chunk))
        return results

    def shutdown(self) -> None:
        """Nothing to release."""


class ProcessPoolExecutor:
    """Chunk fan-out over a process pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count (capped at 8 --
        the workloads saturate memory bandwidth well before that).
    """

    needs_picklable_work = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("need at least one worker")
        self.max_workers = int(max_workers)
        self.name = f"process-pool[{self.max_workers}]"
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers)
        return self._pool

    def map(self, worker: Callable[[T], R],
            chunks: Iterable[T]) -> List[R]:
        """Run chunks on the pool; results come back in order.

        ``worker`` and every chunk must be picklable (the engine's
        chunk functions are module-level and their payloads are tuples
        of dataclasses and arrays, which are).
        """
        chunks = list(chunks)
        with span("executor.map", executor=self.name,
                  chunks=len(chunks)) as map_span:
            pool = self._ensure_pool()
            # With tracing on, ship the (trace_id, parent_span_id)
            # pair into each pool worker so its stage spans come back
            # parented under this map span; workers return their
            # records alongside the chunk result and the parent
            # absorbs them into the active tracer.
            context = current_trace_context()
            if context is None:
                futures = [pool.submit(worker, chunk)
                           for chunk in chunks]
            else:
                parent_id = getattr(map_span, "_span_id", None)
                row = TraceContext(
                    trace_id=context.trace_id,
                    parent_span_id=parent_id).to_dict()
                futures = [pool.submit(_traced_chunk_call,
                                       (worker, row, chunk))
                           for chunk in chunks]
            results: List[R] = []
            for index, future in enumerate(futures):
                with span("executor.chunk", executor=self.name,
                          index=index):
                    outcome = future.result()
                if context is None:
                    results.append(outcome)
                else:
                    result, rows = outcome
                    tracer = current_tracer()
                    if tracer is not None:
                        tracer.absorb(SpanRecord.from_dict(r)
                                      for r in rows)
                    results.append(result)
            return results

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable descriptor of an array published in shared memory."""

    name: str
    shape: tuple
    dtype: str


def attach_shared_array(handle: SharedArrayHandle):
    """Worker-side: zero-copy view of a published array.

    Returns ``(array, close)``; call ``close()`` once the chunk's
    compute no longer references the array.  Ownership (and the
    eventual unlink) stays with the publisher: on Python >= 3.13 the
    attach opts out of resource tracking; on 3.10-3.12 fork-based
    pools the workers share the publisher's tracker (whose set-based
    registry makes the attach-side registration a no-op), while
    spawn-based pools get their own tracker, from which the attach
    registration is explicitly withdrawn so worker shutdown cannot
    unlink (or double-report) the publisher's live segment.
    """
    import multiprocessing
    import sys
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):
        shm = shared_memory.SharedMemory(name=handle.name, track=False)
    else:
        shm = shared_memory.SharedMemory(name=handle.name)
        if multiprocessing.get_start_method() != "fork":
            from multiprocessing import resource_tracker

            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals
                pass
    array = np.ndarray(handle.shape, np.dtype(handle.dtype),
                       buffer=shm.buf)
    return array, shm.close


class SharedMemoryExecutor(ProcessPoolExecutor):
    """Process pool with shared-memory bulk-array transport.

    Behaves exactly like :class:`ProcessPoolExecutor` for ordinary
    chunk payloads (spec populations); in addition,
    :meth:`map_shared` publishes one big array for a whole campaign so
    per-chunk payloads stop pickling ``(N, T)`` float stacks.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        import sys

        super().__init__(max_workers)
        self.name = f"shared-memory[{self.max_workers}]"
        if sys.version_info < (3, 13):
            # Start the resource tracker before any worker forks, so
            # fork-based workers share it even when a spec population
            # spins the pool up before the first publish (see
            # attach_shared_array).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()

    def publish(self, array: np.ndarray):
        """Copy an array into a fresh shared segment once.

        Returns ``(handle, unlink)``: ship ``handle`` to workers, call
        ``unlink()`` after every chunk completed.
        """
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, array.dtype, buffer=shm.buf)
        view[...] = array
        handle = SharedArrayHandle(shm.name, array.shape,
                                   array.dtype.str)

        def unlink() -> None:
            shm.close()
            shm.unlink()

        return handle, unlink

    def map_shared(self, worker: Callable[[T], R], array: np.ndarray,
                   make_payload: Callable[[SharedArrayHandle], Iterable[T]]
                   ) -> List[R]:
        """Publish ``array``, run the derived chunk payloads, unlink.

        ``make_payload`` receives the shared handle and returns the
        chunk payloads (each embedding the handle plus a row slice);
        results come back in submission order.
        """
        handle, unlink = self.publish(array)
        try:
            return self.map(worker, list(make_payload(handle)))
        finally:
            unlink()
