"""Process-backed serving execution pool over the mmap storage tier.

The coordinator's single worker thread serializes batch execution
(engines are not thread-safe), so pipelined micro-batches queue — they
never overlap.  This module removes that ceiling without giving up
determinism: the backend is snapshotted once into an mmap-able
directory (:func:`repro.storage.snapshot.snapshot_any`) and **worker
processes mount it read-only** (zero-copy ``np.memmap``, zero index
builds), so concurrently dispatched batches run on genuinely separate
cores against byte-identical immutable state.  Answers, tie-breaks,
and modeled IO charges stay bit-identical to the direct single-thread
path because a mounted snapshot answers bit-identically to the live
object (the PR 8 contract) and batch execution is a pure function of
the mounted state.

Epoch protocol
--------------
Appends stay on the coordinator (the live backend); the pool serves a
snapshot *of* some epoch.  Every dispatch carries its snapshot path
and epoch token, so a worker holding a stale mount detects the
mismatch and re-mounts before serving (counted as a ``remount``).
When the live backend's epoch moves past the pool's, the coordinator
calls :meth:`ServingProcessPool.resync` before the next flush: a new
snapshot directory is written under the pool root
(``epoch_<e>``), the dispatch token advances, and superseded
directories are pruned (keeping the immediately previous one, which
in-flight dispatches may still be reading).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.errors import ReproError
from repro.parallel.executor import WorkerPool, process_context
from repro.parallel.workers import serving_dispatch, serving_warm
from repro.storage.snapshot import snapshot_any


class ServingProcessPool:
    """A pool of worker processes serving mounted snapshots of one backend.

    Parameters
    ----------
    backend:
        A serving backend adapter (:mod:`repro.serving.backends`) that
        also implements the snapshot-handle protocol
        (``snapshot_target`` / ``prepare_for_pool`` / ``pool_spec``).
    workers:
        Worker process count (>= 1).
    root:
        Directory for the pool's epoch snapshots.  Default: a private
        temporary directory, removed on :meth:`close`.
    initial_snapshot:
        An existing snapshot directory of the backend's *current*
        state (e.g. the ``--catalog`` the CLI served from).  Reused as
        the epoch-0 mount instead of writing a fresh snapshot — but
        only when :meth:`prepare_for_pool` built nothing new, so the
        directory is guaranteed to record every index the spec serves.
    worker_delay:
        Seconds each worker sleeps before serving a dispatch —
        test/chaos instrumentation for the drain/close paths (travels
        in the pool spec; see
        :class:`repro.serving.backends.DelayedBackend`).
    """

    def __init__(
        self,
        backend,
        workers: int,
        root: Optional[str | Path] = None,
        initial_snapshot: Optional[str | Path] = None,
        worker_delay: float = 0.0,
    ) -> None:
        if int(workers) < 1:
            raise ReproError(f"pool workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = int(workers)
        self.spec = dict(backend.pool_spec())
        if worker_delay:
            self.spec["delay_s"] = float(worker_delay)
        self._tmp = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serving-pool-")
            root = self._tmp.name
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.resyncs = 0
        built = int(backend.prepare_for_pool())
        self._epoch = int(backend.epoch)
        if initial_snapshot is not None and built == 0:
            self._path = Path(initial_snapshot)
        else:
            self._path = self._snapshot_path(self._epoch)
            snapshot_any(backend.snapshot_target(), self._path)
        # Warm every worker now, mounting (and build-replaying) before
        # traffic arrives, so the first real flush never stalls on a
        # cold mount.  Submitting N warm tasks alone does not reach N
        # workers — an idle worker may take two while another takes
        # none — so each warm task holds its worker at a barrier of N
        # parties until every worker holds one.
        barrier = process_context().Barrier(self.workers)
        state = (str(self.root), str(self._path), self._epoch, self.spec)
        self._procs = WorkerPool(self.workers, state=state + (barrier,))
        warm = [self._procs.submit(serving_warm) for _ in range(self.workers)]
        try:
            self.startup_warmups = sum(int(f.result()["warmups"]) for f in warm)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # epoch protocol
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The epoch the pool's current snapshot serves."""
        return self._epoch

    def in_sync(self) -> bool:
        """True when the live backend hasn't moved past the snapshot."""
        return int(self.backend.epoch) == self._epoch

    def resync(self) -> bool:
        """Re-snapshot the live backend if its epoch moved.

        Returns True when a new snapshot was written (subsequent
        dispatches carry the new token; workers re-mount on their next
        dispatch).  Thread-safe and idempotent: concurrent callers
        serialize on the pool lock and only the first does the work.

        Snapshotting temporarily strips live index block payloads
        (restored before returning), so callers must not let backend
        appends interleave with this call — the coordinator runs it
        inline on the event loop, where its appends also run.
        """
        with self._lock:
            epoch = int(self.backend.epoch)
            if epoch == self._epoch:
                return False
            self.backend.prepare_for_pool()
            path = self._snapshot_path(epoch)
            snapshot_any(self.backend.snapshot_target(), path)
            previous = self._path
            self._path, self._epoch = path, epoch
            self.resyncs += 1
            self._prune(keep={path, previous})
            return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def submit(self, t1s, t2s, ks):
        """Dispatch one micro-batch to an idle worker.

        Returns a ``concurrent.futures.Future`` resolving to
        ``(results, info)`` — wrap with ``asyncio.wrap_future`` to
        await it from the event loop.
        """
        return self._procs.submit(
            serving_dispatch,
            (
                str(self.root),
                str(self._path),
                self._epoch,
                self.spec,
                np.asarray(t1s, dtype=np.float64),
                np.asarray(t2s, dtype=np.float64),
                np.asarray(ks, dtype=np.int64),
            ),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Shut the worker processes down and remove a private root."""
        self._procs.shutdown(wait=wait, cancel_futures=cancel_futures)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _snapshot_path(self, epoch: int) -> Path:
        return self.root / f"epoch_{epoch}"

    def _prune(self, keep: set) -> None:
        # Only the pool's own epoch_* children are candidates, so an
        # externally supplied initial_snapshot is never touched.
        # Unlinking files a worker still has mapped is safe on POSIX
        # (the mapping keeps the data alive); elsewhere rmtree simply
        # skips busy files via ignore_errors.
        for child in self.root.glob("epoch_*"):
            if child not in keep and child.is_dir():
                shutil.rmtree(child, ignore_errors=True)

    def __repr__(self) -> str:
        return (
            f"ServingProcessPool(workers={self.workers}, "
            f"epoch={self._epoch}, root={str(self.root)!r})"
        )
