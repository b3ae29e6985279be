"""Serving-pool tasks, run by long-lived
:class:`~repro.parallel.executor.WorkerPool` workers that each mount
the pool's snapshot and serve many dispatched micro-batches from it.
"""

from __future__ import annotations

import threading

from repro.core.errors import ReproError
from repro.parallel.executor import worker_state

#: Seconds a warm task waits at the pool-start barrier for every other
#: worker to take its own warm task.
WARM_TIMEOUT_S = 60.0

#: Per-process mount cache for the serving pool, keyed by pool root:
#: ``root -> (snapshot_path, epoch, backend)``.  A worker re-uses its
#: mounted backend across dispatches and re-mounts only when a
#: dispatch carries a different snapshot path / epoch token (the
#: coordinator appended and re-synced the pool).
_SERVING_MOUNTS: dict = {}


def _serving_backend(root: str, path: str, epoch: int, spec: dict):
    """The mounted serving backend for ``(path, epoch)``; re-mounts on
    a stale entry.  Returns ``(backend, info)`` where ``info`` counts
    the mount work this call actually performed (zero when cached)."""
    info = {"remounts": 0, "warmups": 0}
    entry = _SERVING_MOUNTS.get(root)
    if entry is not None and entry[0] == path and entry[1] == epoch:
        return entry[2], info
    from repro.storage.snapshot import open_served

    backend, warmups = open_served(path, spec)
    if entry is not None:
        info["remounts"] = 1
    info["warmups"] = warmups
    _SERVING_MOUNTS[root] = (path, epoch, backend)
    return backend, info


def serving_warm(_task=None) -> dict:
    """Pre-mount this worker's serving backend from the installed
    worker state ``(root, path, epoch, spec, barrier)`` — the
    pool-start warm protocol, so the first real flush never pays a
    cold mount — then hold the worker at ``barrier`` (one party per
    worker) so that N warm tasks reach N distinct workers.  A failed
    mount breaks the barrier for all; a broken or timed-out barrier
    is a :class:`ReproError`."""
    root, path, epoch, spec, barrier = worker_state()
    try:
        _, info = _serving_backend(root, path, epoch, spec)
        barrier.wait(WARM_TIMEOUT_S)
    except threading.BrokenBarrierError:
        raise ReproError(
            f"serving pool start: not every worker took a warm task "
            f"within {WARM_TIMEOUT_S:g}s"
        ) from None
    except BaseException:
        barrier.abort()
        raise
    return info


def serving_dispatch(task) -> tuple:
    """Serve one micro-batch on this worker's mounted backend.

    ``task = (root, path, epoch, spec, t1s, t2s, ks)`` — the epoch
    token and snapshot path travel with every dispatch, so a worker
    holding a stale mount detects it here and re-mounts before
    serving.  Returns ``(results, info)``.
    """
    root, path, epoch, spec, t1s, t2s, ks = task
    backend, info = _serving_backend(root, path, epoch, spec)
    return backend.serve_many(t1s, t2s, ks), info
