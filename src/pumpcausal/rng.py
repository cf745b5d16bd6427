"""Deterministic random-stream derivation.

All randomness in the package flows through PCG64 generators derived from a
single 64-bit seed via ``numpy.random.SeedSequence`` spawn keys.  Each
consumer owns a namespaced stream, so results are bit-reproducible across
platforms and independent of thread or process scheduling:

    synth data        stream(seed, KEY_SYNTH)
    sampler chain c   stream(seed, KEY_CHAIN, c)
    ICA init          stream(seed, KEY_ICA)
    bootstrap b       stream(seed, KEY_BOOTSTRAP, b)

Replicas that own such streams (groups of lock-step chains, blocks of
bootstrap resamples) run through ``map_replicas``, serially or in worker
processes, with the same results.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable

import numpy as np

KEY_SYNTH = 11
KEY_CHAIN = 21
KEY_ICA = 31
KEY_BOOTSTRAP = 41
KEY_SCENARIO = 51


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a PCG64 generator for the (seed, key) namespace."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


# the replica function of the running map_replicas call; forked workers
# inherit it, so it need not be picklable (its results must be)
_REPLICA_FN: Callable | None = None


def _call_replica(index: int):
    return _REPLICA_FN(index)


def worker_count(threads: int | None, n: int) -> int:
    """Workers for n replicas: ``threads`` (None = all cores), between 1 and n."""
    return max(1, min(threads if threads is not None else (os.cpu_count() or 1), n))


def map_replicas(fn: Callable[[int], object], n: int, threads: int | None) -> list:
    """Return ``[fn(0), ..., fn(n - 1)]``.

    Runs in a fork pool of ``worker_count(threads, n)`` workers when more
    than one applies and the platform can fork, else in a plain loop.
    """
    global _REPLICA_FN
    n_workers = worker_count(threads, n)
    if n_workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i) for i in range(n)]
    _REPLICA_FN = fn
    try:
        with multiprocessing.get_context("fork").Pool(n_workers) as pool:
            return pool.map(_call_replica, range(n))
    finally:
        _REPLICA_FN = None
