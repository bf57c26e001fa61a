"""Problem-scoped static structure shared by every evaluator of one problem.

Every worker of a parallel run builds a private evaluator around the same
immutable netlist and layout.  The placement-independent part of that
evaluator — the timing graph, the net/pin adjacency lists, the shared-net
incidence — is a function of the netlist (or layout) alone, so it is built
once per owner per process and shared read-only by every evaluator bound to
that owner.

The structures live in a weak-keyed map, not on the owner: they are never
pickled with the problem (checkpoint bytes and spawn payloads do not change)
and they die with their owner.  A value must never reference its key, not
even indirectly (a layout references its netlist), or the key stays alive
for as long as the map does.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, TypeVar

import numpy as np

__all__ = ["problem_static", "read_only"]

T = TypeVar("T")

_STATIC: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
# Reentrant: a builder may itself fetch another owner's structure.  Holding
# the lock across the build means concurrent evaluators (threads backend)
# build each structure once instead of racing.
_LOCK = threading.RLock()


def problem_static(owner: object, name: str, build: Callable[[], T]) -> T:
    """``owner``'s shared structure ``name``, built by ``build()`` on first use.

    A build that raises caches nothing, so every later call raises again.
    """
    with _LOCK:
        entries = _STATIC.get(owner)
        if entries is None:
            entries = _STATIC[owner] = {}
        if name not in entries:
            entries[name] = build()
        return entries[name]


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only (shared structure must never be written)."""
    array.flags.writeable = False
    return array
