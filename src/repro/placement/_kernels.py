"""Optional numba-jitted variant of the swap-delta CSR membership search.

The batched wirelength kernel has one scalar-ish inner loop that NumPy can
only express as a multi-pass array pipeline: the CSR shared-net membership
test (a binary search per flat ``(pair, net)`` item).  When
`numba <https://numba.pydata.org>`__ is importable, this module exposes an
``@njit``-compiled single-pass version of it; otherwise the NumPy
implementation is used.  Selection is automatic at import time — the
kernel's *values* are identical either way, only the execution strategy
differs, so the trajectory-identity suite holds regardless of which path is
active.

numba is an **optional** dependency: the base environment does not ship it
and nothing here may fail when it is absent.  Set ``REPRO_JIT=0`` to force
the NumPy path even when numba is installed (e.g. to rule the JIT out when
bisecting a perf regression).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "jit_enabled",
    "shared_net_mask",
    "shared_net_mask_numpy",
]


def _jit_requested(value: str | None = None) -> bool:
    """Whether the environment asks for the JIT path (``REPRO_JIT``, default on)."""
    raw = os.environ.get("REPRO_JIT", "1") if value is None else value
    return raw.strip().lower() not in ("0", "false", "off", "no")


HAVE_NUMBA = False
if _jit_requested():
    try:  # pragma: no cover - exercised only where numba is installed
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        pass

if not HAVE_NUMBA:

    def njit(*args, **kwargs):  # noqa: D103 - no-op stand-in for numba.njit
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def jit_enabled() -> bool:
    """Whether the jitted kernel variant is active in this process."""
    return HAVE_NUMBA


# ---------------------------------------------------------------------- #
# CSR shared-net membership
# ---------------------------------------------------------------------- #
def shared_net_mask_numpy(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Membership of each query key in a sorted key array (NumPy path).

    ``sorted_keys`` is the globally sorted ``cell * num_nets + net`` encoding
    of the cell→net incidence; a query key is present iff that cell sits on
    that net.  One ``searchsorted`` plus a gather-and-compare.
    """
    if sorted_keys.size == 0:
        return np.zeros(query_keys.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, query_keys)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == query_keys


@njit(cache=True)
def _shared_net_mask_jit(sorted_keys, query_keys):  # pragma: no cover - numba
    out = np.empty(query_keys.size, dtype=np.bool_)
    n = sorted_keys.size
    for i in range(query_keys.size):
        key = query_keys[i]
        lo = 0
        hi = n
        while lo < hi:
            mid = (lo + hi) >> 1
            if sorted_keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        out[i] = lo < n and sorted_keys[lo] == key
    return out


def shared_net_mask(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Membership of each query key in ``sorted_keys`` (auto-selected path)."""
    if HAVE_NUMBA and sorted_keys.size and query_keys.size:
        return _shared_net_mask_jit(sorted_keys, query_keys)
    return shared_net_mask_numpy(sorted_keys, query_keys)
