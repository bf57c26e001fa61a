"""xp-generic hot kernels: written once, executed under numpy *or* cupy.

The three kernels the profile is made of — the QAP batched swap-delta, the
placement batched HPWL delta, and the driver's fused tabu+aspiration
masked-argmin select — live here as functions over an
:class:`~repro.accel.backend.ArrayBackend` plus plain arrays.  The domain
evaluators stage their device-resident state (matrices, incidence,
bbox caches) and call in; under the CPU backend every array *is* the host
array and the operations below reduce the same values in the same order as
the direct kernels did — bit-identical results (the parity suites in
``tests/accel`` pin this against frozen reference copies).

One sub-step is backend-divergent by nature and is isolated behind an
explicit seam rather than hidden in the flow: the CSR shared-net membership
test has a numba-aware CPU twin (:func:`repro.placement._kernels.
shared_net_mask`, passed in by the caller) and a generic ``searchsorted``
path that runs under cupy.  Everything else of the HPWL kernel is O(1) per
item over cached per-net arrays, so under cupy it runs on the device from
the uploaded item arrays to the folded per-pair deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .backend import ArrayBackend
from .device import module_for

__all__ = [
    "masked_argmin",
    "fuse_admissible",
    "qap_swap_deltas",
    "HpwlArrays",
    "hpwl_batch_deltas",
]


# ---------------------------------------------------------------------- #
# the driver's fused tabu+aspiration masked-argmin select
# ---------------------------------------------------------------------- #
def masked_argmin(costs, mask=None) -> int:
    """Index of the lowest cost among ``mask``-admissible candidates.

    With no mask — or with *every* candidate masked out — the overall
    argmin wins: the compound-move builder must always commit something,
    and the driver's move-level tabu check still guards final acceptance.
    Ties break toward the first minimum (``argmin`` semantics), matching
    the reference driver's strict-less scalar loop.  Runs under whichever
    array module produced ``costs``.
    """
    xp = module_for(costs)
    if mask is None or not bool(mask.any()):
        return int(xp.argmin(costs))
    return int(xp.argmin(xp.where(mask, costs, xp.inf)))


def fuse_admissible(tabu_mask, permits):
    """Admissible = not tabu, or tabu-but-aspiring (one fused mask op)."""
    return ~tabu_mask | permits


# ---------------------------------------------------------------------- #
# QAP: batched swap deltas
# ---------------------------------------------------------------------- #
def qap_swap_deltas(
    backend: ArrayBackend,
    flow,
    dist,
    dist_cols,
    p,
    a,
    b,
    ra,
    rb,
    *,
    symmetric: bool,
    scratch,
):
    """Raw-cost deltas of swapping each ``(a[i], b[i])`` facility pair.

    ``dist_cols`` is the distance matrix in facility order, ``dist[:, p]``,
    kept exact by the caller (O(n) per moved facility), so a swap's
    distance rows ``D[r, p(k)]`` are plain row gathers — four row gathers
    per call and three scratch buffers.  ``flow``/``dist``/``dist_cols``/
    ``p`` live in ``backend``'s space.  Index arrays ``(m,)`` score a batch
    through ``(m, n)`` scratch; plain integers score one pair through
    ``(n,)`` scratch with NumPy-scalar corner terms (the commit form, which
    expects ``a != b``; batch self-pairs get a zero delta).  The ``...j``
    reduction sums a 1-D row exactly as it sums a one-row batch, so the two
    forms agree bit for bit, and under NumPy the batch matches the frozen
    direct kernel.  Symmetric instances reuse the corrected row sums as the
    column sums (identical expressions); the asymmetric branch gathers its
    own.  Returns a backend-space array or scalar the caller downloads.
    """
    xp = backend.xp
    buf0, buf1, buf2 = scratch
    # row sums: sum_k (F[a,k] - F[b,k]) * (D[rb,p(k)] - D[ra,p(k)])
    xp.take(flow, a, axis=0, out=buf0)
    xp.take(flow, b, axis=0, out=buf1)
    xp.subtract(buf0, buf1, out=buf0)                            # flow rows
    xp.take(dist_cols, rb, axis=0, out=buf1)
    xp.take(dist_cols, ra, axis=0, out=buf2)
    xp.subtract(buf1, buf2, out=buf1)                            # dist rows
    row_sum = xp.einsum("...j,...j->...", buf0, buf1)

    # the k = a and k = b terms do not belong in the sums ...
    f_aa, f_ab = flow[a, a], flow[a, b]
    f_ba, f_bb = flow[b, a], flow[b, b]
    d_aa, d_ab = dist[ra, ra], dist[ra, rb]
    d_ba, d_bb = dist[rb, ra], dist[rb, rb]
    row_sum -= (f_aa - f_ba) * (d_ba - d_aa) + (f_ab - f_bb) * (d_bb - d_ab)
    if symmetric:
        # F = F^T and D = D^T make the corrected column sums the very same
        # expressions as the corrected row sums
        col_sum = row_sum
    else:
        # column sums: sum_k (F[k,a] - F[k,b]) * (D[p(k),rb] - D[p(k),ra])
        flow_cols = (flow[:, a] - flow[:, b]).T                      # (m, n)
        dist_rows = (dist[:, rb][p] - dist[:, ra][p]).T              # (m, n)
        col_sum = xp.einsum("...j,...j->...", flow_cols, dist_rows)
        col_sum -= (f_aa - f_ab) * (d_ab - d_aa) + (f_ba - f_bb) * (d_bb - d_ba)
    # ... they enter exactly once as the four corner terms instead
    corners = (
        f_aa * (d_bb - d_aa)
        + f_bb * (d_aa - d_bb)
        + f_ab * (d_ba - d_ab)
        + f_ba * (d_ab - d_ba)
    )
    deltas = row_sum + col_sum + corners
    if xp.ndim(a):
        deltas[a == b] = 0.0
    return deltas


# ---------------------------------------------------------------------- #
# placement: batched HPWL deltas over the dense-incidence / CSR caches
# ---------------------------------------------------------------------- #
@dataclass
class HpwlArrays:
    """Backend-space view of one :class:`WirelengthState`'s cache arrays.

    Exactly one of ``incidence`` (dense boolean cell×net matrix) and
    ``csr_keys`` (sorted ``cell * num_nets + net`` incidence keys) is set,
    mirroring the state's shared-net detection mode.  On the CPU backend
    every field *is* the live host array; on cuda they are device mirrors
    the state re-syncs after committed swaps.
    """

    num_nets: int
    incidence: Optional[object]
    csr_keys: Optional[object]
    x_min: object
    x_max: object
    y_min: object
    y_max: object
    x_min2: object
    x_max2: object
    y_min2: object
    y_max2: object
    per_net: object
    net_weights: object


def _shared_net_mask_generic(xp, sorted_keys, query_keys):
    """Membership of each query key in a sorted key array (any backend).

    The same ``searchsorted`` + gather-and-compare pipeline as the NumPy
    twin in :mod:`repro.placement._kernels`; used under cupy, where the
    numba-jitted CPU variant cannot run.
    """
    pos = xp.searchsorted(sorted_keys, query_keys)
    xp.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == query_keys


def hpwl_batch_deltas(
    backend: ArrayBackend,
    arrays: HpwlArrays,
    *,
    num_pairs: int,
    pair: np.ndarray,
    net: np.ndarray,
    other: np.ndarray,
    from_x: np.ndarray,
    from_y: np.ndarray,
    to_x: np.ndarray,
    to_y: np.ndarray,
    active: np.ndarray,
    shared_mask_cpu: Callable,
) -> np.ndarray:
    """Weighted-HPWL deltas of a flat-expanded candidate batch.

    The caller (``WirelengthState.deltas_for_swaps``) has already expanded
    the pairs to flat ``(pair, net)`` items on the host — those index
    arrays are the per-iteration host→device traffic.  Steps here:

    1. neutralise items whose swap partner shares the net (one dense
       incidence gather, or a binary search of the sorted CSR keys);
    2. O(1) bbox-edge updates: an edge the moved pin leaves (``from`` on
       the edge) falls back to the edge's cached second order statistic,
       and the pin's new coordinate ``to`` then extends the box;
    3. weighted per-item deltas folded per pair with ``bincount``.

    No step re-reads net members, so the whole kernel stays in
    ``backend``'s space.  Returns a *host* float64 array of per-pair deltas.
    """
    xp = backend.xp
    out = np.zeros(num_pairs, dtype=np.float64)
    net_d = backend.to_device(net)
    active_d = backend.to_device(active)

    # --- shared-net / self-swap neutralisation ------------------------- #
    if arrays.incidence is not None:
        active_d &= ~arrays.incidence[backend.to_device(other), net_d]
    else:
        keys = other * np.int64(arrays.num_nets) + net
        if xp is np:
            active_d &= ~shared_mask_cpu(arrays.csr_keys, keys)
        else:  # pragma: no cover - cupy only
            keys_d = backend.to_device(keys)
            active_d &= ~_shared_net_mask_generic(xp, arrays.csr_keys, keys_d)
    if not bool(active_d.any()):
        return out

    # --- O(1) bbox-edge updates from the cache ------------------------- #
    from_x_d = backend.to_device(from_x)
    from_y_d = backend.to_device(from_y)
    to_x_d = backend.to_device(to_x)
    to_y_d = backend.to_device(to_y)
    new_edges = []
    for frm, to, edge, second, bound in (
        (from_x_d, to_x_d, arrays.x_min, arrays.x_min2, xp.minimum),
        (from_x_d, to_x_d, arrays.x_max, arrays.x_max2, xp.maximum),
        (from_y_d, to_y_d, arrays.y_min, arrays.y_min2, xp.minimum),
        (from_y_d, to_y_d, arrays.y_max, arrays.y_max2, xp.maximum),
    ):
        cur = edge[net_d]
        new_edges.append(bound(xp.where(frm == cur, second[net_d], cur), to))
    new_x_min, new_x_max, new_y_min, new_y_max = new_edges

    # --- weighted per-item deltas, folded per pair --------------------- #
    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = arrays.net_weights[net_d] * (new_hpwl - arrays.per_net[net_d])
    per_item *= active_d  # zero the contributions of masked items
    folded = xp.bincount(backend.to_device(pair), weights=per_item, minlength=num_pairs)
    out[:] = backend.to_host(folded)
    return out
