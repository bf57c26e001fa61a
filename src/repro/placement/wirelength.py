"""Wirelength objective: weighted half-perimeter wirelength (HPWL).

The wirelength of a net is estimated by the half-perimeter of the bounding
box of its pins — the standard estimator for placement.  The total objective
is the net-weight-weighted sum over all nets.

Three access patterns are provided:

* :func:`full_hpwl` — vectorised full evaluation over all nets at once, used
  when a solution arrives over the (simulated) network or when caches need a
  rebuild;
* :class:`WirelengthState` — an incremental cache of per-net bounding boxes
  (``x_min/x_max/y_min/y_max`` plus each edge's second order statistic, the
  edge the box would have with one of its pins removed) that evaluates the
  *delta* of a candidate swap with O(1) arithmetic per affected net and no
  member re-gather, ever;
* :meth:`WirelengthState.deltas_for_swaps` — the batched kernel: it scores an
  entire candidate neighbourhood in a handful of NumPy operations (flat CSR
  cell→net expansion, no per-trial ``union1d``, no segment reduce).

The tabu-search inner loop only ever uses deltas, so this module is the
hottest code path of the whole reproduction: every CLW trial swap lands here.
"""

from __future__ import annotations

import logging
import os
from typing import Iterable, Tuple

import numpy as np

from .. import accel
from ..metrics.trace import TransferStats
from . import _kernels
from ._shared import problem_static, read_only
from .solution import Placement

__all__ = [
    "full_hpwl",
    "net_hpwl",
    "net_bboxes",
    "WirelengthState",
    "deltas_for_swaps_reference",
]

logger = logging.getLogger(__name__)


def net_hpwl(placement: Placement, net_index: int) -> float:
    """HPWL of a single (unweighted) net under ``placement``."""
    netlist = placement.netlist
    layout = placement.layout
    members = netlist.net_members(net_index)
    slots = placement.cell_to_slot[members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    return float(xs.max() - xs.min() + ys.max() - ys.min())


def full_hpwl(placement: Placement) -> Tuple[np.ndarray, float]:
    """Compute HPWL for every net and the weighted total.

    Returns
    -------
    per_net:
        Unweighted HPWL of each net (length ``num_nets``).
    total:
        Net-weight-weighted sum of the per-net values.
    """
    netlist = placement.netlist
    layout = placement.layout
    slots = placement.cell_to_slot[netlist.flat_members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    ptr = netlist.net_ptr
    num_nets = netlist.num_nets
    per_net = np.empty(num_nets, dtype=np.float64)
    # np.maximum.reduceat / minimum.reduceat handle the CSR segments without a
    # Python loop over nets.
    if num_nets:
        starts = ptr[:-1]
        x_max = np.maximum.reduceat(xs, starts)
        x_min = np.minimum.reduceat(xs, starts)
        y_max = np.maximum.reduceat(ys, starts)
        y_min = np.minimum.reduceat(ys, starts)
        per_net[:] = (x_max - x_min) + (y_max - y_min)
    total = float(np.dot(per_net, netlist.net_weights)) if num_nets else 0.0
    return per_net, total


def _degree_buckets(netlist) -> tuple:
    """Static member matrices of the nets, one per net degree.

    One read-only ``(nets, members)`` pair per degree ``d``: ``members`` is
    the ``(len(nets), d)`` member matrix of the degree-``d`` nets ``nets``.
    Built once per netlist; O(pins) in size.
    """

    def build() -> tuple:
        degrees = netlist.net_degrees
        starts = netlist.net_ptr[:-1]
        buckets = []
        for degree in np.unique(degrees).tolist():
            nets = np.flatnonzero(degrees == degree)
            members = netlist.flat_members[starts[nets, None] + np.arange(degree)]
            buckets.append((read_only(nets), read_only(members)))
        return tuple(buckets)

    return problem_static(netlist, "degree_buckets", build)


def _row_stats(ranked: np.ndarray, degrees: np.ndarray | None = None) -> tuple:
    """``(min, max, min2, max2)`` of each row of a row-sorted matrix.

    Without ``degrees`` every row is full; otherwise row ``i`` holds
    ``degrees[i]`` values followed by ``+inf`` pads.
    """
    if degrees is None:
        return ranked[:, 0], ranked[:, -1], ranked[:, 1], ranked[:, -2]
    rows = np.arange(degrees.size)
    last = ranked[rows, degrees - 1]
    return ranked[:, 0], last, ranked[:, 1], ranked[rows, degrees - 2]


def net_bboxes(
    placement: Placement, nets: np.ndarray | None = None
) -> Tuple[np.ndarray, ...]:
    """Bounding boxes (and second edge statistics) of ``nets`` in one pass.

    Returns eight arrays aligned with ``nets`` (or with all nets when ``nets``
    is ``None``): ``x_min, x_max, y_min, y_max`` and each edge's second
    order statistic counting ties, ``x_min2, x_max2, y_min2, y_max2``.
    ``x_min2`` is the smallest x left once one pin at ``x_min`` is removed:
    it equals ``x_min`` when two or more pins sit on that edge (``x_max2``
    mirrors it).  They make the trial update O(1): a pin leaving ``x_min``
    leaves ``x_min2``.  Every net has at least two pins, so every value is a
    selected pin coordinate, never a sum and never infinite.

    Each net's pin coordinates are sorted as one matrix row: the full
    rebuild sorts one static member matrix per net degree, a subset sorts
    its members gathered into rows padded with ``+inf``.
    """
    netlist = placement.netlist
    cts = placement.cell_to_slot
    axes = (placement.layout.slot_x, placement.layout.slot_y)
    if nets is not None:
        nets = np.asarray(nets, dtype=np.int64)
        degrees = netlist.net_degrees[nets]
        columns = np.arange(degrees.max(initial=2))
        present = columns < degrees[:, None]
        index = np.where(present, netlist.net_ptr[nets, None] + columns, 0)
        slots = cts[netlist.flat_members[index]]
        x_stats, y_stats = (
            _row_stats(np.sort(np.where(present, c[slots], np.inf), axis=1), degrees)
            for c in axes
        )
    else:
        x_stats, y_stats = stats = tuple(
            tuple(np.empty(netlist.num_nets, dtype=np.float64) for _ in range(4))
            for _ in axes
        )
        for bucket_nets, members in _degree_buckets(netlist):
            slots = cts[members]
            for axis_stats, coords in zip(stats, axes):
                ranked = coords[slots]
                ranked.sort(axis=1)
                for full, part in zip(axis_stats, _row_stats(ranked)):
                    full[bucket_nets] = part
    return x_stats[:2] + y_stats[:2] + x_stats[2:] + y_stats[2:]


def _shared_incidence(netlist, mode: str) -> np.ndarray:
    """The netlist's shared-net incidence for ``mode``, built once per netlist.

    ``"dense"`` is the boolean cell x net matrix; ``"csr"`` the sorted
    ``cell * num_nets + net`` pin keys.  Both are read-only.
    """

    def build() -> np.ndarray:
        num_cells = netlist.num_cells
        num_nets = netlist.num_nets
        flat_nets, counts = netlist.nets_of_cells_flat(
            np.arange(num_cells, dtype=np.int64)
        )
        cell_of_pin = np.repeat(np.arange(num_cells, dtype=np.int64), counts)
        if mode == "dense":
            matrix = np.zeros((num_cells, num_nets), dtype=bool)
            matrix[cell_of_pin, flat_nets] = True
            return read_only(matrix)
        # Per-cell net lists are sorted ascending (nets are appended in
        # index order when the netlist builds its incidence), so the
        # concatenated keys are globally sorted and one binary search
        # answers the shared-net test in O(pins) memory instead of
        # O(cells * nets).
        return read_only(cell_of_pin * np.int64(num_nets) + flat_nets)

    return problem_static(netlist, f"incidence.{mode}", build)


def _build_commit_lists(layout) -> tuple:
    """Static structure of the scalar commit path, as plain Python tuples.

    Slot x/y, members per net, nets per cell and net weights: no per-item
    ndarray boxing, so the per-commit net scan beats small-array NumPy
    several times over.  Holds no reference to ``layout`` or its netlist.
    """
    netlist = layout.netlist
    members = netlist.flat_members.tolist()
    net_ptr = netlist.net_ptr.tolist()
    cell_nets = netlist.cell_net_flat.tolist()
    cell_ptr = netlist.cell_net_ptr.tolist()
    return (
        tuple(layout.slot_x.tolist()),
        tuple(layout.slot_y.tolist()),
        tuple(
            tuple(members[net_ptr[i] : net_ptr[i + 1]])
            for i in range(netlist.num_nets)
        ),
        tuple(
            tuple(cell_nets[cell_ptr[c] : cell_ptr[c + 1]])
            for c in range(netlist.num_cells)
        ),
        tuple(netlist.net_weights.tolist()),
    )


class WirelengthState:
    """Incremental HPWL cache bound to one :class:`Placement`.

    The cache holds, for every net, the bounding box of its pins and each
    edge's second order statistic (see :func:`net_bboxes`), plus the
    unweighted HPWL and the weighted total.  ``delta_for_swap`` /
    ``deltas_for_swaps`` answer "how would the total change if cells *a*
    and *b* exchanged slots?" without mutating anything; ``commit_swap``
    must be called *after* the placement has actually been swapped to keep
    the cache in sync.
    """

    #: Largest ``num_cells * num_nets`` for which the dense boolean
    #: cell-net incidence matrix is built (64 MB of bools at the cap); the
    #: batched kernel uses it to answer "is the swap partner also on this
    #: net?" with one gather.  Beyond the budget the kernel switches to the
    #: sparse CSR sorted-key path (O(pins) memory, binary-search lookups).
    INCIDENCE_BUDGET = 64_000_000

    #: Largest pin count for which the scalar commit path's Python list
    #: caches (net members, per-cell nets, coordinates) may be built; bigger
    #: instances route committed swaps through the vectorised
    #: :meth:`recompute_nets`, keeping commit memory bounded by the
    #: netlist's CSR arrays and per-degree member matrices.
    SCALAR_COMMIT_MAX_PINS = 1 << 20

    #: Shared-net detection modes already announced via the module logger —
    #: the selection is logged once per mode per process, not per instance.
    _logged_modes: set = set()

    def __init__(
        self,
        placement: Placement,
        *,
        incidence: str | None = None,
        device: str | None = None,
    ) -> None:
        self._placement = placement
        self._netlist = placement.netlist
        self._layout = placement.layout
        # The batched kernel runs through the accel dispatch layer (xp =
        # numpy | cupy); on cuda the incidence structure and the bbox caches
        # live device-resident and only the flat-expanded candidate indices
        # cross the boundary per call.
        self._xb = accel.ArrayBackend(device)
        self._dev_static: tuple | None = None
        self._dev_bbox: dict | None = None
        # The layout's shared commit lists (see _scalar_commit_lists),
        # fetched on the first committed swap: batch-only consumers (CLW
        # trial scoring) never build them.
        self._commit_lists: tuple | None = None
        num_cells = placement.num_cells
        num_nets = self._netlist.num_nets
        mode = incidence if incidence is not None else os.environ.get("REPRO_INCIDENCE", "auto")
        if mode not in ("auto", "dense", "csr"):
            raise ValueError(
                f"incidence mode must be 'auto', 'dense' or 'csr', got {mode!r}"
            )
        if mode == "auto":
            mode = "dense" if 0 < num_cells * num_nets <= self.INCIDENCE_BUDGET else "csr"
        self._incidence_mode = mode
        # Shared-net incidence, built once per netlist and shared read-only.
        incidence_arr = _shared_incidence(self._netlist, mode)
        self._incidence = incidence_arr if mode == "dense" else None
        self._csr_keys = incidence_arr if mode == "csr" else None
        if mode not in WirelengthState._logged_modes:
            WirelengthState._logged_modes.add(mode)
            logger.info(
                "wirelength shared-net detection: %s path selected "
                "(first instance: %d cells x %d nets, jit=%s)",
                mode, num_cells, num_nets, _kernels.jit_enabled(),
            )
        self.rebuild()

    @property
    def incidence_mode(self) -> str:
        """Active shared-net detection path: ``"dense"`` or ``"csr"``.

        Benchmarks assert on this so they provably measure the path they
        meant to (the dense→CSR switch used to be silent).
        """
        return self._incidence_mode

    # ------------------------------------------------------------------ #
    @property
    def total(self) -> float:
        """Current weighted total HPWL."""
        return self._total

    @property
    def per_net(self) -> np.ndarray:
        """Current unweighted per-net HPWL values (read-only view)."""
        view = self._per_net.view()
        view.flags.writeable = False
        return view

    def rebuild(self) -> None:
        """Recompute the cache from scratch (used after bulk solution changes)."""
        (
            self._x_min,
            self._x_max,
            self._y_min,
            self._y_max,
            self._x_min2,
            self._x_max2,
            self._y_min2,
            self._y_max2,
        ) = net_bboxes(self._placement)
        self._per_net = (self._x_max - self._x_min) + (self._y_max - self._y_min)
        weights = self._netlist.net_weights
        self._total = float(np.dot(self._per_net, weights)) if self._per_net.size else 0.0
        if self._xb.is_cuda:  # pragma: no cover - cupy only
            self._device_sync()

    # ------------------------------------------------------------------ #
    # accel plumbing
    # ------------------------------------------------------------------ #
    @property
    def device(self) -> str:
        """Resolved execution device of the batch kernel (``cpu``/``cuda``)."""
        return self._xb.device

    def transfer_stats(self) -> TransferStats:
        """Host↔device traffic this state has caused (all-zero on CPU)."""
        return self._xb.transfer_stats()

    def _device_sync(self, nets: np.ndarray | None = None) -> None:  # pragma: no cover - cupy only
        """Refresh the device-resident bbox/HPWL mirrors after a host mutation.

        ``nets`` scatters just those entries (committed swaps touch a
        handful of nets); ``None`` re-ships the nine cache arrays wholesale
        (rebuilds, restores).  CPU backends never call this — the kernel
        reads the live host arrays directly.
        """
        xb = self._xb
        if self._dev_static is None:
            self._dev_static = (
                xb.to_device(self._incidence) if self._incidence is not None else None,
                xb.to_device(self._csr_keys) if self._csr_keys is not None else None,
                xb.to_device(self._netlist.net_weights),
            )
        hosts = (
            self._x_min, self._x_max, self._y_min, self._y_max,
            self._x_min2, self._x_max2, self._y_min2, self._y_max2,
            self._per_net,
        )
        names = (
            "x_min", "x_max", "y_min", "y_max",
            "x_min2", "x_max2", "y_min2", "y_max2",
            "per_net",
        )
        if nets is None or self._dev_bbox is None:
            self._dev_bbox = {
                name: xb.to_device(host) for name, host in zip(names, hosts)
            }
            return
        idx = xb.to_device(np.asarray(nets, dtype=np.int64))
        for name, host in zip(names, hosts):
            self._dev_bbox[name][idx] = xb.to_device(host[nets])

    def _hpwl_arrays(self) -> accel.HpwlArrays:
        """Backend-space :class:`~repro.accel.kernels.HpwlArrays` pack.

        On CPU the fields *are* the live host arrays (rebuilt-on-call refs,
        so rebinds by ``rebuild``/``restore_state`` are always picked up);
        on cuda they are the device mirrors maintained by
        :meth:`_device_sync`.
        """
        if self._xb.is_cuda:  # pragma: no cover - cupy only
            incidence_d, csr_keys_d, weights_d = self._dev_static
            bbox = self._dev_bbox
            return accel.HpwlArrays(
                num_nets=self._netlist.num_nets,
                incidence=incidence_d,
                csr_keys=csr_keys_d,
                x_min=bbox["x_min"], x_max=bbox["x_max"],
                y_min=bbox["y_min"], y_max=bbox["y_max"],
                x_min2=bbox["x_min2"], x_max2=bbox["x_max2"],
                y_min2=bbox["y_min2"], y_max2=bbox["y_max2"],
                per_net=bbox["per_net"],
                net_weights=weights_d,
            )
        return accel.HpwlArrays(
            num_nets=self._netlist.num_nets,
            incidence=self._incidence,
            csr_keys=self._csr_keys,
            x_min=self._x_min, x_max=self._x_max,
            y_min=self._y_min, y_max=self._y_max,
            x_min2=self._x_min2, x_max2=self._x_max2,
            y_min2=self._y_min2, y_max2=self._y_max2,
            per_net=self._per_net,
            net_weights=self._netlist.net_weights,
        )

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the search loop to try candidates cheaply)
    # ------------------------------------------------------------------ #
    def save_state(self) -> tuple:
        """Copy of the full cache, restorable via :meth:`restore_state`."""
        return (
            self._per_net.copy(),
            self._total,
            self._x_min.copy(),
            self._x_max.copy(),
            self._y_min.copy(),
            self._y_max.copy(),
            self._x_min2.copy(),
            self._x_max2.copy(),
            self._y_min2.copy(),
            self._y_max2.copy(),
        )

    def restore_state(self, state: tuple) -> None:
        """Restore a cache snapshot (the placement must be restored separately)."""
        (per_net, total, x_min, x_max, y_min, y_max, x_min2, x_max2, y_min2, y_max2) = state
        self._per_net = per_net.copy()
        self._total = total
        self._x_min = x_min.copy()
        self._x_max = x_max.copy()
        self._y_min = y_min.copy()
        self._y_max = y_max.copy()
        self._x_min2 = x_min2.copy()
        self._x_max2 = x_max2.copy()
        self._y_min2 = y_min2.copy()
        self._y_max2 = y_max2.copy()
        if self._xb.is_cuda:  # pragma: no cover - cupy only
            self._device_sync()

    # ------------------------------------------------------------------ #
    # batched trial evaluation — the hot kernel
    # ------------------------------------------------------------------ #
    def deltas_for_swaps(self, cells_a, cells_b) -> np.ndarray:
        """Weighted-HPWL change of every candidate swap ``(a_i, b_i)``.

        Both arguments are integer arrays of equal length; the result is a
        float array of per-pair deltas (negative = improvement).  Every pair
        is evaluated independently against the *current* placement, exactly
        like repeated calls to :meth:`delta_for_swap`, but the whole batch is
        computed with vectorised NumPy:

        1. expand both endpoints of every pair to flat ``(pair, net)`` items
           via the CSR cell→net incidence (all ``a`` items, then all ``b``
           items);
        2. drop items of nets containing *both* endpoints (a swap permutes
           their pins, so their bbox is unchanged) — one dense incidence
           gather when the matrix fits :attr:`INCIDENCE_BUDGET`, otherwise a
           binary search of the sorted CSR incidence keys (no per-pair
           ``union1d``, no O(cells x nets) memory);
        3. update each item's bbox edges in O(1): an edge the moved pin
           leaves falls back to its cached second order statistic, then
           takes the pin's new coordinate into account;
        4. fold the weighted per-item deltas per pair with ``bincount``.

        Step 1 runs on the host; steps 2–4 are
        :func:`repro.accel.kernels.hpwl_batch_deltas`, the xp-generic kernel
        shared with the cuda backend.  New edges are selected coordinates,
        never sums, so the result is bit-identical to the multiplicity and
        segment-reduce algorithm of :func:`deltas_for_swaps_reference`.
        """
        a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
        if a.shape != b.shape:
            raise ValueError(f"cells_a and cells_b must match, got {a.shape} vs {b.shape}")
        num_pairs = int(a.size)
        if num_pairs == 0 or self._netlist.num_nets == 0:
            return np.zeros(num_pairs, dtype=np.float64)

        # --- step 1: flat (pair, net) items for both endpoints ------------- #
        # Endpoint e < num_pairs is a_e, endpoint num_pairs + e is b_e; one
        # CSR expansion of both halves and one repeat of the endpoint index
        # turn every per-endpoint quantity into a per-item gather.
        ends = np.concatenate([a, b])
        partners = np.concatenate([b, a])
        slots = self._placement.cell_to_slot[ends]
        end_x = self._layout.slot_x[slots]
        end_y = self._layout.slot_y[slots]
        net, degrees = self._netlist.nets_of_cells_flat(ends)
        if net.size == 0:
            return np.zeros(num_pairs, dtype=np.float64)
        item = np.repeat(np.arange(2 * num_pairs, dtype=np.int64), degrees)
        pair = item % num_pairs
        partner = (item + num_pairs) % (2 * num_pairs)

        # --- steps 2-4: the xp-generic batch kernel ------------------------ #
        # An item is inactive when the pair is a self-swap or when the swap
        # partner sits on the same net (the swap permutes that net's pins).
        # Inactive items are *not* filtered out — they flow through the O(1)
        # edge updates (where a self-swap's from == to makes the delta vanish
        # naturally) and are zeroed in the final per-item reduction, which is
        # far cheaper than re-gathering the item arrays through a boolean
        # mask and needs no sort to find the duplicates.
        return accel.hpwl_batch_deltas(
            self._xb,
            self._hpwl_arrays(),
            num_pairs=num_pairs,
            pair=pair,
            net=net,
            other=partners[item],
            from_x=end_x[item],
            from_y=end_y[item],
            to_x=end_x[partner],
            to_y=end_y[partner],
            active=(a != b)[pair],
            shared_mask_cpu=_kernels.shared_net_mask,
        )

    def delta_for_swap(self, cell_a: int, cell_b: int) -> float:
        """Weighted-HPWL change if ``cell_a`` and ``cell_b`` swapped slots.

        Negative values mean the swap *improves* (shortens) the wirelength.
        A single-pair call into the batched kernel, so scalar and batched
        evaluation agree bit-for-bit.
        """
        if cell_a == cell_b:
            return 0.0
        return float(self.deltas_for_swaps(
            np.array([cell_a], dtype=np.int64), np.array([cell_b], dtype=np.int64)
        )[0])

    # ------------------------------------------------------------------ #
    # committed updates
    # ------------------------------------------------------------------ #
    def _scalar_commit_lists(self) -> tuple:
        """The layout's shared commit-path lists, fetched on first use."""
        if self._commit_lists is None:
            layout = self._layout
            self._commit_lists = problem_static(
                layout, "commit_lists", lambda: _build_commit_lists(layout)
            )
        return self._commit_lists

    def commit_swap(self, cell_a: int, cell_b: int) -> None:
        """Update the cache after ``placement.swap_cells(cell_a, cell_b)``.

        The placement must already reflect the swap.  Each affected net's
        bbox, second edge statistics and HPWL are recomputed *in place* with
        a scalar scan over its (few) member pins — the nets of the paper
        circuits average ~3 pins, where one Python pass beats the dispatch
        overhead of a vectorised recompute several times over.  Nets
        containing both cells are skipped: the swap permutes their pins.
        Instances beyond :attr:`SCALAR_COMMIT_MAX_PINS` never build the
        boxed list caches; their commits go through the vectorised
        :meth:`recompute_nets` instead (same result, bounded memory).
        """
        if cell_a == cell_b:
            return
        if self._netlist.flat_members.size > self.SCALAR_COMMIT_MAX_PINS:
            nets_a_arr = self._netlist.nets_of_cell(cell_a)
            nets_b_arr = self._netlist.nets_of_cell(cell_b)
            self.recompute_nets(np.setxor1d(nets_a_arr, nets_b_arr))
            return
        _slot_x, _slot_y, _members, cell_nets_list, _weights = self._scalar_commit_lists()
        nets_a = cell_nets_list[cell_a]
        nets_b = cell_nets_list[cell_b]
        if nets_a and nets_b:
            in_b = set(nets_b)
            affected = [n for n in nets_a if n not in in_b]
            in_a = set(nets_a)
            affected += [n for n in nets_b if n not in in_a]
        else:
            affected = nets_a + nets_b
        if not affected:
            return
        cts = self._placement.cell_to_slot
        sx = _slot_x
        sy = _slot_y
        members_list = _members
        weights = _weights
        per_net = self._per_net
        total_delta = 0.0
        inf = np.inf
        for net in affected:
            members = members_list[net]
            slot = cts[members[0]]
            x_min = x_max = sx[slot]
            y_min = y_max = sy[slot]
            x_min2 = y_min2 = inf
            x_max2 = y_max2 = -inf
            for m in members[1:]:
                slot = cts[m]
                x = sx[slot]
                y = sy[slot]
                if x < x_min:
                    x_min2 = x_min
                    x_min = x
                elif x < x_min2:
                    x_min2 = x
                if x > x_max:
                    x_max2 = x_max
                    x_max = x
                elif x > x_max2:
                    x_max2 = x
                if y < y_min:
                    y_min2 = y_min
                    y_min = y
                elif y < y_min2:
                    y_min2 = y
                if y > y_max:
                    y_max2 = y_max
                    y_max = y
                elif y > y_max2:
                    y_max2 = y
            new_hpwl = (x_max - x_min) + (y_max - y_min)
            total_delta += weights[net] * (new_hpwl - per_net[net])
            per_net[net] = new_hpwl
            self._x_min[net] = x_min
            self._x_max[net] = x_max
            self._y_min[net] = y_min
            self._y_max[net] = y_max
            self._x_min2[net] = x_min2
            self._x_max2[net] = x_max2
            self._y_min2[net] = y_min2
            self._y_max2[net] = y_max2
        self._total += float(total_delta)
        if self._xb.is_cuda:  # pragma: no cover - cupy only
            self._device_sync(np.asarray(affected, dtype=np.int64))

    def recompute_cells(self, cells: np.ndarray) -> None:
        """Refresh every net touching any of ``cells`` from the placement.

        One vectorised :meth:`recompute_nets` over the union of incident
        nets — the bulk path :meth:`~repro.placement.cost.CostEvaluator.
        apply_swaps` uses when committing a whole received swap sequence at
        once.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return
        nets, _counts = self._netlist.nets_of_cells_flat(cells)
        self.recompute_nets(np.unique(nets))

    def verify_consistency(self) -> None:
        """Check the bbox caches against a fresh recompute.

        The totals alone cannot reveal a stale second edge statistic (it
        only matters once a future trial moves a pin off that edge), so this
        compares every cached array.  They hold selected coordinates, so the
        comparison is exact.  Raises ``ValueError`` on divergence.
        """
        fresh = net_bboxes(self._placement)
        cached = (
            self._x_min, self._x_max, self._y_min, self._y_max,
            self._x_min2, self._x_max2, self._y_min2, self._y_max2,
        )
        names = ("x_min", "x_max", "y_min", "y_max",
                 "x_min2", "x_max2", "y_min2", "y_max2")
        for name, have, want in zip(names, cached, fresh):
            if not np.array_equal(have, want):
                bad = int(np.flatnonzero(have != want)[0])
                raise ValueError(
                    f"wirelength bbox cache drift in {name} at net {bad}: "
                    f"cached={have[bad]}, exact={want[bad]}"
                )

    def recompute_nets(self, nets: Iterable[int]) -> None:
        """Refresh specific nets from the placement's current state.

        One vectorised :func:`net_bboxes` pass over all affected nets —
        committed swaps are rare relative to trials, so exact bbox and
        second-statistic recomputation here keeps the fast trial path simple.
        """
        nets = np.unique(np.asarray(tuple(nets) if not isinstance(nets, np.ndarray) else nets, dtype=np.int64))
        if nets.size == 0:
            return
        x_min, x_max, y_min, y_max, x_min2, x_max2, y_min2, y_max2 = net_bboxes(
            self._placement, nets
        )
        new_per = (x_max - x_min) + (y_max - y_min)
        weights = self._netlist.net_weights[nets]
        self._total += float(np.dot(weights, new_per - self._per_net[nets]))
        self._per_net[nets] = new_per
        self._x_min[nets] = x_min
        self._x_max[nets] = x_max
        self._y_min[nets] = y_min
        self._y_max[nets] = y_max
        self._x_min2[nets] = x_min2
        self._x_max2[nets] = x_max2
        self._y_min2[nets] = y_min2
        self._y_max2[nets] = y_max2
        if self._xb.is_cuda:  # pragma: no cover - cupy only
            self._device_sync(nets)


# ---------------------------------------------------------------------- #
# frozen reference kernel
# ---------------------------------------------------------------------- #
def reference_bboxes(placement: Placement) -> Tuple[np.ndarray, ...]:
    """Per-net bboxes, edge multiplicities and HPWL, from the placement alone.

    The inputs of :func:`deltas_for_swaps_reference`: ``x_min, x_max,
    y_min, y_max``, the number of pins on each of those edges and the
    unweighted per-net HPWL, all recomputed from ``placement`` with segment
    reduces.  Nothing is read from a :class:`WirelengthState`'s caches.
    """
    netlist = placement.netlist
    layout = placement.layout
    counts = netlist.net_degrees
    slots = placement.cell_to_slot[netlist.flat_members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    starts = netlist.net_ptr[:-1]
    x_min = np.minimum.reduceat(xs, starts)
    x_max = np.maximum.reduceat(xs, starts)
    y_min = np.minimum.reduceat(ys, starts)
    y_max = np.maximum.reduceat(ys, starts)
    n_x_min = np.add.reduceat((xs == np.repeat(x_min, counts)).astype(np.int64), starts)
    n_x_max = np.add.reduceat((xs == np.repeat(x_max, counts)).astype(np.int64), starts)
    n_y_min = np.add.reduceat((ys == np.repeat(y_min, counts)).astype(np.int64), starts)
    n_y_max = np.add.reduceat((ys == np.repeat(y_max, counts)).astype(np.int64), starts)
    per_net = (x_max - x_min) + (y_max - y_min)
    return x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max, per_net


def fallback_bbox_reduce(
    members: np.ndarray,
    counts: np.ndarray,
    moved: np.ndarray,
    to_x: np.ndarray,
    to_y: np.ndarray,
    cts: np.ndarray,
    slot_x: np.ndarray,
    slot_y: np.ndarray,
):
    """Exact bboxes of segments with one pin hypothetically moved.

    For each segment ``s`` (one net of one trial swap), scan its ``counts[s]``
    members with the moved pin at ``(to_x[s], to_y[s])`` and every other pin
    at its placed coordinate; returns the four bbox edge arrays.  Masked
    substitution plus four ``reduceat`` passes.
    """
    moved_rep = np.repeat(moved, counts)
    mx = np.where(members == moved_rep, np.repeat(to_x, counts), slot_x[cts[members]])
    my = np.where(members == moved_rep, np.repeat(to_y, counts), slot_y[cts[members]])
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return (
        np.minimum.reduceat(mx, starts),
        np.maximum.reduceat(mx, starts),
        np.minimum.reduceat(my, starts),
        np.maximum.reduceat(my, starts),
    )


def _shrink_min(cur: np.ndarray, support: np.ndarray, frm: np.ndarray, to: np.ndarray):
    """Fast-path new minimum after one pin moves ``frm → to``.

    Returns ``(new_min, needs_fallback)``.  The fast path is exact except when
    the moving pin was the *only* support of the current minimum and it lands
    strictly inside the box — then the true new minimum lies somewhere among
    the remaining pins and a segment reduce is required.
    """
    new = np.minimum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to > cur)
    return new, fallback


def _shrink_max(cur: np.ndarray, support: np.ndarray, frm: np.ndarray, to: np.ndarray):
    """Fast-path new maximum after one pin moves ``frm → to`` (see _shrink_min)."""
    new = np.maximum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to < cur)
    return new, fallback


def deltas_for_swaps_reference(
    state: WirelengthState, cells_a, cells_b, bboxes: tuple | None = None
) -> np.ndarray:
    """The edge-multiplicity HPWL batch kernel, frozen as an oracle.

    The algorithm :meth:`WirelengthState.deltas_for_swaps` used before the
    second order statistics: O(1) edge updates from each edge's pin count,
    and an exact segment reduce (:func:`fallback_bbox_reduce`) for every
    item whose moved pin was the sole support of an edge it leaves.  It is
    the bit-identity oracle of the backend-parameterised contract battery
    and the baseline of ``benchmarks/bench_gpu_kernels.py``.

    ``bboxes`` is :func:`reference_bboxes` of the state's placement,
    recomputed when omitted: the oracle reads only the placement and the
    static netlist structure, never the state's bbox caches, so a stale
    cache shows up as a mismatch.
    """
    a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
    b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
    if a.shape != b.shape:
        raise ValueError(f"cells_a and cells_b must match, got {a.shape} vs {b.shape}")
    num_pairs = int(a.size)
    out = np.zeros(num_pairs, dtype=np.float64)
    netlist = state._netlist
    if num_pairs == 0 or netlist.num_nets == 0:
        return out
    if bboxes is None:
        bboxes = reference_bboxes(state._placement)
    x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max, per_net = bboxes

    cts = state._placement.cell_to_slot
    slot_x = state._layout.slot_x
    slot_y = state._layout.slot_y
    ax = slot_x[cts[a]]
    ay = slot_y[cts[a]]
    bx = slot_x[cts[b]]
    by = slot_y[cts[b]]

    # --- step 1: flat (pair, net) items for both endpoints ------------- #
    nets_a, deg_a = netlist.nets_of_cells_flat(a)
    nets_b, deg_b = netlist.nets_of_cells_flat(b)
    pair_ids = np.arange(num_pairs, dtype=np.int64)
    pair = np.concatenate([np.repeat(pair_ids, deg_a), np.repeat(pair_ids, deg_b)])
    net = np.concatenate([nets_a, nets_b])
    moved = np.concatenate([np.repeat(a, deg_a), np.repeat(b, deg_b)])
    from_x = np.concatenate([np.repeat(ax, deg_a), np.repeat(bx, deg_b)])
    from_y = np.concatenate([np.repeat(ay, deg_a), np.repeat(by, deg_b)])
    to_x = np.concatenate([np.repeat(bx, deg_a), np.repeat(ax, deg_b)])
    to_y = np.concatenate([np.repeat(by, deg_a), np.repeat(ay, deg_b)])
    if net.size == 0:
        return out

    # --- step 2: neutralise self-swaps and shared nets ----------------- #
    active = (a != b)[pair]
    other = np.concatenate([np.repeat(b, deg_a), np.repeat(a, deg_b)])
    if state._incidence is not None:
        active &= ~state._incidence[other, net]
    else:  # sparse path: binary search of the sorted incidence keys
        keys = other * np.int64(netlist.num_nets) + net
        active &= ~_kernels.shared_net_mask(state._csr_keys, keys)
    if not active.any():
        return out

    # --- step 3: O(1) bbox-edge updates from the multiplicities -------- #
    new_x_min, fb_x_min = _shrink_min(x_min[net], n_x_min[net], from_x, to_x)
    new_x_max, fb_x_max = _shrink_max(x_max[net], n_x_max[net], from_x, to_x)
    new_y_min, fb_y_min = _shrink_min(y_min[net], n_y_min[net], from_y, to_y)
    new_y_max, fb_y_max = _shrink_max(y_max[net], n_y_max[net], from_y, to_y)

    # --- step 4: segment-reduce fallback for vacated edges ------------- #
    fallback = (fb_x_min | fb_x_max | fb_y_min | fb_y_max) & active
    if fallback.any():
        idx = np.flatnonzero(fallback)
        members, counts = netlist.net_members_of(net[idx])
        fb_x_lo, fb_x_hi, fb_y_lo, fb_y_hi = fallback_bbox_reduce(
            members, counts, moved[idx], to_x[idx], to_y[idx], cts, slot_x, slot_y
        )
        new_x_min[idx] = fb_x_lo
        new_x_max[idx] = fb_x_hi
        new_y_min[idx] = fb_y_lo
        new_y_max[idx] = fb_y_hi

    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = netlist.net_weights[net] * (new_hpwl - per_net[net])
    per_item *= active  # zero the contributions of masked items
    out[:] = np.bincount(pair, weights=per_item, minlength=num_pairs)
    return out
