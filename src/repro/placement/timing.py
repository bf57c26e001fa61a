"""Timing objective: critical-path delay via static timing analysis (STA).

The paper's placement cost includes "timing performance / circuit speed",
which is a function of cell delays and interconnection delays.  We model it in
the usual way:

* every cell has an intrinsic delay (0 for I/O pads, a clock-to-Q delay for
  flip-flops);
* every driver→sink connection has an interconnection delay proportional to
  the Manhattan distance between the two cells under the current placement;
* the *critical-path delay* is the longest data-arrival time at a timing
  endpoint (primary output or flip-flop data input), computed by propagating
  arrival times in topological order.

An exact STA is O(cells + connections) from scratch, but between two calls
of one :class:`TimingAnalyzer` only a few cells usually move (an adopted
delta, every ``refresh_interval``-th commit), so the analyzer keeps the
coordinates, edge delays and arrival times of its last call and re-prices
only the connections of the moved cells, re-propagating arrivals only where
they can change.  The result is bitwise equal to a cold analysis whatever
the call history.  Even so it is too expensive for every trial swap of the
tabu-search inner loop: :class:`TimingState` caches the most recent critical
path and scores candidate swaps by re-evaluating the cached path with the
hypothetical positions — a standard path-based surrogate: exact for moves
touching the cached path, optimistic otherwise.  The exact analysis is re-run
when moves are committed (with a configurable refresh interval) so the
surrogate never drifts far.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CostModelError
from .cell import CellKind
from ._shared import problem_static, read_only
from .netlist import Netlist, csr_rows
from .solution import Placement

__all__ = ["TimingModel", "TimingResult", "TimingGraph", "TimingAnalyzer", "TimingState"]

#: An analysis whose moved cells exceed this share of all cells re-prices
#: and re-propagates everything, per regime (scalar, vectorised): past it
#: the dirty-cell bookkeeping costs more than the full pass saves.  Measured
#: crossovers: ~3% of c532's cells (the scalar loop's dirty cone covers
#: nearly every cell by then), ~8–12% of big10k's.
_FULL_ANALYSIS_MOVED_SHARE = {True: 0.03, False: 0.125}


@dataclass(frozen=True, slots=True)
class TimingModel:
    """Parameters of the interconnect delay model.

    Attributes
    ----------
    wire_delay_per_unit:
        Delay contributed per unit of Manhattan distance between a driver and
        a sink.
    """

    wire_delay_per_unit: float = 0.05

    def __post_init__(self) -> None:
        if self.wire_delay_per_unit < 0:
            raise CostModelError(
                f"wire_delay_per_unit must be non-negative, got {self.wire_delay_per_unit}"
            )


@dataclass(frozen=True, slots=True)
class TimingResult:
    """Outcome of one exact static timing analysis."""

    critical_delay: float
    #: Arrival time at the output of every cell.
    arrival: np.ndarray
    #: Cells along the critical path, from start point to end point.
    critical_path: Tuple[int, ...]

    @property
    def path_length(self) -> int:
        """Number of cells on the critical path."""
        return len(self.critical_path)


def _grouped(keys: np.ndarray, num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR row pointer of ``keys`` and the stable permutation grouping them."""
    ptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_rows), out=ptr[1:])
    return read_only(ptr), np.argsort(keys, kind="stable")


class TimingGraph:
    """Placement-independent STA structure of one netlist, as flat int arrays.

    Cells are numbered twice: by cell index, and by *topological position*
    (``order``/``rank``), which sorts them by level, then index.  A cell's
    level is its longest propagating-path depth from a cell without fan-in
    (start points: primary inputs and flip-flops, whose fan-in ends paths).

    * **Edges** (``edge_src``/``edge_dst``) are the propagating driver→sink
      connections sorted by the sink's position, each sink's fan-in in
      netlist order.  A cell's in-edges are therefore one range
      ``in_ptr[rank[c]]:in_ptr[rank[c] + 1]`` and one level's edges are one
      contiguous block (``level_ptr`` bounds its positions, ``in_ptr`` of
      those its edges), so the vectorised STA runs one segmented max per
      level over views.
    * **Endpoint entries** (``end_flat``/``ends_rep``) are the data arrivals
      at primary outputs and flip-flop D inputs: endpoints in index order,
      each endpoint's fan-in in netlist order, so first-maximum tie-breaking
      matches the reference STA.
    * **Incidence CSRs** ``inc_ptr``/``inc_edges`` (edges) and
      ``ent_ptr``/``ent_ids`` (endpoint entries) list what touches each
      cell, as driver or sink: the connections a moved cell re-prices.

    The arrays are built with NumPy (a layered Kahn peeling: layer ``k`` is
    the set of cells whose last predecessor left in layer ``k - 1``) once per
    netlist per process (:meth:`TimingGraph.of`) and shared read-only by
    every :class:`TimingAnalyzer` of that netlist.  Small graphs (the scalar
    regime, :attr:`use_scalar_propagation`) also get per-cell Python tuples
    for the scalar propagation loop, built on their first use.  Nothing here
    references the netlist itself, so the shared graph never keeps its
    netlist alive.
    """

    @classmethod
    def of(cls, netlist: Netlist) -> "TimingGraph":
        """The shared graph of ``netlist``, built on first use.

        A netlist with a combinational cycle raises
        :class:`~repro.errors.CostModelError` on every call: a failed build
        is never cached.
        """
        return problem_static(netlist, "timing", lambda: cls(netlist))

    def __init__(self, netlist: Netlist) -> None:
        n = netlist.num_cells
        self.num_cells = n
        kinds = np.fromiter(map(attrgetter("kind"), netlist.cells), dtype=object, count=n)
        self.is_seq = read_only(kinds == CellKind.SEQUENTIAL)
        self.is_start = read_only((kinds == CellKind.PRIMARY_INPUT) | self.is_seq)
        self.is_end = read_only((kinds == CellKind.PRIMARY_OUTPUT) | self.is_seq)
        self.delays = read_only(np.array(netlist.cell_delays, dtype=np.float64))

        # Every driver→sink connection, net by net and sinks in net order:
        # grouped by sink (stably), this is each cell's netlist fan-in.
        net_ptr = netlist.net_ptr
        members = netlist.flat_members
        degrees = np.diff(net_ptr)
        is_sink_pin = np.ones(members.size, dtype=bool)
        is_sink_pin[net_ptr[:-1][degrees > 0]] = False
        drivers = members[np.repeat(net_ptr[:-1], degrees)][is_sink_pin]
        sinks = members[is_sink_pin]

        # Propagating edges: a start point's fan-in ends paths instead.
        propagates = ~self.is_start[sinks]
        by_sink = np.argsort(sinks[propagates], kind="stable")
        src = drivers[propagates][by_sink]
        dst = sinks[propagates][by_sink]
        indegree = np.bincount(dst, minlength=n)
        out_ptr, by_src = _grouped(src, n)
        out_dst = dst[by_src]
        level = np.full(n, -1, dtype=np.int64)
        remaining = indegree.copy()
        ready = remaining == 0
        frontier = np.flatnonzero(ready)
        depth = 0
        while frontier.size:
            level[frontier] = depth
            ready[frontier] = False
            targets, _counts = csr_rows(out_dst, out_ptr, frontier)
            np.subtract.at(remaining, targets, 1)
            ready[targets[remaining[targets] == 0]] = True
            frontier = np.flatnonzero(ready)
            depth += 1
        if np.any(level < 0):
            raise CostModelError(
                f"netlist {netlist.name!r}: combinational cycle detected; "
                "static timing analysis requires an acyclic combinational graph"
            )
        self.level = read_only(level)
        order = np.argsort(level, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        self.order = read_only(order)
        self.rank = read_only(rank)
        self.delays_topo = read_only(self.delays[order])
        self.level_ptr = read_only(np.concatenate((
            np.zeros(1, dtype=np.int64), np.cumsum(np.bincount(level, minlength=depth)),
        )))

        by_position = np.argsort(rank[dst], kind="stable")
        self.edge_src = read_only(src[by_position])
        self.edge_dst = read_only(dst[by_position])
        self.edge_src_rank = read_only(rank[self.edge_src])
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(indegree[order], out=in_ptr[1:])
        self.in_ptr = read_only(in_ptr)
        # each position's first in-edge relative to its level's first edge:
        # the segment starts of the level's maximum.reduceat
        level_edge_start = in_ptr[self.level_ptr[:-1]]
        self.seg_start = read_only(
            in_ptr[:-1] - np.repeat(level_edge_start, np.diff(self.level_ptr))
        )
        # per level >= 1 (level 0 has no fan-in): its edges, its cells, and
        # views of the level's source positions, segment starts and delays
        level_bounds = self.level_ptr.tolist()
        edge_bounds = level_edge_start.tolist() + [int(in_ptr[-1])]
        self.level_blocks = tuple(
            (
                slice(edge_bounds[lvl], edge_bounds[lvl + 1]),
                slice(level_bounds[lvl], level_bounds[lvl + 1]),
                self.edge_src_rank[edge_bounds[lvl]:edge_bounds[lvl + 1]],
                self.seg_start[level_bounds[lvl]:level_bounds[lvl + 1]],
                self.delays_topo[level_bounds[lvl]:level_bounds[lvl + 1]],
            )
            for lvl in range(1, depth)
        )
        num_edges = self.edge_src.size
        edge_ids = np.arange(num_edges, dtype=np.int64)
        self.inc_ptr, by_cell = _grouped(np.concatenate((self.edge_src, self.edge_dst)), n)
        self.inc_edges = read_only(np.concatenate((edge_ids, edge_ids))[by_cell])

        ends = self.is_end[sinks]
        by_end = np.argsort(sinks[ends], kind="stable")
        self.end_flat = read_only(drivers[ends][by_end])
        self.ends_rep = read_only(sinks[ends][by_end])
        entry_ids = np.arange(self.end_flat.size, dtype=np.int64)
        self.ent_ptr, by_cell = _grouped(np.concatenate((self.end_flat, self.ends_rep)), n)
        self.ent_ids = read_only(np.concatenate((entry_ids, entry_ids))[by_cell])

        # crossover measured on the paper circuits: ~2k edges.  For them a
        # tight Python loop over pre-vectorised edge delays beats per-level
        # NumPy dispatch (tens of levels with a handful of cells each); big
        # flat circuits flip the other way.
        self.use_scalar_propagation = num_edges < 2048
        self._scalar_tables: Optional[_ScalarTables] = None

    @property
    def num_levels(self) -> int:
        """Number of topological levels (level 0: cells without fan-in)."""
        return self.level_ptr.size - 1

    def scalar_tables(self) -> "_ScalarTables":
        """Per-cell Python tuples of the scalar propagation, built on first use.

        Concurrent first calls may each build a copy; the copies are equal
        and immutable, so whichever an analyzer gets is correct.
        """
        tables = self._scalar_tables
        if tables is None:
            tables = self._scalar_tables = _ScalarTables(self)
        return tables


class _ScalarTables:
    """The timing graph as Python tuples, for the scalar propagation loop.

    ``schedule[p - first]`` is ``(cell, fan-in cells, first in-edge)`` of the
    cell at topological position ``p >= first`` (``first`` is where level 1
    starts); ``consumers[c]`` are the sorted positions ``c`` drives.
    ``views`` are memoryviews of the graph's incidence arrays for the
    re-pricing of moved cells.
    """

    __slots__ = ("delays", "first", "schedule", "consumers", "views")

    def __init__(self, graph: TimingGraph) -> None:
        n = graph.num_cells
        self.delays = tuple(graph.delays.tolist())
        self.first = int(graph.level_ptr[1]) if graph.num_levels > 1 else n
        in_ptr = graph.in_ptr.tolist()
        src = tuple(graph.edge_src.tolist())
        self.schedule = tuple(
            (cell, src[in_ptr[p]:in_ptr[p + 1]], in_ptr[p])
            for p, cell in enumerate(graph.order.tolist()[self.first:], start=self.first)
        )
        # edges are in sink-position order, so grouping them stably by
        # driver lists each driver's consumers in position order
        driver_ptr, by_driver = _grouped(graph.edge_src, n)
        ptr = driver_ptr.tolist()
        driven = graph.rank[graph.edge_dst[by_driver]].tolist()
        self.consumers = tuple(tuple(driven[ptr[c]:ptr[c + 1]]) for c in range(n))
        self.views = tuple(memoryview(array) for array in (
            graph.inc_ptr, graph.inc_edges, graph.edge_src, graph.edge_dst, graph.rank,
            graph.ent_ptr, graph.ent_ids, graph.end_flat, graph.ends_rep,
        ))


class TimingAnalyzer:
    """Exact static timing analysis for a fixed netlist, warm across calls.

    The netlist connectivity never changes during placement, so the
    topological order, endpoint set and fan-in structure live in the
    netlist's shared :class:`TimingGraph`.  An analyzer adds the delay model
    and private state: scratch buffers plus the *warm state* of its last
    call — cell coordinates, edge and endpoint wire delays, arrival times and
    (scalar regime) each cell's critical predecessor.  Concurrent analyzers
    of one netlist never write to shared memory, and nothing of the warm
    state is ever pickled or checkpointed: it is a cache of the last call,
    rebuilt by the first call of a fresh analyzer.
    """

    def __init__(self, netlist: Netlist, model: TimingModel | None = None) -> None:
        self._netlist = netlist
        self._model = model or TimingModel()
        self._graph = TimingGraph.of(netlist)
        self._use_scalar_propagation = self._graph.use_scalar_propagation
        # Buffers for analyze(), allocated once on first use, so a
        # steady-state STA allocates O(moved) fresh memory per call (plus the
        # returned arrival array) instead of O(cells + edges).
        self._scratch: dict | None = None
        # Regime (scalar or not) whose warm state the scratch holds; None
        # until a call completes, and while one is in progress.
        self._warm: Optional[bool] = None
        # scalar regime warm state: edge delays, arrivals, predecessors
        self._edge_delays: List[float] = []
        self._arrival: List[float] = []
        self._pred: List[int] = []

    def _make_scratch(self) -> dict:
        graph = self._graph
        num_cells = graph.num_cells
        num_edges = graph.edge_src.size
        num_ends = graph.end_flat.size
        scratch = {
            name: np.empty(num_cells, dtype=np.float64)
            for name in ("x", "y", "spare_x", "spare_y")
        }
        scratch.update({
            "moved_x": np.empty(num_cells, dtype=bool),
            "moved_y": np.empty(num_cells, dtype=bool),
            "dirty": bytearray(num_cells),
            "edge_delay": np.empty(num_edges, dtype=np.float64),
            "edge_tmp": np.empty(num_edges, dtype=np.float64),
            "level_tmp": np.empty(num_edges, dtype=np.float64),
            "end_wire": np.empty(num_ends, dtype=np.float64),
            "end_t": np.empty(num_ends, dtype=np.float64),
            "end_tmp": np.empty(num_ends, dtype=np.float64),
        })
        return scratch

    def _add_level_views(self, scratch: dict) -> None:
        """The vectorised regime's scratch, added on its first use.

        One view pack per level >= 1 (level 0 has no fan-in): the source
        positions, the level's slices of the gather buffer and of the edge
        delays, its segment starts, and its cells' slices of the
        topologically ordered arrival and delay arrays (the graph's
        ``level_blocks`` hold the shared ones).  Plus memoryviews
        for the backtrack, which read single elements as Python scalars at
        list speed without unboxing whole arrays.
        """
        graph = self._graph
        arrival = scratch["arrival"] = np.empty(graph.num_cells, dtype=np.float64)
        level_tmp = scratch["level_tmp"]
        edge_delay = scratch["edge_delay"]
        scratch["levels"] = tuple(
            (sources, level_tmp[edges], edge_delay[edges], starts, arrival[cells], delays)
            for edges, cells, sources, starts, delays in graph.level_blocks
        )
        scratch["views"] = tuple(
            memoryview(array) for array in (
                arrival, scratch["edge_delay"], graph.edge_src,
                graph.edge_src_rank, graph.in_ptr, graph.rank,
            )
        )

    @property
    def netlist(self) -> Netlist:
        """Netlist this analyzer was built for."""
        return self._netlist

    @property
    def model(self) -> TimingModel:
        """Interconnect delay model."""
        return self._model

    # ------------------------------------------------------------------ #
    def analyze(self, placement: Placement) -> TimingResult:
        """Run an exact STA under ``placement`` and extract the critical path.

        The cells that moved since this analyzer's last call are found by
        comparing cell coordinates, so every way a placement can change
        (commits, bulk adoption, undo, restores, installs, another
        :class:`Placement` object) is caught without bookkeeping.  Only the
        connections of moved cells are re-priced, and arrivals are
        re-propagated only where they can change:

        * scalar regime (small graphs): a Python loop over the dirty
          topological positions; a cell marks its consumers dirty only if its
          arrival changed, and its critical predecessor is cached, so the
          path backtrack is an O(path) walk;
        * vectorised regime: one segmented NumPy max per level, starting at
          the first level with a re-priced in-edge.

        The first call, a switch of regime and a move of more than the
        regime's ``_FULL_ANALYSIS_MOVED_SHARE`` of the cells analyze from
        scratch.
        Every float is computed by the same expression in the same operand
        order either way, so the result is bitwise equal to a cold analysis
        (and to the scalar reference STA of the tests, first-maximum
        tie-breaking included) whatever the call history.  The returned
        arrival array is fresh: later calls never write to it.
        """
        graph = self._graph
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = self._make_scratch()
        scalar = bool(self._use_scalar_propagation)
        # the last call's coordinate buffers become this call's spares
        x, y = scratch["spare_x"], scratch["spare_y"]
        last_x, last_y = scratch["x"], scratch["y"]
        scratch["x"], scratch["y"] = x, y
        scratch["spare_x"], scratch["spare_y"] = last_x, last_y
        cts = placement.cell_to_slot
        layout = placement.layout
        layout.slot_x.take(cts, None, x)
        layout.slot_y.take(cts, None, y)
        moved = None
        if self._warm is scalar:
            moved_x, moved_y = scratch["moved_x"], scratch["moved_y"]
            np.not_equal(x, last_x, moved_x)
            np.not_equal(y, last_y, moved_y)
            np.logical_or(moved_x, moved_y, moved_x)
            moved = np.flatnonzero(moved_x)
            if moved.size > _FULL_ANALYSIS_MOVED_SHARE[scalar] * graph.num_cells:
                moved = None
        self._warm = None  # until this call completes
        if moved is None:
            self._price_all(x, y)
        if scalar:
            arrival, pred = self._propagate_scalar(x, y, moved)
        else:
            arrival = self._propagate_levels(x, y, moved)
            pred = None
        self._warm = scalar

        critical_delay = 0.0
        critical_end = -1
        critical_end_pred = -1
        if graph.end_flat.size:
            end_t = scratch["end_t"]
            arrival.take(graph.end_flat, None, end_t)
            np.add(scratch["end_wire"], end_t, end_t)
            imax = int(end_t.argmax())
            top = end_t.item(imax)
            if top > 0.0:
                critical_delay = top
                critical_end = graph.ends_rep.item(imax)
                critical_end_pred = graph.end_flat.item(imax)

        # Backtrack the critical path: the predecessor of a path cell is its
        # first fan-in attaining the arrival maximum, exactly the reference
        # loop's strict-greater scan.  The scalar regime cached it while
        # propagating; the vectorised one re-scans the path cells' in-edges
        # (one cell per level at most).
        path: List[int] = []
        if critical_end >= 0:
            path.append(critical_end)
            cursor = critical_end_pred
            if pred is not None:
                while cursor >= 0:
                    path.append(cursor)
                    cursor = pred[cursor]
            else:
                arrival_at, edge_delay, src, src_rank, in_ptr, rank = scratch["views"]
                while cursor >= 0:
                    path.append(cursor)
                    position = rank[cursor]
                    best = -np.inf
                    best_edge = -1
                    for edge in range(in_ptr[position], in_ptr[position + 1]):
                        t_d = arrival_at[src_rank[edge]] + edge_delay[edge]
                        if t_d > best:
                            best = t_d
                            best_edge = edge
                    cursor = src[best_edge] if best_edge >= 0 else -1
            path.reverse()
        return TimingResult(
            critical_delay=float(critical_delay),
            arrival=arrival,
            critical_path=tuple(path),
        )

    def _price_all(self, x: np.ndarray, y: np.ndarray) -> None:
        """Price every edge and endpoint entry (a cold analysis)."""
        graph = self._graph
        scratch = self._scratch
        wpu = self._model.wire_delay_per_unit
        for src, dst, out, tmp, tmp2 in (
            (graph.edge_src, graph.edge_dst, scratch["edge_delay"],
             scratch["edge_tmp"], scratch["level_tmp"]),
            (graph.end_flat, graph.ends_rep, scratch["end_wire"],
             scratch["end_t"], scratch["end_tmp"]),
        ):
            if not src.size:
                continue
            x.take(src, None, out)
            x.take(dst, None, tmp)
            np.subtract(out, tmp, out)
            np.abs(out, out)
            y.take(src, None, tmp)
            y.take(dst, None, tmp2)
            np.subtract(tmp, tmp2, tmp)
            np.abs(tmp, tmp)
            np.add(out, tmp, out)
            np.multiply(out, wpu, out)

    def _reprice(self, x, y, src, dst, ids: np.ndarray, out: np.ndarray) -> None:
        """``out[ids]``: the wire delays of connections ``ids`` (same floats as above)."""
        a = src[ids]
        b = dst[ids]
        wire = np.abs(x[a] - x[b])
        wire += np.abs(y[a] - y[b])
        wire *= self._model.wire_delay_per_unit
        out[ids] = wire

    def _propagate_levels(self, x: np.ndarray, y: np.ndarray, moved) -> np.ndarray:
        """Vectorised regime: re-price what ``moved`` touches, re-propagate.

        ``moved`` is None after a full pricing.  Arrivals live in
        topological order, so a level's cells are one contiguous slice that
        its segmented max writes in place; propagation starts at the first
        level with a re-priced in-edge.  Returns the arrivals in cell order
        (a fresh array).
        """
        graph = self._graph
        scratch = self._scratch
        if "levels" not in scratch:
            self._add_level_views(scratch)
        arrival = scratch["arrival"]
        if moved is None:
            np.copyto(arrival, graph.delays_topo)
            first_level = 1
        else:
            first_level = graph.num_levels
            edges, _counts = csr_rows(graph.inc_edges, graph.inc_ptr, moved)
            if edges.size:
                self._reprice(x, y, graph.edge_src, graph.edge_dst, edges, scratch["edge_delay"])
                # edges are sorted by their sink's level
                first_level = graph.level.item(graph.edge_dst.item(int(edges.min())))
            entries, _counts = csr_rows(graph.ent_ids, graph.ent_ptr, moved)
            if entries.size:
                self._reprice(x, y, graph.end_flat, graph.ends_rep, entries, scratch["end_wire"])
        take = arrival.take
        add = np.add
        reduceat = np.maximum.reduceat
        levels = scratch["levels"]
        for index in range(first_level - 1, len(levels)):
            sources, t_buf, edge_delay, starts, cell_arrival, cell_delays = levels[index]
            take(sources, None, t_buf)
            add(t_buf, edge_delay, t_buf)
            reduceat(t_buf, starts, 0, None, cell_arrival)
            add(cell_arrival, cell_delays, cell_arrival)
        return take(graph.rank)

    def _propagate_scalar(self, x: np.ndarray, y: np.ndarray, moved):
        """Scalar regime: Python loops over the dirty topological positions.

        ``moved`` is None after a full pricing; otherwise the connections of
        the moved cells are re-priced here, reading the shared CSR arrays
        through memoryviews (Python scalars at list speed, no per-cell
        tuples).  Returns the arrivals in cell order (a fresh array) and the
        cached critical predecessor of every cell (-1: no fan-in).
        """
        graph = self._graph
        tables = graph.scalar_tables()
        delays = tables.delays
        if moved is None:
            self._scratch["dirty"] = bytearray(graph.num_cells)
            ed = self._edge_delays = self._scratch["edge_delay"].tolist()
            arr = self._arrival = list(delays)
            pred = self._pred = [-1] * graph.num_cells
            for c, fanin, edge in tables.schedule:
                best = -np.inf
                for d in fanin:
                    t = arr[d] + ed[edge]
                    edge += 1
                    if t > best:
                        best = t
                        p = d
                arr[c] = best + delays[c]
                pred[c] = p
            return np.array(arr, dtype=np.float64), pred

        ed = self._edge_delays
        arr = self._arrival
        pred = self._pred
        wpu = self._model.wire_delay_per_unit
        x_at = memoryview(x)
        y_at = memoryview(y)
        dirty = self._scratch["dirty"]
        end_wire = self._scratch["end_wire"]
        inc_ptr, inc_edges, src, dst, rank, ent_ptr, ent_ids, end_src, end_dst = tables.views
        low = graph.num_cells
        high = -1
        for cell in moved.tolist():
            for k in range(inc_ptr[cell], inc_ptr[cell + 1]):
                edge = inc_edges[k]
                a = src[edge]
                b = dst[edge]
                ed[edge] = (abs(x_at[a] - x_at[b]) + abs(y_at[a] - y_at[b])) * wpu
                position = rank[b]
                dirty[position] = 1
                if position < low:
                    low = position
                if position > high:
                    high = position
            for k in range(ent_ptr[cell], ent_ptr[cell + 1]):
                entry = ent_ids[k]
                a = end_src[entry]
                b = end_dst[entry]
                end_wire[entry] = (abs(x_at[a] - x_at[b]) + abs(y_at[a] - y_at[b])) * wpu
        schedule = tables.schedule
        consumers = tables.consumers
        first = tables.first
        position = low
        while position <= high:
            if dirty[position]:
                dirty[position] = 0
                c, fanin, edge = schedule[position - first]
                best = -np.inf
                for d in fanin:
                    t = arr[d] + ed[edge]
                    edge += 1
                    if t > best:
                        best = t
                        p = d
                pred[c] = p
                t = best + delays[c]
                if t != arr[c]:
                    arr[c] = t
                    driven = consumers[c]
                    if driven:
                        for consumer in driven:
                            dirty[consumer] = 1
                        if driven[-1] > high:
                            high = driven[-1]
            position += 1
        return np.array(arr, dtype=np.float64), pred

    def path_delay(
        self,
        placement: Placement,
        path: Sequence[int],
        overrides: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> float:
        """Delay along a specific cell path, optionally with position overrides.

        ``overrides`` maps cell index to an ``(x, y)`` position that replaces
        the placement's position for that cell — used to score hypothetical
        swaps without mutating the placement.
        """
        if len(path) < 2:
            return 0.0
        x = placement.cell_x()
        y = placement.cell_y()
        if overrides:
            for cell, (ox, oy) in overrides.items():
                x[cell] = ox
                y[cell] = oy
        wpu = self._model.wire_delay_per_unit
        path_arr = np.asarray(path, dtype=np.int64)
        px = x[path_arr]
        py = y[path_arr]
        wire = wpu * float(np.sum(np.abs(np.diff(px)) + np.abs(np.diff(py))))
        return self.path_intrinsic_delay(path) + wire

    def path_intrinsic_delay(self, path: Sequence[int]) -> float:
        """Sum of the intrinsic cell delays along ``path`` (placement-free).

        The start cell always contributes; intermediate cells contribute; the
        end point contributes only if it propagates (i.e. it is not a pure
        endpoint like a PO or a flip-flop D input).
        """
        if len(path) < 2:
            return 0.0
        graph = self._graph
        cells = list(path)
        last = cells[-1]
        if graph.is_end[last] and not graph.is_start[last]:
            cells.pop()  # PO endpoint: no intrinsic delay after arrival
        elif graph.is_seq[last]:
            cells.pop()  # flip-flop D input endpoint
        total = 0.0
        for delay in graph.delays[cells].tolist():
            total += delay
        return total


class TimingState:
    """Incremental timing cost bound to one :class:`Placement`.

    Keeps the last exact :class:`TimingResult` plus the set of cells on the
    cached critical path.  ``delta_for_swap`` evaluates how the *cached path's*
    delay would change if two cells swapped positions — exact when the swap
    touches the cached path, zero otherwise (an optimistic but cheap
    surrogate).  The exact analysis is refreshed on every ``refresh_interval``
    committed swaps or explicitly via :meth:`refresh`.
    """

    def __init__(
        self,
        placement: Placement,
        analyzer: TimingAnalyzer,
        *,
        refresh_interval: int = 8,
    ) -> None:
        if refresh_interval < 1:
            raise CostModelError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self._placement = placement
        self._analyzer = analyzer
        self._refresh_interval = refresh_interval
        self._commits_since_refresh = 0
        self.refresh()

    @property
    def critical_delay(self) -> float:
        """Delay of the cached critical path under the current placement."""
        return self._cached_delay

    @property
    def critical_path(self) -> Tuple[int, ...]:
        """Cells on the cached critical path."""
        return self._result.critical_path

    @property
    def analyzer(self) -> TimingAnalyzer:
        """The underlying exact analyzer."""
        return self._analyzer

    def refresh(self) -> TimingResult:
        """Re-run the exact STA and reset the surrogate state."""
        self._result = self._analyzer.analyze(self._placement)
        self._cached_delay = self._result.critical_delay
        self._path_cells = frozenset(self._result.critical_path)
        self._commits_since_refresh = 0
        # Vectorised surrogate state: the path as an array, a dense membership
        # mask, and the placement-independent intrinsic-delay part.
        self._path_array = np.asarray(self._result.critical_path, dtype=np.int64)
        on_path = np.zeros(self._placement.num_cells, dtype=bool)
        on_path[self._path_array] = True
        self._on_path = on_path
        self._path_intrinsic = self._analyzer.path_intrinsic_delay(self._result.critical_path)
        return self._result

    def exact_delay(self) -> float:
        """Exact critical-path delay (runs an exact STA, does not disturb caches).

        The STA is incremental against the analyzer's last call, so right
        after a refresh of an unchanged placement it only compares
        coordinates and re-reads the endpoints.
        """
        return self._analyzer.analyze(self._placement).critical_delay

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the search loop to try candidates cheaply)
    # ------------------------------------------------------------------ #
    def save_state(self) -> tuple:
        """Snapshot of the surrogate state, restorable via :meth:`restore_state`.

        The contained arrays are never mutated in place (``refresh`` rebuilds
        them), so references suffice — no copies needed.
        """
        return (
            self._result,
            self._cached_delay,
            self._path_cells,
            self._commits_since_refresh,
            self._path_array,
            self._on_path,
            self._path_intrinsic,
        )

    def restore_state(self, state: tuple) -> None:
        """Restore a snapshot (the placement must be restored separately)."""
        (
            self._result,
            self._cached_delay,
            self._path_cells,
            self._commits_since_refresh,
            self._path_array,
            self._on_path,
            self._path_intrinsic,
        ) = state

    def _reprice_path(self) -> float:
        """Delay of the cached path under the current placement.

        Same arithmetic as :meth:`TimingAnalyzer.path_delay`, but gathering
        only the path cells' coordinates instead of every cell's — this runs
        on every committed swap that touches the path.
        """
        path = self._path_array
        if path.size < 2:
            return 0.0
        cts = self._placement.cell_to_slot
        layout = self._placement.layout
        px = layout.slot_x[cts[path]]
        py = layout.slot_y[cts[path]]
        wpu = self._analyzer.model.wire_delay_per_unit
        wire = wpu * float(np.sum(np.abs(np.diff(px)) + np.abs(np.diff(py))))
        return self._path_intrinsic + wire

    # ------------------------------------------------------------------ #
    def deltas_for_swaps(self, cells_a, cells_b) -> np.ndarray:
        """Estimated critical-delay change of every candidate swap in a batch.

        The surrogate is the same as :meth:`delta_for_swap`: pairs touching
        the cached critical path re-price the whole path with the two
        positions exchanged; all other pairs score 0.  All touching pairs are
        priced together as one ``(pairs × path)`` broadcast.
        """
        a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
        num_pairs = int(a.size)
        out = np.zeros(num_pairs, dtype=np.float64)
        path = self._path_array
        if num_pairs == 0 or path.size < 2:
            return out
        touch = (self._on_path[a] | self._on_path[b]) & (a != b)
        if not touch.any():
            return out
        ai = a[touch]
        bi = b[touch]
        cts = self._placement.cell_to_slot
        slot_x = self._placement.layout.slot_x
        slot_y = self._placement.layout.slot_y
        # Only path cells and touched endpoints need coordinates — no
        # O(num_cells) gather.
        px = slot_x[cts[path]]
        py = slot_y[cts[path]]
        path_row = path[None, :]
        mask_a = path_row == ai[:, None]
        mask_b = path_row == bi[:, None]
        nx = np.where(
            mask_a, slot_x[cts[bi]][:, None],
            np.where(mask_b, slot_x[cts[ai]][:, None], px[None, :]),
        )
        ny = np.where(
            mask_a, slot_y[cts[bi]][:, None],
            np.where(mask_b, slot_y[cts[ai]][:, None], py[None, :]),
        )
        wpu = self._analyzer.model.wire_delay_per_unit
        wire = wpu * np.sum(np.abs(np.diff(nx, axis=1)) + np.abs(np.diff(ny, axis=1)), axis=1)
        out[touch] = (self._path_intrinsic + wire) - self._cached_delay
        return out

    def delta_for_swap(self, cell_a: int, cell_b: int) -> float:
        """Estimated critical-delay change if ``cell_a`` and ``cell_b`` swapped."""
        if cell_a == cell_b:
            return 0.0
        if cell_a not in self._path_cells and cell_b not in self._path_cells:
            return 0.0
        return float(self.deltas_for_swaps(
            np.array([cell_a], dtype=np.int64), np.array([cell_b], dtype=np.int64)
        )[0])

    def commit_swap(self, cell_a: int, cell_b: int) -> None:
        """Update the cached path delay after the placement swap was applied."""
        if cell_a == cell_b:
            return
        self._commits_since_refresh += 1
        if self._commits_since_refresh >= self._refresh_interval:
            self.refresh()
            return
        if cell_a in self._path_cells or cell_b in self._path_cells:
            self._cached_delay = self._reprice_path()

    def apply_bulk(self, cells: np.ndarray, num_swaps: int) -> None:
        """Account for a whole committed swap sequence at once.

        ``cells`` are the cells whose positions changed (placement already
        updated); ``num_swaps`` advances the refresh counter exactly like that
        many :meth:`commit_swap` calls, but the cached path is re-priced once
        instead of per swap.
        """
        if num_swaps <= 0:
            return
        self._commits_since_refresh += num_swaps
        if self._commits_since_refresh >= self._refresh_interval:
            self.refresh()
            return
        if np.any(self._on_path[np.asarray(cells, dtype=np.int64)]):
            self._cached_delay = self._reprice_path()
