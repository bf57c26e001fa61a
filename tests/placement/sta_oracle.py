"""Scalar reference STA: the correctness oracle of ``TimingAnalyzer.analyze``.

The pre-vectorisation implementation, rebuilt from the netlist alone (its
own topological order, no shared timing graph), so the equivalence tests
check the vectorised kernel against an independent derivation.  Ties break
exactly like the kernel: a cell's predecessor is its first fan-in attaining
the strict maximum, endpoints are visited in index order.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.placement.timing import TimingResult


def reference_sta(netlist, placement, wire_delay_per_unit: float = 0.05) -> TimingResult:
    """Exact STA of ``placement`` by a scalar loop over the netlist."""
    n = netlist.num_cells
    kinds = [cell.kind for cell in netlist.cells]
    prop_fanin = [() if k.is_timing_start else netlist.fanin(c) for c, k in enumerate(kinds)]
    consumers = [[] for _ in range(n)]
    for c, fanin in enumerate(prop_fanin):
        for d in fanin:
            consumers[d].append(c)
    remaining = [len(f) for f in prop_fanin]
    queue = deque(c for c in range(n) if not remaining[c])
    order = []
    while queue:
        c = queue.popleft()
        order.append(c)
        for consumer in consumers[c]:
            remaining[consumer] -= 1
            if not remaining[consumer]:
                queue.append(consumer)

    x = placement.cell_x()
    y = placement.cell_y()
    wpu = wire_delay_per_unit
    delays = netlist.cell_delays
    arrival = np.zeros(n, dtype=np.float64)
    best_pred = np.full(n, -1, dtype=np.int64)
    for c in order:
        fanin = prop_fanin[c]
        if fanin:
            best = -np.inf
            pred = -1
            for d in fanin:
                t = arrival[d] + wpu * (abs(x[d] - x[c]) + abs(y[d] - y[c]))
                if t > best:
                    best = t
                    pred = d
            arrival[c] = best + delays[c]
            best_pred[c] = pred
        else:
            arrival[c] = delays[c]

    # data arrival at endpoints (PO and flip-flop D inputs)
    critical_delay = 0.0
    critical_end = critical_end_pred = -1
    for c, kind in enumerate(kinds):
        if not kind.is_timing_end:
            continue
        for d in netlist.fanin(c):
            t = arrival[d] + wpu * (abs(x[d] - x[c]) + abs(y[d] - y[c]))
            if t > critical_delay:
                critical_delay = float(t)
                critical_end, critical_end_pred = c, d

    path = []
    if critical_end >= 0:
        path.append(critical_end)
        cursor = critical_end_pred
        while cursor >= 0:
            path.append(cursor)
            cursor = int(best_pred[cursor])
        path.reverse()
    return TimingResult(
        critical_delay=float(critical_delay),
        arrival=arrival,
        critical_path=tuple(path),
    )
