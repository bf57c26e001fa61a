"""History independence of the warm, incremental STA.

``TimingAnalyzer.analyze`` keeps the coordinates, edge delays, arrivals and
(scalar regime) critical predecessors of its last call and re-propagates
only from what moved.  Whatever sequence of placements one long-lived
analyzer sees — single commits, k-swap bursts, installs, revisits of earlier
placements, evaluator save/restore, a second ``Placement`` object, a switch
of propagation regime — every result must be bitwise equal to the scalar
reference STA and to a cold analyzer.  Runs on c532 (scalar regime), big2k
(vectorised regime) and c532 with the regime flipped mid-sequence; the
hand-built cases pin a predecessor that changes under an unchanged arrival,
an endpoint-only move and a move at the first level.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    CellKind,
    CostEvaluator,
    Layout,
    NetlistBuilder,
    load_benchmark,
    random_placement,
)
from repro.placement.solution import Placement
from repro.placement.timing import TimingAnalyzer
from sta_oracle import reference_sta

_LAYOUTS = {name: Layout(load_benchmark(name)) for name in ("c532", "big2k")}
_CASES = {"c532": "c532", "big2k": "big2k", "c532-flip": "c532"}


def assert_exact(analyzer: TimingAnalyzer, placement: Placement) -> None:
    """``analyzer`` agrees bitwise with the reference STA and a cold analyzer."""
    result = analyzer.analyze(placement)
    cold = TimingAnalyzer(placement.netlist, analyzer.model)
    cold._use_scalar_propagation = analyzer._use_scalar_propagation
    expected = (
        reference_sta(placement.netlist, placement, analyzer.model.wire_delay_per_unit),
        cold.analyze(placement),
    )
    for other in expected:
        assert result.critical_delay == other.critical_delay
        assert result.arrival.tobytes() == other.arrival.tobytes()
        assert result.critical_path == other.critical_path


cells = st.integers(0, 10_000)
pair_lists = st.lists(st.tuples(cells, cells), max_size=30)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), cells, cells),
        st.tuples(st.just("burst"), pair_lists, st.booleans()),
        st.tuples(st.just("undo"), pair_lists),
        st.tuples(st.just("save")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("install"), st.integers(0, 10_000)),
        st.tuples(st.just("revisit"), st.integers(0, 10_000)),
        st.tuples(st.just("other"), st.integers(0, 10_000), cells, cells),
        st.tuples(st.just("flip")),
    ),
    max_size=14,
)


@pytest.mark.parametrize("case", sorted(_CASES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1_000), ops=operations)
def test_long_lived_analyzer_matches_cold_analysis(case, seed, ops):
    layout = _LAYOUTS[_CASES[case]]
    evaluator = CostEvaluator(random_placement(layout, seed=seed))
    analyzer = evaluator._timing.analyzer
    assert analyzer._use_scalar_propagation is (_CASES[case] == "c532")
    placement = evaluator.placement
    n = placement.num_cells
    other = random_placement(layout, seed=seed + 1)
    history = [evaluator.snapshot()]
    saved = evaluator.save_state()
    assert_exact(analyzer, placement)
    for op in ops:
        kind = op[0]
        if kind == "commit":
            evaluator.commit_swap(op[1] % n, op[2] % n)
        elif kind == "burst":
            pairs = np.array(op[1], dtype=np.int64).reshape(-1, 2) % n
            evaluator.apply_swaps(pairs, exact_timing=op[2])
        elif kind == "undo":
            evaluator.undo_swaps(np.array(op[1], dtype=np.int64).reshape(-1, 2) % n)
        elif kind == "save":
            saved = evaluator.save_state()
        elif kind == "restore":
            evaluator.restore_state(saved)
        elif kind == "install":
            evaluator.install_solution(random_placement(layout, seed=op[1]).to_array())
        elif kind == "revisit":
            evaluator.install_solution(history[op[1] % len(history)])
        elif kind == "other":
            # the same analyzer times a second placement object in between
            if op[1] % 2:
                other = random_placement(layout, seed=op[1])
            other.swap_cells(op[2] % n, op[3] % n)
            assert_exact(analyzer, other)
        elif case == "c532-flip":
            analyzer._use_scalar_propagation = not analyzer._use_scalar_propagation
        history.append(evaluator.snapshot())
        assert_exact(analyzer, placement)


def _fanin_netlist():
    """Two inputs ``a``, ``b`` into gate ``g`` driving output ``o``, plus fillers."""
    builder = NetlistBuilder("fanin")
    builder.add_cell("a", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    builder.add_cell("b", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    builder.add_cell("g", delay=1.0)
    builder.add_cell("o", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
    for index in range(12):
        builder.add_cell(f"f{index}", delay=0.0)
    builder.add_net("na", driver="a", sinks=["g"])
    builder.add_net("nb", driver="b", sinks=["g"])
    builder.add_net("ng", driver="g", sinks=["o"])
    return builder.build()


def _placement_with(layout: Layout, positions: dict) -> Placement:
    """A placement putting the named cells at the given slots, the rest anywhere."""
    netlist = layout.netlist
    cell_to_slot = np.full(netlist.num_cells, -1, dtype=np.int64)
    for name, slot in positions.items():
        cell_to_slot[netlist.cell_by_name(name).index] = slot
    free = [s for s in range(layout.num_slots) if s not in positions.values()]
    cell_to_slot[cell_to_slot < 0] = free[: int(np.sum(cell_to_slot < 0))]
    return Placement(layout, cell_to_slot)


@pytest.fixture(params=[True, False], ids=["scalar", "vectorised"])
def fanin_case(request):
    """``g`` in the middle, ``b`` next to it, ``a`` farthest (so critical).

    ``f0`` sits at a distance from ``g`` other than the output's, ``f1`` at
    one other than ``a``'s, so swapping either changes a wire delay.
    """
    netlist = _fanin_netlist()
    layout = Layout(netlist)
    centre = layout.num_slots // 2
    distance = np.abs(layout.slot_x - layout.slot_x[centre]) + np.abs(
        layout.slot_y - layout.slot_y[centre]
    )
    by_distance = [int(s) for s in np.argsort(distance, kind="stable") if s != centre]
    near, out, far = by_distance[0], by_distance[1], by_distance[-1]
    used = {centre, near, out, far}
    f0 = next(s for s in by_distance if s not in used and distance[s] != distance[out])
    f1 = next(
        s for s in by_distance if s not in used | {f0} and distance[s] != distance[far]
    )
    analyzer = TimingAnalyzer(netlist)
    analyzer._use_scalar_propagation = request.param
    index = {name: netlist.cell_by_name(name).index for name in ("a", "b", "g", "o", "f0", "f1")}
    placement = _placement_with(
        layout, {"g": centre, "a": far, "b": near, "o": out, "f0": f0, "f1": f1}
    )
    return analyzer, placement, index


def test_predecessor_follows_a_swap_that_keeps_the_arrival(fanin_case):
    analyzer, placement, index = fanin_case
    before = analyzer.analyze(placement)
    assert before.critical_path[0] == index["a"]  # the far input is critical
    # a and b trade places: g's arrival is unchanged, its critical input is b
    placement.swap_cells(index["a"], index["b"])
    after = analyzer.analyze(placement)
    assert after.arrival[index["g"]] == before.arrival[index["g"]]
    assert after.critical_path[0] == index["b"]
    assert_exact(analyzer, placement)


def test_endpoint_move_reprices_its_wire(fanin_case):
    analyzer, placement, index = fanin_case
    before = analyzer.analyze(placement)
    placement.swap_cells(index["o"], index["f0"])  # only the output's wire changes
    after = analyzer.analyze(placement)
    assert after.arrival[index["g"]] == before.arrival[index["g"]]
    assert after.critical_delay != before.critical_delay
    assert_exact(analyzer, placement)


def test_first_level_move_propagates(fanin_case):
    analyzer, placement, index = fanin_case
    before = analyzer.analyze(placement)
    placement.swap_cells(index["a"], index["f1"])  # a level-0 cell feeding level 1
    after = analyzer.analyze(placement)
    assert after.arrival[index["g"]] != before.arrival[index["g"]]
    assert_exact(analyzer, placement)


def test_unchanged_placement_repeats_the_result():
    placement = random_placement(_LAYOUTS["c532"], seed=4)
    analyzer = TimingAnalyzer(placement.netlist)
    first = analyzer.analyze(placement)
    again = analyzer.analyze(placement.copy())
    assert again.arrival is not first.arrival
    assert again.arrival.tobytes() == first.arrival.tobytes()
    assert again.critical_path == first.critical_path


@pytest.mark.parametrize("name", ["c532", "big2k"])
def test_graph_levels_and_fanin_follow_the_netlist(name):
    """Kahn layers are longest-path levels; in-edges keep netlist fan-in order."""
    netlist = _LAYOUTS[name].netlist
    graph = TimingAnalyzer(netlist)._graph
    rank = graph.rank
    for cell in range(netlist.num_cells):
        position = rank[cell]
        fanin = tuple(graph.edge_src[graph.in_ptr[position]:graph.in_ptr[position + 1]])
        assert fanin == (() if graph.is_start[cell] else netlist.fanin(cell))
        expected = 1 + max(graph.level[d] for d in fanin) if fanin else 0
        assert graph.level[cell] == expected
    assert np.array_equal(graph.order[rank], np.arange(netlist.num_cells))
    assert np.all(np.diff(graph.level[graph.order]) >= 0)
