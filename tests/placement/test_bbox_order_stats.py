"""Property tests of the wirelength cache's second order statistics.

``WirelengthState`` keeps, per net, each bbox edge and the edge the box
would have with one pin removed from it (``x_min2`` and friends).  Random
sequences of every mutation (commits, both ``apply_swaps`` modes, undo,
save/restore, install) must leave all eight arrays exact, keep the batch
kernel bit-identical to the frozen multiplicity/segment-reduce oracle, and
keep the single-pair form equal to its batch row.  Runs on c532 (dense
incidence) and on a forced-CSR netlist with two high-degree nets.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CostModelError
from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.placement.cell import CellKind
from repro.placement.netlist import NetlistBuilder
from repro.placement.wirelength import deltas_for_swaps_reference, net_bboxes

NUM_PAIRS = 256


def _with_long_nets(netlist):
    """``netlist`` plus two nets of degree 33 and 40.

    Both are driven by a primary input, so they add no timing cycle.
    """
    builder = NetlistBuilder(netlist.name + "-long")
    for cell in netlist.cells:
        builder.add_cell(cell.name, width=cell.width, delay=cell.delay, kind=cell.kind)
    for net in netlist.nets:
        builder.add_net(
            net.name,
            driver=netlist.cell(net.driver).name,
            sinks=[netlist.cell(s).name for s in net.sinks],
            weight=net.weight,
        )
    inputs = [c.name for c in netlist.cells if c.kind is CellKind.PRIMARY_INPUT]
    others = [c.name for c in netlist.cells if c.kind is not CellKind.PRIMARY_INPUT]
    for index, degree in enumerate((33, 40)):
        builder.add_net(
            f"long{index}", driver=inputs[index], sinks=others[index : index + degree - 1]
        )
    return builder.build()


def _make_layout(name: str) -> Layout:
    if name == "c532":
        return Layout(load_benchmark("c532"))
    return Layout(_with_long_nets(load_benchmark("mini64")))


_LAYOUTS = {name: _make_layout(name) for name in ("c532", "long-csr")}
_INCIDENCE = {"c532": "dense", "long-csr": "csr"}


def _make_evaluator(name: str, seed: int) -> CostEvaluator:
    placement = random_placement(_LAYOUTS[name], seed=seed)
    with mock.patch.dict(os.environ, {"REPRO_INCIDENCE": _INCIDENCE[name]}):
        evaluator = CostEvaluator(placement)
    assert evaluator._wirelength.incidence_mode == _INCIDENCE[name]
    return evaluator


def _pairs(netlist, rng):
    """Random pairs plus self-pairs and pairs sharing a net."""
    n = netlist.num_cells
    a = rng.integers(0, n, NUM_PAIRS)
    b = rng.integers(0, n, NUM_PAIRS)
    b[:16] = a[:16]
    for index in range(16, 64):
        members = netlist.net_members(int(rng.integers(0, netlist.num_nets)))
        a[index], b[index] = rng.choice(members, size=2, replace=False)
    return a.astype(np.int64), b.astype(np.int64)


def _check(evaluator: CostEvaluator, rng) -> None:
    evaluator.verify_consistency()
    state = evaluator._wirelength
    a, b = _pairs(evaluator.placement.netlist, rng)
    batch = state.deltas_for_swaps(a, b)
    assert np.array_equal(batch, deltas_for_swaps_reference(state, a, b))
    assert np.all(batch[a == b] == 0.0)
    for index in range(0, NUM_PAIRS, 17):
        assert state.delta_for_swap(int(a[index]), int(b[index])) == batch[index]


cells = st.integers(0, 10_000)
pair_lists = st.lists(st.tuples(cells, cells), max_size=6)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), cells, cells),
        st.tuples(st.just("apply"), pair_lists, st.booleans()),
        st.tuples(st.just("undo"), pair_lists),
        st.tuples(st.just("save")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("install"), st.integers(0, 10_000)),
    ),
    max_size=20,
)


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1_000), ops=operations)
def test_random_mutation_sequences_keep_order_stats_exact(name, seed, ops):
    evaluator = _make_evaluator(name, seed)
    n = evaluator.placement.num_cells
    rng = np.random.default_rng(seed)
    saved = evaluator.save_state()
    _check(evaluator, rng)
    for op in ops:
        kind = op[0]
        if kind == "commit":
            evaluator.commit_swap(op[1] % n, op[2] % n)
        elif kind == "apply":
            pairs = np.array(op[1], dtype=np.int64).reshape(-1, 2) % n
            evaluator.apply_swaps(pairs, exact_timing=op[2])
        elif kind == "undo":
            evaluator.undo_swaps(np.array(op[1], dtype=np.int64).reshape(-1, 2) % n)
        elif kind == "save":
            saved = evaluator.save_state()
        elif kind == "restore":
            evaluator.restore_state(saved)
        else:
            evaluator.install_solution(random_placement(_LAYOUTS[name], seed=op[1]).to_array())
        _check(evaluator, rng)


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
def test_net_bboxes_match_sorted_pin_coordinates(name):
    placement = random_placement(_LAYOUTS[name], seed=5)
    netlist = placement.netlist
    xs, ys = placement.cell_x(), placement.cell_y()
    want = []
    for net in range(netlist.num_nets):
        members = netlist.net_members(net)
        sx, sy = np.sort(xs[members]), np.sort(ys[members])
        want.append((sx[0], sx[-1], sy[0], sy[-1], sx[1], sx[-2], sy[1], sy[-2]))
    want = np.array(want).T
    for got, expected in zip(net_bboxes(placement), want):
        assert np.array_equal(got, expected)
    rng = np.random.default_rng(6)
    subset = rng.choice(netlist.num_nets, size=20, replace=False)
    for nets in (subset, np.append(subset, netlist.num_nets - 1)):
        for got, expected in zip(net_bboxes(placement, nets), want[:, nets]):
            assert np.array_equal(got, expected)


def test_verify_consistency_catches_a_stale_second_statistic():
    evaluator = _make_evaluator("c532", 1)
    evaluator._wirelength._x_min2[3] -= 1.0
    with pytest.raises(CostModelError, match="x_min2"):
        evaluator.verify_consistency()
