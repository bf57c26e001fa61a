"""Equivalence tests for the bulk-commit / incremental-install kernels.

PR 3 replaced three hot paths with incremental variants:

* ``WirelengthState.commit_swap`` updates bboxes + second edge statistics in
  place (scalar pin scan) instead of re-reducing whole nets;
* ``CostEvaluator.apply_swaps`` commits a whole swap sequence as one bulk
  cache update (the delta-install of the parallel protocol);
* ``TimingAnalyzer.analyze`` propagates arrivals level-by-level over
  pre-vectorised edge delays instead of a scalar topological loop.

Every variant must be indistinguishable from the reference path: same costs,
same caches, same critical paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.placement.timing import TimingAnalyzer
from sta_oracle import reference_sta

CIRCUITS = ("mini64", "c532", "c1355")

BBOX_FIELDS = (
    "_x_min",
    "_x_max",
    "_y_min",
    "_y_max",
    "_x_min2",
    "_x_max2",
    "_y_min2",
    "_y_max2",
)


def make_evaluator(circuit: str, seed: int = 1) -> CostEvaluator:
    layout = Layout(load_benchmark(circuit))
    return CostEvaluator(random_placement(layout, seed=seed))


def assert_same_caches(left: CostEvaluator, right: CostEvaluator, *, atol=1e-6):
    """Placement, wirelength bbox cache and area rows must match exactly."""
    assert np.array_equal(left.snapshot(), right.snapshot())
    for field in BBOX_FIELDS:
        lhs = getattr(left._wirelength, field)
        rhs = getattr(right._wirelength, field)
        assert np.allclose(lhs, rhs, atol=atol), field
    assert np.allclose(left._wirelength.per_net, right._wirelength.per_net, atol=atol)
    assert abs(left._wirelength.total - right._wirelength.total) <= atol * max(
        1.0, abs(right._wirelength.total)
    )
    assert np.allclose(left._area.per_row, right._area.per_row, atol=atol)


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_incremental_commit_matches_recompute(circuit):
    """Hundreds of in-place commits never drift from exact recomputation."""
    evaluator = make_evaluator(circuit)
    rng = np.random.default_rng(11)
    n = evaluator.placement.num_cells
    for index in range(300):
        cell_a, cell_b = (int(v) for v in rng.integers(0, n, size=2))
        evaluator.commit_swap(cell_a, cell_b)
        if index % 60 == 0:
            evaluator.verify_consistency()
    evaluator.verify_consistency()


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_apply_swaps_equals_sequential_commits(circuit):
    """Bulk apply == one-by-one commits: same placement, caches and cost."""
    rng = np.random.default_rng(5)
    bulk = make_evaluator(circuit)
    sequential = make_evaluator(circuit)
    n = bulk.placement.num_cells
    for length in (1, 2, 5, 17):
        pairs = rng.integers(0, n, size=(length, 2))
        bulk.apply_swaps(pairs)
        for cell_a, cell_b in pairs:
            sequential.commit_swap(int(cell_a), int(cell_b))
        assert np.array_equal(bulk.snapshot(), sequential.snapshot())
        bulk.verify_consistency()
        # exact costs agree (the surrogate timing state may differ by design:
        # bulk advances it once, sequential once per swap)
        assert bulk.exact_cost() == pytest.approx(sequential.exact_cost(), abs=1e-9)


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_delta_adopt_equals_full_install_and_scratch(circuit):
    """apply_swaps(exact_timing=True) == install_solution == fresh evaluator.

    This is the contract the parallel protocol's delta shipment rests on:
    adopting a solution via its swap delta must leave the worker in exactly
    the state a full installation (or a from-scratch build) would.
    """
    rng = np.random.default_rng(23)
    for round_index in range(4):
        delta_adopt = make_evaluator(circuit, seed=2)
        reference = delta_adopt.snapshot()
        n = delta_adopt.placement.num_cells
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 24)), 2))

        target = reference.copy()
        for cell_a, cell_b in pairs:
            target[[cell_a, cell_b]] = target[[cell_b, cell_a]]

        delta_adopt.apply_swaps(pairs, exact_timing=True)
        assert np.array_equal(delta_adopt.snapshot(), target)

        full_install = make_evaluator(circuit, seed=2)
        full_install.install_solution(target)

        scratch = CostEvaluator(
            random_placement(Layout(load_benchmark(circuit)), seed=2),
        )
        scratch.install_solution(target)

        assert delta_adopt.cost() == pytest.approx(full_install.cost(), abs=1e-6)
        assert delta_adopt.cost() == pytest.approx(scratch.cost(), abs=1e-6)
        assert delta_adopt.objectives().delay == pytest.approx(
            full_install.objectives().delay, abs=1e-9
        )
        assert_same_caches(delta_adopt, full_install)
        assert_same_caches(delta_adopt, scratch)
        delta_adopt.verify_consistency()


def test_apply_swaps_empty_and_self_swaps():
    evaluator = make_evaluator("mini64")
    before = evaluator.snapshot()
    cost = evaluator.cost()
    assert evaluator.apply_swaps(np.zeros((0, 2), dtype=np.int64)) == cost
    assert evaluator.apply_swaps([(3, 3), (5, 5)]) == cost
    assert np.array_equal(evaluator.snapshot(), before)


@pytest.mark.parametrize("circuit", CIRCUITS + ("c3540",))
def test_vectorized_sta_matches_reference(circuit):
    """Both analyze propagation paths reproduce the scalar reference exactly."""
    netlist = load_benchmark(circuit)
    layout = Layout(netlist)
    analyzer = TimingAnalyzer(netlist)
    original_mode = analyzer._use_scalar_propagation
    try:
        for seed in range(4):
            placement = random_placement(layout, seed=seed)
            reference = reference_sta(netlist, placement)
            for scalar in (True, False):
                analyzer._use_scalar_propagation = scalar
                result = analyzer.analyze(placement)
                assert result.critical_delay == reference.critical_delay
                assert np.array_equal(result.arrival, reference.arrival)
                assert result.critical_path == reference.critical_path
    finally:
        analyzer._use_scalar_propagation = original_mode


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_fast_scalar_cost_matches_aggregator(circuit):
    """The commit-path fast cost is bit-identical to the fuzzy aggregator."""
    evaluator = make_evaluator(circuit)
    rng = np.random.default_rng(3)
    n = evaluator.placement.num_cells
    for _ in range(60):
        cell_a, cell_b = (int(v) for v in rng.integers(0, n, size=2))
        evaluator.commit_swap(cell_a, cell_b)
        assert evaluator.cost() == evaluator.aggregate(evaluator.objectives())


def test_area_apply_moved_cells_matches_rebuild():
    evaluator = make_evaluator("c532")
    rng = np.random.default_rng(9)
    n = evaluator.placement.num_cells
    pairs = rng.integers(0, n, size=(12, 2))
    cells = np.unique(pairs)
    area = evaluator._area
    old_rows = evaluator.placement.layout.slot_row[
        evaluator.placement.cell_to_slot[cells]
    ]
    for cell_a, cell_b in pairs.tolist():
        evaluator.placement.swap_cells(cell_a, cell_b)
    area.apply_moved_cells(cells, old_rows)
    updated = area.per_row.copy()
    area.rebuild()
    assert np.allclose(updated, area.per_row, atol=1e-9)
