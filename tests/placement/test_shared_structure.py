"""Problem-scoped static evaluator structure: sharing, lifetime, immutability.

Every evaluator of one placement problem shares the netlist's timing graph,
shared-net incidence and the layout's commit-path lists.  These tests pin
that the structure is shared (not rebuilt per evaluator), built exactly once
per problem object (a restored problem builds its own), freed with its
problem, read-only, and never part of a pickled problem.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.parallel import ParallelSearchParams
from repro.placement import CircuitSpec, generate_circuit
from repro.placement import wirelength as wirelength_module
from repro.placement.timing import TimingGraph
from repro.problems.placement import PlacementProblem
from repro.session import SessionState


def _fresh_problem() -> PlacementProblem:
    # generated directly: load_benchmark caches its netlists per process,
    # which would keep the netlist (and so its shared structure) alive
    netlist = generate_circuit(CircuitSpec(name="shared120", num_cells=120, seed=5))
    return PlacementProblem.from_netlist(netlist)


def _evaluator_pair(problem: PlacementProblem):
    first = problem.make_evaluator(problem.random_solution(1))
    second = problem.make_evaluator(problem.random_solution(2))
    for evaluator in (first, second):
        evaluator.commit_swap(3, 40)  # fetch the commit lists
    return first, second


def _static_parts(evaluator):
    wirelength = evaluator._wirelength
    incidence = (
        wirelength._incidence if wirelength._incidence is not None
        else wirelength._csr_keys
    )
    return evaluator._timing.analyzer._graph, incidence, wirelength._commit_lists


def _restored(problem: PlacementProblem) -> PlacementProblem:
    state = SessionState(
        problem=problem, params=ParallelSearchParams(), backend="simulated",
        run_state=None,
    )
    return SessionState.from_bytes(state.to_bytes()).problem


class _BuildCounter:
    """Counts timing-graph and commit-list builds while installed."""

    def __init__(self, monkeypatch) -> None:
        self.graphs = 0
        self.commit_lists = 0
        graph_init = TimingGraph.__init__
        build_lists = wirelength_module._build_commit_lists

        def counting_graph_init(graph, netlist):
            self.graphs += 1
            graph_init(graph, netlist)

        def counting_build_lists(layout):
            self.commit_lists += 1
            return build_lists(layout)

        monkeypatch.setattr(TimingGraph, "__init__", counting_graph_init)
        monkeypatch.setattr(
            wirelength_module, "_build_commit_lists", counting_build_lists
        )


class TestSharing:
    def test_evaluators_of_one_problem_share_static_structure(self):
        problem = _fresh_problem()
        first, second = _evaluator_pair(problem)
        for mine, theirs in zip(_static_parts(first), _static_parts(second)):
            assert mine is theirs
        # ... while the placement-dependent state stays private
        assert first._wirelength._per_net is not second._wirelength._per_net
        assert first.placement is not second.placement

    def test_analyzer_scratch_is_private(self):
        problem = _fresh_problem()
        first, second = _evaluator_pair(problem)
        first.exact_cost()
        second.exact_cost()
        assert first._timing.analyzer._scratch is not second._timing.analyzer._scratch

    def test_restored_problem_builds_its_own_exactly_once(self, monkeypatch):
        problem = _fresh_problem()
        original = _static_parts(problem.make_evaluator(problem.random_solution(1)))
        counter = _BuildCounter(monkeypatch)
        restored = _restored(problem)
        first, second = _evaluator_pair(restored)
        third, _ = _evaluator_pair(restored)
        assert (counter.graphs, counter.commit_lists) == (1, 1)
        assert _static_parts(first)[0] is _static_parts(third)[0]
        assert _static_parts(first)[0] is not original[0]
        assert _static_parts(first)[1] is not original[1]

    def test_shared_structure_is_never_pickled(self):
        problem = _fresh_problem()
        before = pickle.dumps(problem, protocol=4)
        _evaluator_pair(problem)
        assert pickle.dumps(problem, protocol=4) == before


class TestConcurrentEvaluators:
    def test_threads_build_once_and_analyze_race_free(self, monkeypatch):
        problem = _restored(_fresh_problem())
        solutions = [problem.random_solution(seed) for seed in range(6)]
        # serial ground truth on a separate copy of the problem
        serial_problem = _restored(problem)
        expected = [serial_problem.make_evaluator(s).exact_cost() for s in solutions]
        counter = _BuildCounter(monkeypatch)
        results: dict = {}

        def worker(index: int) -> None:
            evaluator = problem.make_evaluator(solutions[index])
            costs = [evaluator.exact_cost() for _ in range(20)]
            results[index] = (evaluator, costs)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(6))
        assert counter.graphs == 1
        graphs = {id(_static_parts(ev)[0]) for ev, _costs in results.values()}
        assert len(graphs) == 1
        for index, (_evaluator, costs) in results.items():
            assert costs == [expected[index]] * len(costs)


class TestLifetime:
    def test_structure_dies_with_its_problem(self):
        problem = _fresh_problem()
        evaluators = _evaluator_pair(problem)
        graph, incidence, _lists = _static_parts(evaluators[0])
        refs = [
            weakref.ref(graph),
            weakref.ref(incidence),
            weakref.ref(problem.netlist),
            weakref.ref(problem.layout),
        ]
        del problem, evaluators, graph, incidence, _lists
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_restored_problem_is_not_pinned(self):
        restored = _restored(_fresh_problem())
        _evaluator_pair(restored)
        graph_ref = weakref.ref(_static_parts(restored.make_evaluator(
            restored.random_solution(3)
        ))[0])
        layout_ref = weakref.ref(restored.layout)
        del restored
        gc.collect()
        assert graph_ref() is None
        assert layout_ref() is None


class TestImmutability:
    def test_shared_arrays_are_read_only(self):
        problem = _fresh_problem()
        evaluator, _ = _evaluator_pair(problem)
        graph, incidence, commit_lists = _static_parts(evaluator)
        arrays = [
            incidence, graph.is_start, graph.is_end, graph.is_seq, graph.delays,
            graph.edge_src, graph.edge_dst, graph.end_flat, graph.ends_rep,
        ]
        for cells, flat, starts, delays, _slice in graph.level_schedule:
            arrays += [cells, flat, starts, delays]
        for array in arrays:
            assert isinstance(array, np.ndarray)
            assert array.flags.writeable is False
        with pytest.raises(ValueError):
            graph.edge_src[0] = 1
        # the Python-level structure is built from immutable tuples
        assert all(isinstance(part, tuple) for part in commit_lists)
        assert isinstance(graph.prop_fanin, tuple)
        assert isinstance(graph.delays_list, tuple)

    def test_csr_keys_are_shared_and_read_only(self):
        problem = _fresh_problem()
        placement_a = problem.make_evaluator(problem.random_solution(1)).placement
        placement_b = problem.make_evaluator(problem.random_solution(2)).placement
        first = wirelength_module.WirelengthState(placement_a, incidence="csr")
        second = wirelength_module.WirelengthState(placement_b, incidence="csr")
        assert first._csr_keys is second._csr_keys
        assert first._csr_keys.flags.writeable is False
