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

    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "vectorised"])
    def test_warm_state_is_private_and_graph_arrays_shared(self, scalar):
        problem = _fresh_problem()
        first, second = _evaluator_pair(problem)
        analyzers = [ev._timing.analyzer for ev in (first, second)]
        for analyzer, evaluator in zip(analyzers, (first, second)):
            analyzer._use_scalar_propagation = scalar
            evaluator.exact_cost()
            evaluator.commit_swap(5, 60)
            evaluator.exact_cost()  # an incremental analysis
        mine, theirs = analyzers
        assert mine._graph is theirs._graph
        for name in ("x", "y", "edge_delay", "end_wire", "dirty"):
            assert mine._scratch[name] is not theirs._scratch[name]
        if scalar:
            for name in ("_arrival", "_pred", "_edge_delays"):
                assert getattr(mine, name) is not getattr(theirs, name)
            return
        assert mine._scratch["arrival"] is not theirs._scratch["arrival"]
        # every per-level view of shared structure is a view of the one
        # graph array; every view of warm state is the analyzer's own
        for analyzer in analyzers:
            graph = analyzer._graph
            for sources, _t, delays, starts, arrival, cell_delays in analyzer._scratch["levels"]:
                assert sources.base is graph.edge_src_rank
                assert starts.base is graph.seg_start
                assert cell_delays.base is graph.delays_topo
                assert delays.base is analyzer._scratch["edge_delay"]
                assert arrival.base is analyzer._scratch["arrival"]

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

    def test_warm_timing_state_is_never_pickled(self):
        """A warm evaluator's timing snapshot pickles like a cold one's."""
        problem = _fresh_problem()
        warm, _ = _evaluator_pair(problem)
        for cell_a, cell_b in ((1, 2), (7, 90), (11, 3), (40, 41)):
            warm.commit_swap(cell_a, cell_b)
            warm.exact_cost()
        cold = problem.make_evaluator(warm.snapshot())
        cold.exact_cost()
        assert pickle.dumps(warm._timing.save_state(), protocol=4) == pickle.dumps(
            cold._timing.save_state(), protocol=4
        )
        blob = pickle.dumps(warm.save_state(), protocol=4)
        assert b"TimingAnalyzer" not in blob and b"TimingGraph" not in blob


class TestConcurrentEvaluators:
    def test_threads_build_once_and_analyze_race_free(self, monkeypatch):
        problem = _restored(_fresh_problem())
        solutions = [problem.random_solution(seed) for seed in range(6)]
        swaps = [((i * 7 + 3) % 120, (i * 13 + 50) % 120) for i in range(20)]

        def costs_of(evaluator):
            # one commit between exact refreshes: the warm, incremental STA
            costs = []
            for cell_a, cell_b in swaps:
                evaluator.commit_swap(cell_a, cell_b)
                costs.append(evaluator.exact_cost())
            return costs

        # serial ground truth on a separate copy of the problem
        serial_problem = _restored(problem)
        expected = [costs_of(serial_problem.make_evaluator(s)) for s in solutions]
        counter = _BuildCounter(monkeypatch)
        results: dict = {}

        def worker(index: int) -> None:
            evaluator = problem.make_evaluator(solutions[index])
            results[index] = (evaluator, costs_of(evaluator))

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
            assert costs == expected[index]
        # every analyzer kept its own warm state, and it describes its own
        # placement (no analyzer wrote into another's buffers)
        analyzers = [ev._timing.analyzer for ev, _costs in results.values()]
        for name in ("_scratch", "_arrival", "_pred", "_edge_delays"):
            assert len({id(getattr(analyzer, name)) for analyzer in analyzers}) == 6
        for evaluator, _costs in results.values():
            scratch = evaluator._timing.analyzer._scratch
            assert np.array_equal(scratch["x"], evaluator.placement.cell_x())
            assert np.array_equal(scratch["y"], evaluator.placement.cell_y())


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
        arrays = [incidence] + [
            getattr(graph, name) for name in (
                "is_start", "is_end", "is_seq", "delays", "level", "order", "rank",
                "delays_topo", "level_ptr", "edge_src", "edge_dst", "edge_src_rank",
                "in_ptr", "seg_start", "inc_ptr", "inc_edges", "end_flat", "ends_rep",
                "ent_ptr", "ent_ids",
            )
        ]
        analyzer = evaluator._timing.analyzer
        analyzer._use_scalar_propagation = False
        analyzer.analyze(evaluator.placement)  # builds the per-level views
        for sources, _t, _delays, starts, _arrival, cell_delays in analyzer._scratch["levels"]:
            arrays += [sources, starts, cell_delays]
        for array in arrays:
            assert isinstance(array, np.ndarray)
            assert array.flags.writeable is False
        with pytest.raises(ValueError):
            graph.edge_src[0] = 1
        # the Python-level structure is built from immutable tuples
        assert all(isinstance(part, tuple) for part in commit_lists)
        tables = graph.scalar_tables()
        assert tables is graph.scalar_tables()
        for name in ("delays", "schedule", "consumers"):
            assert isinstance(getattr(tables, name), tuple)
        assert all(view.readonly for view in tables.views)

    def test_csr_keys_are_shared_and_read_only(self):
        problem = _fresh_problem()
        placement_a = problem.make_evaluator(problem.random_solution(1)).placement
        placement_b = problem.make_evaluator(problem.random_solution(2)).placement
        first = wirelength_module.WirelengthState(placement_a, incidence="csr")
        second = wirelength_module.WirelengthState(placement_b, incidence="csr")
        assert first._csr_keys is second._csr_keys
        assert first._csr_keys.flags.writeable is False
