"""Unit tests for the static timing analysis and the incremental surrogate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CostModelError
from repro.placement import (
    CellKind,
    Layout,
    NetlistBuilder,
    build_chain_netlist,
    load_benchmark,
    random_placement,
)
from repro.placement.timing import TimingAnalyzer, TimingModel, TimingState


class TestTimingModel:
    def test_negative_delay_rejected(self):
        with pytest.raises(CostModelError):
            TimingModel(wire_delay_per_unit=-0.1)


class TestAnalyzerOnChain:
    def test_zero_wire_delay_gives_sum_of_gate_delays(self):
        netlist = build_chain_netlist(num_gates=5)
        layout = Layout(netlist)
        placement = random_placement(layout, seed=0)
        analyzer = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.0))
        result = analyzer.analyze(placement)
        # 5 gates of delay 1 each; pads contribute nothing
        assert result.critical_delay == pytest.approx(5.0)
        # path runs from the PI through all gates to the PO
        assert result.path_length == 7

    def test_wire_delay_increases_with_distance(self):
        netlist = build_chain_netlist(num_gates=5)
        layout = Layout(netlist)
        placement = random_placement(layout, seed=0)
        slow = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.2)).analyze(placement)
        fast = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.01)).analyze(placement)
        assert slow.critical_delay > fast.critical_delay

    def test_path_delay_matches_analysis(self):
        netlist = build_chain_netlist(num_gates=5)
        layout = Layout(netlist)
        placement = random_placement(layout, seed=1)
        analyzer = TimingAnalyzer(netlist)
        result = analyzer.analyze(placement)
        recomputed = analyzer.path_delay(placement, result.critical_path)
        assert recomputed == pytest.approx(result.critical_delay)


class TestSequentialBoundaries:
    def build_netlist_with_ff(self):
        builder = NetlistBuilder("ff")
        builder.add_cell("pi", kind=CellKind.PRIMARY_INPUT, delay=0.0)
        builder.add_cell("g1", delay=3.0)
        builder.add_cell("ff", kind=CellKind.SEQUENTIAL, delay=0.5)
        builder.add_cell("g2", delay=2.0)
        builder.add_cell("po", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
        builder.add_net("n1", driver="pi", sinks=["g1"])
        builder.add_net("n2", driver="g1", sinks=["ff"])
        builder.add_net("n3", driver="ff", sinks=["g2"])
        builder.add_net("n4", driver="g2", sinks=["po"])
        return builder.build()

    def test_paths_break_at_flip_flops(self):
        netlist = self.build_netlist_with_ff()
        layout = Layout(netlist)
        placement = random_placement(layout, seed=2)
        analyzer = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.0))
        result = analyzer.analyze(placement)
        # two separate paths: pi->g1->ff (3.0) and ff->g2->po (0.5 + 2.0)
        assert result.critical_delay == pytest.approx(3.0)


class TestCycleDetection:
    def test_combinational_cycle_rejected(self):
        builder = NetlistBuilder("cyc")
        builder.add_cell("a", delay=1.0)
        builder.add_cell("b", delay=1.0)
        builder.add_net("n1", driver="a", sinks=["b"])
        builder.add_net("n2", driver="b", sinks=["a"])
        netlist = builder.build()
        # twice: the failed shared-graph build must not be cached
        for _ in range(2):
            with pytest.raises(CostModelError, match="cycle"):
                TimingAnalyzer(netlist)


class TestOnGeneratedCircuits:
    def test_positive_critical_delay(self):
        netlist = load_benchmark("mini64")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=3)
        result = TimingAnalyzer(netlist).analyze(placement)
        assert result.critical_delay > 0
        assert len(result.critical_path) >= 2

    def test_arrival_times_non_negative(self):
        netlist = load_benchmark("mini64")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=3)
        result = TimingAnalyzer(netlist).analyze(placement)
        assert np.all(result.arrival >= 0)


class TestTimingState:
    @pytest.fixture()
    def state(self):
        netlist = load_benchmark("mini64")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=4)
        analyzer = TimingAnalyzer(netlist)
        return placement, TimingState(placement, analyzer, refresh_interval=4)

    def test_initial_delay_matches_exact(self, state):
        placement, timing = state
        assert timing.critical_delay == pytest.approx(timing.exact_delay())

    def test_delta_zero_for_cells_off_critical_path(self, state):
        placement, timing = state
        off_path = [c for c in range(placement.num_cells) if c not in timing.critical_path]
        assert timing.delta_for_swap(off_path[0], off_path[1]) == 0.0

    def test_delta_nonzero_when_path_touched(self, state):
        placement, timing = state
        path = timing.critical_path
        off_path = [c for c in range(placement.num_cells) if c not in path]
        # moving a path cell far away usually changes the path delay estimate
        deltas = [timing.delta_for_swap(path[1], other) for other in off_path[:10]]
        assert any(abs(d) > 0 for d in deltas)

    def test_refresh_interval_keeps_surrogate_bounded(self, state):
        placement, timing = state
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = (int(x) for x in rng.integers(0, placement.num_cells, 2))
            placement.swap_cells(a, b)
            timing.commit_swap(a, b)
        # after a refresh the surrogate agrees with the exact analysis
        timing.refresh()
        assert timing.critical_delay == pytest.approx(timing.exact_delay())

    def test_invalid_refresh_interval_rejected(self):
        netlist = load_benchmark("tiny16")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=0)
        with pytest.raises(CostModelError):
            TimingState(placement, TimingAnalyzer(netlist), refresh_interval=0)
