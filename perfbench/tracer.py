"""In-memory span tracer that measures the engine's layers from outside.

The tracer wraps public methods of the engine's classes (evaluators, the
tabu search, the move builder, the delta encoder) for the duration of a
traced run and restores the originals afterwards.  Nothing under ``src/``
is changed: every span is recorded by this file, around the call.

A span records its name, start, end, parent span and search id.  A span's
*self time* is its duration minus the part of it covered by child spans;
because the traced run executes the whole master/TSW/CLW tree in one
thread (the simulated backend), spans never overlap except by nesting.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "install_engine_wrappers"]

#: ``fn(args, kwargs, result) -> {counter: increment}`` for a wrapped call.
Counter = Callable[[tuple, dict, Any], Dict[str, float]]


class Tracer:
    """Spans and counters of one traced run, held in memory until written."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, search id)
        self.spans: List[tuple] = []
        self.search_id: Optional[str] = None
        # open spans: [span index, seconds covered by direct children]
        self._stack: List[list] = []
        self._self: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patches: List[tuple] = []
        self._paused = False

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.search_id))
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        index, covered = frame
        name, start, _, parent, search = self.spans[index]
        self.spans[index] = (name, start, end, parent, search)
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self._self[search][name] += duration - covered

    @contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (checkpoint codec, restore, ...)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def paused(self):
        """Let wrapped calls through untraced (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counter: Optional[Counter] = None,
        *,
        count_calls: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until :meth:`remove`.

        Each call adds one to ``<name>.calls`` unless ``count_calls`` is off
        (for helpers that share a span name with the call being counted).
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame)
            if count_calls:
                tracer._counts[tracer.search_id][name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer._counts[tracer.search_id][key] += value
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute (in reverse order of wrapping)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def self_times(self, search_id: str) -> Dict[str, float]:
        return dict(self._self.get(search_id, {}))

    def counts(self, search_id: str) -> Dict[str, float]:
        return dict(self._counts.get(search_id, {}))

    def write(self, path) -> None:
        """Write every span as one JSON line (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, search in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "search": search}
                    )
                    + "\n"
                )


def _batch_pairs(prefix: str) -> Counter:
    def counter(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        pairs = float(len(result))  # one cost per evaluated pair
        return {prefix + ".eval_batch.pairs": pairs, "tabu.pairs": pairs}

    return counter


def _accepted_swaps(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    if not result.accepted or result.move is None:
        return {}
    return {"tabu.accepted_swaps": float(len(result.move.swaps))}


def _payload_shape(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    if result.is_full:
        return {"parallel.delta.full": 1.0}
    return {"parallel.delta.swaps": float(result.num_swaps)}


def install_engine_wrappers(tracer: Tracer) -> None:
    """Wrap the public layer boundaries of the engine (see the benchmark README)."""
    from repro.parallel.delta import DeltaEncoder
    from repro.placement.cost import CostEvaluator
    from repro.problems.placement import PlacementProblem
    from repro.problems.qap.evaluator import QAPEvaluator, QAPProblem
    from repro.tabu.moves import CompoundMoveBuilder
    from repro.tabu.search import TabuSearch

    for prefix, evaluator, problem in (
        ("placement", CostEvaluator, PlacementProblem),
        ("qap", QAPEvaluator, QAPProblem),
    ):
        tracer.wrap(
            evaluator, "evaluate_swaps_batch", prefix + ".eval_batch", _batch_pairs(prefix)
        )
        for attr in ("commit_swap", "apply_swaps", "undo_swaps"):
            tracer.wrap(evaluator, attr, prefix + ".commit")
        tracer.wrap(evaluator, "install_solution", prefix + ".install")
        tracer.wrap(problem, "make_evaluator", prefix + ".install")
        for attr in ("save_state", "restore_state"):
            tracer.wrap(evaluator, attr, prefix + ".snapshot")

    tracer.wrap(TabuSearch, "consider_candidates", "tabu.step", _accepted_swaps)
    tracer.wrap(TabuSearch, "diversify", "tabu.diversify")
    # one call per elementary step of a compound move
    tracer.wrap(CompoundMoveBuilder, "step", "tabu.move_build")
    for attr in ("seed_step", "finalize"):
        tracer.wrap(CompoundMoveBuilder, attr, "tabu.move_build", count_calls=False)
    tracer.wrap(DeltaEncoder, "encode", "parallel.delta.encode", _payload_shape)
