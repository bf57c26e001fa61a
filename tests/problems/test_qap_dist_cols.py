"""Property tests of the QAP evaluator's facility-ordered distance matrix.

The evaluator keeps ``dist_cols = distance[:, assignment]`` resident and
refreshes only the columns of moved facilities.  Random sequences of every
mutation (commits, both ``apply_swaps`` modes, undo, save/restore, install)
must leave it exact, keep the batch kernel bit-identical to the frozen
direct kernel, and keep the scalar commit form equal to the batch form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.problems.qap import QAPProblem, generate_qap
from repro.problems.qap.evaluator import deltas_for_swaps_reference

N = 13

cells = st.integers(0, N - 1)
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
    max_size=25,
)

_PROBLEMS = {
    symmetric: QAPProblem.from_instance(
        generate_qap(N, seed=3, symmetric=symmetric), reference_seed=0
    )
    for symmetric in (True, False)
}
_ALL_A, _ALL_B = (grid.ravel() for grid in np.meshgrid(np.arange(N), np.arange(N)))


def _check(evaluator, symmetric: bool) -> None:
    evaluator.verify_consistency()
    batch = evaluator.deltas_for_swaps(_ALL_A, _ALL_B)
    assert np.array_equal(batch, deltas_for_swaps_reference(evaluator, _ALL_A, _ALL_B))
    for index in range(0, N * N, 7):
        a, b = int(_ALL_A[index]), int(_ALL_B[index])
        if a == b:
            continue
        scalar = evaluator._swap_delta(a, b)
        single = evaluator.deltas_for_swaps(np.array([a]), np.array([b]))[0]
        assert scalar == single
        if symmetric:
            assert scalar == batch[index]
        else:
            # the asymmetric batch reduces its column sums through strided
            # views, so rows of a larger batch may differ in the last bits
            assert scalar == pytest.approx(batch[index], rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1_000), ops=operations)
def test_random_mutation_sequences_keep_dist_cols_exact(symmetric, seed, ops):
    problem = _PROBLEMS[symmetric]
    evaluator = problem.make_evaluator(problem.random_solution(seed), device="cpu")
    assert evaluator.instance.is_symmetric == symmetric
    saved = evaluator.save_state()
    _check(evaluator, symmetric)
    for op in ops:
        kind = op[0]
        if kind == "commit":
            _, a, b = op
            before = evaluator.raw_cost()
            predicted = before + float(
                evaluator.deltas_for_swaps(np.array([a]), np.array([b]))[0]
            )
            evaluator.commit_swap(a, b)
            assert evaluator.raw_cost() == (before if a == b else predicted)
        elif kind == "apply":
            _, pairs, exact = op
            evaluator.apply_swaps(np.array(pairs, dtype=np.int64), exact_timing=exact)
        elif kind == "undo":
            evaluator.undo_swaps(np.array(op[1], dtype=np.int64))
        elif kind == "save":
            saved = evaluator.save_state()
        elif kind == "restore":
            evaluator.restore_state(saved)
            assert evaluator.raw_cost() == saved.raw_cost
            assert np.array_equal(evaluator.assignment, saved.assignment)
        else:
            evaluator.install_solution(problem.random_solution(op[1]))
        _check(evaluator, symmetric)


def test_verify_consistency_catches_a_stale_column():
    problem = _PROBLEMS[True]
    evaluator = problem.make_evaluator(problem.random_solution(1), device="cpu")
    evaluator._dist_cols[:, 0] += 1.0
    with pytest.raises(ReproError, match="stale"):
        evaluator.verify_consistency()
