#!/usr/bin/env python
"""QAP kernel benchmark and smoke gate for the domain-agnostic core.

Measures the QAP evaluator's hot kernels on a 100-facility instance and
enforces two CI bars:

* **batch swap-delta >= 20x scalar** — one 256-pair ``evaluate_swaps_batch``
  call versus 256 scalar ``evaluate_swap`` calls (each scalar call is itself
  the O(n) delta, so the factor isolates the batching win, exactly like the
  placement micro-bench) — what justifies running QAP through the batched
  CLW path;
* **commit_swap <= 0.2x one batch call** — a single-pair commit runs the
  scalar form of the batch kernel and must not pay the batch's array
  overhead; the ratio is taken within one run, so it tracks the kernel and
  not the machine;
* informational latencies for bulk ``apply_swaps`` delta adoption, full
  ``install_solution`` and the from-scratch O(n^2) cost.

Results land in ``BENCH_qap.json`` (override with the ``BENCH_QAP_JSON``
env var) together with an ``env`` block (cores, NumPy, git sha); the
committed copy is the reference trajectory and CI uploads the file per run.
The bars retry once against runner noise.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_qap_kernels.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.parallel.delta import swap_list_between
from repro.problems.qap import QAPProblem, generate_qap

from _utils import bench_env

N_FACILITIES = 100
BATCH_SIZE = 256
BATCH_BAR = 20.0
COMMIT_BAR = 0.2
OUTPUT = Path(os.environ.get("BENCH_QAP_JSON", "BENCH_qap.json"))


def _time_us(func, repeats: int, warmup: int = 10) -> float:
    for _ in range(warmup):
        func()
    start = time.perf_counter()
    for _ in range(repeats):
        func()
    return (time.perf_counter() - start) / repeats * 1e6


def build_evaluator():
    problem = QAPProblem.from_instance(
        generate_qap(N_FACILITIES, seed=0), reference_seed=0
    )
    return problem, problem.make_evaluator(problem.random_solution(seed=1))


def measure() -> dict:
    problem, evaluator = build_evaluator()
    rng = np.random.default_rng(2)
    pairs = rng.integers(0, N_FACILITIES, size=(BATCH_SIZE, 2))

    batch_us = _time_us(lambda: evaluator.evaluate_swaps_batch(pairs), repeats=50)

    def scalar_sweep():
        for cell_a, cell_b in pairs.tolist():
            evaluator.evaluate_swap(cell_a, cell_b)

    scalar_sweep_us = _time_us(scalar_sweep, repeats=5, warmup=2)
    scalar_us = scalar_sweep_us / BATCH_SIZE
    speedup = scalar_sweep_us / batch_us

    state = {"i": 0}
    commit_pairs = rng.integers(0, N_FACILITIES, size=(512, 2)).tolist()

    def commit():
        cell_a, cell_b = commit_pairs[state["i"] % len(commit_pairs)]
        state["i"] += 1
        evaluator.commit_swap(cell_a, cell_b)

    commit_us = _time_us(commit, repeats=200)

    base = evaluator.snapshot()
    target = base.copy()
    for cell_a, cell_b in rng.integers(0, N_FACILITIES, size=(6, 2)).tolist():
        target[[cell_a, cell_b]] = target[[cell_b, cell_a]]
    delta = swap_list_between(base, target)

    def adopt():
        evaluator.apply_swaps(delta, exact_timing=True)
        evaluator.install_solution(base)

    adopt_pair_us = _time_us(adopt, repeats=50)
    install_us = _time_us(lambda: evaluator.install_solution(base), repeats=100)
    scratch_us = _time_us(lambda: problem.instance.cost_of(base), repeats=200)

    return {
        "n_facilities": N_FACILITIES,
        "batch_size": BATCH_SIZE,
        "batch_eval_us": batch_us,
        "batch_eval_us_per_pair": batch_us / BATCH_SIZE,
        "scalar_eval_us": scalar_us,
        "batch_speedup_vs_scalar": speedup,
        "commit_swap_us": commit_us,
        "commit_over_batch": commit_us / batch_us,
        "delta_adopt_plus_install_us": adopt_pair_us,
        "install_solution_us": install_us,
        "scratch_cost_us": scratch_us,
    }


def _failures(results: dict) -> list:
    failures = []
    if results["batch_speedup_vs_scalar"] < BATCH_BAR:
        failures.append(
            f"batch swap-delta speedup {results['batch_speedup_vs_scalar']:.1f}x "
            f"< {BATCH_BAR:.0f}x bar"
        )
    if results["commit_over_batch"] > COMMIT_BAR:
        failures.append(
            f"commit_swap {results['commit_over_batch']:.3f}x of a batch call "
            f"> {COMMIT_BAR:.1f}x bar"
        )
    return failures


def main() -> int:
    attempts = []
    for attempt in range(2):  # one retry against runner noise
        results = measure()
        attempts.append(results)
        if not _failures(results):
            break

    best = min(attempts, key=lambda r: len(_failures(r)))
    payload = {
        "bar": {"batch_speedup_min": BATCH_BAR, "commit_over_batch_max": COMMIT_BAR},
        "results": best,
        "attempts": len(attempts),
        "env": bench_env(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2))

    print(f"QAP kernels on a {N_FACILITIES}-facility instance "
          f"({BATCH_SIZE}-pair batches):")
    for key, value in best.items():
        print(f"  {key:>28}: {value:.2f}" if isinstance(value, float)
              else f"  {key:>28}: {value}")
    print(f"Results written to {OUTPUT}")

    failures = _failures(best)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: batch swap-delta {best['batch_speedup_vs_scalar']:.1f}x >= "
          f"{BATCH_BAR:.0f}x scalar; commit_swap {best['commit_over_batch']:.3f}x "
          f"<= {COMMIT_BAR:.1f}x of a batch call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
