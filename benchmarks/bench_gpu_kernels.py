#!/usr/bin/env python
"""Dispatch-tax benchmark for the ``repro.accel`` xp-generic kernels.

The hot kernels (QAP batched swap deltas, the placement dense/CSR batched
wirelength kernel) used to be direct NumPy code inside their evaluators;
they now route through the array-module dispatch layer so the same source
runs on cupy.  The CI bar guards the refactor's core promise: **on the CPU
path the dispatch layer is free** —

* **dispatch tax <= 1.1x** — the shipped evaluator kernel versus the frozen
  reference kernel (``deltas_for_swaps_reference``) on c532 (dense
  incidence), big10k (CSR incidence) and rand256 QAP.  The wirelength
  oracle's inputs (bboxes and edge multiplicities from the placement) are
  computed once outside the timed loop, so the row compares kernel against
  kernel.

When a CUDA device is present (it never is on the CPU-only CI runners) the
same batches run on the cupy path and report informational timings plus the
transfer-byte accounting; without one the GPU section records why it was
skipped.  Results land in ``BENCH_gpu.json`` (override with the
``BENCH_GPU_JSON`` env var); the bar retries once against runner noise.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_gpu_kernels.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.accel import cuda_available, cuda_unavailable_reason
from repro.core import get_domain
from repro.placement import Layout, load_benchmark, random_placement
from repro.placement.wirelength import (
    WirelengthState,
    deltas_for_swaps_reference as wirelength_reference,
    reference_bboxes,
)
from repro.problems.qap.evaluator import (
    deltas_for_swaps_reference as qap_reference,
)

from _utils import bench_env

PAIRS_PER_STEP = 256
SEED = 2003
WARMUP = 5
MEASURED = 30

DISPATCH_TAX_BAR = 1.1
OUTPUT = Path(os.environ.get("BENCH_GPU_JSON", "BENCH_gpu.json"))


def _time_us(func, repeats: int = MEASURED, warmup: int = WARMUP) -> float:
    for _ in range(warmup):
        func()
    start = time.perf_counter()
    for _ in range(repeats):
        func()
    return (time.perf_counter() - start) / repeats * 1e6


def _pairs(num_cells: int, rng: np.random.Generator):
    a = rng.integers(0, num_cells, PAIRS_PER_STEP).astype(np.int64)
    b = rng.integers(0, num_cells, PAIRS_PER_STEP).astype(np.int64)
    return a, b


def _wirelength_case(circuit: str, device: str) -> dict:
    placement = random_placement(Layout(load_benchmark(circuit)), seed=SEED)
    state = WirelengthState(placement, device=device)
    a, b = _pairs(placement.num_cells, np.random.default_rng(7))

    shipped_us = _time_us(lambda: state.deltas_for_swaps(a, b))
    case = {
        "circuit": circuit,
        "num_cells": placement.num_cells,
        "incidence_mode": state.incidence_mode,
        "batch_size": PAIRS_PER_STEP,
        "shipped_us": shipped_us,
    }
    if device == "cpu":
        bboxes = reference_bboxes(placement)
        reference_us = _time_us(lambda: wirelength_reference(state, a, b, bboxes))
        case["reference_us"] = reference_us
        case["dispatch_tax"] = shipped_us / reference_us
    else:  # pragma: no cover - requires a GPU
        case["transfer"] = state.transfer_stats().as_dict()
    return case


def _qap_case(device: str) -> dict:
    problem = get_domain("qap").build_problem("rand256", reference_seed=0)
    evaluator = problem.make_evaluator(problem.random_solution(SEED), device=device)
    a, b = _pairs(problem.instance.n, np.random.default_rng(11))

    shipped_us = _time_us(lambda: evaluator.deltas_for_swaps(a, b))
    case = {
        "instance": "rand256",
        "n_facilities": problem.instance.n,
        "batch_size": PAIRS_PER_STEP,
        "shipped_us": shipped_us,
    }
    if device == "cpu":
        reference_us = _time_us(lambda: qap_reference(evaluator, a, b))
        case["reference_us"] = reference_us
        case["dispatch_tax"] = shipped_us / reference_us
    else:  # pragma: no cover - requires a GPU
        case["transfer"] = evaluator.transfer_stats().as_dict()
    return case


def measure() -> dict:
    results = {
        "cpu": {
            "c532": _wirelength_case("c532", "cpu"),
            "big10k": _wirelength_case("big10k", "cpu"),
            "rand256": _qap_case("cpu"),
        }
    }
    # the c532/big10k split must actually cover both incidence kernels
    assert results["cpu"]["c532"]["incidence_mode"] == "dense"
    assert results["cpu"]["big10k"]["incidence_mode"] == "csr"

    if cuda_available():  # pragma: no cover - requires a GPU
        results["cuda"] = {
            "c532": _wirelength_case("c532", "cuda"),
            "big10k": _wirelength_case("big10k", "cuda"),
            "rand256": _qap_case("cuda"),
        }
    else:
        results["cuda"] = {"skipped": cuda_unavailable_reason()}
    return results


def _worst_tax(results: dict) -> float:
    return max(case["dispatch_tax"] for case in results["cpu"].values())


def main() -> int:
    attempts = []
    for attempt in range(2):  # one retry against runner noise
        results = measure()
        attempts.append(results)
        if _worst_tax(results) <= DISPATCH_TAX_BAR:
            break

    best = min(attempts, key=_worst_tax)
    worst_tax = _worst_tax(best)
    payload = {
        "bar": {"dispatch_tax_max": DISPATCH_TAX_BAR},
        "results": best,
        "attempts": len(attempts),
        "env": bench_env(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2))

    print(f"xp-dispatch kernels vs frozen references ({PAIRS_PER_STEP}-pair batches):")
    for name, case in best["cpu"].items():
        print(
            f"  {name:>8}: shipped {case['shipped_us']:8.1f} us  "
            f"reference {case['reference_us']:8.1f} us  "
            f"tax {case['dispatch_tax']:.3f}x"
        )
    if "skipped" in best["cuda"]:
        print(f"  cuda: skipped ({best['cuda']['skipped']})")
    else:  # pragma: no cover - requires a GPU
        for name, case in best["cuda"].items():
            print(f"  cuda {name:>8}: shipped {case['shipped_us']:8.1f} us")
    print(f"Results written to {OUTPUT}")

    if worst_tax > DISPATCH_TAX_BAR:
        print(
            f"FAIL: worst dispatch tax {worst_tax:.3f}x > "
            f"{DISPATCH_TAX_BAR:.2f}x bar",
            file=sys.stderr,
        )
        return 1
    print(f"OK: worst dispatch tax {worst_tax:.3f}x <= {DISPATCH_TAX_BAR:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
