"""Helpers shared by the benchmark scripts."""

from __future__ import annotations

import os
import pathlib
import subprocess

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_env() -> dict:
    """The ``env`` block of a ``BENCH_*.json``: cores, NumPy version, git sha.

    The sha comes from ``git describe --always --dirty``, so numbers taken
    on uncommitted sources say so.
    """
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=RESULTS_DIR.parent, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"cores": os.cpu_count() or 1, "numpy": np.__version__, "git_sha": sha}


def run_once(benchmark, func, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    A figure regeneration is itself a long, internally-repeating experiment,
    so repeating it for statistical timing would multiply the suite's runtime
    for no benefit — the interesting output is the figure data.
    """
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def report_figure(result) -> None:
    """Print a FigureResult and persist it under ``benchmarks/results/``."""
    text = result.format()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.figure_id}.txt").write_text(text + "\n", encoding="utf-8")
