"""The benchmark's workloads, each loading a different layer of the engine.

Every workload is a fixed instance plus a fixed search configuration; the
only input that varies between runs is the search seed, which the benchmark
derives from its ``--seed`` argument (:func:`search_seeds`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

__all__ = ["Workload", "WORKLOADS", "search_seeds"]

#: Seed of the starting solution every search of every workload begins from.
INITIAL_SOLUTION_SEED = 2003


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: which layer this workload loads, and why it is here.
    why: str
    domain: str  # "placement" or "qap"
    instance: str
    backend: str  # "processes" or "simulated"
    num_tsws: int
    clws_per_tsw: int
    rounds: int
    sync_mode: str
    pairs_per_step: int  # m
    move_depth: int  # d
    local_iterations: int  # L
    #: Cost the exact per-round records must reach for time-to-target.
    target: float
    #: Checkpoint through SessionState bytes after this many rounds, then
    #: resume with SearchSession.restore (None: run in one epoch).
    checkpoint_at: Optional[int] = None

    @property
    def uses_pool(self) -> bool:
        return self.backend == "processes"

    def cluster(self):
        from repro.pvm.cluster import homogeneous_cluster, paper_cluster

        if self.sync_mode == "homogeneous":
            # wait-for-all runs on identical machines, one per process
            # (master + TSWs + CLWs), none throttled on the processes backend
            return homogeneous_cluster(1 + self.num_tsws * (1 + self.clws_per_tsw))
        return paper_cluster()

    def build_problem(self):
        """Build the instance from scratch (no per-process cache)."""
        from repro.core.registry import get_domain

        if self.domain == "placement":
            from repro.placement import load_benchmark

            return get_domain("placement").build_problem(
                load_benchmark(self.instance, use_cache=False), reference_seed=0
            )
        return get_domain(self.domain).build_problem(self.instance, reference_seed=0)

    def params(self, seed: int, *, rounds: Optional[int] = None, local_iterations=None):
        from repro import ParallelSearchParams, TabuSearchParams

        return ParallelSearchParams(
            num_tsws=self.num_tsws,
            clws_per_tsw=self.clws_per_tsw,
            global_iterations=rounds or self.rounds,
            sync_mode=self.sync_mode,
            tabu=TabuSearchParams(
                pairs_per_step=self.pairs_per_step,
                move_depth=self.move_depth,
                local_iterations=local_iterations or self.local_iterations,
            ),
            seed=int(seed),
            # the instance includes its starting solution: seeds vary the search
            initial_placement_seed=INITIAL_SOLUTION_SEED,
        )

    def describe(self) -> Dict[str, object]:
        return {
            "why": self.why,
            "instance": f"{self.domain}:{self.instance}",
            "backend": self.backend,
            "topology": f"{self.num_tsws} TSW x {self.clws_per_tsw} CLW",
            "sync_mode": self.sync_mode,
            "budget": {
                "rounds": self.rounds,
                "m": self.pairs_per_step,
                "d": self.move_depth,
                "L": self.local_iterations,
            },
            "target_cost": self.target,
            "checkpoint_at_round": self.checkpoint_at,
        }


_LIST: List[Workload] = [
    Workload(
        name="c532-procs",
        why=(
            "CLW candidate evaluation on the dense-incidence placement kernels and "
            "array tabu memory, few sync rounds, real processes"
        ),
        domain="placement",
        instance="c532",
        backend="processes",
        num_tsws=2,
        clws_per_tsw=1,
        rounds=8,
        sync_mode="homogeneous",
        pairs_per_step=256,
        move_depth=6,
        local_iterations=25,
        target=0.245,
    ),
    Workload(
        name="rand256-sync",
        why=(
            "many short QAP rounds on real processes: master broadcast/harvest, "
            "delta encoding and router hops dominate, kernels do not"
        ),
        domain="qap",
        instance="rand256",
        backend="processes",
        num_tsws=2,
        clws_per_tsw=1,
        rounds=60,
        sync_mode="homogeneous",
        pairs_per_step=16,
        move_depth=2,
        local_iterations=2,
        target=0.985,
    ),
    Workload(
        name="big10k-sim",
        why=(
            "10k-cell placement on the simulated 12-machine cluster: CSR kernels, "
            "hashed tabu memory, interrupt policy and a mid-run checkpoint/restore"
        ),
        domain="placement",
        instance="big10k",
        backend="simulated",
        num_tsws=4,
        clws_per_tsw=2,
        rounds=6,
        sync_mode="heterogeneous",
        pairs_per_step=48,
        move_depth=4,
        local_iterations=6,
        target=0.7745,
        checkpoint_at=3,
    ),
    Workload(
        name="rand100-sim",
        why=(
            "kernel-heavy QAP moves in one process on the simulated heterogeneous "
            "cluster: the QAP swap kernel and the serial baseline of the tree"
        ),
        domain="qap",
        instance="rand100",
        backend="simulated",
        num_tsws=4,
        clws_per_tsw=2,
        rounds=30,
        sync_mode="heterogeneous",
        pairs_per_step=256,
        move_depth=6,
        local_iterations=6,
        target=0.922,
    ),
]

# The dense-kernel workload replayed in one process on the simulator: the
# processes backend's wall time swings with the host's CPU share (see README).
_LIST.append(
    replace(
        _LIST[0],
        name="c532-sim",
        why=(
            "dense-incidence placement kernels and array tabu memory under CLW "
            "candidate evaluation, few sync rounds, in one process on the simulator"
        ),
        backend="simulated",
    )
)

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _LIST}


def search_seeds(seed: int, workload: Workload, count: int = 512) -> List[int]:
    """Search seeds of one run: a pure function of ``--seed`` and the workload."""
    sequence = np.random.SeedSequence([int(seed), zlib.crc32(workload.name.encode())])
    return [int(value) for value in sequence.generate_state(count, dtype=np.uint32)]
