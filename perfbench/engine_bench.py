"""The engine benchmark: set up, run fixed-budget searches, check, report.

Untraced run (``--trace 0``): end-to-end metrics of the workload, from
searches run back to back (closed loop, one client) for ``--seconds``.
Traced run (``--trace 1``): per-layer metrics.  The processes workloads keep
the measurements taken outside their workers (pool boot, submit, exact round
records) and replay their configuration in-process on the simulated backend,
where the wrappers of :mod:`tracer` reach every layer; untraced replays
interleave with traced ones so the tracing overhead is measured too.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
import repro.parallel.master as master_module
from repro import SearchSession, SessionState, WorkerPool
from reference import REFERENCE_SECONDS, SpeedReference
from tracer import Tracer, install_engine_wrappers
from workloads import WORKLOADS, Workload, search_seeds

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Setups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Searches every run makes at least, whatever ``--seconds`` says (the
#: second repeats the first seed for the determinism check).
MIN_SEARCHES = 3
#: Real processes searches a traced run makes before its simulated replays.
TRACED_REAL_SEARCHES = 2
#: Per-search join deadline on the processes backend (seconds).
JOIN_TIMEOUT = 60.0
#: Relative tolerance between a reported best cost and a from-scratch exact
#: evaluation of the reported solution.
COST_RTOL = 1e-9

#: The metric names and units of the benchmark's contract, in report order.
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {metric["name"]: metric["unit"] for metric in _CONTRACT["end_to_end"]}
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in _CONTRACT["per_layer"]}

#: Span names whose self time is reported under ``<name>.self_s``.
SPAN_METRICS = (
    "placement.eval_batch",
    "placement.commit",
    "placement.install",
    "placement.snapshot",
    "qap.eval_batch",
    "qap.commit",
    "qap.install",
    "qap.snapshot",
    "tabu.step",
    "tabu.move_build",
    "tabu.diversify",
    "parallel.delta.encode",
)


class CheckFailed(Exception):
    """A search returned an output that fails the benchmark's checks."""


@dataclass
class Search:
    """What the benchmark keeps of one fixed-budget search."""

    seed: int
    #: length of the search on its workload's clock (see :func:`workload_clock`)
    seconds: float
    wall_s: float
    best_cost: float
    solution: np.ndarray
    #: (round index, engine-clock finish time, best cost after) per round
    records: List[Tuple[int, float, float]]
    #: engine-clock time of the master's first exact trace point
    start_time: float
    trace_min: float
    #: seconds on the workload's clock from submit to the exact record
    #: reaching the target
    time_to_target_s: Optional[float]
    #: engine-clock seconds from submit to the exact record reaching the target
    engine_time_to_target_s: Optional[float]
    virtual_runtime: float
    interrupted_tsws: int
    #: factor to reference seconds, from the reference passes around the search
    scale: float = 1.0
    sim: Dict[str, float] = field(default_factory=dict)
    checkpoint_bytes: int = 0


# ---------------------------------------------------------------------- #
# clocks and probes
# ---------------------------------------------------------------------- #
def workload_clock(workload: Workload):
    """The clock that times a workload's set-up, searches and time-to-target.

    A simulated workload runs the whole engine in this one process, so it is
    timed by the CPU time of this process (all its threads).  On an idle
    machine that equals the wall time; unlike the wall time, it leaves out
    the time the hypervisor or another process held the CPU, which on a
    shared host swings by tens of percent between runs.  A processes
    workload spends most of its time in worker processes and is timed by
    the wall clock.
    """
    return time.perf_counter if workload.uses_pool else time.process_time


class RoundClock:
    """Stamps the time at which the in-process master records each round.

    Wraps ``__init__`` of the master's exact per-round record
    (``GlobalIterationRecord``): one clock read per round, no layer spans.
    Used on the simulated backend, whose own clock is virtual.  Records
    rebuilt from a checkpoint are unpickled, not constructed, so only rounds
    run after a restore are stamped again.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.stamps: Dict[int, float] = {}
        self._original = None

    def __enter__(self) -> "RoundClock":
        record_class = master_module.GlobalIterationRecord
        self._original = original = record_class.__dict__["__init__"]
        stamps, clock = self.stamps, self.clock

        def stamped_init(record, *args, **kwargs):
            original(record, *args, **kwargs)
            stamps[record.index] = clock()

        record_class.__init__ = stamped_init
        return self

    def __exit__(self, *exc_info) -> None:
        master_module.GlobalIterationRecord.__init__ = self._original


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: str) -> List[str]:
    found: List[str] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as kids:
                    children = kids.read().split()
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def peak_rss_mb() -> float:
    """Peak RSS of this benchmark process plus that of each live child process.

    Read before the pool closes.  A processes search's master has exited by
    then and is not counted.
    """
    kb = _vm_hwm_kb("self")
    kb += sum(_vm_hwm_kb(pid) for pid in _descendants(str(os.getpid())))
    return kb / 1024.0


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) clock ticks of all CPUs since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a virtual CPU of
    this machine was ready to run; wall-clock metrics inflate with it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def environment(args, workload: Workload) -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "cores": cores,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
        "git_sha": sha,
        # identifies the measured sources where there is no git metadata
        "src_sha256": digest.hexdigest(),
        "numba_available": importlib.util.find_spec("numba") is not None,
        "cupy_available": importlib.util.find_spec("cupy") is not None,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workload": workload.name,
        "inputs": workload.describe(),
    }


# ---------------------------------------------------------------------- #
# one search
# ---------------------------------------------------------------------- #
def _first_reaching(records, target: float) -> Optional[Tuple[int, float, float]]:
    for record in records:
        if record[2] <= target:
            return record
    return None


def check_search(problem, workload: Workload, result) -> None:
    """Raise :class:`CheckFailed` unless the search output is valid."""
    if not result.complete:
        raise CheckFailed("search returned incomplete")
    # a permutation: every cell (QAP facility) on its own slot (location);
    # a placement layout may have more slots than cells
    slots = getattr(getattr(problem, "layout", None), "num_slots", problem.num_cells)
    solution = np.asarray(result.best_solution)
    if (
        solution.shape != (problem.num_cells,)
        or solution.min() < 0
        or solution.max() >= slots
        or np.unique(solution).size != solution.size
    ):
        raise CheckFailed("best_solution is not a permutation")
    exact = float(problem.make_evaluator(solution).exact_cost())
    if abs(exact - result.best_cost) > COST_RTOL * max(1.0, abs(exact)):
        raise CheckFailed(
            f"reported best_cost {result.best_cost!r} != exact cost {exact!r} of its solution"
        )
    records = result.global_records
    if [record.index for record in records] != list(range(workload.rounds)):
        raise CheckFailed("exact per-round records do not cover every round once")
    costs = [record.best_cost_after for record in records]
    if any(later > earlier for earlier, later in zip(costs, costs[1:])):
        raise CheckFailed("exact per-round best cost increased")
    if costs[-1] != result.best_cost:
        raise CheckFailed("last exact record disagrees with the reported best cost")


def _sim_totals(result) -> Dict[str, float]:
    """Message/byte/event counts and virtual busy/wait of one simulated epoch."""
    stats = result.sim_stats
    totals = {
        "pvm.messages": float(stats.total_messages),
        "pvm.bytes": float(stats.total_bytes),
        "pvm.events": float(stats.total_events),
    }
    for role in ("tsw", "clw"):
        totals[f"parallel.{role}.busy_s"] = 0.0
        totals[f"parallel.{role}.wait_s"] = 0.0
    for info in result.process_infos:
        if ".clw" in info.name:
            role = "clw"
        elif info.name.startswith("tsw"):
            role = "tsw"
        else:
            continue
        end = info.finished_at if info.finished_at is not None else info.clock
        totals[f"parallel.{role}.busy_s"] += info.busy_seconds
        totals[f"parallel.{role}.wait_s"] += max(0.0, end - info.busy_seconds)
    return totals


def run_search(
    workload: Workload,
    problem,
    seed: int,
    *,
    pool=None,
    cluster=None,
    tracer: Optional[Tracer] = None,
) -> Search:
    """Run one complete fixed-budget search and check its output."""
    params = workload.params(seed)
    sim: Dict[str, float] = {}
    checkpoint_bytes = 0
    if pool is not None:
        submit_clock = pool.kernel.now
        started = time.perf_counter()
        result = SearchSession(
            problem=problem, params=params, pool=pool, join_timeout=JOIN_TIMEOUT
        ).run()
        wall = seconds = time.perf_counter() - started
        stamps = None
    else:
        submit_clock = 0.0  # a fresh simulated kernel starts at virtual zero
        now = workload_clock(workload)
        with RoundClock(now) as round_clock:
            wall_started = time.perf_counter()
            started = now()
            session = SearchSession(
                problem=problem, params=params, backend="simulated", cluster=cluster
            )
            if workload.checkpoint_at is not None:
                session.step(workload.checkpoint_at)
                sim = _sim_totals(session.result())
                with _span(tracer, "session.checkpoint.encode"):
                    blob = session.checkpoint().to_bytes()
                with _span(tracer, "session.checkpoint.decode"):
                    state = SessionState.from_bytes(blob)
                with _span(tracer, "session.restore"):
                    session = SearchSession.restore(state, cluster=cluster)
                checkpoint_bytes = len(blob)
                del blob, state
            result = session.run()
            seconds = now() - started
            wall = time.perf_counter() - wall_started
        stamps = round_clock.stamps
        for key, value in _sim_totals(result).items():
            sim[key] = sim.get(key, 0.0) + value

    with tracer.paused() if tracer is not None else nullcontext():
        check_search(problem, workload, result)
    records = [
        (record.index, float(record.finish_time), float(record.best_cost_after))
        for record in result.global_records
    ]
    hit = _first_reaching(records, workload.target)
    if hit is None:
        time_to_target = engine_to_target = None
    else:
        engine_to_target = hit[1] - submit_clock
        if stamps is None:
            time_to_target = engine_to_target  # processes: the engine clock is wall
        else:
            time_to_target = stamps[hit[0]] - started
    return Search(
        seed=seed,
        seconds=seconds,
        wall_s=wall,
        best_cost=float(result.best_cost),
        solution=np.asarray(result.best_solution).copy(),
        records=records,
        start_time=float(result.trace[0][0]) - submit_clock,
        trace_min=min(cost for _, cost in result.trace),
        time_to_target_s=time_to_target,
        engine_time_to_target_s=engine_to_target,
        virtual_runtime=float(result.virtual_runtime),
        interrupted_tsws=sum(record.interrupted_tsws for record in result.global_records),
        sim=sim,
        checkpoint_bytes=checkpoint_bytes,
    )


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def check_repeat(first: Search, again: Search) -> None:
    if first.best_cost != again.best_cost or not np.array_equal(first.solution, again.solution):
        raise CheckFailed(
            f"seed {first.seed} run twice gave best_cost {first.best_cost!r} "
            f"then {again.best_cost!r}"
        )


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
def fresh_import_seconds(clock) -> float:
    """Seconds a fresh interpreter takes to import the engine (NumPy included).

    Timed inside the interpreter by the clock of the same name as ``clock``.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); now = getattr(time, sys.argv[2]); "
        "t = now(); import repro; print(now() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), clock.__name__],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def set_up(workload: Workload, warm_seed: int):
    """Build the instance (and the warm pool), then serve one warm-up search.

    Returns ``(problem, pool_or_None, cluster, seconds, pool_boot_seconds)``.
    The warm-up is one round of the workload's configuration (one local
    iteration on the simulated backend); it absorbs worker boot on the
    processes backend and is excluded from every search metric.  The
    seconds are on the workload's clock; the pool boot seconds are wall time.
    """
    now = workload_clock(workload)
    started = now()
    problem = workload.build_problem()
    cluster = workload.cluster()
    pool = None
    pool_boot = 0.0
    if workload.uses_pool:
        boot_started = time.perf_counter()
        pool = WorkerPool(
            workload.num_tsws, workload.clws_per_tsw, backend="processes", cluster=cluster
        )
        try:
            SearchSession(
                problem=problem,
                params=workload.params(warm_seed, rounds=1),
                pool=pool,
                join_timeout=JOIN_TIMEOUT,
            ).run()
        except BaseException:
            pool.close()
            raise
        pool_boot = time.perf_counter() - boot_started
    else:
        SearchSession(
            problem=problem,
            params=workload.params(warm_seed, rounds=1, local_iterations=1),
            backend="simulated",
            cluster=cluster,
        ).run()
    return problem, pool, cluster, now() - started, pool_boot


# ---------------------------------------------------------------------- #
# summaries
# ---------------------------------------------------------------------- #
def high_percentile(values: List[float]) -> Optional[Tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    percentile = int(100 * (1 - 10 / n))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return percentile, cuts[percentile - 1]


def _median_or_censored(values: List[Optional[float]], censor: List[float]) -> float:
    """Median where a miss counts as its search's full budget (a lower bound)."""
    return statistics.median(
        value if value is not None else bound for value, bound in zip(values, censor)
    )


def end_to_end(searches: List[Search], setup_s: float, rss_mb: float) -> Dict[str, Tuple]:
    """name -> (value, per-search samples or None, target misses or None).

    Timings are in reference seconds (see :mod:`reference`).
    """
    times = [s.seconds * s.scale for s in searches]
    ttt = [
        None if s.time_to_target_s is None else s.time_to_target_s * s.scale
        for s in searches
    ]
    vttt = [s.engine_time_to_target_s for s in searches]
    misses = sum(1 for value in ttt if value is None)
    return {
        "search_s": (statistics.median(times), times, None),
        "time_to_target_s": (_median_or_censored(ttt, times), ttt, misses),
        "virtual_time_to_target_s": (
            _median_or_censored(vttt, [s.virtual_runtime for s in searches]),
            vttt,
            misses,
        ),
        "best_cost": (statistics.median(s.best_cost for s in searches),
                      [s.best_cost for s in searches], None),
        "setup_s": (setup_s, None, None),
        "peak_rss_mb": (rss_mb, None, None),
    }


def print_table(title: str, rows: List[Tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<10} {note}")


# ---------------------------------------------------------------------- #
# runs
# ---------------------------------------------------------------------- #
def untraced_run(workload: Workload, args, out: Dict) -> Tuple[Dict, int, int]:
    seeds = search_seeds(args.seed, workload)
    setups: List[float] = []
    searches: List[Search] = []
    attempted = failed = 0
    pool = None
    speed = SpeedReference(workload_clock(workload))
    try:
        speed.sample()
        for rep in range(SETUP_REPEATS):
            if pool is not None:
                pool.close()  # an earlier set-up sample; the newest pool serves
                pool = None
            imported = fresh_import_seconds(workload_clock(workload))
            problem, pool, cluster, seconds, _ = set_up(workload, seeds[-1 - rep])
            speed.sample()
            setups.append((imported + seconds) * speed.scale())
        deadline = time.perf_counter() + args.seconds
        ticks_before = cpu_ticks()
        while True:
            index = attempted
            if index >= MIN_SEARCHES:
                estimate = statistics.median(s.wall_s for s in searches) if searches else 0.0
                if time.perf_counter() + estimate > deadline:
                    break
            seed = seeds[0] if index == 1 else seeds[index]
            attempted += 1
            try:
                search = run_search(workload, problem, seed, pool=pool, cluster=cluster)
                speed.sample()
                search.scale = speed.scale()
                if index == 1 and searches and searches[0].seed == seed:
                    check_repeat(searches[0], search)
            except Exception as error:  # noqa: BLE001 - counted, reported, never retried
                failed += 1
                print(f"search {index} (seed {seed}) FAILED: {error!r}", file=sys.stderr)
                if pool is not None:
                    break  # a wedged pool would stall every later search
                continue
            searches.append(search)
        steal = steal_share(ticks_before, cpu_ticks())
        rss = peak_rss_mb()
    finally:
        if pool is not None:
            pool.close()
    setup_s = statistics.median(setups)
    if not searches:
        return {}, attempted, failed
    summary = end_to_end(searches, setup_s, rss)
    rows = []
    for name in E2E_UNITS:
        value, samples, misses = summary[name]
        if samples is None:
            note = (
                f"n={SETUP_REPEATS} {[round(s, 3) for s in setups]}"
                if name == "setup_s" else "n=1"
            )
        else:
            hp = high_percentile([v for v in samples if v is not None])
            note = f"n={len(samples)}"
            note += f" p{hp[0]}={hp[1]:.6g}" if hp else " (too few samples for a high percentile)"
            if misses is not None:
                note += f" misses={misses}"
        rows.append((name, value, E2E_UNITS[name], note))
    rows.append(("error_rate", failed / attempted, "ratio", f"failed={failed} attempted={attempted}"))
    if not workload.uses_pool:
        rows.append(("search_wall_s", statistics.median(s.wall_s for s in searches), "s",
                     f"n={len(searches)} (wall time, not scaled)"))
    print_table(
        f"[{workload.name}] end-to-end, seed {args.seed} "
        f"(CPU steal during the searches: {steal:.1%})",
        rows,
    )
    print(
        f"  timings in reference seconds: a reference pass took a median "
        f"{speed.median():.6f} s on the {workload_clock(workload).__name__} clock "
        f"(n={len(speed.samples)}, range {min(speed.samples):.6f}-{max(speed.samples):.6f}), "
        f"nominal {REFERENCE_SECONDS} s"
    )
    out["cpu_steal_share"] = steal
    out["reference_samples_s"] = speed.samples
    out["searches"] = [
        {"seed": s.seed, "clock_s": s.seconds, "scale": s.scale, "wall_s": s.wall_s,
         "best_cost": s.best_cost,
         "time_to_target_s": s.time_to_target_s,
         "virtual_time_to_target_s": s.engine_time_to_target_s}
        for s in searches
    ]
    out["setup_samples_s"] = setups
    return {name: summary[name][0] for name in E2E_UNITS}, attempted, failed


def _layer_values(search: Search, tracer: Tracer, sid: str) -> Dict[str, float]:
    selfs = tracer.self_times(sid)
    counts = tracer.counts(sid)
    values: Dict[str, float] = {}
    for name in SPAN_METRICS:
        values[name + ".self_s"] = selfs.get(name, 0.0)
    for key in ("placement.eval_batch.calls", "placement.eval_batch.pairs",
                "placement.commit.calls", "placement.install.calls",
                "qap.eval_batch.calls", "qap.eval_batch.pairs",
                "tabu.move_build.calls", "parallel.delta.encode.calls",
                "tabu.accepted_swaps"):
        values[key] = counts.get(key, 0.0)
    values["tabu.steps"] = counts.get("tabu.step.calls", 0.0)
    accepted = values["tabu.accepted_swaps"]
    values["tabu.trials_per_accept"] = counts.get("tabu.pairs", 0.0) / accepted if accepted else 0.0
    payloads = values["parallel.delta.encode.calls"]
    full = counts.get("parallel.delta.full", 0.0)
    values["parallel.delta.full_share"] = full / payloads if payloads else 0.0
    deltas = payloads - full
    values["parallel.delta.swaps_per_payload"] = (
        counts.get("parallel.delta.swaps", 0.0) / deltas if deltas else 0.0
    )
    rounds = float(len(search.records))
    for key in ("pvm.messages", "pvm.bytes", "pvm.events"):
        values[key] = search.sim.get(key, 0.0)
    values["pvm.messages_per_round"] = values["pvm.messages"] / rounds
    values["pvm.bytes_per_round"] = values["pvm.bytes"] / rounds
    values["pvm.events_per_round"] = values["pvm.events"] / rounds
    for key in ("parallel.tsw.busy_s", "parallel.tsw.wait_s",
                "parallel.clw.busy_s", "parallel.clw.wait_s"):
        values[key] = search.sim.get(key, 0.0)
    values["session.checkpoint.bytes"] = float(search.checkpoint_bytes)
    for span, key in (
        ("session.checkpoint.encode", "session.checkpoint.encode_s"),
        ("session.checkpoint.decode", "session.checkpoint.decode_s"),
        ("session.restore", "session.restore_s"),
    ):
        values[key] = selfs.get(span, 0.0)
    # every span's self time plus this remainder is the traced wall time
    values["pvm.sim.self_s"] = search.wall_s - sum(selfs.values())
    values["trace.wall_s"] = search.wall_s
    return values


def _round_seconds(search: Search) -> float:
    ends = [search.start_time] + [finish for _, finish, _ in search.records]
    return statistics.median(b - a for a, b in zip(ends, ends[1:]))


def traced_run(workload: Workload, args, out: Dict) -> Tuple[Dict, int, int]:
    seeds = search_seeds(args.seed, workload)
    deadline = time.perf_counter() + args.seconds
    attempted = failed = 0
    real: List[Search] = []
    replays: List[Tuple[Search, Search]] = []  # (untraced, traced) with one seed
    tracer = Tracer()
    problem, pool, cluster, _, pool_boot = set_up(workload, seeds[-1])
    try:
        if pool is not None:
            # measurements outside the workers, on the real backend (same seed twice)
            for index in range(TRACED_REAL_SEARCHES):
                attempted += 1
                try:
                    search = run_search(workload, problem, seeds[0], pool=pool)
                    if real:
                        check_repeat(real[0], search)
                    real.append(search)
                except Exception as error:  # noqa: BLE001 - counted, never retried
                    failed += 1
                    print(f"real search {index} FAILED: {error!r}", file=sys.stderr)
                    break
    finally:
        if pool is not None:
            pool.close()
    index = 0
    while not failed:
        if replays:
            last_pair = replays[-1][0].wall_s + replays[-1][1].wall_s
            if time.perf_counter() + last_pair > deadline:
                break
        seed = seeds[index]
        sid = f"{workload.name}/{index}"
        attempted += 2
        try:
            plain = run_search(workload, problem, seed, cluster=cluster)
            tracer.search_id = sid
            install_engine_wrappers(tracer)
            try:
                traced = run_search(workload, problem, seed, cluster=cluster, tracer=tracer)
            finally:
                tracer.remove()
                tracer.search_id = None
            # tracing must not change the trajectory
            check_repeat(plain, traced)
        except Exception as error:  # noqa: BLE001 - counted, never retried
            failed += 1
            print(f"replay {index} (seed {seed}) FAILED: {error!r}", file=sys.stderr)
            break
        replays.append((plain, traced))
        index += 1
    if not replays:
        return {}, attempted, failed

    per_search = [
        _layer_values(traced, tracer, f"{workload.name}/{i}")
        for i, (_, traced) in enumerate(replays)
    ]
    # means, so the self times and the remainder add up to trace.wall_s
    values = {key: statistics.fmean(v[key] for v in per_search) for key in per_search[0]}
    outside = real or [traced for _, traced in replays]
    values["parallel.master.rounds"] = statistics.fmean(len(s.records) for s in outside)
    values["parallel.master.round_s"] = statistics.median(_round_seconds(s) for s in outside)
    values["parallel.master.interrupted_tsws"] = statistics.fmean(
        s.interrupted_tsws for s in outside
    )
    values["session.submit_to_start_s"] = statistics.median(s.start_time for s in outside)
    everything = [t for _, t in replays] + real
    values["placement.trace_drift"] = (
        statistics.fmean(s.best_cost - s.trace_min for s in everything)
        if workload.domain == "placement" else 0.0
    )
    values["trace.overhead"] = statistics.median(t.wall_s for _, t in replays) / statistics.median(
        p.wall_s for p, _ in replays
    )

    self_sum = sum(values[name + ".self_s"] for name in SPAN_METRICS) + sum(
        values[key] for key in ("session.checkpoint.encode_s", "session.checkpoint.decode_s",
                                "session.restore_s")
    )
    rows = [(name, values[name], LAYER_UNITS[name], "") for name in LAYER_UNITS]
    print_table(
        f"[{workload.name}] per layer, seed {args.seed} ({len(replays)} traced replays, "
        f"{len(real)} real searches)",
        rows,
    )
    if pool_boot:
        print(f"  pool boot (construction through the first one-round submit) {pool_boot:.6f} s")
    print(
        f"  layer self times {self_sum:.6f} s + remainder pvm.sim.self_s "
        f"{values['pvm.sim.self_s']:.6f} s = traced wall {values['trace.wall_s']:.6f} s "
        f"(remainder share {values['pvm.sim.self_s'] / values['trace.wall_s']:.3f}); "
        f"tracing overhead x{values['trace.overhead']:.3f}"
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl")
    out["replay_walls_s"] = [[p.wall_s, t.wall_s] for p, t in replays]
    return {name: values[name] for name in LAYER_UNITS}, attempted, failed


# ---------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment(args, workload)
    print("env " + json.dumps(env, sort_keys=True))
    out: Dict = {"env": env}
    if args.trace:
        metrics, attempted, failed = traced_run(workload, args, out)
        units = LAYER_UNITS
    else:
        metrics, attempted, failed = untraced_run(workload, args, out)
        units = E2E_UNITS
    correct = failed == 0 and attempted > 0 and bool(metrics)
    out["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as result_file:
        json.dump(out, result_file, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1
