"""Engine benchmark entry point.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload c532-sim --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and metrics.  The module body
stays import-light: the processes backend starts its workers with the
``spawn`` method, which re-imports this file in every child, so everything
else runs under the ``__main__`` guard.
"""

import sys
from pathlib import Path


def _main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import engine_bench  # imports NumPy and the engine

    return engine_bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(_main())
