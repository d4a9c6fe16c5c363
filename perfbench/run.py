"""Benchmark rbell: one named workload, one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-audit --seed 1 --seconds 32 --trace 0

The benchmark generates its inputs from ``--seed``, imports rbell from
``src/`` of the checkout, runs one untimed warm-up pass and then timed
passes until ``--seconds`` have elapsed (fresh-interpreter set-up probes
are spread over the same window), checks every output, and prints
as its last stdout line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  The line before it
is the full report: machine, commit, inputs, per-operation timings and
errors.  ``RBL_WORKERS`` is removed from the environment, so rbell runs
serially, as it does by default.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "src" / "rbell" / "__init__.py").is_file():
        print(f"perfbench: no rbell package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # import the benchmark as a package and rbell from this checkout's sources
    if str(HERE) in sys.path:
        sys.path.remove(str(HERE))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.runner import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
