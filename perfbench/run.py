"""rejuvkit benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload trigger_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics in a separate traced run.
``--workload all`` runs every workload both ways, each in a fresh
process.  Every run checks its outputs (see ``gate.py``), prints each
metric by name and unit, writes a report under ``perfbench/out/`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md for the workloads and metrics.
"""

import os

# one BLAS thread, pinned before numpy loads; set-up runs inherit it
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("trigger_sweep", "config_scan", "mc_crosscheck")
RUN_TIMEOUT = 300


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rejuvkit" / "__init__.py").is_file():
        print(f"perfbench: no rejuvkit sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import measure

    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main())
