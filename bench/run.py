"""Layer and end-to-end timings of rejuvkit, written as one JSON file.

Usage, from the repository root::

    python3 bench/run.py --out BENCH.json
    python3 bench/run.py --out BENCH.json --baseline ../parent-checkout

In-process layers are the best of ``REPEAT`` runs (stdlib ``timeit``),
run with the exact-work memos of ``rejuvkit.numerics`` cleared before
each run, as a fresh process meets them.  ``import`` and the
``cli_<subcommand>`` runs are fresh interpreters, reported as the median
and quartiles of ``PROCESS_RUNS`` runs: a best-of-few minimum cannot
separate two trees on a shared host.  With ``--baseline`` they are timed
on that checkout's ``src/`` too, in pairs whose order alternates, and the
in-process layers of both trees are timed in fresh interpreters, in
alternating rounds, each key the best over its rounds; the baseline's go
under ``baseline_layers``.
``pytest_wall`` is one run of the suite.  BLAS is pinned to one thread,
as in ``perfbench``.
"""

import os

# one BLAS thread, pinned before numpy loads; child processes inherit it
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5
PROCESS_RUNS = 11
SWEEP_CONFIG = "preset_f_hypo"  # the paper's trigger study, as in perfbench
# perfbench's MC_REPS: the simulator walks replications in batches, so a
# thousand or so of them would time mostly the first batch's set-up
SIM_REPS = {"availability": 2000, "mttf": 20000, "completion": 40000}
METRICS = ("availability", "mttf", "completion")
SWEEP_ARGS = ["--var", "trigger_interval", "--from", "0", "--to", "50", "--step", "1",
              "--metrics", ",".join(METRICS)]
UNITS = {
    "import": "s", "parse": "ms", "kernel": "ms", "sojourn": "ms", "stationary": "ms",
    "visits": "ms", "completion": "ms", "sim_per_1k_reps": "s", "sim_s_1pct": "s", "sweep51": "s",
    "sweep51_refine": "s", "cli_<subcommand>": "s", "pytest_wall": "s", "src_lines": "lines",
}


def best(stmt, setup="pass", number=1):
    """Best seconds per call of ``stmt`` over REPEAT runs of ``number`` calls."""
    return min(timeit.Timer(stmt, setup).repeat(repeat=REPEAT, number=number)) / number


def per_config(fn, names, setup="pass", number=1):
    """``fn(name)`` timed per bundled config, in ms."""
    return {name: round(1e3 * best(lambda: fn(name), setup, number), 4) for name in names}


def layers():
    from rejuvkit import analysis, config, model, numerics, simulator, toolkit

    def cold():
        for memo in vars(numerics).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()

    names = config.bundled_config_names()
    cfgs = {name: config.load_config(name) for name in names}
    kernels = {name: model.transition_matrix(cfg.params) for name, cfg in cfgs.items()}
    start = [1.0] + [0.0] * 9
    out = {
        "parse": per_config(config.load_config, names, number=10),
        "kernel": per_config(lambda n: model.transition_matrix(cfgs[n].params), names, cold),
        "sojourn": per_config(lambda n: model.sojourn_times(cfgs[n].params), names, cold),
        "stationary": per_config(lambda n: numerics.dtmc_stationary(kernels[n]), names, number=100),
        "visits": per_config(
            lambda n: numerics.absorbing_visits(kernels[n][:10, :10], start), names, number=100
        ),
    }
    with_workload = [name for name in names if cfgs[name].workload is not None]
    out["completion"] = {
        method: per_config(
            lambda n: analysis.completion_time(cfgs[n].params, cfgs[n].workload, method),
            with_workload,
            cold,
        )
        for method in ("analytic", "richardson")
    }
    sweep_cfg = cfgs[SWEEP_CONFIG]
    drivers = {
        "availability": lambda c: simulator.simulate_availability(sweep_cfg.params, c),
        "mttf": lambda c: simulator.simulate_mttf(sweep_cfg.params, c),
        "completion": lambda c: simulator.simulate_completion(
            sweep_cfg.params, sweep_cfg.workload, c
        ),
    }
    # sim_s_1pct: the time of one estimate to a 1% relative half-width,
    # taking n proportional to 1 / half-width^2, as perfbench projects it
    out["sim_per_1k_reps"], out["sim_s_1pct"] = {}, {}
    for m in METRICS:
        sim = simulator.SimConfig(SIM_REPS[m], 5)
        seconds = best(lambda: drivers[m](sim))
        out["sim_per_1k_reps"][m] = round(1e3 / SIM_REPS[m] * seconds, 4)
        out["sim_s_1pct"][m] = round(seconds * (drivers[m](sim).rel_half_width / 0.01) ** 2, 5)
    for key, refine in (("sweep51", False), ("sweep51_refine", True)):
        spec = toolkit.SweepSpec("trigger_interval", 0.0, 50.0, 1.0, METRICS, refine=refine)
        out[key] = round(best(lambda: toolkit.run_sweep(sweep_cfg, spec), cold), 4)
    return out


LAYER_ROUNDS = 2  # alternating rounds per tree when a baseline is timed too


def side_layers(src):
    """:func:`layers` of the tree at ``src``, timed by a fresh interpreter."""
    cmd = [sys.executable, __file__, "--layers-of", str(src)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def best_of(runs):
    """Key-wise minimum of nested dicts of timings."""
    if isinstance(runs[0], dict):
        return {key: best_of([run[key] for run in runs]) for key in runs[0]}
    return min(runs)


def fresh(src, args, cwd):
    """Wall seconds of one run of ``args`` by a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, *args]
    return timeit.Timer(
        lambda: subprocess.run(cmd, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    ).timeit(number=1)


def processes(baseline):
    """``import`` and ``cli_<subcommand>``, here and on the baseline, in alternating pairs."""
    cli = ["-m", "rejuvkit.cli"]
    config = ["--config", SWEEP_CONFIG]
    runs = {
        "import": ["-c", "import rejuvkit.cli"],
        "cli_help": [*cli, "--help"],
        "cli_analyze": [*cli, "analyze", *config],
        "cli_validate": [*cli, "validate", *config],
        "cli_sweep": [*cli, "sweep", *config, *SWEEP_ARGS, "--refine", "--out", "sweep.csv"],
        "cli_simulate": [*cli, "simulate", *config, "--reps", "200", "--seed", "5",
                         "--out", "simulate.csv"],
    }
    sources = [("this", ROOT / "src")]
    if baseline is not None:
        sources.append(("baseline", Path(baseline).resolve() / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as cwd:
        for key, args in runs.items():
            times = {side: [] for side, _ in sources}
            for run in range(PROCESS_RUNS):
                for side, src in sources[:: -1 if run % 2 else 1]:
                    times[side].append(fresh(src, args, cwd))
            out[key] = {side: quartiles(t) for side, t in times.items()}
    return out


def quartiles(times):
    """Median and quartiles of ``times``, in seconds."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def machine():
    import numpy

    return {
        "date": time.strftime("%Y-%m-%d"),
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeat": REPEAT,
        "process_runs": PROCESS_RUNS,
        "note": "in-process layers: best of `repeat`, with the numerics memos cleared "
        "before each run; `sojourn` and `kernel` time the same kernel build; with a "
        "baseline, each tree's layers are the best of `layer_rounds` alternating fresh "
        "interpreters; import and cli_*: median and quartiles of `process_runs` fresh "
        "processes per side",
        "layer_rounds": LAYER_ROUNDS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument(
        "--baseline", help="another checkout: import, cli_* and the layers timed there too"
    )
    parser.add_argument("--layers-of", help=argparse.SUPPRESS)  # a src/ tree: print its layers
    args = parser.parse_args(argv)
    if args.layers_of:
        sys.path.insert(0, args.layers_of)
        print(json.dumps(layers()))
        return 0
    if not args.out:
        parser.error("--out is required")
    sys.path.insert(0, str(ROOT / "src"))

    report = {"machine": machine(), "units": UNITS}
    report.update(processes(args.baseline))
    if args.baseline is None:
        report.update(layers())
    else:
        trees = [ROOT / "src", Path(args.baseline).resolve() / "src"]
        rounds = [[], []]
        for run in range(LAYER_ROUNDS):
            for side in (0, 1)[:: -1 if run % 2 else 1]:
                rounds[side].append(side_layers(trees[side]))
        report.update(best_of(rounds[0]))
        report["baseline_layers"] = best_of(rounds[1])
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    report["pytest_wall"] = round(time.perf_counter() - start, 2)
    report["src_lines"] = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "rejuvkit").glob("*.py")
    )
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
