"""One benchmark run: set-up, warm-up, timed repetitions, gate, report.

Imported by ``run.py`` once ``src/`` is on the path and BLAS is pinned.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
# the child's set-up lasts about a second: sample the host's speed densely
SETUP_PERIOD_S = 0.05
MIN_LOCAL_KERNELS = 5
PROBE_RUNS = 4
SUBPROCESS_TIMEOUT = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
METRICS = workloads.METRICS
SIM_E2E = {
    "availability": "sim_unavail_s_1pct",
    "mttf": "sim_mttf_s_1pct",
    "completion": "sim_completion_s_1pct",
}
TRACED_LAYERS = ("config", "model", "numerics", "analysis", "simulator", "ctmc", "toolkit")

# ROADMAP Open item 2's proposed BENCH_<pr>.json keys, in this benchmark's names
VOCABULARY = {
    "import": "setup_s (fresh interpreter, every workload); import.rejuvkit_cli_s",
    "parse": "config.load_config.ms; config.with_overrides.self_ms",
    "kernel": "model.transition_matrix.self_ms / model.transition_matrix.calls",
    "sojourn": "model.sojourn_times.self_ms / model.sojourn_times.calls",
    "stationary": "numerics.dtmc_stationary.self_ms",
    "visits": "numerics.absorbing_visits.self_ms",
    "completion": "analysis.completion_time.self_ms / analysis.completion_time.calls",
    "sim_per_1k_reps": "1000 x simulator.<metric>.ms_per_rep",
    "sweep51": "not measured alone: trigger_sweep always refines",
    "sweep51_refine": "wall_s on trigger_sweep",
    "cli_<subcommand>": "setup_s + wall_s of the workload that calls the subcommand's "
    "toolkit function",
    "pytest_wall": "not measured",
    "src_lines": "machine.src_lines (informational, not gated)",
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def _child(extra, code):
    return subprocess.run(
        [sys.executable, *extra, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )


def _setup_code(configs, indent=""):
    lines = ["import rejuvkit.cli", "from rejuvkit.config import load_config"]
    lines += [f"load_config({name!r})" for name in configs]
    return "".join(f"{indent}{line}\n" for line in lines)


def setup_seconds(configs):
    """Set-up time of a fresh interpreter importing the CLI and loading the configs.

    Returns (calibrated, measured) seconds.  The measured time runs from
    the spawn to the end of the last ``load_config`` (``perf_counter`` is
    one clock for all processes), less the calibration kernel runs that
    the child's timer makes every ``SETUP_PERIOD_S`` during its set-up;
    it is rescaled by those kernel times.  The child imports numpy for
    the kernel before rejuvkit does, which rejuvkit would do anyway.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import calibrate\n"
        "cal = calibrate.Calibrator()\n"
        f"with cal.sampling({SETUP_PERIOD_S}):\n"
        + _setup_code(configs, "    ")
        + "    done = time.perf_counter()\n"
        "kernels = cal.between(0.0, done)\n"
        "print(done, sum(kernels), calibrate.scale(kernels))\n"
    )
    start = time.perf_counter()
    done, kernel_s, factor = map(float, _child((), code).stdout.split())
    measured = done - start - kernel_s
    return measured * factor, measured


def import_seconds(configs):
    """Cumulative import seconds of rejuvkit and scipy.stats, from -X importtime."""
    rows = []
    for line in _child(("-X", "importtime"), _setup_code(configs)).stderr.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line[len("import time:") :].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))

    def inside(name, package):
        return name == package or name.startswith(package + ".")

    def total(package):
        # outermost lines of the package: the line's parent (the next
        # shallower line below it) lies outside the package
        seconds = 0.0
        for i, (depth, name, cumulative) in enumerate(rows):
            if inside(name, package):
                parent = next((n for d, n, _ in rows[i + 1 :] if d < depth), "")
                if not inside(parent, package):
                    seconds += cumulative
        return seconds

    return {
        "import.rejuvkit_cli_s": total("rejuvkit"),
        "import.scipy_stats_s": total("scipy.stats"),
    }


def machine_note(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "rejuvkit").rglob("*.py")),
    }


def repeat(fn, seconds, extra=None, n_extra=0, min_calls=1):
    """Call ``fn`` until ``seconds`` have passed and at least ``min_calls`` times.

    ``extra`` is called ``n_extra`` times between the calls of ``fn``,
    spread evenly over the period (and after it, if it ends first), so that
    its samples meet the same spread of host load as ``fn``'s.
    """
    results, extras = [], []
    start = time.perf_counter()
    while len(results) < min_calls or time.perf_counter() - start < seconds:
        results.append(fn())
        if len(extras) < n_extra and time.perf_counter() - start >= len(extras) * seconds / n_extra:
            extras.append(extra())
    extras.extend(extra() for _ in range(n_extra - len(extras)))
    return results, extras


def _rep(fn, tracer, cal):
    """One call of ``fn``, and the simulator spans inside it.

    Each time leaves out the calibration kernel runs inside it and is
    rescaled by them (calibrate.py; scale 1 without ``cal``).  The host's
    speed swings within a second, so a simulator estimate is rescaled by
    its own kernels, or by the whole call's when it holds too few.
    """
    tracer.reset()
    start = time.perf_counter()
    out = fn()
    end = time.perf_counter()
    kernels = cal.between(start, end) if cal is not None else []
    kernel_s, factor = sum(kernels), calibrate.scale(kernels)
    sim = {m: [] for m in METRICS}
    for name, _, s, e in tracer.spans:
        if name in tracing.SIMULATOR_SPANS:
            inside = cal.between(s, e) if cal is not None else []
            local = calibrate.scale(inside) if len(inside) >= MIN_LOCAL_KERNELS else factor
            sim[name.split(".")[1]].append((e - s - sum(inside)) * local)
    return {
        "wall": (end - start - kernel_s) * factor,
        "measured": end - start - kernel_s,
        "scale": factor,
        "out": out,
        "sim": sim,
        "spans": list(tracer.spans),
        "counts": dict(tracer.counts),
    }


def timed_rep(wl, inputs, tracer, cal=None):
    return _rep(lambda: wl.run(inputs), tracer, cal)


def probe_rep(tracer, cal=None):
    return _rep(workloads.probe, tracer, cal)


def sim_figures(reps):
    """Per metric: seconds, replications, 1%-CI projection, worst ci_rel, truncated.

    Every repetition makes the same estimates, so each estimate's time is
    its median over the repetitions (each calibrated, see ``_rep``); the
    i-th simulator span of a metric belongs to its i-th agreement entry.
    The projection is time x (ci_rel / 0.01)^2, summed over the estimates.
    """
    figures = {}
    for m in METRICS:
        seconds = [statistics.median(t) for t in zip(*(r["sim"][m] for r in reps))]
        estimates = [e["estimate"] for e in reps[0]["out"] if e["metric"] == m]
        precision = [gate.sim_precision(e) for e in estimates]
        figures[m] = {
            "seconds": sum(seconds),
            "replications": sum(e.replications for e in estimates),
            "s_1pct": sum(t * (r / 0.01) ** 2 for t, r in zip(seconds, precision)),
            "ci_rel": max(precision),
            "truncated": sum(e.truncated for e in estimates),
        }
    return figures


def layer_metrics(rep, wl, untraced_wall):
    """Per-layer metrics of one traced repetition, plus its span summary."""
    spans = rep["spans"]
    summary = tracing.summarize(spans, rep["wall"])
    names = summary["names"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def ms(name, kind="self_s"):
        return 1e3 * names.get(name, {}).get(kind, 0.0)

    points = calls("toolkit.apply_variable") or calls("config.load_config")
    grid = len(wl.grid) if hasattr(wl, "grid") else 0
    refined = tracing.calls_under(spans, "toolkit.apply_variable", "toolkit.run_sweep") - grid
    m = {
        "config.load_config.ms": ms("config.load_config", "incl_s")
        / max(calls("config.load_config"), 1),
        "config.with_overrides.calls": calls("config.with_overrides"),
        "config.with_overrides.self_ms": ms("config.with_overrides"),
        "model.transition_matrix.calls": calls("model.transition_matrix"),
        "model.transition_matrix.self_ms": ms("model.transition_matrix"),
        "model.sojourn_times.calls": calls("model.sojourn_times"),
        "model.sojourn_times.self_ms": ms("model.sojourn_times"),
        "model.kernel_builds_per_point": calls("model.transition_matrix") / max(points, 1),
        "numerics.integrate.calls": calls("numerics.integrate"),
        "numerics.integrate.self_ms": ms("numerics.integrate"),
        "numerics.stieltjes.calls": calls("numerics.stieltjes"),
        "numerics.dtmc_stationary.self_ms": ms("numerics.dtmc_stationary"),
        "numerics.absorbing_visits.self_ms": ms("numerics.absorbing_visits"),
        "distributions.cdf.calls": rep["counts"].get("distributions.cdf", 0),
        "distributions.density.calls": rep["counts"].get("distributions.density", 0),
        "distributions.sample.calls": rep["counts"].get("distributions.sample", 0),
        "analysis.metrics_report.calls": calls("analysis.metrics_report"),
        "analysis.metrics_report.self_ms": ms("analysis.metrics_report"),
        "analysis.completion_time.calls": calls("analysis.completion_time"),
        "analysis.completion_time.self_ms": ms("analysis.completion_time"),
        "ctmc.availability_ctmc.self_ms": ms("ctmc.availability_ctmc"),
        "ctmc.mttf_ctmc.self_ms": ms("ctmc.mttf_ctmc"),
        "toolkit.run_sweep.self_ms": ms("toolkit.run_sweep"),
        "toolkit.refine.points": max(refined, 0),
        "toolkit.run_validate.self_ms": ms("toolkit.run_validate"),
        "toolkit.run_simulate.self_ms": ms("toolkit.run_simulate"),
        "trace.wall_s": rep["wall"],
        "trace.overhead_s": rep["wall"] - untraced_wall,
        "trace.uncovered_s": summary["uncovered_s"],
    }
    for layer in TRACED_LAYERS:
        m[f"{layer}.incl_share"] = summary["layers"].get(layer, {}).get("incl_s", 0.0) / rep["wall"]
    return m, summary


def run(args):
    wl = workloads.WORKLOADS[args.workload]
    ref = gate.load_reference()
    inputs = wl.inputs(args.seed)
    report = {"machine": machine_note(args), "vocabulary": VOCABULARY}

    if args.trace == 0:
        setup = [setup_seconds(wl.configs) for _ in range(SETUP_RUNS)]
        report["setup_runs_s"] = [c for c, _ in setup]
        report["setup_measured_s"] = [m for _, m in setup]
    else:
        imports = import_seconds(wl.configs)
    wl.warm(inputs)

    # End-to-end timings are medians over the run's repetitions (at least
    # 2), each rescaled to reference speed by the calibration kernel run
    # every 0.1 s through it (calibrate.py): on a shared 2-core VM the raw
    # times drift by up to 2x over minutes.
    # Only the simulator entry points are timed in an untraced run (a few
    # calls per repetition), for the sim_*_s_1pct figures.  A workload that
    # does not simulate interleaves the fixed probe with its repetitions.
    sim_tracer = tracing.Tracer()
    n_probes = 0 if wl.simulates else PROBE_RUNS
    if args.trace == 0:
        cal = calibrate.Calibrator()
        probe = None if wl.simulates else (lambda: probe_rep(sim_tracer, cal))
        calibrate.kernel()  # the first call pays numpy's lazy set-up
        with tracing.patched(sim_tracer, tracing.SIMULATOR_SPANS, count_distributions=False):
            with cal.sampling():
                reps, probes = repeat(
                    lambda: timed_rep(wl, inputs, sim_tracer, cal), args.seconds, probe, n_probes, 2
                )
        report["measured_runs_s"] = [r["measured"] for r in reps]
        report["calibration"] = {
            "ref_s": calibrate.REF_S,
            "period_s": calibrate.PERIOD_S,
            "kernels": len(cal.runs),
            "scale_per_rep": [r["scale"] for r in reps],
        }
        metrics = {
            "setup_s": statistics.median(c for c, _ in setup),
            "wall_s": statistics.median(r["wall"] for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        sim_reps = reps
    else:
        untraced, _ = repeat(lambda: timed_rep(wl, inputs, tracing.Tracer()), args.seconds / 2)
        untraced_wall = min(r["wall"] for r in untraced)
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            traced, _ = repeat(lambda: timed_rep(wl, inputs, tracer), args.seconds / 2)
        with tracing.patched(sim_tracer, tracing.SIMULATOR_SPANS, count_distributions=False):
            probes = [probe_rep(sim_tracer) for _ in range(n_probes)]
        best = min(traced, key=lambda r: r["wall"])
        layers, report["layers"] = layer_metrics(best, wl, untraced_wall)
        metrics = dict(imports, **layers)
        report["untraced_runs_s"] = [r["wall"] for r in untraced]
        report["spans"] = best["spans"]
        reps = untraced + traced
        sim_reps = traced
    report["runs_s"] = [r["wall"] for r in reps]

    g = gate.Gate()
    if probes:
        sim_reps = probes
        for r in probes:
            gate.check_simulations(g, ref, r["out"])
    for m, f in sim_figures(sim_reps).items():
        if args.trace == 0:
            metrics[SIM_E2E[m]] = f["s_1pct"]
        else:
            metrics[f"simulator.{m}.ms_per_rep"] = 1e3 * f["seconds"] / f["replications"]
            metrics[f"simulator.{m}.ci_rel"] = f["ci_rel"]
            metrics[f"simulator.{m}.truncated"] = f["truncated"]

    # correctness gate, outside every timed region
    for r in reps:
        wl.check(g, ref, r["out"])
    for label, cfg, completion in wl.points(inputs, reps[0]["out"]):
        g.structure(label, cfg, completion)
    self_ok, self_details = gate.self_check(ref, workloads.sweep_config_at(27.0))
    report["gate"] = {
        "attempted": g.attempted,
        "failed": g.failed,
        "failures": g.failures[:50],
        "self_check": self_details,
    }
    report["metrics"] = metrics

    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {UNITS[name]}")
    verdict = "ok" if self_ok else "FAILED"
    print(f"gate: {g.attempted} checks, {g.failed} failed; self-check {verdict}")
    for what in g.failures[:10]:
        print(f"  FAIL {what}")
    for what, ok in self_details.items():
        if not ok:
            print(f"  self-check FAIL {what}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, default=str) + "\n")
    print(f"report: {path.relative_to(ROOT)}")

    result = {
        "correct": g.failed == 0 and self_ok,
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0
