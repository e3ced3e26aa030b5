import json
import math

import numpy as np
import pytest

from rejuvkit.config import (
    ConfigError,
    FAMILY_DEFAULTS,
    PRESETS,
    bundled_config,
    bundled_config_names,
    default_config,
    load_config,
    parse_config,
)
from rejuvkit.distributions import from_json
from rejuvkit.simulator import SimConfig
from rejuvkit.toolkit import (
    CSV_HEADER,
    SweepSpec,
    apply_variable,
    fixing_time_table,
    rows_to_csv,
    run_analyze,
    run_simulate,
    run_sweep,
    run_validate,
)


def f_hypo_config(**extra):
    doc = default_config()
    doc["preset"] = "F_HYPO"
    doc.update(extra)
    return parse_config(doc)


# --- config parsing ---------------------------------------------------------


def test_bundled_configs_parse_and_names():
    names = bundled_config_names()
    assert "table7_defaults.json"[:-5] in names
    assert len(names) >= 11
    for name in names:
        cfg = parse_config(json.loads(bundled_config(name)))
        assert cfg.params.c1 + cfg.params.c2 + cfg.params.c3 == pytest.approx(1.0)


def test_load_config_accepts_bare_bundled_name(tmp_path):
    cfg = load_config("table7_defaults")
    assert cfg.workload is not None
    with pytest.raises(ConfigError, match="no such file"):
        load_config("definitely_not_bundled")


def test_unknown_fields_rejected():
    doc = default_config()
    doc["extra_knob"] = 1
    with pytest.raises(ConfigError, match="extra_knob"):
        parse_config(doc)
    doc = default_config()
    doc["distributions"] = {"fail_idle_primari": {"kind": "exp", "rate": 1.0}}
    with pytest.raises(ConfigError, match="fail_idle_primari"):
        parse_config(doc)
    doc = default_config()
    doc["preset"] = "F_WEIBULL"
    with pytest.raises(ConfigError, match="F_WEIBULL"):
        parse_config(doc)
    doc = default_config()
    doc["schema"] = 2
    with pytest.raises(ConfigError, match="schema"):
        parse_config(doc)


def test_branch_simplex_violation_named():
    doc = default_config()
    doc["branch"] = {"c1": 0.5, "c2": 0.6, "c3": 0.1}
    with pytest.raises(ConfigError, match="c1\\+c2\\+c3"):
        parse_config(doc)


def test_trigger_resolution_precedence():
    doc = default_config()
    doc["triggers"] = {"tied_all": 10.0, "a3": 4.0}
    cfg = parse_config(doc)
    assert cfg.params.a1 == 10.0 and cfg.params.a3 == 4.0
    doc["triggers"] = {"tied_primary": 5.0}
    with pytest.raises(ConfigError, match="a4"):
        parse_config(doc)
    doc["triggers"] = {"tied_primary": 5.0, "tied_backup": 7.0}
    cfg = parse_config(doc)
    assert (cfg.params.a2, cfg.params.a5) == (5.0, 7.0)


def test_preset_means_preserved():
    for preset, assignment in PRESETS.items():
        doc = default_config()
        doc["preset"] = preset
        cfg = parse_config(doc)
        for name in ("aging_primary", "fail_idle_backup", "fixing_primary", "reboot_backup", "migration"):
            group = {
                "aging_primary": "aging",
                "fail_idle_backup": "failure",
                "fixing_primary": "fixing",
                "reboot_backup": "reboot",
                "migration": "migration",
            }[name]
            family = assignment.get(group, "exp")
            expected = from_json(FAMILY_DEFAULTS[group][family]).mean()
            assert getattr(cfg.params, name).mean() == pytest.approx(expected, rel=1e-9)


def test_workload_block_parses():
    cfg = f_hypo_config(
        workload={
            "x": 590.6201,
            "r1": 0.566316,
            "b1": 1.0,
            "b2": 0.0,
            "restart_overhead_primary": {"kind": "exp", "rate": 1.0, "unit": "h"},
            "backup_restart_via_primary": True,
        }
    )
    assert cfg.workload.x == 590.6201
    with pytest.raises(ConfigError, match="workload.x"):
        f_hypo_config(workload={"r1": 0.5})
    with pytest.raises(ConfigError, match="r2"):
        f_hypo_config(workload={"x": 10.0, "r2": 0.5})


# --- sweeps ------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ConfigError, match="step"):
        SweepSpec("trigger_interval", 0.0, 10.0, 0.0)
    with pytest.raises(ConfigError, match="metrics"):
        SweepSpec("trigger_interval", 0.0, 10.0, 1.0, metrics=("latency",))
    with pytest.raises(ConfigError, match="tie"):
        SweepSpec("trigger_interval", 0.0, 10.0, 1.0, tie="sideways")
    assert SweepSpec("x", 0.0, 5.0, 1.0).grid() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_apply_variable_modes():
    cfg = f_hypo_config()
    moved = apply_variable(cfg, "trigger_interval", 12.0, "primary")
    assert moved.params.a1 == 12.0 and moved.params.a4 == 30.0
    moved = apply_variable(cfg, "trigger_interval", 12.0, "all")
    assert moved.params.a4 == 12.0
    moved = apply_variable(cfg, "triggers.a2", 3.5)
    assert moved.params.a2 == 3.5 and moved.params.a1 == 30.0
    moved = apply_variable(cfg, "fixing_mean", 0.8)
    assert moved.params.fixing_primary.mean() == pytest.approx(0.8)
    # a path override that breaks an invariant is rejected loudly
    with pytest.raises(ConfigError, match="c1\\+c2\\+c3"):
        apply_variable(cfg, "branch.c1", 0.55)


@pytest.mark.parametrize("tie, moved", [("primary", ("a1", "a2", "a3")), ("backup", ("a4", "a5", "a6"))])
def test_trigger_sweep_keeps_unmoved_triggers(tie, moved):
    # a distribution-valued trigger on the side that does not move stays as it is
    from dataclasses import replace

    from rejuvkit.distributions import Exponential

    cfg = load_config("table7_defaults")
    fixed = "a5" if tie == "primary" else "a2"
    law = Exponential(1.0 / 30.0)
    cfg = replace(cfg, params=replace(cfg.params, **{fixed: law}))
    point = apply_variable(cfg, "trigger_interval", 12.0, tie)
    for k in ("a1", "a2", "a3", "a4", "a5", "a6"):
        want = 12.0 if k in moved else law if k == fixed else 30.0
        assert getattr(point.params, k) == want, k
    assert point.raw["triggers"] == {
        k: 12.0 if k in moved else 30.0 for k in ("a1", "a2", "a3", "a4", "a5", "a6") if k != fixed
    }
    assert (point.params.c1, point.workload) == (cfg.params.c1, cfg.workload)
    with pytest.raises(ConfigError, match="negative"):
        apply_variable(cfg, "trigger_interval", -1.0, tie)


def test_fixing_mean_override_keeps_family():
    doc = default_config()
    doc["preset"] = "Fixing_ERL"
    cfg = parse_config(doc)
    moved = apply_variable(cfg, "fixing_mean", 1.2)
    dist = moved.params.fixing_backup
    assert dist.shape == 2 and dist.mean() == pytest.approx(1.2)


def test_sweep_optimum_and_determinism():
    cfg = f_hypo_config()
    spec = SweepSpec("trigger_interval", 20.0, 34.0, 2.0, metrics=("availability",))
    rows_a, optima_a = run_sweep(cfg, spec)
    rows_b, optima_b = run_sweep(cfg, spec)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    assert optima_a == optima_b
    assert 24.0 <= optima_a["availability"]["value"] <= 30.0


def test_sweep_refinement_stays_in_bracket():
    cfg = f_hypo_config()
    spec = SweepSpec("trigger_interval", 21.0, 33.0, 3.0, metrics=("mttf",), refine=True)
    _, optima = run_sweep(cfg, spec)
    record = optima["mttf"]
    assert record["refined"]
    assert 21.0 <= record["value"] <= 33.0
    assert abs(record["value"] - 27.0) <= 3.0


def test_halving_step_moves_optimum_at_most_one_coarse_step():
    cfg = f_hypo_config()
    coarse = SweepSpec("trigger_interval", 0.0, 50.0, 10.0, metrics=("availability",))
    fine = SweepSpec("trigger_interval", 0.0, 50.0, 5.0, metrics=("availability",))
    _, opt_coarse = run_sweep(cfg, coarse)
    _, opt_fine = run_sweep(cfg, fine)
    assert abs(opt_coarse["availability"]["value"] - opt_fine["availability"]["value"]) <= 10.0


def test_completion_sweep_requires_workload():
    cfg = f_hypo_config()
    spec = SweepSpec("trigger_interval", 0.0, 10.0, 5.0, metrics=("completion",))
    with pytest.raises(ConfigError, match="workload"):
        run_sweep(cfg, spec)


def test_sweep_reproduces_published_optimum_row():
    # fixing mean 1 h, full 0..50 step-1 sweep: both optima at trigger 27;
    # the optimum record equals a direct evaluation at that grid point, and
    # the best MTTF lands within 0.1% of the published 6689.6023 h
    cfg = apply_variable(f_hypo_config(), "fixing_mean", 1.0)
    spec = SweepSpec("trigger_interval", 0.0, 50.0, 1.0, metrics=("availability", "mttf"))
    _, optima = run_sweep(cfg, spec)
    assert optima["availability"]["value"] == 27.0
    assert optima["mttf"]["value"] == 27.0
    assert optima["mttf"]["optimum"] == pytest.approx(6689.6023, rel=1e-3)
    from rejuvkit.analysis import metrics_report

    direct = metrics_report(apply_variable(cfg, "trigger_interval", 27.0).params)
    assert optima["availability"]["optimum"] == pytest.approx(direct.availability, abs=5e-9)
    assert optima["mttf"]["optimum"] == pytest.approx(direct.mttf, abs=5e-9 * direct.mttf)


def test_fixing_time_table_shape():
    cfg = f_hypo_config()
    records = fixing_time_table(cfg, [0.9, 1.1], list(np.arange(24.0, 31.0, 1.0)), ("availability",))
    assert [r["fixing_mean"] for r in records] == [0.9, 1.1]
    assert records[0]["optima"]["availability"]["optimum"] > records[1]["optima"]["availability"]["optimum"]


# --- analyze / simulate / validate -------------------------------------------


def test_run_analyze_rows():
    cfg = load_config("table7_defaults")
    report, rows = run_analyze(cfg)
    assert report.completion_time is not None
    metrics = [r[2] for r in rows]
    assert metrics == ["availability", "mttf", "completion"]
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)


def test_run_simulate_agreement_and_determinism():
    cfg = f_hypo_config()
    sim = SimConfig(replications=40, seed=4242, horizon=4e4, warmup=1e3)
    rows_a, agreement = run_simulate(cfg, sim, ("availability",), triggers=[10.0, 30.0])
    rows_b, _ = run_simulate(cfg, sim, ("availability",), triggers=[10.0, 30.0])
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    assert len(rows_a) == 2
    assert all(len(r) == 7 for r in rows_a)
    assert {e["trigger"] for e in agreement} == {10.0, 30.0}


def test_run_validate_battery_passes_on_bundles():
    for name in ("table7_defaults", "preset_f_hypo", "preset_a_hypo_f_hypo_erl"):
        cfg = load_config(name)
        results = run_validate(cfg)
        failures = [r for r in results if r[1] == "FAIL"]
        assert not failures, failures
        checks = {r[0] for r in results}
        assert "kernel-row-sums" in checks and "stationary-residual" in checks


def test_run_validate_ctmc_check_runs_only_for_exponential():
    results = dict((r[0], r[1]) for r in run_validate(load_config("table7_defaults")))
    assert results["ctmc-oracle"] == "pass"
    results = dict((r[0], r[1]) for r in run_validate(load_config("preset_f_hypo")))
    assert results["ctmc-oracle"] == "skip"
    # the oracle disarms the reboot laws (c2 = 0), so Erlang reboots still admit it
    results = dict((r[0], r[1]) for r in run_validate(load_config("preset_r_erl")))
    assert results["ctmc-oracle"] == "pass"


def test_run_validate_reports_distribution_trigger_without_raising():
    from dataclasses import replace

    from rejuvkit.distributions import Exponential

    cfg = load_config("table7_defaults")
    cfg = replace(cfg, params=replace(cfg.params, a1=Exponential(1.0 / 30.0)))
    statuses = {name: status for name, status, _ in run_validate(cfg)}
    assert statuses["kernel-row-sums"] == "pass"
    assert statuses["completion-conservation"] == "FAIL"
    assert statuses["ctmc-oracle"] == "FAIL"


def test_run_validate_and_analyze_when_absorption_unreachable():
    from dataclasses import replace

    from rejuvkit.distributions import Deterministic

    cfg = load_config("table7_defaults")
    never = Deterministic(1e9)  # no failure state is reachable
    params = replace(
        cfg.params,
        c1=1.0, c2=0.0, c3=0.0, migration=Deterministic(0.01),
        **{f"fail_{phase}_{side}": never
           for phase in ("idle", "migrating", "fixing", "reboot")
           for side in ("primary", "backup")},
    )
    cfg = replace(cfg, params=params)
    results = run_validate(cfg)
    statuses = {name: status for name, status, _ in results}
    for check in ("parameter-invariants", "kernel-row-sums", "kernel-sparsity",
                  "stationary-residual", "sojourn-times"):
        assert statuses[check] == "pass", results
    assert "kernel-construction" not in statuses
    assert statuses["ctmc-oracle"] == "skip"
    report, rows = run_analyze(replace(cfg, workload=None))
    assert report.availability == 1.0
    assert [r[3] for r in rows] == [1.0, math.inf]


def test_run_validate_detects_corruption(monkeypatch):
    import rejuvkit.model as model

    real = model.phase_integral
    monkeypatch.setattr(model, "phase_integral", lambda *args: 0.9 * real(*args))
    results = run_validate(load_config("preset_f_hypo"))
    statuses = {name: status for name, status, _ in results}
    assert statuses["kernel-construction"] == "FAIL"


def test_analyze_then_validate_computes_each_window_once(monkeypatch):
    from rejuvkit import numerics

    numerics.phase_window.cache_clear()
    built = []
    real = numerics._expm_triangular

    def recorded(M):
        if M.shape[0] % 2:  # a window's block matrix has odd order 2n + 1
            built.append(M.tobytes())
        return real(M)

    monkeypatch.setattr(numerics, "_expm_triangular", recorded)
    cfg = load_config("preset_f_hypo")
    run_analyze(cfg)
    run_validate(cfg)
    assert built and len(built) == len(set(built))
