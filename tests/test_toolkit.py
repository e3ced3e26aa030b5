import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rejuvkit import toolkit
from rejuvkit.analysis import CompletionNotApplicable, completion_time, metrics_report
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
from rejuvkit.config import _TRIGGER_KEYS, DIST_NAMES
from rejuvkit.distributions import Exponential, from_json, to_json
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
    for variable in ("fixing_mean", "triggers.a1"):
        with pytest.raises(ConfigError, match="tie mode"):
            SweepSpec(variable, 0.8, 1.2, 0.1, tie="primary")
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
    cfg = load_config("table7_defaults")
    fixed = "a5" if tie == "primary" else "a2"
    law = Exponential(1.0 / 30.0)
    cfg = replace(cfg, params=replace(cfg.params, **{fixed: law}))
    point = apply_variable(cfg, "trigger_interval", 12.0, tie)
    for k in ("a1", "a2", "a3", "a4", "a5", "a6"):
        want = 12.0 if k in moved else law if k == fixed else 30.0
        assert getattr(point.params, k) == want, k
    assert (point.params.c1, point.workload) == (cfg.params.c1, cfg.workload)
    with pytest.raises(ConfigError, match="negative"):
        apply_variable(cfg, "trigger_interval", -1.0, tie)


@pytest.mark.parametrize(
    "variable, value, tie",
    [
        ("fixing_mean", 1.2, "all"),
        ("triggers.a1", 12.0, "all"),
        ("workload.x", 100.0, "all"),
        ("trigger_interval", 12.0, "all"),
        ("trigger_interval", 12.0, "primary"),
        ("trigger_interval", 12.0, "backup"),
    ],
)
def test_model_edits_survive_every_knob(variable, value, tie):
    # an edit made on the parsed model is kept by every swept variable
    cfg = load_config("table7_defaults")
    law = Exponential(1.0 / 30.0)
    cfg = replace(cfg, params=replace(cfg.params, a5=law, c1=0.5, c2=0.3, c3=0.2))
    point = apply_variable(cfg, variable, value, tie)
    moved = variable == "trigger_interval" and tie != "primary"
    assert point.params.a5 == (value if moved else law)
    assert (point.params.c1, point.params.c2, point.params.c3) == (0.5, 0.3, 0.2)


def _reference_edits(params):
    """(overrides, document edit) pairs, one or more per kind of dotted path."""
    edits = [({f"triggers.{k}": 12.5}, {"triggers": {k: 12.5}}) for k in _TRIGGER_KEYS]
    edits.append(({"branch.c1": 0.5, "branch.c2": 0.3}, {"branch": {"c1": 0.5, "c2": 0.3}}))
    edits += [({f"workload.{k}": v}, {"workload": {k: v}}) for k, v in (("x", 100.0), ("t1", 5.0))]
    fragment = {"kind": "erlang", "rate": 0.5, "shape": 3, "unit": "min"}
    law = from_json(fragment)
    edits.append(({"distributions.reboot_backup": law}, {"distributions": {"reboot_backup": fragment}}))
    for name in DIST_NAMES:
        hours = to_json(getattr(params, name))
        for field in hours.keys() - {"kind", "unit"}:
            value = hours[field] + 1.0 if field == "shape" else 2.0 * hours[field]
            edits.append(
                (
                    {f"distributions.{name}.{field}": value},
                    {"distributions": {name: {**hours, field: value}}},
                )
            )
    return edits


@pytest.mark.parametrize("name", [None, *bundled_config_names()])
def test_overrides_match_parsing_the_edited_document(name):
    # the parser is the reference: an override equals parsing the document
    # edited at that path, or fails as that does (the default config has no
    # workload block, so workload.t1 alone is refused there)
    doc = default_config() if name is None else json.loads(bundled_config(name))
    cfg = parse_config(doc)
    for overrides, edit in _reference_edits(cfg.params):
        edited = json.loads(json.dumps(doc))
        for block, values in edit.items():
            edited.setdefault(block, {}).update(values)
        try:
            want = parse_config(edited)
        except ConfigError:
            with pytest.raises(ConfigError):
                cfg.with_overrides(overrides)
        else:
            assert cfg.with_overrides(overrides) == want, overrides


def test_distribution_field_sweep_on_a_preset_law():
    # the law comes from the preset, not from the document; the field is per hour
    cfg = load_config("preset_f_hypo")
    rows, _ = run_sweep(cfg, SweepSpec("distributions.migration.rate", 100.0, 140.0, 20.0))
    for row in rows[::2]:
        direct = metrics_report(replace(cfg.params, migration=Exponential(row[1])))
        assert row[3] == direct.availability
    cfg = load_config("preset_m_erl")
    point = cfg.with_overrides({"distributions.migration.shape": 3.0})
    assert point.params.migration.shape == 3 and isinstance(point.params.migration.shape, int)
    for path, match in [
        ("distributions.migration.shape", "positive integer"),
        ("distributions.migration.scale", "scale"),
        ("distributions.migration", "not a distribution"),
        ("triggers.a7", "not a settable path"),
        ("workload.restart_overhead_primary", "not a settable path"),
    ]:
        with pytest.raises(ConfigError, match=match):
            cfg.with_overrides({path: 2.5})


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


def _dense_argopt(cfg, metric, centre, minimise=False):
    """Extremum of a degree-5 least-squares fit to 81 evaluations of
    ``metric`` over [centre - 1, centre + 1] h of trigger interval."""
    xs = np.linspace(centre - 1.0, centre + 1.0, 81)
    points = [apply_variable(cfg, "trigger_interval", x) for x in xs]
    if metric == "completion":
        ys = np.array([completion_time(at.params, at.workload) for at in points])
    else:
        ys = np.array([getattr(metrics_report(at.params), metric) for at in points])
    coef = np.polyfit(xs - centre, ys - ys.mean(), 5)
    roots = np.roots(np.polyder(coef))
    roots = roots.real[np.isreal(roots) & (np.abs(roots) <= 1.0)]
    fitted = np.polyval(coef, roots)
    return centre + roots[fitted.argmin() if minimise else fitted.argmax()]


def test_refined_optima_match_dense_fit():
    # the dense fits put the maxima at 26.84263045 h (availability) and
    # 26.8426304685 h (MTTF); availability is so flat there (curvature
    # -2.2e-9 /h^2) that rounding blurs its argmax more
    cfg = load_config("preset_f_hypo")
    spec = SweepSpec("trigger_interval", 0.0, 50.0, 1.0, metrics=("availability", "mttf"), refine=True)
    _, optima = run_sweep(cfg, spec)
    for metric, tol in (("availability", 1e-6), ("mttf", 1e-8)):
        record = optima[metric]
        assert record["refined"]
        assert abs(record["value"] - _dense_argopt(cfg, metric, 27.0)) <= tol, metric
        at = apply_variable(cfg, "trigger_interval", record["value"])
        assert record["optimum"] == getattr(metrics_report(at.params), metric)
        assert type(record["value"]) is float and type(record["optimum"]) is float


def test_refined_sweep_evaluates_once_per_metric_beyond_grid(monkeypatch):
    calls = []
    real = toolkit._reports

    def counted(ps, *args):
        calls.append(len(ps))
        return real(ps, *args)

    monkeypatch.setattr(toolkit, "_reports", counted)
    spec = SweepSpec("trigger_interval", 0.0, 50.0, 1.0, metrics=toolkit.METRICS, refine=True)
    _, optima = run_sweep(load_config("preset_f_hypo"), spec)
    # 51 grid reports, in one batched pass, serve availability and MTTF;
    # each refines once, and completion's optimum lies at the grid end, so
    # it is not refined
    assert calls == [51, 1, 1]
    assert [optima[m]["refined"] for m in toolkit.METRICS] == [True, True, False]


def test_refined_completion_minimum_matches_dense_fit():
    cfg = load_config("preset_f_hypo")
    spec = SweepSpec("trigger_interval", 40.0, 70.0, 1.0, metrics=("completion",), refine=True)
    record = run_sweep(cfg, spec)[1]["completion"]
    grid_best = run_sweep(cfg, replace(spec, refine=False))[1]["completion"]
    assert record["refined"] and grid_best["value"] == 56.0
    assert abs(record["value"] - _dense_argopt(cfg, "completion", 56.0, minimise=True)) <= 1e-8
    assert record["optimum"] <= grid_best["optimum"]


def _parabola(x):
    return 1.0 - ((x - 27.0) / 10.0) ** 2


_COARSE = [10.0 * i for i in range(6)]


@pytest.mark.parametrize(
    "grid, vals, best, probe, want",
    [
        # an infinite MTTF in the window: no fit, no probe
        ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, math.inf, 2.0, 1.0], 2, None, 2.0),
        # a flat window has no stationary point to move to
        ([float(i) for i in range(7)], [5.0] * 7, 3, None, 3.0),
        # the smallest grid with an interior point
        ([0.0, 1.0, 2.0], [-0.49, -0.09, -1.69], 1, lambda x: -((x - 0.7) ** 2), 0.7),
        # a coarse grid: the interpolant of a parabola is the parabola
        (_COARSE, [_parabola(x) for x in _COARSE], 3, _parabola, 27.0),
        # a probe worse than the grid point, or not a number, leaves it
        (_COARSE, [_parabola(x) for x in _COARSE], 3, lambda x: 0.0, 30.0),
        (_COARSE, [_parabola(x) for x in _COARSE], 3, lambda x: math.nan, 30.0),
    ],
)
def test_refine_helper_never_worse_than_grid(grid, vals, best, probe, want):
    probes = []

    def f(x):
        probes.append(x)
        return probe(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, fx = toolkit._refine(f, grid, vals, best, minimise=False)
    assert x == pytest.approx(want, abs=1e-12)
    assert fx >= vals[best]
    assert len(probes) == (0 if probe is None else 1)
    if x != grid[best]:
        assert fx == probe(x)
    # minimising the negated values gives the mirror image
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_min, fx_min = toolkit._refine(
            lambda v: -f(v), grid, [-v for v in vals], best, minimise=True
        )
    assert (x_min, fx_min) == (x, -fx)


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
    direct = metrics_report(apply_variable(cfg, "trigger_interval", 27.0).params)
    assert optima["availability"]["optimum"] == pytest.approx(direct.availability, abs=5e-9)
    assert optima["mttf"]["optimum"] == pytest.approx(direct.mttf, abs=5e-9 * direct.mttf)


def test_fixing_time_table_shape():
    cfg = f_hypo_config()
    spec = SweepSpec("trigger_interval", 24.0, 30.0, 1.0, metrics=("availability", "mttf"))
    records = fixing_time_table(cfg, [0.9, 1.1], spec)
    assert [r["fixing_mean"] for r in records] == [0.9, 1.1]
    assert records[0]["optima"]["availability"]["optimum"] > records[1]["optima"]["availability"]["optimum"]
    for record in records:
        _, optima = run_sweep(apply_variable(cfg, "fixing_mean", record["fixing_mean"]), spec)
        assert record["optima"] == optima


# --- analyze / simulate / validate -------------------------------------------


def test_run_analyze_rows():
    cfg = load_config("table7_defaults")
    report, rows = run_analyze(cfg)
    assert report.completion_time is not None
    metrics = [r[2] for r in rows]
    assert metrics == ["availability", "mttf", "completion"]
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)


def test_law_valued_a1_writes_nan_in_the_value_column():
    cfg = load_config("preset_exponential")
    # no workload: the completion analysis needs a plain a1
    cfg = replace(cfg, params=replace(cfg.params, a1=Exponential(1.0 / 30.0)), workload=None)
    _, rows = run_analyze(cfg)
    sim = SimConfig(replications=20, seed=3, horizon=1e4)
    sim_rows, agreement = run_simulate(cfg, sim, ("availability", "mttf"))
    values = [r[1] for r in rows + sim_rows] + [e["trigger"] for e in agreement]
    assert len(values) == 6 and all(math.isnan(v) for v in values)
    assert all(line.split(",")[1] == "nan" for line in rows_to_csv(rows + sim_rows).splitlines()[1:])


def test_law_valued_a1_with_a_workload_analyses_without_completion():
    # completion needs a plain trigger delay a1; the report resolves it only
    # where it applies, as the validate battery skips it
    cfg = load_config("preset_exponential")
    assert cfg.workload is not None
    cfg = replace(cfg, params=replace(cfg.params, a1=Exponential(1.0 / 30.0)))
    report, rows = run_analyze(cfg)
    assert report.completion_time is None
    assert [r[2] for r in rows] == ["availability", "mttf"]
    alone = metrics_report(cfg.params)
    assert (report.availability, report.mttf) == (alone.availability, alone.mttf)
    statuses = {name: status for name, status, _ in run_validate(cfg)}
    assert statuses["completion-conservation"] == "skip"
    with pytest.raises(CompletionNotApplicable):
        completion_time(cfg.params, cfg.workload)


@pytest.mark.parametrize("tie", ["all", "primary", "backup"])
def test_sweep_point_does_not_depend_on_its_batch(tie):
    cfg = load_config("preset_f_hypo")
    spec = SweepSpec("trigger_interval", 0.0, 50.0, 1.0, metrics=toolkit.METRICS, tie=tie)
    rows, _ = run_sweep(cfg, spec)
    got = {(value, m): x for _, value, m, x, *_ in rows}
    for value in spec.grid():  # trigger 0 included
        point = apply_variable(cfg, "trigger_interval", value, tie)
        report = metrics_report(point.params)
        assert got[value, "availability"] == report.availability
        assert got[value, "mttf"] == report.mttf
        assert got[value, "completion"] == completion_time(point.params, point.workload)


def test_sweep_in_batched_passes_gives_the_same_rows(monkeypatch):
    cfg = load_config("preset_f_hypo")
    spec = SweepSpec("trigger_interval", 0.0, 20.0, 1.0, metrics=toolkit.METRICS, refine=True)
    rows, optima = run_sweep(cfg, spec)
    monkeypatch.setattr(toolkit, "_BATCH", 4)  # 21 points: passes of 4, the last of 1
    chunked, chunked_optima = run_sweep(cfg, spec)
    assert chunked == rows == list(rows) and chunked_optima == optima
    assert len(rows) == 63 and rows[-1] == rows[62] and rows[1:3] == [rows[1], rows[2]]
    assert rows[4] == ("trigger_interval", 1.0, "mttf", rows[4][3], "", "", "")
    with pytest.raises(IndexError):
        rows[63]


def test_fixing_sweep_point_does_not_depend_on_its_batch():
    # the fixing laws differ from point to point, so only the rows without
    # them share a batched evaluation
    cfg = load_config("preset_f_hypo")
    spec = SweepSpec("fixing_mean", 0.5, 10.0, 0.5, metrics=toolkit.METRICS)
    rows, _ = run_sweep(cfg, spec)
    got = {(value, m): x for _, value, m, x, *_ in rows}
    for value in spec.grid():
        point = apply_variable(cfg, "fixing_mean", value)
        report = metrics_report(point.params, point.workload)
        assert got[value, "availability"] == report.availability
        assert got[value, "mttf"] == report.mttf
        assert got[value, "completion"] == report.completion_time


def test_run_simulate_agreement_and_determinism():
    cfg = f_hypo_config()
    sim = SimConfig(replications=40, seed=4242, horizon=4e4, warmup=1e3)
    rows_a, agreement = run_simulate(cfg, sim, ("availability",), triggers=[10.0, 30.0])
    rows_b, _ = run_simulate(cfg, sim, ("availability",), triggers=[10.0, 30.0])
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    assert len(rows_a) == 2
    assert all(len(r) == 7 for r in rows_a)
    assert {e["trigger"] for e in agreement} == {10.0, 30.0}


def test_run_simulate_completion_rows_and_determinism():
    cfg = load_config("preset_f_hypo")
    sim = SimConfig(replications=300, seed=11)
    rows_a, agreement_a = run_simulate(cfg, sim, ("completion",), triggers=[0.0, 50.0])
    rows_b, agreement_b = run_simulate(cfg, sim, ("completion",), triggers=[0.0, 50.0])
    assert rows_a == rows_b
    assert agreement_a == agreement_b
    assert [(r[1], r[2]) for r in rows_a] == [(0.0, "completion"), (50.0, "completion")]
    for row, entry in zip(rows_a, agreement_a):
        point = apply_variable(cfg, "trigger_interval", row[1])
        est = entry["estimate"]
        assert row[3] == entry["analytic"] == completion_time(point.params, point.workload)
        assert row[4:] == (est.mean, est.ci_low, est.ci_high)
        assert (est.metric, est.replications) == ("completion", 300)
        assert entry["agree"] == est.contains(row[3])


def test_run_validate_battery_passes_on_bundles():
    for name in ("table7_defaults", "preset_f_hypo", "preset_a_hypo_f_hypo_erl"):
        cfg = load_config(name)
        results = run_validate(cfg)
        failures = [r for r in results if r[1] == "FAIL"]
        assert not failures, failures
        checks = [r[0] for r in results]
        assert checks == [
            "stationary-residual", "sojourn-times", "completion-conservation", "ctmc-oracle"
        ]


def test_run_validate_ctmc_check_runs_only_for_exponential():
    results = dict((r[0], r[1]) for r in run_validate(load_config("table7_defaults")))
    assert results["ctmc-oracle"] == "pass"
    results = dict((r[0], r[1]) for r in run_validate(load_config("preset_f_hypo")))
    assert results["ctmc-oracle"] == "skip"
    # the oracle disarms the reboot laws (c2 = 0), so Erlang reboots still admit it
    results = dict((r[0], r[1]) for r in run_validate(load_config("preset_r_erl")))
    assert results["ctmc-oracle"] == "pass"


def test_run_validate_reports_distribution_trigger_without_raising(monkeypatch):
    from rejuvkit.distributions import Exponential

    cfg = load_config("table7_defaults")
    cfg = replace(cfg, params=replace(cfg.params, a1=Exponential(1.0 / 30.0)))
    results = run_validate(cfg)
    statuses = {name: status for name, status, _ in results}
    assert statuses["stationary-residual"] == "pass"
    # the completion analysis does not apply to a law-valued a1: skipped, not failed
    assert ("completion-conservation", "skip", "completion analysis needs a plain trigger delay a1") in results
    assert statuses["ctmc-oracle"] == "pass"

    def broken(*args):
        raise ValueError("broken")

    monkeypatch.setattr(toolkit, "completion_lsts", broken)
    statuses = {name: status for name, status, _ in run_validate(load_config("table7_defaults"))}
    assert statuses["completion-conservation"] == "FAIL"


def test_run_validate_and_analyze_when_absorption_unreachable():
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
    for check in ("stationary-residual", "sojourn-times"):
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
        if M.shape[-1] % 2:  # a window's block matrix has odd order 2n + 1
            built.extend(m.tobytes() for m in M)  # each matrix of the stack
        return real(M)

    monkeypatch.setattr(numerics, "_expm_triangular", recorded)
    cfg = load_config("preset_f_hypo")
    run_analyze(cfg)
    run_validate(cfg)
    assert built and len(built) == len(set(built))
