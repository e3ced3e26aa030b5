import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rejuvkit
from rejuvkit.cli import main
from rejuvkit.config import default_config


def _child_env():
    """This environment, with the directory the package was imported from
    first on the child's PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(rejuvkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def config_file(tmp_path):
    def write(mutate=None):
        doc = default_config()
        doc["preset"] = "F_HYPO"
        doc["workload"] = {"x": 590.6201, "r1": 0.566316}
        if mutate:
            mutate(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_analyze_success(config_file, capsys, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["analyze", "--config", config_file(), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "availability" in text and "expected visits" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "variable,value,metric,analytic,sim_mean,ci_low,ci_high"
    assert len(lines) == 4


def test_config_error_exits_2(config_file, capsys):
    bad = config_file(lambda doc: doc.update(branch={"c1": 0.5, "c2": 0.6, "c3": 0.1}))
    assert main(["analyze", "--config", bad]) == 2
    assert "c1+c2+c3" in capsys.readouterr().err


def _workload(**fields):
    return lambda doc: doc["workload"].update(fields)


def _law(name, fragment):
    return lambda doc: doc.setdefault("distributions", {}).update({name: fragment})


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_workload(x=None), "workload.x"),
        (_workload(t1=None), "workload.t1"),
        (_workload(x=True), "workload.x"),
        (_workload(x="12"), "workload.x"),
        (_law("fixing_primary", {"kind": "erlang", "rate": 2.0, "shape": 2.7}), "shape"),
        (_law("reboot_primary", {"kind": "exp", "rate": True}), "rate"),
        (_law("migration", {"kind": "det", "offset": None}), "offset"),
    ],
    ids=["x-null", "t1-null", "x-bool", "x-string", "shape-fraction", "rate-bool", "offset-null"],
)
def test_malformed_scalar_exits_2(config_file, capsys, mutate, field):
    assert main(["analyze", "--config", config_file(mutate)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


def test_missing_file_exits_2(capsys):
    assert main(["analyze", "--config", "/nonexistent/path.json"]) == 2


def test_single_replication_exits_2(config_file, capsys):
    code = main(["simulate", "--config", config_file(), "--reps", "1", "--seed", "7"])
    assert code == 2
    assert "2 replications" in capsys.readouterr().err


def test_simulate_deterministic_csv(config_file, tmp_path):
    cfg = config_file()
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "simulate", "--config", cfg, "--reps", "25", "--seed", "99",
        "--horizon", "30000", "--warmup", "1000", "--metrics", "availability,mttf",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_cli(config_file, capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--config", config_file(), "--var", "trigger_interval",
            "--from", "20", "--to", "35", "--step", "5",
            "--metrics", "availability", "--out", str(out),
        ]
    )
    assert code == 0
    assert "optimum availability" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 5


def test_validate_cli_pass(config_file, capsys):
    assert main(["validate", "--config", config_file()]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_validate_cli_fail_exit_1(config_file, monkeypatch):
    import rejuvkit.model as model

    real = model.phase_integral
    monkeypatch.setattr(model, "phase_integral", lambda *args: 0.9 * real(*args))
    assert main(["validate", "--config", config_file()]) == 1


def test_numerical_failure_exits_3(config_file, capsys):
    # deterministic failure inside every attempt window: divergent restarts
    bad = config_file(
        lambda doc: (
            doc.update(triggers={"tied_all": 0.0}),
            doc["distributions"].update(
                {
                    name: {"kind": "det", "offset": 1.0, "unit": "h"}
                    for name in (
                        "fail_idle_primary",
                        "fail_idle_backup",
                        "fail_migrating_primary",
                        "fail_migrating_backup",
                        "fail_fixing_primary",
                        "fail_fixing_backup",
                        "fail_reboot_primary",
                        "fail_reboot_backup",
                    )
                }
            )
            if doc.setdefault("distributions", {}) is not None
            else None,
        )
    )
    code = main(["analyze", "--config", bad])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rejuvkit.cli", "analyze", "--config", "preset_exponential"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "availability" in proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, rejuvkit.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
