"""The analytic outputs against ``perfbench/reference.json``.

The file records availability, MTTF and the exact completion time of
every bundled config and of the 51-point ``preset_f_hypo`` trigger sweep
(``perfbench/snapshot.py`` writes it).  Results must stay within the
"same behaviour" bar of ROADMAP.md; an intended change re-takes the file.
It is only read here.
"""

import json
from pathlib import Path

from rejuvkit.analysis import metrics_report
from rejuvkit.config import bundled_config_names, load_config
from rejuvkit.toolkit import apply_variable

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# availability absolute, MTTF and completion relative
BOUNDS = {"availability": 1e-10, "mttf": 1e-9, "completion": 1e-9}


def test_bundles_and_sweep_match_reference():
    ref = json.loads(REFERENCE.read_text())
    assert sorted(ref["configs"]) == bundled_config_names()
    points = [(name, load_config(name), ref["configs"][name]) for name in bundled_config_names()]
    sweep = ref["sweep"]
    base = load_config(sweep["config"])
    assert len(sweep["grid"]) == len(sweep["points"]) == 51
    for value, expected in zip(sweep["grid"], sweep["points"]):
        point = apply_variable(base, "trigger_interval", value)
        points.append((f"trigger {value:g}", point, expected))

    misses = []
    for name, cfg, expected in points:
        report = metrics_report(cfg.params, cfg.workload)
        gaps = {
            "availability": abs(report.availability - expected["availability"]),
            "mttf": abs(report.mttf / expected["mttf"] - 1.0),
            "completion": abs(report.completion_time / expected["completion_analytic"] - 1.0),
        }
        misses += [(name, m, gap) for m, gap in gaps.items() if not gap <= BOUNDS[m]]
    assert not misses, misses
