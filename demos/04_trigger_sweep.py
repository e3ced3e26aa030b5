"""Sweep the migration trigger interval; locate the dependability optimum.

Availability and MTTF both peak at an interior trigger when failure
times have an increasing failure rate: migrating too eagerly wastes
uptime on rejuvenation churn, migrating too late gambles on the aging
OS surviving the wait.
"""

from rejuvkit.config import load_config
from rejuvkit.toolkit import SweepSpec, rows_to_csv, run_sweep

cfg = load_config("preset_f_hypo")
spec = SweepSpec("trigger_interval", 0.0, 50.0, 1.0, metrics=("availability", "mttf"), refine=True)
rows, optima = run_sweep(cfg, spec)

series = {m: [(r[1], r[3]) for r in rows if r[2] == m] for m in ("availability", "mttf")}
print("trigger [h]   availability      mttf [h]")
for (t, a), (_, m) in zip(series["availability"][::5], series["mttf"][::5]):
    print(f"{t:8.0f}    {a:.10f}    {m:9.2f}")

for metric, record in optima.items():
    print(
        f"\n{metric}: optimum {record['optimum']:.10g} at trigger "
        f"{record['value']:.4g} h (refined between grid points: {record['refined']})"
    )

with open("trigger_sweep.csv", "w") as fh:
    fh.write(rows_to_csv(rows))
print("\nwrote trigger_sweep.csv")
