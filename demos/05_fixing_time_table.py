"""Sensitivity to the fixing (repair) time.

For each fixing mean, sweeps the trigger interval and reports the best
attainable availability/MTTF and where the optimum sits.  Longer repairs
cost availability almost linearly while barely moving the optimal
trigger.
"""

from rejuvkit.config import load_config
from rejuvkit.toolkit import SweepSpec, fixing_time_table

cfg = load_config("table10_fixing_sweep")
records = fixing_time_table(
    cfg,
    fixing_means=(0.8, 0.9, 1.0, 1.1, 1.2),
    sweep=SweepSpec("trigger_interval", 0.0, 50.0, 1.0, metrics=("availability", "mttf")),
)

print(f"{'fixing mean [h]':>16}{'max availability':>20}{'at trigger':>12}"
      f"{'max MTTF [h]':>14}{'at trigger':>12}")
for rec in records:
    a = rec["optima"]["availability"]
    m = rec["optima"]["mttf"]
    print(
        f"{rec['fixing_mean']:>16.1f}{a['optimum']:>20.12f}{a['value']:>12.0f}"
        f"{m['optimum']:>14.4f}{m['value']:>12.0f}"
    )
