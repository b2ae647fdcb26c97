"""Benchmark harness reproducing the paper's evaluation (section 5).

* **E1** — join overhead (the 81.76% number): :func:`join_overhead`
* **E2** — Figure 2, secureMsgPeer overhead vs data length:
  :func:`msg_overhead_curve`
* **A1-A4** — the DESIGN.md ablations.

``python -m repro.bench`` (or ``examples/overhead_study.py``) prints the
full report; ``benchmarks/`` wraps the same functions in pytest-benchmark
targets.
"""

from repro.bench.faults import (
    LOSS_RATES,
    crash_recovery_scenario,
    fault_loss_sweep,
    fault_report,
    format_fault_report,
    write_bench_fault,
)
from repro.bench.federation import (
    BROKER_COUNTS,
    fed_cell,
    fed_report,
    format_fed,
    secure_reject_probe,
    write_bench_fed,
)
from repro.bench.msgfast import (
    GROUP_SIZES,
    RATE_COUNTS,
    format_msgfast,
    msgfast_report,
    write_bench_msgfast,
)
from repro.bench.profile import (
    REGRESSION_TOLERANCE,
    format_hotpath,
    hotpath_report,
    layer_ladder,
    render_layer_table,
    write_bench_hotpath,
)
from repro.bench.group import (
    format_group,
    group_report,
    write_bench_group,
)
from repro.bench.scale import (
    check_scale_regression,
    format_scale,
    scale_report,
    write_bench_scale,
)
from repro.bench.experiments import (
    OBS_PRIMITIVES,
    PAPER_JOIN_OVERHEAD_PCT,
    baseline_comparison,
    group_scaling,
    join_overhead,
    msg_overhead_curve,
    obs_bench,
    obs_snapshot_report,
    policy_ablation,
)
from repro.bench.report import (
    format_baselines,
    format_group_scaling,
    format_join_overhead,
    format_msg_overhead,
    format_obs,
    format_policy_ablation,
    write_bench_obs,
)

__all__ = [
    "BROKER_COUNTS",
    "fed_cell",
    "fed_report",
    "format_fed",
    "secure_reject_probe",
    "write_bench_fed",
    "GROUP_SIZES",
    "LOSS_RATES",
    "RATE_COUNTS",
    "REGRESSION_TOLERANCE",
    "format_hotpath",
    "hotpath_report",
    "layer_ladder",
    "render_layer_table",
    "write_bench_hotpath",
    "format_msgfast",
    "msgfast_report",
    "write_bench_msgfast",
    "format_group",
    "group_report",
    "write_bench_group",
    "check_scale_regression",
    "format_scale",
    "scale_report",
    "write_bench_scale",
    "OBS_PRIMITIVES",
    "PAPER_JOIN_OVERHEAD_PCT",
    "crash_recovery_scenario",
    "fault_loss_sweep",
    "fault_report",
    "format_fault_report",
    "write_bench_fault",
    "join_overhead",
    "msg_overhead_curve",
    "group_scaling",
    "baseline_comparison",
    "obs_bench",
    "obs_snapshot_report",
    "policy_ablation",
    "format_join_overhead",
    "format_msg_overhead",
    "format_group_scaling",
    "format_baselines",
    "format_obs",
    "format_policy_ablation",
    "write_bench_obs",
]
