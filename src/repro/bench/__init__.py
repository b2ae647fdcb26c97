"""Benchmark harness reproducing the paper's evaluation (section 5).

* **E1** — join overhead (the 81.76% number): :func:`join_overhead`
* **E2** — Figure 2, secureMsgPeer overhead vs data length:
  :func:`msg_overhead_curve`
* **A1-A4** — the DESIGN.md ablations: :func:`crypto_costs`,
  :func:`policy_ablation`, :func:`group_scaling`,
  :func:`baseline_comparison`; **E-OBS**: :func:`obs_bench`.

Each is an entry of the experiment table in :mod:`repro.bench.harness`
(documents and checks in :mod:`repro.bench.evaluation`), beside the
E-FAULT, E-FED, E-GROUP, E-HOTPATH, E-MSGFAST and E-SCALE experiments.
``python -m repro.bench --experiment NAME [--quick] [--gate]`` runs one
entry; ``python -m repro.bench [--quick]`` runs the section 5 entries.
"""

from repro.bench.faults import (
    LOSS_RATES,
    crash_recovery_scenario,
    fault_loss_sweep,
    fault_report,
    format_fault_report,
)
from repro.bench.federation import (
    BROKER_COUNTS,
    fed_cell,
    fed_report,
    format_fed,
    secure_reject_probe,
)
from repro.bench.msgfast import (
    GROUP_SIZES,
    RATE_COUNTS,
    format_msgfast,
    msgfast_report,
)
from repro.bench.profile import (
    format_hotpath,
    hotpath_report,
    layer_ladder,
    render_layer_table,
)
from repro.bench.group import (
    format_group,
    group_report,
)
from repro.bench.scale import (
    format_scale,
    scale_report,
)
from repro.bench.experiments import (
    OBS_PRIMITIVES,
    PAPER_JOIN_OVERHEAD_PCT,
    baseline_comparison,
    crypto_costs,
    group_scaling,
    join_overhead,
    msg_overhead_curve,
    obs_bench,
    policy_ablation,
)
from repro.bench.paths import write_bench
from repro.bench.report import (
    format_baselines,
    format_group_scaling,
    format_join_overhead,
    format_msg_overhead,
    format_obs,
    format_policy_ablation,
)

__all__ = [
    "BROKER_COUNTS",
    "fed_cell",
    "fed_report",
    "format_fed",
    "secure_reject_probe",
    "GROUP_SIZES",
    "LOSS_RATES",
    "RATE_COUNTS",
    "format_hotpath",
    "hotpath_report",
    "layer_ladder",
    "render_layer_table",
    "format_msgfast",
    "msgfast_report",
    "format_group",
    "group_report",
    "format_scale",
    "scale_report",
    "OBS_PRIMITIVES",
    "PAPER_JOIN_OVERHEAD_PCT",
    "crash_recovery_scenario",
    "fault_loss_sweep",
    "fault_report",
    "format_fault_report",
    "join_overhead",
    "msg_overhead_curve",
    "group_scaling",
    "baseline_comparison",
    "crypto_costs",
    "obs_bench",
    "policy_ablation",
    "format_join_overhead",
    "format_msg_overhead",
    "format_group_scaling",
    "format_baselines",
    "format_obs",
    "format_policy_ablation",
    "write_bench",
]
