"""Where benchmark documents land.

Fresh ``BENCH_*.json`` runs are build artifacts, not source: they go to
``benchmarks/out/`` (gitignored), while the committed regression
baselines stay under ``benchmarks/baselines/``.  Every document is
written by :func:`write_bench`, so callers that pass no explicit path
never litter the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

#: fresh benchmark documents (gitignored build artifacts)
OUT_DIR = Path("benchmarks") / "out"

#: committed regression baselines (the gate's reference side)
BASELINE_DIR = Path("benchmarks") / "baselines"


def bench_name(name: str) -> str:
    """``fault`` -> ``BENCH_FAULT.json``."""
    return f"BENCH_{name.upper()}.json"


def baseline_path(name: str) -> Path:
    """``benchmarks/baselines/BENCH_<NAME>.json``."""
    return BASELINE_DIR / bench_name(name)


def write_bench(name: str, data: dict, path: str | Path | None = None) -> Path:
    """Write *data* as ``benchmarks/out/BENCH_<NAME>.json`` (or to *path*)."""
    if path is None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / bench_name(name)
    out = Path(path)
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out
