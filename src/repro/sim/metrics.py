"""Lightweight per-endpoint counters used by entities and the bench harness."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Metrics:
    """Named counters."""

    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def incr(self, name: str, by: int = 1) -> None:
        self.counters[name] += by

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)
