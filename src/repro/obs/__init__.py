"""``repro.obs`` — zero-dependency observability: metrics, traces, hooks.

Three cooperating, individually usable pieces (see
``docs/OBSERVABILITY.md`` for the operator guide):

* :mod:`repro.obs.metrics` — counters / gauges / histogram timers behind
  a process-local :class:`Registry` (p50/p95/p99, byte accounting);
* :mod:`repro.obs.trace` — nested protocol-phase spans with JSON export;
* :mod:`repro.obs.events` — the typed protocol hook bus
  (``on_login``, ``on_replay_blocked``, ...).

Everything records to process-local defaults swappable via
``set_registry`` / ``set_tracer`` / ``set_events``.  Recording is always
on: there is no off switch.
"""

from __future__ import annotations

import functools
import re
from typing import Callable

from repro.obs.events import (
    HOOKS,
    ProtocolEvents,
    emit,
    get_events,
    on,
    set_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    InternedCounter,
    InternedHistogram,
    Registry,
    get_registry,
    set_registry,
)
from repro.obs.trace import Span, Tracer, get_tracer, set_tracer, span

#: Every metric name the instrumented tree may export, as documented
#: patterns (``<x>`` matches one dot-free segment).  ``docs/OBSERVABILITY.md``
#: must list each pattern verbatim — the tests enforce both directions.
METRIC_PATTERNS: tuple[str, ...] = (
    # simulated network (sim/network.py)
    "net.frames_sent",
    "net.frames_delivered",
    "net.frames_dropped",
    "net.bytes_sent",
    "net.frame_bytes",
    "net.endpoints",
    # link-layer send scheduler (net/linkq.py)
    "net.queue.enqueued",
    "net.queue.depth",
    "net.queue.drop",
    "net.queue.defer",
    "net.queue.flush",
    "net.batch.units",
    "net.batch.frames",
    "net.batch.decode_errors",
    "net.compress.units",
    "net.compress.bytes_in",
    "net.compress.bytes_out",
    "net.compress.ratio",
    # client primitives (overlay/primitives.py decorator)
    "overlay.<primitive>.calls",
    "overlay.<primitive>.errors",
    "overlay.<primitive>.latency_ms",
    "overlay.<primitive>.bytes_sent",
    "overlay.<primitive>.frames_sent",
    "overlay.<primitive>.retries",
    # robustness policies (overlay/policy.py)
    "policy.breaker.state",
    "policy.breaker.transitions",
    "policy.retry.backoff_ms",
    # fault injection (sim/faults.py)
    "faults.<fault>.injected",
    # broker functions (overlay/broker.py, core/secure_broker.py)
    "broker.fn.<msg_type>.calls",
    "broker.fn.<msg_type>.latency_ms",
    # protocol-phase spans (core/secure_*.py); <path> may contain dots
    "span.<path>.ms",
    # crypto operation counters
    "crypto.rsa.public_op",
    "crypto.rsa.private_op",
    "crypto.rsa.verify_op",
    "crypto.rsa.keygen",
    "crypto.aes.key_schedule",
    "crypto.aes.blocks_encrypted",
    "crypto.aes.blocks_decrypted",
    "crypto.envelope.seal",
    "crypto.envelope.seal_many",
    "crypto.envelope.recipients",
    "crypto.envelope.open",
    "crypto.envelope.plaintext_bytes",
    # per-group epoch keys (crypto/groupkey.py)
    "crypto.groupkey.seal",
    "crypto.groupkey.open",
    "crypto.groupkey.trimmed",
    "crypto.groupkey.reject.<reason>",
    # fast-path caches (crypto/resume.py, crypto/sigcache.py,
    # core/signed_advertisement.py)
    "crypto.resume.<event>",
    "crypto.sigcache.<event>",
    "core.adv_cache.evictions",
    # broker federation (overlay/federation.py, core/secure_federation.py)
    "fed.members",
    "fed.owned_entries",
    "fed.redirects",
    "fed.redirect_followed",
    "fed.redirect_failed",
    "fed.scatter",
    "fed.scatter_miss",
    "fed.reject.<reason>",
    "fed.sync.<event>",
    "fed.presence.<event>",
    # broker-mediated group cast (overlay/groupcast.py)
    "groupcast.rotate",
    "groupcast.rotate.degraded",
    "groupcast.sub",
    "groupcast.unsub",
    "groupcast.cast",
    "groupcast.delivered",
    "groupcast.relayed",
    "groupcast.replayed",
    "groupcast.relay.received",
    "groupcast.relay.ignored",
    "groupcast.epoch.pull",
    "groupcast.epoch.pull_failed",
    "groupcast.epoch.serve",
    "groupcast.epoch.bad_secret",
    "groupcast.store.evicted",
    "groupcast.store.expired",
    "groupcast.reject.<code>",
    "groupcast.fed.unauthorized",
    # hook-bus accounting (obs/events.py)
    "events.<hook>",
    "events.listener_errors",
    # wire-boundary rejections (wire/boundary.py)
    "wire.reject.oversize",
    "wire.reject.<msg_type>.<reason>",
)

_SEGMENT = r"[A-Za-z0-9_\-]+"        # one dot-free name segment
_PATH = r"[A-Za-z0-9_.\-]+"          # dotted span paths


@functools.lru_cache(maxsize=None)
def _pattern_regex(pattern: str) -> "re.Pattern[str]":
    # re.escape leaves '<'/'>' alone, so '<x>' placeholders survive to here.
    escaped = re.escape(pattern).replace("<path>", _PATH)
    return re.compile("^" + re.sub(r"<[a-z_]+>", _SEGMENT, escaped) + "$")


def metric_pattern_for(name: str) -> str | None:
    """The documented pattern a concrete metric name falls under, if any."""
    for pattern in METRIC_PATTERNS:
        if _pattern_regex(pattern).match(name):
            return pattern
    return None


def timed_handler(name: str, handler: Callable) -> Callable:
    """Wrap a broker/endpoint message handler with call + latency metrics.

    Produces ``<name>.calls`` and ``<name>.latency_ms``.
    """

    @functools.wraps(handler)
    def wrapped(message, src):
        registry = get_registry()
        registry.incr(f"{name}.calls")
        with registry.time(f"{name}.latency_ms"):
            return handler(message, src)

    return wrapped


__all__ = [
    "HOOKS",
    "METRIC_PATTERNS",
    "Counter",
    "Gauge",
    "Histogram",
    "InternedCounter",
    "InternedHistogram",
    "ProtocolEvents",
    "Registry",
    "Span",
    "Tracer",
    "emit",
    "get_events",
    "get_registry",
    "get_tracer",
    "metric_pattern_for",
    "on",
    "set_events",
    "set_registry",
    "set_tracer",
    "span",
    "timed_handler",
]
