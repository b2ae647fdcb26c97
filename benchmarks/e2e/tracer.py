"""Outside-in span recording around the program's layer functions.

The benchmark owns this code, not the program: a traced process swaps
each function listed in :data:`TARGETS` for a timing wrapper.  Module
functions are rebound in every ``repro`` module that imported them by
name (matched by identity, because ``parse``/``serialize`` and friends
are imported with ``from ... import``); methods are replaced on their
class, aliases included (``PrivateKey.sign_int is decrypt_int``).

Each wrapper records a span — group, start, end, parent, thread — on a
thread-local stack, because ``TcpTransport`` runs handlers on a thread
pool.  A span's *self time* is its duration minus the part its child
spans cover.  Spans of different processes are not linked: nothing on
the wire carries a trace context yet.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``name`` or ``Class.method``."""

    group: str
    module: str
    attr: str
    #: positional index of a bytes argument whose length is summed
    nbytes_arg: int | None = None
    #: count calls only (for functions cheaper than a timing wrapper)
    count_only: bool = False


TARGETS: tuple[Target, ...] = (
    Target("net.tcp.send", "repro.net.tcp", "TcpTransport.send"),
    Target("net.tcp.request", "repro.net.tcp", "TcpTransport.request"),
    Target("net.framing", "repro.net.framing", "encode_frame"),
    Target("net.framing", "repro.net.framing", "decode_body"),
    Target("net.framing", "repro.net.framing", "encode_batch_payload"),
    Target("net.framing", "repro.net.framing", "decode_batch_payload"),
    Target("jxta.codec", "repro.jxta.messages", "Message.to_wire"),
    Target("jxta.codec", "repro.jxta.messages", "Message.from_wire"),
    Target("xmllib.parse", "repro.xmllib.parser", "parse"),
    Target("xmllib.serialize", "repro.xmllib.serializer", "serialize"),
    Target("xmllib.canonicalize", "repro.xmllib.c14n", "canonicalize"),
    Target("wire.check", "repro.wire.boundary", "check"),
    Target("wire.check", "repro.wire.boundary", "decode"),
    Target("crypto.rsa", "repro.crypto.rsa", "PrivateKey.decrypt_int"),
    Target("crypto.rsa", "repro.crypto.rsa", "PublicKey.encrypt_int"),
    Target("crypto.rsa", "repro.crypto.rsa", "PublicKey.verify_int"),
    Target("crypto.aead", "repro.crypto.aead", "seal", nbytes_arg=2),
    Target("crypto.aead", "repro.crypto.aead", "open_", nbytes_arg=2),
    Target("crypto.resume", "repro.crypto.resume", "seal_resumed"),
    Target("crypto.resume", "repro.crypto.resume", "open_resumed"),
    Target("crypto.envelope", "repro.crypto.envelope", "seal"),
    Target("crypto.envelope", "repro.crypto.envelope", "seal_many"),
    Target("crypto.envelope", "repro.crypto.envelope", "open_"),
    Target("crypto.envelope", "repro.crypto.envelope", "open_detailed"),
    Target("crypto.signing", "repro.crypto.signing", "sign"),
    Target("crypto.signing", "repro.crypto.signing", "verify"),
    Target("crypto.groupkey", "repro.crypto.groupkey", "seal_epoch"),
    Target("crypto.groupkey", "repro.crypto.groupkey", "open_epoch"),
    Target("crypto.groupkey", "repro.crypto.groupkey", "GroupKeyRing.open"),
    Target("dsig.sign", "repro.dsig.signer", "sign_element"),
    Target("dsig.verify", "repro.dsig.verifier", "verify_element"),
    Target("core.secure_connect", "repro.core.secure_client",
           "SecureClientPeer.secure_connect"),
    Target("core.secure_login", "repro.core.secure_client",
           "SecureClientPeer.secure_login"),
    Target("core.secure_msg_peer", "repro.core.secure_client",
           "SecureClientPeer.secure_msg_peer"),
    Target("core.secure_msg_peer_group", "repro.core.secure_client",
           "SecureClientPeer.secure_msg_peer_group"),
    Target("obs.registry", "repro.obs.metrics", "Registry.incr", count_only=True),
    Target("obs.registry", "repro.obs.metrics", "Registry.observe",
           count_only=True),
    Target("obs.registry", "repro.obs.metrics", "Registry.set_gauge",
           count_only=True),
    Target("obs.registry", "repro.obs.metrics", "InternedCounter.incr",
           count_only=True),
    Target("obs.registry", "repro.obs.metrics", "InternedHistogram.observe",
           count_only=True),
)

#: The handler a ``TcpTransport.register`` call receives is wrapped as
#: this group.  Handlers are bound when endpoints are built, so this one
#: wrapper goes in before any endpoint exists (inactive until tracing
#: starts); every other target is installed when tracing starts.
DISPATCH = Target("net.dispatch", "repro.net.tcp", "TcpTransport.register")

#: Spans kept per process for the JSON-lines file; later ones are counted.
MAX_SPANS = 50_000


class Recorder:
    """Span stacks, per-group totals and a bounded span log."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: group -> [calls, total_ns, self_ns, bytes]
        self.totals: dict[str, list[int]] = {}
        #: (group, span id, parent id, thread, start_ns, end_ns, self_ns)
        self.spans: list[tuple] = []
        self.dropped = 0

    def reset(self) -> None:
        with self._lock:
            self.totals.clear()
            self.spans.clear()
            self.dropped = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, group: str) -> None:
        with self._lock:
            entry = self.totals.get(group)
            if entry is None:
                entry = self.totals[group] = [0, 0, 0, 0]
            entry[0] += 1

    def wrap(self, group: str, fn, nbytes_arg: int | None = None,
             count_only: bool = False):
        """``fn`` with a span (or a call count) recorded while active."""
        recorder = self

        if count_only:
            def counted(*args, **kwargs):
                if recorder.active:
                    recorder.count(group)
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        def timed(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = [next(recorder._ids), 0]  # span id, child time
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                nbytes = 0
                if nbytes_arg is not None and len(args) > nbytes_arg:
                    nbytes = len(args[nbytes_arg])
                recorder._finish(group, frame[0],
                                 parent[0] if parent is not None else 0,
                                 start, end, duration - frame[1], nbytes)

        timed.__wrapped__ = fn
        return timed

    def _finish(self, group, span_id, parent_id, start, end, self_ns,
                nbytes) -> None:
        with self._lock:
            entry = self.totals.get(group)
            if entry is None:
                entry = self.totals[group] = [0, 0, 0, 0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_ns
            entry[3] += nbytes
            if len(self.spans) < MAX_SPANS:
                self.spans.append((group, span_id, parent_id,
                                   threading.get_ident(), start, end, self_ns))
            else:
                self.dropped += 1

    def snapshot(self) -> dict[str, list[int]]:
        with self._lock:
            return {group: list(entry) for group, entry in self.totals.items()}

    def write_spans(self, path: str, meta: dict) -> None:
        """Write the span log as JSON lines (one header line first)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with self._lock:
            spans, dropped = list(self.spans), self.dropped
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "spans": len(spans),
                                 "dropped": dropped}) + "\n")
            for group, sid, parent, thread, start, end, self_ns in spans:
                fh.write(json.dumps({
                    "name": group, "id": sid, "parent": parent,
                    "thread": thread, "start_ns": start, "end_ns": end,
                    "self_ns": self_ns}) + "\n")


def _resolve(target: Target):
    """(owner, attribute name, raw attribute) or None when gone."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner_name, _, name = target.attr.rpartition(".")
    owner = module
    if owner_name:
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type):
            return None
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(module, name, None)
    if raw is None:
        return None
    return owner, name, raw


def install_dispatch(recorder: Recorder) -> bool:
    """Wrap every handler later given to ``TcpTransport.register``."""
    found = _resolve(DISPATCH)
    if found is None:
        return False
    owner, name, register = found

    def traced_register(self, address, handler, *args, **kwargs):
        return register(self, address, recorder.wrap(DISPATCH.group, handler),
                        *args, **kwargs)

    traced_register.__wrapped__ = register
    setattr(owner, name, traced_register)
    return True


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Install wrappers for ``targets``; returns the groups unavailable.

    A target that no longer exists (renamed or deleted by a later
    change) is reported instead of failing the run.
    """
    unavailable: list[str] = []
    by_identity: dict[int, object] = {}
    for target in targets:
        found = _resolve(target)
        if found is None:
            unavailable.append(f"{target.group} ({target.module}.{target.attr})")
            continue
        owner, name, raw = found
        if isinstance(owner, type):
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = recorder.wrap(target.group, fn, target.nbytes_arg,
                                    target.count_only)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            for key, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, key, wrapped)
        elif callable(raw):
            by_identity[id(raw)] = (raw, recorder.wrap(
                target.group, raw, target.nbytes_arg, target.count_only))
        else:
            unavailable.append(f"{target.group} ({target.module}.{target.attr})")
    if by_identity:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                hit = by_identity.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
    return unavailable
