"""One OS process of the deployment: a broker, the sink or the driver.

The parent talks to each child over a ``multiprocessing`` pipe with
``(command, argument)`` messages and gets ``("ok", reply)`` or
``("error", traceback)`` back.  The sink reports deliveries straight to
the driver over a second pipe, stamped with ``time.monotonic_ns()``
where they happen (CLOCK_MONOTONIC is system-wide on Linux, so the
driver's send stamps and the sink's receive stamps compare).
"""

from __future__ import annotations

import logging
import os
import resource
import sys
import threading
import time
import traceback

from benchmarks.e2e import spec
from benchmarks.e2e.roles import (
    BrokerRole,
    Completions,
    DriverRole,
    OpResult,
    Provision,
    SinkRole,
)
from benchmarks.e2e.tracer import Recorder, install, install_dispatch


class Faults(logging.Handler):
    """Counts what would otherwise only scroll past on stderr.

    Unhandled thread exceptions (``threading.excepthook``) and asyncio
    errors (the event loop's default exception handler logs them on the
    ``asyncio`` logger).  Each one is still printed.
    """

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.thread_exceptions = 0
        self.asyncio_errors = 0
        self.teardown_logs = 0
        self.stopping = False
        self.samples: list[str] = []
        threading.excepthook = self._excepthook
        logger = logging.getLogger("asyncio")
        logger.addHandler(self)
        logger.propagate = False

    def _remember(self, text: str) -> None:
        if len(self.samples) < 5:
            self.samples.append(text)
        print(text, file=sys.stderr, flush=True)

    def _excepthook(self, args) -> None:
        self.thread_exceptions += 1
        self._remember("thread exception: " + "".join(traceback.format_exception(
            args.exc_type, args.exc_value, args.exc_traceback)))

    def emit(self, record: logging.LogRecord) -> None:
        if self.stopping:
            self.teardown_logs += 1
        else:
            self.asyncio_errors += 1
        self._remember(f"asyncio log ({'teardown' if self.stopping else 'run'}): "
                       f"{record.getMessage()}")


def snapshot(first: bool) -> dict:
    """CPU, peak RSS and program counters of this process.

    The registry is read outside the window: before the CPU reading at
    the start of a window, after it at the end.
    """
    from repro import obs

    def registry() -> dict:
        snap = obs.get_registry().snapshot()
        batch = snap["histograms"].get("net.batch.frames", {})
        return {"counters": snap["counters"],
                "batch_frames": batch.get("sum", 0.0)}

    out = registry() if first else {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(cpu_s=usage.ru_utime + usage.ru_stime,
               wall_s=time.monotonic(), maxrss_kib=usage.ru_maxrss)
    if not first:
        out.update(registry())
    return out


class Child:
    def __init__(self, plan: spec.Plan, conn, notify_conn, faults: Faults) -> None:
        from repro.net import TcpTransport

        self.plan = plan
        self.conn = conn
        self.notify_conn = notify_conn
        self.faults = faults
        self.workload = spec.WORKLOADS[plan.workload]
        self.recorder = Recorder() if plan.trace else None
        if self.recorder is not None:
            install_dispatch(self.recorder)
        self.net = TcpTransport(request_timeout=spec.DEADLINE_S)
        # Pin the WallClock origin before any endpoint exists: brokers
        # started earlier would otherwise issue credentials a later
        # process sees as "not yet valid".
        self.net.clock._t0 = plan.origin
        if self.workload.linkq:
            self.net.configure_links()
        prov = Provision(self.workload, plan.seed)
        self._notify_lock = threading.Lock()
        self._reader: threading.Thread | None = None
        self._reading = threading.Event()
        if plan.role == "broker":
            self.role = BrokerRole(prov, self.net, plan.index)
        elif plan.role == "sink":
            self.role = SinkRole(prov, self.net, self._notify, time.monotonic_ns)
        else:
            self.completions = Completions()
            self.role = DriverRole(prov, self.net, self.completions,
                                   time.monotonic_ns)
            self._reading.set()
            self._reader = threading.Thread(target=self._read_notifications,
                                            name="notify-reader", daemon=True)
            self._reader.start()

    # -- sink -> driver delivery reports ----------------------------------

    def _notify(self, *report) -> None:
        with self._notify_lock:
            self.notify_conn.send(report)

    def _read_notifications(self) -> None:
        while self._reading.is_set():
            if self.notify_conn.poll(0.05):
                try:
                    report = self.notify_conn.recv()
                except EOFError:
                    return
                self.completions.notify(*report)

    # -- command loop -----------------------------------------------------

    def ready(self) -> dict:
        return {"routes": {a: self.net.location(a) for a in self.role.addresses()},
                "info": self.role.info()}

    def serve(self) -> None:
        self.conn.send(("ok", self.ready()))
        while True:
            command, argument = self.conn.recv()
            reply = getattr(self, "cmd_" + command)(argument)
            self.conn.send(("ok", reply))
            if command == "stop":
                return

    def cmd_routes(self, argument: dict) -> None:
        local = set(self.role.addresses())
        for address, (host, port) in argument["routes"].items():
            if address not in local:
                self.net.add_route(address, host, port)
        if isinstance(self.role, SinkRole):
            self.role.caller_peers = set(argument["driver_peers"].values())

    def cmd_link(self, _argument) -> None:
        self.role.link()

    def cmd_login(self, argument) -> None:
        if isinstance(self.role, DriverRole):
            self.role.login(argument["member_peers"])
        else:
            self.role.login()

    def cmd_mark(self, first: bool) -> dict:
        return snapshot(first)

    def cmd_run(self, seconds: float) -> dict:
        role = self.role
        begin = time.monotonic_ns()
        results = role.loop(role.one_op, len(role.callers),
                            until_ns=begin + int(seconds * 1e9))
        end = time.monotonic_ns()
        return summarize(results, begin, end)

    def cmd_plain(self, _argument) -> dict:
        role = self.role
        n = len(role.plain_callers)
        role.loop(role.one_plain_op, n, ops=1)
        begin = time.monotonic_ns()
        results = role.loop(role.one_plain_op, n,
                            ops=spec.PLAIN_OPS[self.workload.name])
        return summarize(results, begin, time.monotonic_ns())

    def cmd_trace(self, on: bool):
        if on:
            unavailable = install(self.recorder)
            self.recorder.reset()
            self.recorder.active = True
            return unavailable
        self.recorder.active = False
        return self.recorder.snapshot()

    def cmd_stop(self, expect: dict | None) -> dict:
        role = self.role
        problems = []
        if isinstance(role, SinkRole) and expect:
            problems = role.check_observers(expect["logins"], expect["logouts"])
        final = {"problems": problems,
                 "rejected": getattr(role, "rejected", 0)}
        if isinstance(role, DriverRole):
            final.update(logins=role.logins, logouts=role.logouts,
                         late=self.completions.late,
                         wrong_late=self.completions.wrong)
        self.faults.stopping = True
        if not isinstance(role, BrokerRole):
            role.logout()
        role.close()
        self.net.close()
        self._reading.clear()
        if self._reader is not None:
            self._reader.join(1.0)
        if self.recorder is not None and self.plan.trace_dir:
            self.recorder.write_spans(
                os.path.join(self.plan.trace_dir,
                             f"{self.plan.workload}.{self.plan.role}"
                             f"{self.plan.index}.jsonl"),
                {"workload": self.plan.workload, "role": self.plan.role,
                 "index": self.plan.index, "pid": os.getpid()})
        usage = resource.getrusage(resource.RUSAGE_SELF)
        final.update(maxrss_kib=usage.ru_maxrss,
                     thread_exceptions=self.faults.thread_exceptions,
                     asyncio_errors=self.faults.asyncio_errors,
                     teardown_logs=self.faults.teardown_logs,
                     fault_samples=self.faults.samples)
        return final


def summarize(results: list[list[OpResult]], begin_ns: int,
              end_ns: int) -> dict:
    """Flatten per-caller results into what the parent reports."""
    flat = [r for caller in results for r in caller]
    ok = [r for r in flat if r.ok]
    sizes: dict[int, list[float]] = {}
    for r in ok:
        for size, ns in r.sizes:
            sizes.setdefault(size, []).append(ns / 1e6)
    return {
        "attempted": len(flat),
        "failed": len(flat) - len(ok),
        "wrong": sum(r.wrong for r in flat),
        "latency_ms": [r.latency_ns / 1e6 for r in ok],
        "size_ms": sizes,
        "window_s": (end_ns - begin_ns) / 1e9,
        "errors": [r.error for r in flat if not r.ok][:5],
    }


def child_main(plan: spec.Plan, conn, notify_conn) -> None:
    """Process entry point (``multiprocessing`` spawn target)."""
    faults = Faults()
    try:
        Child(plan, conn, notify_conn, faults).serve()
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
        raise
    finally:
        conn.close()
        if notify_conn is not None:
            notify_conn.close()
