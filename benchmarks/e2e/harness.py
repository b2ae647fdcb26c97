"""Parent side: start the deployment, run the windows, compute metrics.

One invocation of a workload builds the whole deployment ``SETUPS``
times (spawned processes, keys, logins, warm-up), measures each build
for an equal share of the window and pools the results; ``setup_s`` is
the median build time.  The parent only orchestrates: it sends
commands down one pipe per child, samples the host's speed, and never
carries load.
"""

from __future__ import annotations

import math
import multiprocessing
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

from benchmarks.e2e import spec
from benchmarks.e2e.stats import percentile

#: seconds the parent waits for each kind of reply
_TIMEOUTS = {"ready": 120.0, "routes": 30.0, "link": 60.0, "login": 120.0,
             "mark": 30.0, "trace": 60.0, "plain": 120.0, "stop": 60.0}


class HarnessFault(RuntimeError):
    """The benchmark itself could not run or clean up (exit code 2)."""


@dataclass
class _Proc:
    role: str
    index: int
    process: multiprocessing.Process
    conn: object
    ready: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.role}{self.index}"


@dataclass
class Window:
    """One measured window: the driver's results and per-process marks."""

    run: dict
    before: dict[str, dict]
    after: dict[str, dict]
    #: parent's time.monotonic() at the start and end of the window
    span: tuple[float, float] = (0.0, 0.0)


class SpeedProbe:
    """The host's speed, sampled in the background while the benchmark runs.

    This host's per-thread speed swings by up to 2x over seconds (other
    tenants), which moves every time measurement with it.  Every
    ``PROBE_INTERVAL_S`` the probe thread times a fixed pure-Python loop
    in its own CPU time (``thread_time``), so waiting for a core does
    not count, only how fast the core ran.  ``factor()`` converts a
    time measured over an interval to the reference speed at which the
    loop takes ``REFERENCE_PROBE_MS``.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5.0)

    def _run(self) -> None:
        while not self._stop.wait(spec.PROBE_INTERVAL_S):
            began = time.thread_time_ns()
            acc = 0
            for i in range(spec.PROBE_LOOPS):
                acc = (acc * 31 + i) & 0xFFFFFFFF
            self.samples.append((time.monotonic(),
                                 (time.thread_time_ns() - began) / 1e6))

    def mean_ms(self, start: float = 0.0, end: float = math.inf) -> float:
        values = [ms for at, ms in list(self.samples) if start <= at <= end]
        if not values:
            raise HarnessFault("the speed probe took no sample in the interval")
        return statistics.fmean(values)

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured in [start, end] by this."""
        return spec.REFERENCE_PROBE_MS / self.mean_ms(start, end)


class World:
    """One running deployment of a workload."""

    def __init__(self, workload: spec.Workload, seed: int, *,
                 trace: bool = False, trace_dir: str = "") -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.trace_dir = trace_dir
        self.procs: list[_Proc] = []
        self.routes: dict[str, tuple[str, int]] = {}

    # -- process plumbing -----------------------------------------------

    def _spawn(self) -> None:
        from benchmarks.e2e.child import child_main

        ctx = multiprocessing.get_context("spawn")
        notify_recv, notify_send = ctx.Pipe(duplex=False)
        origin = time.monotonic()
        roles = [("broker", i) for i in range(self.workload.brokers)]
        roles += [("sink", 0), ("driver", 0)]
        child_ends = [notify_recv, notify_send]
        for role, index in roles:
            parent_end, child_end = ctx.Pipe()
            notify = {"sink": notify_send, "driver": notify_recv}.get(role)
            plan = spec.Plan(workload=self.workload.name, seed=self.seed,
                             role=role, index=index, trace=self.trace,
                             origin=origin, trace_dir=self.trace_dir)
            process = ctx.Process(target=child_main,
                                  args=(plan, child_end, notify),
                                  name=f"e2e-{role}{index}")
            process.start()
            child_ends.append(child_end)
            self.procs.append(_Proc(role, index, process, parent_end))
        for end in child_ends:
            end.close()

    def _recv(self, proc: _Proc, what: str, timeout: float):
        deadline = time.monotonic() + timeout
        while not proc.conn.poll(0.1):
            if not proc.process.is_alive():
                raise HarnessFault(f"{proc.label} exited (code "
                                   f"{proc.process.exitcode}) during {what}")
            if time.monotonic() > deadline:
                raise HarnessFault(f"{proc.label} did not answer {what} "
                                   f"within {timeout:.0f}s")
        try:
            status, reply = proc.conn.recv()
        except EOFError:
            raise HarnessFault(f"{proc.label} closed its pipe during {what}") from None
        if status != "ok":
            raise HarnessFault(f"{proc.label} failed during {what}:\n{reply}")
        return reply

    def call(self, proc: _Proc, command: str, argument=None,
             timeout: float | None = None):
        proc.conn.send((command, argument))
        return self._recv(proc, command, timeout or _TIMEOUTS[command])

    def broadcast(self, command: str, argument=None, procs=None) -> dict:
        procs = self.procs if procs is None else procs
        for proc in procs:
            proc.conn.send((command, argument))
        return {p.label: self._recv(p, command, _TIMEOUTS[command]) for p in procs}

    def role(self, name: str) -> list[_Proc]:
        return [p for p in self.procs if p.role == name]

    @property
    def driver(self) -> _Proc:
        return self.role("driver")[0]

    @property
    def sink(self) -> _Proc:
        return self.role("sink")[0]

    # -- lifecycle --------------------------------------------------------

    def start(self) -> float:
        """Bring the deployment up; returns the set-up time in seconds."""
        began = time.monotonic()
        self._spawn()
        for proc in self.procs:
            proc.ready = self._recv(proc, "ready", _TIMEOUTS["ready"])
            self.routes.update(proc.ready["routes"])
        driver_peers = self.driver.ready["info"]["peers"]
        self.broadcast("routes", {"routes": self.routes,
                                  "driver_peers": driver_peers})
        self.call(self.role("broker")[0], "link")
        self.call(self.sink, "login")
        self.call(self.driver, "login",
                  {"member_peers": self.sink.ready["info"]["peers"]})
        return time.monotonic() - began

    def window(self, seconds: float) -> Window:
        before = self.broadcast("mark", True)
        began = time.monotonic()
        run = self.call(self.driver, "run", seconds, timeout=seconds + 60.0)
        ended = time.monotonic()
        after = self.broadcast("mark", False)
        return Window(run, before, after, (began, ended))

    def stop(self) -> dict[str, dict]:
        """Stop driver, then sink, then brokers; check nothing is left.

        That order means every peer is gone before the brokers whose
        sessions and connections it holds.
        """
        finals = {self.driver.label: self.call(self.driver, "stop")}
        logins = finals[self.driver.label].get("logins", 0)
        logouts = finals[self.driver.label].get("logouts", 0)
        expect = ({"logins": logins, "logouts": logouts}
                  if self.workload.kind == "join" else None)
        finals[self.sink.label] = self.call(self.sink, "stop", expect)
        finals.update(self.broadcast("stop", None, self.role("broker")))
        leftovers = []
        for proc in self.procs:
            proc.process.join(10.0)
            if proc.process.is_alive():
                leftovers.append(f"process {proc.label} still running")
            proc.conn.close()
        self.kill()
        for address, (host, port) in self.routes.items():
            try:
                with socket.create_connection((host, port), timeout=0.5):
                    leftovers.append(f"{address} still listening on {port}")
            except OSError:
                pass
        if leftovers:
            raise HarnessFault("left behind: " + "; ".join(leftovers))
        return finals

    def kill(self) -> None:
        """Make sure no child outlives the world (error paths)."""
        for proc in self.procs:
            if proc.process.is_alive():
                proc.process.kill()
            proc.process.join(5.0)


# -- metrics ----------------------------------------------------------------


def _delta(window: Window, name: str) -> float:
    return sum(window.after[k]["counters"].get(name, 0)
               - window.before[k]["counters"].get(name, 0) for k in window.after)


def _delta_prefix(window: Window, prefix: str) -> float:
    total = 0
    for key, after in window.after.items():
        before = window.before[key]["counters"]
        total += sum(value - before.get(name, 0)
                     for name, value in after["counters"].items()
                     if name.startswith(prefix))
    return total


def _cpu_s(window: Window, role: str | None = None) -> float:
    return sum(window.after[k]["cpu_s"] - window.before[k]["cpu_s"]
               for k in window.after if role is None or k.startswith(role))


def merge_windows(windows: list[Window]) -> Window:
    """Pool the windows of several deployments into one.

    Counter and CPU deltas are sums, so summing the marks of every
    process label keeps each ``after - before`` exact.
    """
    run: dict = {"attempted": 0, "failed": 0, "wrong": 0, "latency_ms": [],
                 "size_ms": {}, "window_s": 0.0, "errors": []}
    for window in windows:
        for key in ("attempted", "failed", "wrong", "latency_ms", "window_s",
                    "errors"):
            run[key] += window.run[key]
        for size, values in window.run["size_ms"].items():
            run["size_ms"].setdefault(size, []).extend(values)

    def summed(side: str) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for window in windows:
            for label, mark in getattr(window, side).items():
                total = out.setdefault(label, {"counters": {}, "cpu_s": 0.0,
                                               "batch_frames": 0.0})
                total["cpu_s"] += mark["cpu_s"]
                total["batch_frames"] += mark["batch_frames"]
                for name, value in mark["counters"].items():
                    total["counters"][name] = total["counters"].get(name, 0) + value
        return out

    return Window(run, summed("before"), summed("after"))


def scale_window(window: Window, factor: float) -> Window:
    """A copy of ``window`` with every measured time multiplied by ``factor``."""
    run = dict(window.run)
    run["latency_ms"] = [ms * factor for ms in run["latency_ms"]]
    run["size_ms"] = {size: [ms * factor for ms in values]
                      for size, values in run["size_ms"].items()}
    run["window_s"] = run["window_s"] * factor

    def marks(side: dict[str, dict]) -> dict[str, dict]:
        return {label: {**mark, "cpu_s": mark["cpu_s"] * factor}
                for label, mark in side.items()}

    return Window(run, marks(window.before), marks(window.after), window.span)


def rss_mib(window: Window) -> float:
    """Peak RSS summed over the processes when ``window`` began.

    That is after the fixed warm-up and before the window, whose length
    in operations depends on the program's speed: the program keeps
    every event it emits (``EventBus.history``), so a peak read after
    the window would grow with throughput.
    """
    return sum(mark["maxrss_kib"] for mark in window.before.values()) / 1024


def end_to_end(window: Window, setups: list[float], rss: list[float],
               strict: bool = True) -> dict[str, float | None]:
    """The gated metrics of a (pooled) window.

    ``setups`` and ``rss`` hold one build time and one :func:`rss_mib`
    per deployment; each metric is their median.
    """
    run = window.run
    ok = len(run["latency_ms"])
    # A failed operation misses every latency limit.
    latencies = run["latency_ms"] + [spec.DEADLINE_S * 1e3] * run["failed"]

    def pct(p: float):
        try:
            return percentile(latencies, p)
        except ValueError:
            if strict:
                raise HarnessFault(
                    f"too few operations ({len(latencies)}) for p{p:g}; "
                    f"lengthen --seconds") from None
            return None

    return {
        "setup_s": statistics.median(setups),
        "p50_ms": pct(50),
        "p90_ms": pct(90),
        "ops_per_s": ok / run["window_s"],
        "cpu_ms_per_op": _cpu_s(window) * 1e3 / ok if ok else None,
        "peak_rss_mib": statistics.median(rss),
    }


def per_layer(window: Window, start: dict[str, dict], totals: dict[str, dict],
              n_procs: dict[str, int], factor: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of a traced window, per operation.

    ``start`` holds each process's marks after warm-up (for RSS).  Span
    times are multiplied by ``factor`` (the speed probe's conversion to
    the reference host speed).
    """
    ops = max(1, len(window.run["latency_ms"]))

    def self_ms(*groups: str) -> float:
        return factor * sum(t.get(g, [0, 0, 0, 0])[2]
                            for t in totals.values() for g in groups) / 1e6 / ops

    def calls(*groups: str) -> float:
        return sum(t.get(g, [0, 0, 0, 0])[0]
                   for t in totals.values() for g in groups) / ops

    enqueued = _delta(window, "net.queue.enqueued")
    batch_units = _delta(window, "net.batch.units")
    batch_frames = sum(window.after[k]["batch_frames"]
                       - window.before[k]["batch_frames"] for k in window.after)
    units = enqueued - batch_frames + batch_units
    out = {
        "net.tcp.frames_per_op": _delta(window, "net.tcp.frames_sent") / ops,
        "net.tcp.bytes_per_op": _delta(window, "net.tcp.bytes_sent") / ops,
        "net.batch.frames_per_unit": enqueued / units if units > 0 else 1.0,
        "net.tcp.handler_errors": _delta(window, "net.tcp.handler_errors"),
        "net.tcp.ms_per_op": self_ms("net.tcp.send", "net.tcp.request"),
        "net.framing.ms_per_op": self_ms("net.framing"),
        "net.dispatch.ms_per_op": self_ms("net.dispatch"),
        "jxta.codec.calls_per_op": calls("jxta.codec"),
        "jxta.codec.ms_per_op": self_ms("jxta.codec"),
        "xmllib.parse.ms_per_op": self_ms("xmllib.parse"),
        "xmllib.serialize.ms_per_op": self_ms("xmllib.serialize"),
        "xmllib.canonicalize.ms_per_op": self_ms("xmllib.canonicalize"),
        "wire.check.ms_per_op": self_ms("wire.check"),
        "wire.rejects_per_op": _delta_prefix(window, "wire.reject.") / ops,
        "crypto.rsa.private_per_op": _delta(window, "crypto.rsa.private_op") / ops,
        "crypto.rsa.public_per_op": _delta(window, "crypto.rsa.public_op") / ops,
        "crypto.rsa.verify_per_op": _delta(window, "crypto.rsa.verify_op") / ops,
        "crypto.rsa.ms_per_op": self_ms("crypto.rsa"),
        "crypto.aead.ms_per_op": self_ms("crypto.aead"),
        "crypto.aead.bytes_per_op": sum(
            t.get("crypto.aead", [0, 0, 0, 0])[3] for t in totals.values()) / ops,
        "crypto.construct.ms_per_op": self_ms(*CONSTRUCT_GROUPS),
        "crypto.envelope.calls_per_op": calls("crypto.envelope"),
        "crypto.signing.calls_per_op": calls("crypto.signing"),
        "crypto.resume.calls_per_op": calls("crypto.resume"),
        "crypto.groupkey.calls_per_op": calls("crypto.groupkey"),
        "crypto.sigcache.hits_per_op": _delta(window, "crypto.sigcache.hits") / ops,
        "crypto.sigcache.misses_per_op": _delta(window, "crypto.sigcache.misses") / ops,
        "dsig.calls_per_op": calls("dsig.sign", "dsig.verify"),
        "core.ms_per_op": self_ms(*CORE_GROUPS),
        "overlay.groupcast.delivered_per_op": _delta(window, "groupcast.delivered") / ops,
        "overlay.groupcast.relayed_per_op": _delta(window, "groupcast.relayed") / ops,
        "obs.registry.calls_per_op": calls("obs.registry"),
    }
    wall = window.run["window_s"]
    total_cpu = _cpu_s(window)
    for role in spec.ROLES:
        out[f"proc.cpu_share.{role}"] = _cpu_s(window, role) / total_cpu
    for role in spec.ROLES:
        out[f"proc.busy_frac.{role}"] = _cpu_s(window, role) / (wall * n_procs[role])
    for role in spec.ROLES:
        out[f"proc.rss_mib.{role}"] = sum(
            m["maxrss_kib"] for k, m in start.items() if k.startswith(role)) / 1024
    return out


CONSTRUCT_GROUPS = ("crypto.envelope", "crypto.signing", "crypto.resume",
                    "crypto.groupkey", "dsig.sign", "dsig.verify")
CORE_GROUPS = ("core.secure_connect", "core.secure_login",
               "core.secure_msg_peer", "core.secure_msg_peer_group")


def sim_p50_ms(workload: spec.Workload, seed: int) -> float:
    """The simulator's prediction for one operation of ``workload``.

    The same deployment on ``SimTransport`` with the LOOPBACK link
    model, in this process: an operation costs the wall time of the
    synchronous call (both ends run inside it) plus the modelled
    network time.
    """
    from benchmarks.e2e.roles import (
        BrokerRole, Completions, DriverRole, Provision, SinkRole)
    from repro.net import SimTransport
    from repro.sim import LOOPBACK, SimNetwork

    network = SimNetwork(link=LOOPBACK)
    net = SimTransport(network)
    if workload.linkq:
        net.configure_links()
    prov = Provision(workload, seed)
    brokers = [BrokerRole(prov, net, i) for i in range(workload.brokers)]
    brokers[0].link()
    completions = Completions()
    sink = SinkRole(prov, net, completions.notify, time.monotonic_ns)
    driver = DriverRole(prov, net, completions, time.monotonic_ns)
    sink.caller_peers = set(driver.info()["peers"].values())
    roles = [driver, sink, *brokers]
    try:
        sink.login()
        driver.login(sink.info()["peers"])
        samples = []
        for i in range(spec.SIM_OPS):
            network_before = network.clock.network_time
            began = time.perf_counter()
            result = driver.one_op(i % len(driver.callers))
            wall = time.perf_counter() - began
            if not result.ok or result.wrong:
                raise HarnessFault(f"simulated operation failed: {result}")
            samples.append((wall + network.clock.network_time
                            - network_before) * 1e3)
    finally:
        for role in roles:
            role.close()
    return statistics.median(samples)


def run_workload(workload: spec.Workload, seed: int, seconds: float, *,
                 trace: bool = False, quick: bool = False,
                 trace_dir: str = "") -> dict:
    """Everything one ``--workload`` invocation measures.

    Untraced, the deployment is built ``SETUPS`` times and each build is
    measured for an equal share of ``seconds``; the windows are pooled.
    Traced, one build runs an untraced half (the overhead baseline) and
    a traced half.  Every time is reported at the reference host speed
    (see :class:`SpeedProbe`); the raw values are printed beside.
    """
    setups: list[float] = []
    factors: list[float] = []
    windows: list[Window] = []
    finals: list[dict] = []
    plain = None
    builds = 1 if (trace or quick) else spec.SETUPS
    world = None
    with SpeedProbe() as probe:
        try:
            for build in range(builds):
                world = World(workload, seed, trace=trace, trace_dir=trace_dir)
                began = time.monotonic()
                setups.append(world.start())
                factors.append(probe.factor(began, time.monotonic()))
                if trace:
                    untraced = world.window(seconds / 2)
                    unavailable = world.broadcast("trace", True)
                    windows.append(world.window(seconds / 2))
                    totals = world.broadcast("trace", False)
                else:
                    windows.append(world.window(seconds / builds))
                if build == builds - 1 and workload.plain_callers and not quick:
                    began = time.monotonic()
                    plain = world.call(world.driver, "plain")
                    plain["factor"] = probe.factor(began, time.monotonic())
                finals.append(world.stop())
        finally:
            if world is not None:
                world.kill()
        if trace:
            began = time.monotonic()
            sim_ms = sim_p50_ms(workload, seed)
            sim_factor = probe.factor(began, time.monotonic())
    raw = merge_windows(windows)
    window = merge_windows([scale_window(w, probe.factor(*w.span))
                            for w in windows])
    rss = [rss_mib(w) for w in ([untraced] if trace else windows)]
    e2e = end_to_end(window, [s * f for s, f in zip(setups, factors)], rss,
                     strict=not quick)
    info: dict = {"host_ref_ms": probe.mean_ms(), "setups_s": setups}
    info.update({f"raw.{k}": v for k, v in end_to_end(
        raw, setups, rss, strict=False).items()})
    info.update(_informational(workload, window, finals, plain))
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace,
        "attempted": window.run["attempted"], "failed": window.run["failed"],
        "correct": not info["problems"],
        "info": info,
    }
    if not trace:
        result["metrics"] = e2e
        return result
    n_procs = {r: len(world.role(r)) for r in spec.ROLES}
    info["unavailable"] = sorted({g for gs in unavailable.values() for g in gs})
    traced_factor = probe.factor(*windows[0].span)
    result["metrics"] = per_layer(window, untraced.before, totals, n_procs,
                                  traced_factor)
    info["layers_by_role"] = _by_role(totals, window, traced_factor)
    base = end_to_end(scale_window(untraced, probe.factor(*untraced.span)),
                      setups, rss, strict=False)
    if base["cpu_ms_per_op"] and e2e["cpu_ms_per_op"]:
        info["trace_overhead_x"] = e2e["cpu_ms_per_op"] / base["cpu_ms_per_op"]
    info["socket_p50_ms"] = base["p50_ms"]
    info["sim_p50_ms"] = sim_ms * sim_factor
    return result


def _by_role(totals: dict[str, dict], window: Window, factor: float) -> dict:
    """Self ms per op of every traced group, split by process role."""
    ops = max(1, len(window.run["latency_ms"]))
    out: dict[str, dict[str, float]] = {}
    for label, groups in totals.items():
        role = label.rstrip("0123456789")
        for group, (calls, _total, self_ns, _nbytes) in groups.items():
            row = out.setdefault(group, {})
            if group == "obs.registry":
                row[role] = row.get(role, 0.0) + calls / ops
            else:
                row[role] = row.get(role, 0.0) + factor * self_ns / 1e6 / ops
    return out


def _informational(workload: spec.Workload, window: Window,
                   deployments: list[dict], plain: dict | None) -> dict:
    """Context printed beside the gated metrics, and the problem list."""
    run = window.run
    info: dict = {"samples": len(run["latency_ms"]),
                  "fail_frac": run["failed"] / max(1, run["attempted"])}
    if run["errors"]:
        info["errors"] = run["errors"]
    receivers = len(workload.members) if workload.kind == "cast" else 1
    if workload.sizes:
        info["goodput_kib_s"] = (sum(workload.sizes) * receivers
                                 * len(run["latency_ms"])
                                 / run["window_s"] / 1024)
    for size, values in sorted(run["size_ms"].items()):
        info[f"p50_ms.{_size_name(size)}"] = statistics.median(values)
    for role in spec.ROLES:
        info[f"cpu_ms_per_op.{role}"] = (_cpu_s(window, role) * 1e3
                                         / max(1, len(run["latency_ms"])))
    if plain is not None and plain["latency_ms"]:
        # The plain phase ran later, at its own host speed.
        scale = plain["factor"]
        if workload.kind == "join":
            info["overhead_x"] = (statistics.median(run["latency_ms"])
                                  / (statistics.median(plain["latency_ms"]) * scale))
        for size, values in sorted(plain["size_ms"].items()):
            name = _size_name(size)
            info[f"overhead_x.{name}"] = (info[f"p50_ms.{name}"]
                                          / (statistics.median(values) * scale))
    handler_errors = _delta(window, "net.tcp.handler_errors")
    rejects = _delta_prefix(window, "wire.reject.")
    info["net.tcp.handler_errors"] = handler_errors
    finals = [(label, final) for deployment in deployments
              for label, final in deployment.items()]
    info["teardown_logs"] = sum(f["teardown_logs"] for _, f in finals)
    # Wrong outputs make the run incorrect (exit 1).
    problems = []
    if run["wrong"]:
        problems.append(f"{run['wrong']} wrong outputs")
    # Program faults that did not change an output are counted and shown.
    faults = []
    for label, final in finals:
        problems += [f"{label}: {p}" for p in final["problems"]]
        if final.get("wrong_late"):
            problems.append(f"{label}: {final['wrong_late']} late wrong outputs")
        for key in ("thread_exceptions", "asyncio_errors", "rejected"):
            if final.get(key):
                faults.append(f"{label}: {final[key]} {key}")
        faults += [f"{label}: {s.splitlines()[0]}"
                   for s in final.get("fault_samples", ())
                   if not s.startswith("asyncio log (teardown)")]
    if handler_errors:
        faults.append(f"{handler_errors:.0f} handler errors")
    if rejects:
        faults.append(f"{rejects:.0f} wire rejects")
    info["problems"] = problems
    info["program_faults"] = faults
    return info


def _size_name(size: int) -> str:
    return f"{size // 1024}KiB" if size >= 1024 else f"{size}B"
