"""Per-layer span tracing for the benchmark's traced run.

The traced run wraps each layer's entry points (``ENTRY_POINTS``) with
span recorders before the deployment is built, so bound methods captured
at construction (bus subscriptions, channel receivers) are the wrapped
ones too.  Nothing under ``src/`` changes: the wrappers live here.

A span's *self* time is its duration minus the time of the spans it
encloses; each layer's ``self_s`` is the sum over its spans, so the
layers' self times add up to at most the traced wall time.  Work done
inside a layer that is not itself an entry point is charged to the
nearest enclosing span.

Under the worker pool of the partitioned kernel the partitions run in
forked workers.  Each worker times every window it runs (the ``run``
command of ``repro.sim.parallel._worker_main``) and records its
per-layer self times per window.  The slowest worker of each window
sets the pace, so its layer times are the ones charged to the critical
path; ``sync`` keeps the rest of the coordinator's kernel time (pipe
waits, window bookkeeping, the faster workers' slack).
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (layer, label, module, qualified name).  The label names the entry
# point; per-label inclusive times and call counts are kept besides the
# per-layer self times.
ENTRY_POINTS = [
    ("sim", "sim.run", "repro.sim.engine", "Simulator.run"),
    ("sim", "sim.resume", "repro.sim.process", "Process._resume"),
    ("net", "net.send", "repro.net.link", "Link.send"),
    ("net", "net.serialised", "repro.net.link", "Link._serialised"),
    ("net", "net.deliver", "repro.net.link", "Link._deliver"),
    ("core", "core.request", "repro.core.runtime", "NodeRuntime.request"),
    ("core", "core.pin", "repro.core.runtime", "NodeRuntime.pin"),
    ("core", "core.unpin", "repro.core.runtime", "NodeRuntime.unpin"),
    ("core", "core.exec_op", "repro.core.runtime", "NodeRuntime.exec_op"),
    ("core", "core.finish_query", "repro.core.runtime", "NodeRuntime.finish_query"),
    ("core", "core.bat_message", "repro.core.runtime", "NodeRuntime.on_bat_message"),
    ("core", "core.request_message", "repro.core.runtime",
     "NodeRuntime.on_request_message"),
    ("core", "core.data_drop", "repro.core.runtime", "NodeRuntime.on_data_drop"),
    ("core", "core.resend", "repro.core.runtime", "NodeRuntime._resend_fired"),
    ("core", "core.local_fetch", "repro.core.runtime", "NodeRuntime._local_fetch_done"),
    ("core", "core.tick_load_all", "repro.core.ring", "DataCyclotron._tick_load_all"),
    ("core", "core.tick_loit", "repro.core.ring", "DataCyclotron._tick_loit"),
    ("core", "core.load_all", "repro.core.loader", "DataLoader.load_all"),
    ("core", "core.fetch_done", "repro.core.loader", "DataLoader._fetch_done"),
    ("ff", "ff.send_bat", "repro.core.fastforward", "FastForwarder.send_bat"),
    ("ff", "ff.send_request", "repro.core.fastforward", "FastForwarder.send_request"),
    ("ff", "ff.land", "repro.core.fastforward", "FastForwarder._complete"),
    ("ff", "ff.flush_bat", "repro.core.fastforward", "FastForwarder.flush_bat"),
    ("ff", "ff.flush_all", "repro.core.fastforward", "FastForwarder.flush_all"),
    ("ff", "ff.touch", "repro.core.fastforward", "Flight.touch"),
    ("events", "events.publish", "repro.events.bus", "Bus.publish"),
    ("dbms.parse", "dbms.parse", "repro.dbms.sql.parser", "parse"),
    ("dbms.compile", "dbms.plan", "repro.dbms.sql.planner", "plan_select"),
    ("dbms.compile", "dbms.optimize", "repro.dbms.optimizer", "dc_optimize"),
    ("dbms.compile", "dbms.compile", "repro.dbms.qpu.mal", "MalQpu.compile"),
    ("dbms.compile", "dbms.compile", "repro.dbms.qpu.kv", "KvQpu.compile"),
    ("dbms.compile", "dbms.compile", "repro.dbms.qpu.streaming",
     "StreamingAggQpu.compile"),
    ("dbms.estimate", "dbms.estimate", "repro.dbms.statistics.estimator",
     "QueryEstimator.estimate"),
    ("dbms.estimate", "dbms.estimate.record", "repro.dbms.statistics.estimator",
     "QueryEstimator.record"),
    ("dbms.execute", "dbms.execute", "repro.dbms.qpu.mal", "MalQpu.execute"),
    ("dbms.execute", "dbms.execute", "repro.dbms.qpu.kv", "KvQpu.execute"),
    ("dbms.execute", "dbms.execute", "repro.dbms.qpu.streaming",
     "StreamingAggQpu.execute"),
    ("dbms.dispatch", "dbms.dispatch", "repro.dbms.executor",
     "RingDatabase.submit_request"),
    ("frontdoor", "frontdoor.arrive", "repro.frontdoor.door", "FrontDoor._arrive"),
    ("frontdoor", "frontdoor.settle", "repro.frontdoor.door", "FrontDoor._on_finished"),
    ("frontdoor", "frontdoor.settle", "repro.frontdoor.door", "FrontDoor._on_failed"),
    ("frontdoor", "frontdoor.settle", "repro.frontdoor.door", "FrontDoor._on_shed"),
    ("multiring", "multiring.router", "repro.multiring.router", "CrossRingRouter.fetch"),
    ("multiring", "multiring.router", "repro.multiring.router",
     "CrossRingRouter._fetch_timeout"),
    ("multiring", "multiring.router", "repro.multiring.router", "CrossRingRouter._deliver"),
    ("multiring", "multiring.router", "repro.multiring.router", "CrossRingRouter._serve"),
    ("multiring", "multiring.router", "repro.multiring.router",
     "CrossRingRouter._serve_done"),
    ("multiring", "multiring.router", "repro.multiring.router",
     "CrossRingRouter.release_held"),
    ("multiring", "multiring.dispatch", "repro.multiring.federation",
     "RingFederation._dispatch"),
    ("multiring", "multiring.dispatch", "repro.multiring.federation",
     "RingFederation._note_done"),
    ("multiring", "multiring.catalog", "repro.multiring.catalog", "GlobalCatalog.home"),
    ("multiring", "multiring.catalog", "repro.multiring.catalog",
     "GlobalCatalog.maybe_home"),
    ("multiring", "multiring.catalog", "repro.multiring.catalog", "GlobalCatalog.move"),
    ("multiring", "multiring.partition_router", "repro.multiring.partition",
     "PartitionRouter.fetch"),
    ("multiring", "multiring.partition_router", "repro.multiring.partition",
     "PartitionRouter._fetch_timeout"),
    ("multiring", "multiring.partition_router", "repro.multiring.partition",
     "PartitionRouter.on_reply"),
    ("multiring", "multiring.partition_router", "repro.multiring.partition",
     "PartitionRouter.serve"),
    ("multiring.placement", "multiring.placement", "repro.multiring.placement",
     "PlacementManager._tick"),
    ("sync", "sync.kernel", "repro.sim.parallel", "ParallelKernel.run"),
    ("sync", "sync.kernel", "repro.sim.parallel", "ParallelKernel.finish"),
]

# the generator-returning entry points: each resume is one span
GENERATOR_ENTRY_POINTS = {"dbms.execute"}
# the compile entry points whose requests are tallied for repeat shares
COMPILE_LABEL = "dbms.compile"

LAYERS = (
    "sim", "net", "core", "ff", "events", "dbms.parse", "dbms.compile",
    "dbms.estimate", "dbms.execute", "dbms.dispatch", "frontdoor",
    "multiring", "multiring.placement", "sync",
)

_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")


def _request_key(request) -> str:
    """The text a plan cache would key on (SQL text or request repr)."""
    return request if isinstance(request, str) else repr(request)


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen: set = set()
        self._seen_shapes: set = set()
        self._stack: List[list] = []

    def reset(self) -> None:
        """Forget everything recorded so far (the closures keep the dicts)."""
        self.self_s.clear()
        self.inclusive_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._seen.clear()
        self._seen_shapes.clear()
        self._stack.clear()

    # ------------------------------------------------------------------
    def span(self, fn: Callable, layer: str, label: str) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        inclusive = self.inclusive_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf() - start
                stack.pop()
                self_s[layer] += total - frame[0]
                if stack:
                    stack[-1][0] += total
                inclusive[label] += total
                calls[label] += 1

        return traced

    def generator_span(self, fn: Callable, layer: str, label: str) -> Callable:
        """Wrap a generator function: every resume of it is one span."""
        step = self.span(lambda gen, method, value: getattr(gen, method)(value),
                         layer, label)
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[label + ".started"] += 1
            gen = fn(*args, **kwargs)
            method, value = "send", None
            while True:
                try:
                    yielded = step(gen, method, value)
                except StopIteration as stop:
                    return stop.value
                try:
                    value = yield yielded
                    method = "send"
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the inner generator
                    method, value = "throw", exc

        return traced

    def compile_span(self, fn: Callable, layer: str, label: str) -> Callable:
        """A span that also tallies repeated requests (plan-cache ceilings)."""
        inner = self.span(fn, layer, label)
        counts = self.counts
        seen = self._seen
        shapes = self._seen_shapes

        @functools.wraps(fn)
        def traced(qpu, request, *args, **kwargs):
            key = _request_key(request)
            if key in seen:
                counts["compile.repeats"] += 1
            seen.add(key)
            shape = _LITERAL.sub("?", key)
            if shape in shapes:
                counts["compile.shape_repeats"] += 1
            shapes.add(shape)
            if isinstance(request, str):
                counts["compile.sql"] += 1
            return inner(qpu, request, *args, **kwargs)

        return traced

    def count_result(self, fn: Callable, name: str) -> Callable:
        """Count calls of ``fn`` that return ``False`` under ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ok = fn(*args, **kwargs)
            if ok is False:
                counts[name] += 1
            return ok

        return counted

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; call before building the deployment."""
        # import everything first so every module-level alias of a
        # wrapped function exists when it is rebound
        modules = {name: importlib.import_module(name) for _, _, name, _ in ENTRY_POINTS}
        for layer, label, module_name, qualname in ENTRY_POINTS:
            module = modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if label in GENERATOR_ENTRY_POINTS:
                    wrapped = self.generator_span(original, layer, label)
                elif label == COMPILE_LABEL:
                    wrapped = self.compile_span(original, layer, label)
                else:
                    wrapped = self.span(original, layer, label)
                if qualname == "Link.send":
                    # DropTail drops are the sends that return False
                    wrapped = self.count_result(wrapped, "net.droptail_drops")
                setattr(cls, attr, wrapped)
            else:
                _replace_function(getattr(module, qualname),
                                  self.span(getattr(module, qualname), layer, label))

    def snapshot(self) -> List[float]:
        return [self.self_s.get(layer, 0.0) for layer in LAYERS]

    def export(self) -> Dict:
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _replace_function(original: Callable, wrapped: Callable) -> None:
    """Rebind a module-level function in every loaded module importing it."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


# ----------------------------------------------------------------------
# the worker pool of the partitioned kernel
# ----------------------------------------------------------------------
class _WindowTimer:
    """A pipe end that times each ``run`` command a pool worker serves and
    appends the worker's trace to its ``finish`` reply."""

    def __init__(self, conn, tracer: Tracer):
        self._conn = conn
        self._tracer = tracer
        self._start: Optional[float] = None
        self._before: Optional[List[float]] = None
        self._finishing = False
        self.windows: List[list] = []  # [busy_s, per-layer self deltas]

    def recv(self):
        cmd = self._conn.recv()
        if cmd[0] == "run":
            self._before = self._tracer.snapshot()
            self._start = time.perf_counter()
        self._finishing = cmd[0] == "finish"
        return cmd

    def send(self, obj) -> None:
        if self._start is not None:
            busy = time.perf_counter() - self._start
            after = self._tracer.snapshot()
            self.windows.append(
                [busy, [a - b for a, b in zip(after, self._before)]]
            )
            self._start = None
        if self._finishing:
            trace = {"windows": self.windows, **self._tracer.export()}
            obj = dict(obj)
            obj[_trace_key()] = trace
        self._conn.send(obj)

    def close(self) -> None:
        self._conn.close()


def _trace_key() -> tuple:
    """The key a worker's trace travels under in the ``finish`` reply;
    partition results are keyed by int, so it cannot collide."""
    return ("perfbench-trace", os.getpid())


def install_pool_tracing(tracer: Tracer) -> List[Dict]:
    """Make every pool worker record its windows and hand them back with
    its ``finish`` reply; returns the list the workers' traces land in."""
    import repro.sim.parallel as parallel

    worker_main = parallel._worker_main
    finish = parallel.ParallelKernel.finish
    traces: List[Dict] = []

    def traced_worker_main(conn, indices, partitions, lookahead) -> None:
        tracer.reset()  # the fork copied the coordinator's tallies
        worker_main(_WindowTimer(conn, tracer), indices, partitions, lookahead)

    def traced_finish(self):
        results = finish(self)
        for key in [k for k in results if isinstance(k, tuple)]:
            traces.append(results.pop(key))
        return results

    parallel._worker_main = traced_worker_main
    parallel.ParallelKernel.finish = traced_finish
    return traces


def fold_pool_windows(tracer_export: Dict, workers: List[Dict]) -> Dict:
    """Charge each window's slowest worker to its layers; ``sync`` keeps
    the coordinator's remaining kernel time.  Worker counts are summed."""
    result = {k: dict(v) for k, v in tracer_export.items()}
    if not workers:
        return result
    n_windows = len(workers[0]["windows"])
    if any(len(w["windows"]) != n_windows for w in workers):
        raise RuntimeError("pool workers disagree on the window count")
    self_s = defaultdict(float, result["self_s"])
    critical = 0.0
    for k in range(n_windows):
        busy, deltas = max((w["windows"][k] for w in workers), key=lambda x: x[0])
        critical += busy
        for layer, delta in zip(LAYERS, deltas):
            self_s[layer] += delta
    self_s["sync"] -= critical
    result["self_s"] = dict(self_s)
    for key in ("inclusive_s", "calls", "counts"):
        merged = Counter(result[key])
        for w in workers:
            merged.update(w[key])
        result[key] = dict(merged)
    result["pool_workers"] = len(workers)
    result["pool_windows"] = n_windows
    return result
