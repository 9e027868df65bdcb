"""Spans and counters recorded from outside the simulator.

The benchmark never edits the program it measures.  Instead, a
:class:`Tracer` replaces selected public functions and methods with
timing wrappers for the duration of a traced run and restores them
afterwards:

* per-cycle component methods (``step``/``commit`` of routers, NICs,
  controllers, cores) are aggregated into call counts and self time per
  layer -- a saturated 6x6 run makes millions of such calls, far too
  many to keep as individual spans;
* service calls are aggregated the same way, and in addition every
  submitted job keeps one span (keyed by its job id) whose children are
  the client calls made for it.

Self time is span time minus the time covered by nested spans on the
same thread, so the layer self times of a single-threaded run add up to
the traced wall time minus the benchmark's own glue.

``Engine.register`` resolves bound ``step``/``commit`` methods once, at
build time, so the wrappers must be installed before a system is built
to be seen at all; a system built after :meth:`Tracer.uninstall` runs
the original methods at full speed.

:class:`RunTimer` is the one hook the *untraced* runs keep: it times
each ``Engine.run`` call (one per simulated point) so that simulated
cycles per host second can be measured without tracing anything else.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Tuple

perf = time.perf_counter


class RunTimer:
    """Times every ``Engine.run`` call and keeps the engine it ran."""

    def __init__(self, on_first_run: Callable[[], None] = None,
                 clock: Callable[[], float] = perf) -> None:
        self.runs: List[Tuple[Any, float]] = []
        self._on_first_run = on_first_run
        self._clock = clock
        self._original = None

    def install(self) -> None:
        from repro.sim.engine import Engine
        original = self._original = Engine.run
        runs = self.runs

        def run(engine, *args, **kwargs):
            if self._on_first_run is not None:
                callback, self._on_first_run = self._on_first_run, None
                callback()
            clock = self._clock
            t0 = clock()
            try:
                return original(engine, *args, **kwargs)
            finally:
                runs.append((engine, clock() - t0))

        Engine.run = run

    def uninstall(self) -> None:
        from repro.sim.engine import Engine
        Engine.run = self._original

    def take(self) -> List[Tuple[Any, float]]:
        """(engine, seconds) of every run since the last take."""
        taken = list(self.runs)
        self.runs.clear()
        return taken


# (layer name, "module:Class" or "module", attribute names).  Component
# methods are wrapped only where the class itself defines them, so a
# subclass that inherits ``step`` is counted under its base's layer and
# no no-op ``commit`` is ever added to the engine's tick lists.
COMPONENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("noc.router", "repro.noc.router:Router"),
    ("nic.controller", "repro.nic.controller:NetworkInterface"),
    ("notification.network", "repro.notification.network:NotificationNetwork"),
    ("coherence.l2_controller", "repro.coherence.l2_controller:L2Controller"),
    ("coherence.dir_l2", "repro.coherence.dir_l2:DirectoryL2Controller"),
    ("coherence.directory", "repro.coherence.directory:DirectoryController"),
    ("cpu.core", "repro.cpu.core:TraceCore"),
    ("memory.controller", "repro.memory.controller:MemoryController"),
)

# Calls at layer boundaries: (layer, owner, attribute).  Module-level
# functions are patched in every module that imported them by name.
CALL_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine:Engine", "run"),
    ("experiments.builders.build", "repro.experiments.builders",
     "build_spec_system"),
    ("experiments.builders.collect", "repro.experiments.builders",
     "collect_spec_outcome"),
    ("api.document.load", "repro.api.document", "load_experiment"),
    ("api.document.load", "repro.serve.server", "experiment_from_dict"),
    ("api.document.envelope", "repro.api.document",
     "collect_experiment_result"),
    ("api.document.envelope", "repro.api.document", "envelope_bytes"),
    ("api.document.envelope", "repro.serve.jobs",
     "collect_experiment_result"),
    ("api.document.envelope", "repro.serve.jobs", "envelope_bytes"),
    ("experiments.cache.get", "repro.experiments.cache:LocalDirBackend",
     "get"),
    ("experiments.cache.put", "repro.experiments.cache:LocalDirBackend",
     "put"),
    ("serve.jobs.submit", "repro.serve.jobs:JobManager", "submit"),
    ("serve.scheduler.submit", "repro.serve.scheduler:PointScheduler",
     "submit"),
    ("api.client.submit", "repro.api.client:ServeClient",
     "submit_document"),
    ("api.client.wait", "repro.api.client:ServeClient", "wait"),
    ("api.client.result", "repro.api.client:ServeClient", "result_bytes"),
)


def _resolve(target: str):
    import importlib
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self) -> None:
        self.stack: List[float] = []
        # layer -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}


class Tracer:
    """Installs timing wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self.job_spans: Dict[str, Dict[str, Any]] = {}
        self.point_submitted: Dict[str, float] = {}
        self.point_spawned: Dict[str, float] = {}
        self.queue_waits: List[float] = []
        self.point_seconds: List[float] = []
        self.cache_gets = 0
        self.cache_hits = 0
        self.components = 0
        self._component_classes: Tuple[type, ...] = ()

    # -- per-thread aggregation -----------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    def _span(self, layer: str, fn: Callable) -> Callable:
        local = self._local
        new_state = self._state

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = state.agg.get(layer)
                if row is None:
                    row = state.agg[layer] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children

        return wrapper

    def layers(self) -> Dict[str, List[float]]:
        """layer -> [calls, total seconds, self seconds], all threads."""
        merged: Dict[str, List[float]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, total, own) in state.agg.items():
                row = merged.setdefault(layer, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return merged

    def reset(self) -> None:
        with self._states_lock:
            for state in self._states:
                state.agg.clear()
        with self._lock:
            self.job_spans.clear()
            self.point_submitted.clear()
            self.point_spawned.clear()
            self.queue_waits.clear()
            self.point_seconds.clear()
            self.cache_gets = self.cache_hits = 0
            self.components = 0

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        classes = []
        for layer, target in COMPONENT_LAYERS:
            cls = _resolve(target)
            classes.append(cls)
            for attr in ("step", "commit"):
                if attr in cls.__dict__:
                    self._patch(cls, attr,
                                self._span(f"{layer}.{attr}",
                                           cls.__dict__[attr]))
        self._component_classes = tuple(classes)
        for layer, target, attr in CALL_LAYERS:
            owner = _resolve(target)
            self._patch(owner, attr, self._span(layer, owner.__dict__[attr]))
        self._install_hooks()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_hooks(self) -> None:
        """Counting hooks that need the call's arguments or result."""
        from repro.api.client import ServeClient
        from repro.experiments.cache import LocalDirBackend
        from repro.experiments.procpool import SlotPool
        from repro.serve.jobs import JobManager
        from repro.serve.scheduler import PointScheduler
        from repro.sim.engine import Engine
        tracer = self

        register = Engine.register
        classes = self._component_classes

        def counting_register(engine, component):
            if isinstance(component, classes):
                tracer.components += 1
            return register(engine, component)

        self._patch(Engine, "register", counting_register)

        get = LocalDirBackend.get

        def counting_get(backend, fingerprint):
            payload = get(backend, fingerprint)
            with tracer._lock:
                tracer.cache_gets += 1
                tracer.cache_hits += payload is not None
            return payload

        self._patch(LocalDirBackend, "get", counting_get)

        scheduler_submit = PointScheduler.submit

        def timed_point_submit(scheduler, fingerprint, spec, callback):
            with tracer._lock:
                tracer.point_submitted.setdefault(fingerprint, perf())
            return scheduler_submit(scheduler, fingerprint, spec, callback)

        self._patch(PointScheduler, "submit", timed_point_submit)

        # SlotPool._spawn is the one private hook: it is the only place
        # where a queued point is known to enter a worker process.
        spawn = SlotPool._spawn

        def timed_spawn(pool, task, now):
            started = perf()
            with tracer._lock:
                tracer.point_spawned[task.key] = started
                submitted = tracer.point_submitted.pop(task.key, None)
                if submitted is not None:
                    tracer.queue_waits.append(started - submitted)
            return spawn(pool, task, now)

        self._patch(SlotPool, "_spawn", timed_spawn)

        pool_step = SlotPool.step

        def timed_step(pool):
            events = pool_step(pool)
            now = perf()
            with tracer._lock:
                for event in events:
                    if event[0] == "done":
                        spawned = tracer.point_spawned.pop(event[1], None)
                        if spawned is not None:
                            tracer.point_seconds.append(now - spawned)
            return events

        self._patch(SlotPool, "step", timed_step)

        manager_submit = JobManager.submit

        def linked_submit(manager, experiment):
            t0 = perf()
            job = manager_submit(manager, experiment)
            tracer._child(job.id, "serve.jobs.submit", t0, perf())
            return job

        self._patch(JobManager, "submit", linked_submit)

        for attr in ("submit_document", "wait", "result_bytes"):
            self._patch(ServeClient, attr,
                        self._client_span(attr, ServeClient.__dict__[attr]))

    def _client_span(self, attr: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(client, *args, **kwargs):
            t0 = perf()
            result = fn(client, *args, **kwargs)
            job_id = result["job"] if attr == "submit_document" else args[0]
            tracer._child(job_id, f"api.client.{attr}", t0, perf())
            return result

        return wrapper

    # -- job spans ----------------------------------------------------------

    def _child(self, job_id: str, name: str, start: float,
               end: float) -> None:
        with self._lock:
            span = self.job_spans.setdefault(
                job_id, {"id": job_id, "name": "job", "parent": None,
                         "start": start, "end": end, "children": []})
            span["start"] = min(span["start"], start)
            span["end"] = max(span["end"], end)
            span["children"].append({"name": name, "parent": job_id,
                                     "start": start, "end": end})
