"""One workload in one fresh process (started by ``run.py``).

Modes:

* ``setup``   -- start up as the workload would, print ``READY`` at the
  moment the first simulated cycle is due (simulation workloads) or the
  frontend answers its health check (``sweep-service``), and exit;
* ``measure`` -- the same, then run the workload untraced for
  ``--seconds`` and print one JSON line of raw measurements;
* ``trace``   -- alternate untraced and traced passes of the same work
  and print one JSON line of per-layer measurements;
* ``frontend`` -- (``sweep-service`` only) run a ``repro serve`` frontend
  for a measuring process, which drives it over stdin.

Only the program's public entry points are called: ``load_experiment``/
``run_experiment``/``envelope_bytes`` for the simulation workloads
(which run ``build_spec_system``/``collect_spec_outcome`` in-process),
``serve`` and ``ServeClient`` for the service.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads as wl
from hostspeed import REFERENCE_RATE, HostSampler, calibrate, trimmed_mean
from tracer import RunTimer, Tracer

perf = time.perf_counter

# Fixed job count of each service pass in trace mode: the untraced and
# traced passes must do the same work for their wall times to compare.
TRACE_SERVICE_JOBS = 120
# The frontend keeps every finished job, so its memory grows with the
# jobs served, and point workers fork from it; peak RSS is read when
# this many jobs have finished, so that a faster service is not charged
# for serving more jobs.
RSS_AT_JOBS = 200
JOB_TIMEOUT_S = 60.0
# How often the service's clients pause so that host speed can be
# sampled while the service is idle.
SERVICE_SAMPLE_EVERY_S = 1.0


def _ready() -> None:
    print("READY", flush=True)


class _SetupDone(BaseException):
    """Raised at the end of set-up in ``setup`` mode to stop the run."""


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------

class SimRunner:
    """Cold and warm run-file executions of one workload document."""

    def __init__(self, workload: str, seed: int, tmp: Path,
                 timer: RunTimer, clock) -> None:
        self.tmp = tmp
        self.timer = timer
        self.clock = clock
        self.doc_path = tmp / "document.json"
        self.doc_path.write_text(json.dumps(wl.sim_document(workload, seed)),
                                 encoding="utf-8")
        self.expected_ops = wl.sim_ops(workload)
        self.reps = 0

    def _job(self, cache_dir: Path):
        from repro.api import document
        t0 = self.clock()
        experiment = document.load_experiment(self.doc_path)
        result = document.run_experiment(experiment, jobs=1,
                                         cache=str(cache_dir))
        document.envelope_bytes(result.payload())
        return self.clock() - t0, result

    def rep(self) -> Dict[str, Any]:
        """One cold run (empty cache: simulates) and its warm re-runs."""
        self.reps += 1
        cache_dir = self.tmp / f"cache-{self.reps}"
        out: Dict[str, Any] = {"attempted": 1, "failed": 0, "errors": [],
                               "warm_s": []}
        try:
            try:
                cold_s, result = self._job(cache_dir)
            except Exception as exc:
                out["failed"] = 1
                out["errors"].append(f"cold run: {exc!r}")
                return out
            runs = self.timer.take()
            payload = result.results[0].payload()
            out.update(cold_s=cold_s, run_s=sum(run[1] for run in runs),
                       cycles=payload["runtime"],
                       digest=wl.outcome_digest(payload),
                       kernel=runs[-1][0].kernel_accounting(),
                       stats=payload["stats"])
            problem = self._check_cold(payload, len(runs))
            if problem:
                out["failed"] = 1
                out["errors"].append(problem)
            for _ in range(wl.WARM_RERUNS):
                out["attempted"] += 1
                try:
                    warm_s, warm = self._job(cache_dir)
                except Exception as exc:
                    out["failed"] += 1
                    out["errors"].append(f"warm run: {exc!r}")
                    continue
                if warm.cache_stats != {"hits": 1, "misses": 0} \
                        or warm.results[0].payload() != payload:
                    out["failed"] += 1
                    out["errors"].append(
                        f"warm run differs from the cold run "
                        f"(cache {warm.cache_stats})")
                out["warm_s"].append(warm_s)
            return out
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _check_cold(self, payload: Dict[str, Any], engine_runs: int
                    ) -> Optional[str]:
        if engine_runs != 1:
            return f"expected one engine run, saw {engine_runs}"
        if payload["progress"] != 1.0 \
                or payload["completed_ops"] != self.expected_ops:
            return (f"run did not finish: progress {payload['progress']}, "
                    f"{payload['completed_ops']}/{self.expected_ops} ops")
        return None


def run_canary(workload: str, tmp: Path, timer: RunTimer
               ) -> Dict[str, Any]:
    """Simulate the workload's canary document once, outside any timed
    window, and return its outcome (or the error it raised)."""
    from repro.api import document
    path = tmp / "canary.json"
    path.write_text(json.dumps(wl.canary_document(workload)),
                    encoding="utf-8")
    try:
        result = document.run_experiment(document.load_experiment(path),
                                         jobs=1, cache=False)
    except Exception as exc:
        return {"error": repr(exc)}
    finally:
        timer.take()
    payload = result.results[0].payload()
    return {"cycles": payload["runtime"],
            "digest": wl.outcome_digest(payload)}


def _sim_layers(tracer: Tracer, rep: Dict[str, Any], wall: float
                ) -> Dict[str, float]:
    """Per-layer metrics of one traced simulation rep."""
    layers = tracer.layers()

    def calls(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[0]

    def own(*names: str) -> float:
        return sum(layers.get(name, [0, 0.0, 0.0])[2] for name in names)

    def comp(layer: str) -> float:
        return own(f"{layer}.step", f"{layer}.commit")

    stats = rep["stats"]

    def stat(name: str) -> float:
        return float(stats.get(name, 0.0))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    kernel = rep["kernel"]
    ticks = kernel["ticks_executed"]
    step_calls = sum(calls(f"{layer}.step") for layer in (
        "noc.router", "nic.controller", "notification.network",
        "coherence.l2_controller", "coherence.dir_l2",
        "coherence.directory", "cpu.core", "memory.controller"))
    flits = stat("noc.flits.transmitted")
    packets = stat("nic.packets_injected")
    la = stat("noc.la.granted") + stat("noc.la.denied") \
        + stat("noc.la.lost_arbitration")
    dir_lookups = stat("dir.cache_hits") + stat("dir.cache_misses")
    l2_lookups = stat("l2.hits") + stat("l2.misses")
    metrics = {
        "noc.router.self_s": comp("noc.router"),
        "noc.router.steps": calls("noc.router.step"),
        "noc.router.flits": flits,
        "noc.router.us_per_flit": share(comp("noc.router") * 1e6, flits),
        "noc.router.bypass_share": share(
            stat("noc.router.bypassed"),
            stat("noc.router.bypassed") + stat("noc.router.buffered")),
        "noc.router.la_grant_share": share(stat("noc.la.granted"), la),
        "sim.engine.self_s": own("sim.engine"),
        "sim.engine.ticks": ticks,
        "sim.engine.ff_share": share(kernel["cycles_fast_forwarded"],
                                     kernel["cycles"]),
        "sim.engine.awake_share": share(step_calls,
                                        tracer.components * ticks),
        "nic.controller.self_s": comp("nic.controller"),
        "nic.controller.steps": calls("nic.controller.step"),
        "nic.controller.packets": packets,
        "nic.controller.us_per_packet": share(
            comp("nic.controller") * 1e6, packets),
        "nic.controller.ordering_wait_cycles": round(
            stat("nic.ordering_wait.count") * stat("nic.ordering_wait.mean")),
        "notification.network.self_s": comp("notification.network"),
        "notification.network.steps": calls("notification.network.step"),
        "notification.network.windows_nonempty":
            stat("notification.windows_nonempty"),
        "coherence.l2_controller.self_s": comp("coherence.l2_controller"),
        "coherence.l2_controller.steps":
            calls("coherence.l2_controller.step"),
        "coherence.l2_controller.miss_share": share(stat("l2.misses"),
                                                    l2_lookups),
        "coherence.l2_controller.miss_latency_cycles":
            stat("l2.miss_latency.mean"),
        "coherence.dir_l2.self_s": comp("coherence.dir_l2"),
        "coherence.directory.self_s": comp("coherence.directory"),
        "coherence.directory.hit_share": share(stat("dir.cache_hits"),
                                               dir_lookups),
        "cpu.core.self_s": comp("cpu.core"),
        "cpu.core.steps": calls("cpu.core.step"),
        "cpu.core.ops": stat("core.ops_completed"),
        "cpu.core.stall_cycles": stat("core.stalls.outstanding"),
        "memory.controller.self_s": comp("memory.controller"),
        "memory.controller.dram_reads": stat("mc.dram_reads"),
        "experiments.builders.build_s": own("experiments.builders.build"),
        "experiments.builders.collect_s":
            own("experiments.builders.collect"),
        "api.document.load_s": own("api.document.load"),
        "api.document.envelope_s": own("api.document.envelope"),
        "experiments.cache.get_s": own("experiments.cache.get"),
        "experiments.cache.put_s": own("experiments.cache.put"),
        "experiments.cache.hit_share": share(tracer.cache_hits,
                                             tracer.cache_gets),
    }
    self_total = sum(row[2] for row in layers.values())
    metrics["trace.remainder_s"] = wall - self_total
    return metrics


def run_sim(args, tmp: Path) -> Optional[Dict[str, Any]]:
    def stop_at_first_cycle() -> None:
        _ready()
        raise _SetupDone()

    # Traced runs compare traced with untraced wall time and need no
    # host-speed index; measured runs take sampling time out of every
    # timing through the sampler's clock.
    sampler = HostSampler() if args.mode == "measure" else None
    clock = sampler.clock if sampler is not None else perf
    timer = RunTimer(on_first_run=stop_at_first_cycle
                     if args.mode == "setup" else _ready, clock=clock)
    timer.install()
    runner = SimRunner(args.workload, args.seed, tmp, timer, clock)
    if args.mode == "setup":
        try:
            runner.rep()
        except _SetupDone:
            pass
        return None

    tracer = Tracer() if args.mode == "trace" else None
    reps: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    if sampler is not None:
        sampler.start()
    start = clock()
    while True:
        pair_start = clock()
        reps.append(runner.rep())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t0 = perf()
                rep = runner.rep()
                wall = perf() - t0
            finally:
                tracer.uninstall()
            if "digest" in rep:
                rep["layers"] = _sim_layers(tracer, rep, wall)
                rep["wall_s"] = wall
            traced.append(rep)
        now = clock()
        # A trace run does not start an untraced/traced pair that would
        # end past the window: one saturated pair takes about 15 s, and
        # the whole invocation must stay well inside its time limit.
        reserve = now - pair_start if tracer is not None else 0.0
        if now - start + reserve >= args.seconds:
            break
    window = clock() - start
    out: Dict[str, Any] = {
        "kind": "sim",
        "window_s": window,
        "reps": [{k: v for k, v in rep.items()
                  if k not in ("stats", "kernel", "layers")}
                 for rep in reps],
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
    }
    if tracer is not None:
        out["traced"] = [{k: v for k, v in rep.items()
                          if k not in ("stats", "kernel")}
                         for rep in traced]
    if sampler is not None:
        sampler.stop()
        out["host_index"] = sampler.index()
        out["host_samples"] = len(sampler.samples)
    out["canary"] = run_canary(args.workload, tmp, timer)
    return out


# ---------------------------------------------------------------------------
# The sweep service
# ---------------------------------------------------------------------------
# The frontend runs in its own process, as ``repro serve`` does, so the
# clients' threads never queue behind the frontend's threads for the
# interpreter lock.  It is driven over stdin: ``rss`` asks for its peak
# RSS so far, ``stop`` (or end of input) stops it and asks for a final
# JSON report.

def _read_command() -> str:
    """One line from stdin, read unbuffered: a thread blocked inside
    ``sys.stdin`` would hold its lock across the fork of a point worker,
    and the worker would hang closing its copy of ``sys.stdin``."""
    line = b""
    while not line.endswith(b"\n"):
        chunk = os.read(0, 1)
        if not chunk:
            break
        line += chunk
    return line.decode().strip()


def run_frontend(args, tmp: Path) -> Dict[str, Any]:
    from repro.serve import serve
    from repro.api.client import ServeClient
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    workers = max(1, min(wl.SERVICE_WORKERS, os.cpu_count() or 1))
    server = serve(str(tmp / "cache"), port=0, workers=workers)
    server.start()
    try:
        ServeClient(server.url).health()
        print(f"READY {server.url}", flush=True)
        while _read_command() == "rss":
            print(json.dumps({
                "frontend_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
                "worker_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN)}),
                flush=True)
        scheduler = server.service.scheduler
        out: Dict[str, Any] = {"dispatched": scheduler.dispatched,
                               "spawned": scheduler.spawned,
                               "workers": workers}
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["point_seconds"] = tracer.point_seconds
        out["queue_waits"] = tracer.queue_waits
        out["cache_gets"] = tracer.cache_gets
        out["cache_hits"] = tracer.cache_hits
        out["job_spans"] = tracer.job_spans
    return out


class Frontend:
    """A frontend process with a fresh cache directory."""

    def __init__(self, args, tmp: Path, traced: bool) -> None:
        import subprocess
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--mode", "frontend",
                   "--tmp", str(tmp)] + (["--traced"] if traced else [])
        started = perf()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if not line or line[0] != "READY":
            self.close()
            raise RuntimeError("the frontend did not start")
        self.setup_s = perf() - started
        self.url = line[1]

    def rss_mb(self) -> Dict[str, float]:
        """Peak RSS so far of the frontend and of its point workers."""
        self.proc.stdin.write("rss\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> Dict[str, Any]:
        """Stop the frontend and return its final report."""
        try:
            rest, _ = self.proc.communicate("stop\n", timeout=JOB_TIMEOUT_S)
        finally:
            self.close()
        return json.loads(rest.splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _calibrate_each_cpu(per_cpu: int = 5) -> List[float]:
    """Host-speed samples taken on every CPU this process may use: the
    frontend, its workers and the clients spread over all of them, and
    one CPU can be slowed while another is not."""
    allowed = os.sched_getaffinity(0)
    samples: List[float] = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            samples += [calibrate() for _ in range(per_cpu)]
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def drive(frontend: Frontend, documents, clients: int,
          deadline: Optional[float], job_limit: Optional[int],
          sample_every: Optional[float] = None) -> Dict[str, Any]:
    """Closed-loop clients: each submits its next document only after
    the envelope of the previous one has been downloaded.

    With *sample_every*, the clients pause that often: once neither has
    a job in flight, the service is idle (a job finishes only when all
    its points have), and this thread samples the host's speed without
    competing with it.  Pauses are left out of the reported wall time.
    """
    from repro.api.client import ServeClient
    cond = threading.Condition()
    records: List[Dict[str, Any]] = []
    # Envelopes by SHA-256: equal documents give equal envelopes, so one
    # copy each is kept.
    envelopes: Dict[str, bytes] = {}
    state = {"issued": 0, "pause": False, "idle": 0, "exited": 0}
    rss: List[Dict[str, float]] = []

    def client_loop() -> None:
        client = ServeClient(frontend.url, timeout=JOB_TIMEOUT_S)
        while True:
            with cond:
                if state["pause"]:
                    state["idle"] += 1
                    cond.notify_all()
                    cond.wait_for(lambda: not state["pause"])
                    state["idle"] -= 1
                if (deadline is not None and perf() >= deadline) or \
                        (job_limit is not None
                         and state["issued"] >= job_limit):
                    state["exited"] += 1
                    cond.notify_all()
                    return
                state["issued"] += 1
                indices, document = next(documents)
            record: Dict[str, Any] = {"indices": indices}
            t0 = perf()
            try:
                job = client.submit_document(document)["job"]
                final = client.wait(job, timeout=JOB_TIMEOUT_S)
                if final["state"] != "done":
                    raise RuntimeError(f"job {job} {final['state']}: "
                                       f"{final.get('error')}")
                envelope = client.result_bytes(job)
            except Exception as exc:
                record["error"] = repr(exc)
            record["end"] = perf()
            record["latency_s"] = record["end"] - t0
            with cond:
                if "error" not in record:
                    key = hashlib.sha256(envelope).hexdigest()
                    envelopes.setdefault(key, envelope)
                    record["envelope"] = key
                records.append(record)
                if len(records) == RSS_AT_JOBS:
                    rss.append(frontend.rss_mb())

    start = perf()
    threads = [threading.Thread(target=client_loop, daemon=True)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    samples: List[float] = []
    paused = 0.0
    while sample_every is not None:
        with cond:
            if cond.wait_for(lambda: state["exited"] == clients,
                             timeout=sample_every):
                break
            state["pause"] = True
            quiet = cond.wait_for(
                lambda: state["idle"] + state["exited"] == clients,
                timeout=JOB_TIMEOUT_S)
            t0 = perf()
            if quiet:
                samples += _calibrate_each_cpu()
            paused += perf() - t0
            state["pause"] = False
            cond.notify_all()
    for thread in threads:
        thread.join(timeout=JOB_TIMEOUT_S * 3)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("service clients did not finish")
    if not rss:
        rss.append(frontend.rss_mb())
    return {"records": records, "envelopes": envelopes, "rss": rss[0],
            "host_samples": samples,
            "wall_s": max((r["end"] for r in records), default=start)
            - start - paused}


def _reference(records: List[Dict[str, Any]], timer: RunTimer
               ) -> Dict[str, Any]:
    """In-process results for every point the service returned, computed
    after the timed window, plus the host speed of simulating its 3x3
    points.  Those are the nine 3x3 shapes at many seeds, in about equal
    shares whatever the seed and the number of fresh points, so their
    speed does not depend on the mix a run happened to draw."""
    from repro.api.document import experiment_from_dict, run_experiment
    touched = sorted({i for record in records for i in record["indices"]})
    experiment = experiment_from_dict(
        wl.points_document("perfbench-reference", touched))
    timer.take()
    result = run_experiment(experiment, jobs=1, cache=False)
    runs = timer.take()
    if len(runs) != len(touched):
        raise RuntimeError(f"reference pass: {len(runs)} engine runs for "
                           f"{len(touched)} points")
    payloads = {key: wl.without_fingerprint(r.payload())
                for key, r in zip(touched, result.results)}
    small = [(payloads[key]["runtime"], seconds)
             for key, (_engine, seconds) in zip(touched, runs)
             if wl.point(key)["config"] == "m3"]
    seconds = sum(s for _c, s in small)
    return {"payloads": payloads, "sim_points": len(small),
            "sim_seconds": seconds,
            "sim_cycles_per_s": sum(c for c, _s in small) / seconds}


def _check_records(run: Dict[str, Any],
                   payloads: Dict[int, Dict[str, Any]]) -> List[str]:
    """Mark each record ok/hit and return the error messages."""
    errors = []
    parsed: Dict[str, Dict[str, Any]] = {}
    for record in run["records"]:
        record["ok"] = False
        if "error" in record:
            errors.append(record["error"])
            continue
        key = record["envelope"]
        if key not in parsed:
            parsed[key] = json.loads(run["envelopes"][key])
        envelope = parsed[key]
        results = envelope["results"]
        cache = envelope.get("cache", {})
        indices = record["indices"]
        if len(results) != len(indices) \
                or cache.get("hits", 0) + cache.get("misses", 0) \
                != len(indices):
            errors.append(f"envelope shape mismatch: {len(results)} "
                          f"results, cache {cache}")
            continue
        bad = [i for i, result in zip(indices, results)
               if wl.without_fingerprint(result) != payloads[i]]
        if bad:
            errors.append(f"pool points {bad}: service payload differs "
                          f"from the in-process result")
            continue
        record["ok"] = True
        record["hit"] = cache["misses"] == 0
    return errors


def _service_layers(client: Tracer, served: Dict[str, Any],
                    requested: int) -> Dict[str, float]:
    layers = served["layers"]
    for name, row in client.layers().items():
        layers.setdefault(name, row)

    def own(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[2]

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    submits = layers.get("serve.scheduler.submit", [0])[0]
    dispatched, spawned = served["dispatched"], served["spawned"]
    return {
        "experiments.procpool.spawns": spawned,
        "experiments.procpool.point_s": median(served["point_seconds"]),
        "serve.scheduler.queue_wait_s": median(served["queue_waits"]),
        "serve.scheduler.dispatched": dispatched,
        "serve.scheduler.coalesced": submits - dispatched,
        "serve.scheduler.precheck_recalls": dispatched - spawned,
        "experiments.cache.get_s": own("experiments.cache.get"),
        "experiments.cache.put_s": own("experiments.cache.put"),
        "experiments.cache.hit_share":
            served["cache_hits"] / served["cache_gets"]
            if served["cache_gets"] else 0.0,
        "serve.jobs.submit_s": own("serve.jobs.submit"),
        "api.document.load_s": own("api.document.load"),
        "api.document.envelope_s": own("api.document.envelope"),
        "api.client.wait_s": own("api.client.wait"),
        "serve.points.reused_share":
            1.0 - dispatched / requested if requested else 0.0,
    }


def _merge_job_spans(client: Tracer, served: Dict[str, Any]
                     ) -> List[Dict[str, Any]]:
    """One span per job: the client's, with the frontend's spans for the
    same job id added as children (their clock is the frontend's)."""
    spans = {job: dict(span, children=list(span["children"]))
             for job, span in client.job_spans.items()}
    for job, span in served["job_spans"].items():
        if job in spans:
            spans[job]["children"] += [dict(child, clock="frontend")
                                       for child in span["children"]]
    return sorted(spans.values(), key=lambda span: span["start"])


def _summarise(run: Dict[str, Any], served: Dict[str, Any]
               ) -> Dict[str, Any]:
    records = run["records"]
    return {
        "wall_s": run["wall_s"],
        "latencies": [r["latency_s"] for r in records if r["ok"]],
        "hit_latencies": [r["latency_s"] for r in records
                          if r["ok"] and r["hit"]],
        "miss_latencies": [r["latency_s"] for r in records
                           if r["ok"] and not r["hit"]],
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "points": sum(len(r["indices"]) for r in records),
        "dispatched": served["dispatched"],
        "spawned": served["spawned"],
    }


def run_service(args, tmp: Path) -> Dict[str, Any]:
    clients = max(1, min(wl.SERVICE_CLIENTS, os.cpu_count() or 1))
    reference_sampler = HostSampler()
    timer = RunTimer(clock=reference_sampler.clock)
    timer.install()
    out: Dict[str, Any] = {"kind": "service", "clients": clients}
    passes = []
    if args.mode == "measure":
        frontend = Frontend(args, tmp / "untraced", traced=False)
        out["setup_s"] = frontend.setup_s
        _ready()
        try:
            run = drive(frontend, wl.service_documents(args.seed), clients,
                        deadline=perf() + args.seconds, job_limit=None,
                        sample_every=SERVICE_SAMPLE_EVERY_S)
        finally:
            served = frontend.stop()
        samples = run["host_samples"] or [calibrate()]
        out["host_index"] = trimmed_mean(samples) / REFERENCE_RATE
        out["host_samples"] = len(samples)
        out.update(run["rss"])
        passes.append(("untraced", run, served))
    else:
        for name in ("untraced", "traced"):
            traced = name == "traced"
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                frontend = Frontend(args, tmp / name, traced=traced)
                if not traced:
                    _ready()
                try:
                    run = drive(frontend, wl.service_documents(args.seed),
                                clients, deadline=None,
                                job_limit=TRACE_SERVICE_JOBS)
                finally:
                    served = frontend.stop()
            finally:
                tracer.uninstall()
            passes.append((name, run, served))
        requested = sum(len(r["indices"]) for r in run["records"])
        out["layers"] = _service_layers(tracer, served, requested)
        spans = _merge_job_spans(tracer, served)
        (tmp / "job_spans.json").write_text(json.dumps(spans),
                                            encoding="utf-8")
    out["workers"] = served["workers"]

    reference_sampler.start()
    try:
        reference = _reference([r for _n, run, _s in passes
                                for r in run["records"]], timer)
    finally:
        reference_sampler.stop()
    out["reference_index"] = reference_sampler.index()
    out["sim_cycles_per_s"] = reference["sim_cycles_per_s"]
    out["reference_points"] = reference["sim_points"]
    out["reference_s"] = reference["sim_seconds"]
    out["errors"] = []
    for name, run, served in passes:
        out["errors"] += _check_records(run, reference["payloads"])
        out[name] = _summarise(run, served)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "frontend"))
    parser.add_argument("--traced", action="store_true",
                        help="frontend mode: trace the frontend's layers")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    if args.mode in ("setup", "frontend") \
            and args.workload == wl.SERVICE_WORKLOAD:
        out = run_frontend(args, tmp)
    elif args.workload == wl.SERVICE_WORKLOAD:
        out = run_service(args, tmp)
    else:
        out = run_sim(args, tmp)
    if args.mode == "setup":
        # Host speed right after start-up, to put this process's
        # start-up time at the reference speed.
        print(f"HOST {sum(calibrate() for _ in range(20)) / 20}", flush=True)
    elif out is not None:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
