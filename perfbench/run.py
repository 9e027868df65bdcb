#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scorpio-saturated --seed 0 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload listed in BENCHMARK.json in turn;
each prints its own block and result line, and the exit code is the
worst of theirs.

Every workload runs in fresh processes.  With ``--trace 0``,
``SETUP_PROBES`` processes only start up (their start-up times, with the
measuring process's own, give ``setup_s``), then one process measures
the workload for ``--seconds`` (end-to-end metrics).  With
``--trace 1``, one process alternates untraced and traced passes
(per-layer metrics).  End-to-end
timings are put at a reference host speed with the host-speed index
sampled during the run (hostspeed.py).  Human-readable lines go first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from hostspeed import REFERENCE_RATE  # noqa: E402

perf = time.perf_counter

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 30.0
# Hard cap on a whole invocation, below the 180 s a run may take.
TOTAL_BUDGET_S = 170.0


# Per-layer metrics of layers that only ``sweep-service`` exercises.  That
# workload is not listed in BENCHMARK.json, so neither are they: on the
# listed workloads they could only ever read 0.
SERVICE_LAYER_UNITS = {
    "experiments.procpool.spawns": "count",
    "experiments.procpool.point_s": "s",
    "serve.scheduler.queue_wait_s": "s",
    "serve.scheduler.dispatched": "count",
    "serve.scheduler.coalesced": "count",
    "serve.scheduler.precheck_recalls": "count",
    "serve.jobs.submit_s": "s",
    "api.client.wait_s": "s",
    "serve.points.reused_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_child(args, mode: str, tmp: Path) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--tmp", str(tmp)]
    return subprocess.Popen(command, cwd=str(ROOT), env=_child_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)


def _await_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from process start until the child printed READY."""
    for line in proc.stdout:
        if line.split()[:1] == ["READY"]:
            return perf() - started
    raise BenchError(f"child exited (code {proc.wait()}) before set-up "
                     f"finished")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def setup_probe(args, tmp: Path) -> float:
    """Start-up seconds of one probe process, at the reference host
    speed (the probe measures host speed right after starting up)."""
    started = perf()
    proc = _start_child(args, "setup", tmp)
    try:
        ready = _await_ready(proc, started)
        rest = proc.stdout.read().split()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or rest[:1] != ["HOST"]:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        return ready * float(rest[1]) / REFERENCE_RATE
    finally:
        _stop(proc)


def measure(args, tmp: Path, deadline: float):
    """(start-up seconds, result dict) of the measuring child."""
    started = perf()
    proc = _start_child(args, "trace" if args.trace else "measure", tmp)
    try:
        ready = _await_ready(proc, started)
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf()))
        if proc.returncode != 0:
            raise BenchError(f"measuring child exited with "
                             f"{proc.returncode}")
        lines = [line for line in rest.splitlines() if line.strip()]
        if not lines:
            raise BenchError("measuring child printed no result")
        return ready, json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        raise BenchError("measuring child overran the time budget") from None
    finally:
        _stop(proc)


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 \
        else values[0]


def _load_pins() -> Dict[str, Any]:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Result assembly
# ---------------------------------------------------------------------------

class Report:
    """Collects metrics with their sample counts and the failures."""

    def __init__(self, units: Dict[str, str]) -> None:
        self.units = units
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.samples: Dict[str, str] = {}
        self.errors: List[str] = []
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, samples: str) -> None:
        self.metrics[name] = {"value": float(value),
                              "unit": self.units[name]}
        self.samples[name] = samples

    def put_timed(self, name: str, raw: float, index: float,
                  samples: str) -> None:
        """A host-timed metric, put at the reference host speed: rates
        are divided by the run's host-speed index, times multiplied."""
        rate = self.units[name].endswith("/s")
        self.put(name, raw / index if rate else raw * index,
                 f"{samples}; raw {raw:.6g} at host index {index:.3f}")


def sim_end_to_end(report: Report, out: Dict[str, Any]) -> None:
    reps = [rep for rep in out["reps"] if "digest" in rep]
    if not reps:
        raise BenchError("no simulation run completed")
    cold = [rep["cold_s"] for rep in reps]
    warm = [s for rep in reps for s in rep["warm_s"]]
    jobs = cold + warm
    index = out["host_index"]
    # A ratio of sums, not a median of per-simulation rates: host speed
    # switches between two levels every few seconds, and a median of a
    # few simulations jumps between them where the time average does not.
    report.put_timed("sim_cycles_per_s",
                     sum(rep["cycles"] for rep in reps)
                     / sum(rep["run_s"] for rep in reps), index,
                     f"{len(reps)} simulations, "
                     f"{sum(rep['run_s'] for rep in reps):.1f} s in "
                     f"Engine.run")
    report.put_timed("jobs_per_s", len(jobs) / out["window_s"], index,
                     f"{len(jobs)} jobs in {out['window_s']:.1f} s, "
                     f"1 client")
    report.put_timed("miss_job_p50_s", statistics.median(cold), index,
                     f"median of {len(cold)} simulating jobs")
    report.put("peak_rss_mb", out["peak_rss_mb"], "1 process")
    report.notes.append(f"outcome: {reps[0]['cycles']} simulated cycles, "
                        f"digest {reps[0]['digest']}")
    report.notes.append(f"host-speed index {index:.3f} from "
                        f"{out['host_samples']} samples")


def service_end_to_end(report: Report, out: Dict[str, Any]) -> None:
    run = out["untraced"]
    if not run["hit_latencies"] or not run["miss_latencies"]:
        raise BenchError("the service run needs both cached and "
                         "simulating jobs")
    clients = f"{out['clients']} closed-loop clients"
    index = out["host_index"]
    report.put_timed("sim_cycles_per_s", out["sim_cycles_per_s"],
                     out["reference_index"],
                     f"in-process reference pass: "
                     f"{out['reference_points']} 3x3 points, "
                     f"{out['reference_s']:.1f} s in Engine.run")
    report.put_timed("jobs_per_s", len(run["latencies"]) / run["wall_s"],
                     index, f"{len(run['latencies'])} jobs in "
                     f"{run['wall_s']:.1f} s, {clients}")
    report.put_timed("miss_job_p50_s",
                     statistics.median(run["miss_latencies"]), index,
                     f"median of {len(run['miss_latencies'])} jobs with a "
                     f"miss")
    report.put("peak_rss_mb", max(out["frontend_rss_mb"],
                                  out["worker_rss_mb"]),
               f"max of frontend {out['frontend_rss_mb']:.1f} MB and "
               f"point workers {out['worker_rss_mb']:.1f} MB")
    report.notes.append(
        f"job latency (raw; per-layer metrics in a trace run): p90 "
        f"{_p90(run['latencies']):.4g} s, fully cached p50 "
        f"{statistics.median(run['hit_latencies']):.4g} s")
    report.notes.append(f"host-speed index {index:.3f} from "
                        f"{out['host_samples']} samples in the window, "
                        f"{out['reference_index']:.3f} in the reference "
                        f"pass")
    reused = 1.0 - run["dispatched"] / run["points"]
    report.notes.append(
        f"points requested {run['points']}, dispatched "
        f"{run['dispatched']}, spawned {run['spawned']}: {reused:.1%} "
        f"already cached or in flight; {len(run['hit_latencies'])}/"
        f"{len(run['latencies'])} jobs fully cached; {clients}, "
        f"{out['workers']} point workers")


def sim_per_layer(report: Report, out: Dict[str, Any]) -> None:
    traced = [rep for rep in out["traced"] if "layers" in rep]
    untraced = [rep for rep in out["reps"] if "digest" in rep]
    # Each traced stream ran right after an untraced one, so the overhead
    # is taken per pair: host speed drifts less within a pair than between.
    pairs = [(plain["cold_s"], rep["cold_s"])
             for plain, rep in zip(out["reps"], out["traced"])
             if "digest" in plain and "layers" in rep]
    if not pairs:
        raise BenchError("trace mode needs an untraced and a traced run")
    for rep in traced:
        layers = rep["layers"]
        self_sum = rep["wall_s"] - layers["trace.remainder_s"]
        if layers["trace.remainder_s"] < -1e-3:
            report.errors.append(f"layer self times ({self_sum:.3f} s) "
                                 f"exceed the traced wall time "
                                 f"({rep['wall_s']:.3f} s)")
    for name in traced[0]["layers"]:
        report.put(name, statistics.median(rep["layers"][name]
                                           for rep in traced),
                   f"median of {len(traced)} traced runs")
    report.put("trace.overhead",
               statistics.median(t / u for u, t in pairs) - 1.0,
               f"median of {len(pairs)} traced/untraced pairs")
    warm = [s for rep in untraced for s in rep["warm_s"]]
    put_latencies(report, [rep["cold_s"] for rep in untraced] + warm, warm,
                  "untraced runs")


def put_latencies(report: Report, jobs: List[float], hits: List[float],
                  where: str) -> None:
    """The job latencies too noisy on the reference host to bound:
    per-layer metrics, measured on the untraced part of a trace run."""
    report.put("job_p90_s", _p90(jobs), f"p90 of {len(jobs)} jobs, {where}")
    report.put("hit_job_p50_s", statistics.median(hits),
               f"median of {len(hits)} cached jobs, {where}")


def service_per_layer(report: Report, out: Dict[str, Any]) -> None:
    for name, value in out["layers"].items():
        report.put(name, value, f"traced pass of "
                   f"{out['traced']['attempted']} jobs")
    report.put("trace.overhead",
               out["traced"]["wall_s"] / out["untraced"]["wall_s"] - 1.0,
               f"2 passes of {out['traced']['attempted']} jobs")
    report.put("trace.remainder_s", 0.0,
               "not defined: service layers overlap on several threads")
    put_latencies(report, out["untraced"]["latencies"],
                  out["untraced"]["hit_latencies"], "untraced pass")


def check_pins(report: Report, args, out: Dict[str, Any]) -> None:
    """Every simulation of one seed, traced or not, must give the same
    outcome: the pinned one where the seed is pinned, else the first.
    The canary must give its pinned outcome whatever the seed."""
    pins = _load_pins()
    canary = out["canary"]
    expected_canary = pins["canary"][args.workload]
    report.attempted += 1
    if canary != expected_canary:
        report.failed += 1
        report.errors.append(f"canary: {canary} differs from the pinned "
                             f"{expected_canary}")
    reps = [rep for rep in out["reps"] + out.get("traced", [])
            if "digest" in rep]
    pin = pins["pins"].get(args.workload, {}).get(str(args.seed))
    if pin is not None:
        expected = (pin["cycles"], pin["digest"])
    elif reps:
        expected = (reps[0]["cycles"], reps[0]["digest"])
    for rep in reps:
        if (rep["cycles"], rep["digest"]) != expected:
            report.failed += 1
            report.errors.append(
                f"seed {args.seed}: {rep['cycles']} cycles / digest "
                f"{rep['digest'][:16]} differ from the expected "
                f"{expected[0]} / {expected[1][:16]}"
                f"{' (pinned)' if pin is not None else ''}")


def run(args) -> Report:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         f"is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if args.trace and args.workload == wl.SERVICE_WORKLOAD:
        units.update(SERVICE_LAYER_UNITS)
    report = Report(units)
    start = perf()
    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        # setup_s is an end-to-end metric: a trace run needs no probes.
        setups = [setup_probe(args, tmp / f"probe-{i}")
                  for i in range(0 if args.trace else SETUP_PROBES)]
        ready, out = measure(args, tmp / "run",
                             start + TOTAL_BUDGET_S)
        # The service's measuring process starts its frontend and
        # reports that frontend's start-up itself.
        if not args.trace:
            setups.append(out.get("setup_s", ready) * out["host_index"])
        spans = tmp / "run" / "job_spans.json"
        if args.trace and spans.is_file():
            target = ROOT / ".perfbench_out"
            target.mkdir(exist_ok=True)
            shutil.copy(spans, target / f"job_spans-{args.workload}-"
                                         f"{args.seed}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    service = out["kind"] == "service"
    if not args.trace:
        report.put("setup_s", statistics.median(setups),
                   f"median of {len(setups)} process start-ups, each at "
                   f"the reference host speed")
        (service_end_to_end if service else sim_end_to_end)(report, out)
    else:
        (service_per_layer if service else sim_per_layer)(report, out)
        for name in report.units:
            if name not in report.metrics:
                report.put(name, 0.0, "layer not exercised by this workload")

    if service:
        report.errors += out["errors"]
        for name in ("untraced", "traced"):
            if name in out:
                report.attempted += out[name]["attempted"]
                report.failed += out[name]["failed"]
    else:
        check_pins(report, args, out)
        for rep in out["reps"] + out.get("traced", []):
            report.attempted += rep["attempted"]
            report.failed += rep["failed"]
            report.errors += rep["errors"]
    return report


def run_and_print(args) -> int:
    """Run one workload, print its metrics and result line; exit code."""
    try:
        report = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} "
          f"{'per-layer (traced)' if args.trace else 'end-to-end'}:")
    for name, metric in report.metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} "
              f"({report.samples[name]})")
    for note in report.notes:
        print(f"  {note}")
    for error in report.errors[:20]:
        print(f"  FAILED CHECK: {error}")
    correct = not report.errors and report.failed == 0
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": report.metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a perfbench workload and print its metrics.")
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",),
                        required=True,
                        help="a workload, or 'all' for every workload "
                             "listed in BENCHMARK.json, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_and_print(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    codes = [run_and_print(argparse.Namespace(**{**vars(args),
                                                 "workload": w["name"]}))
             for w in spec["workloads"]]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
