"""Workload definitions: every input the benchmark feeds the program.

All inputs derive from the workload seed passed on the command line; the
program only ever sees the generated experiment documents.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Iterator, List, Tuple

# Simulation workloads: one 6x6 point each, run as an experiment
# document.  ``scorpio-sparse`` keeps the BENCH_9 ``fft-low-injection``
# inputs exactly (so its seed-0 digest equals BENCH_9's);
# ``scorpio-saturated`` is the BENCH_9 ``fft-saturated`` shape at a third
# of its length, so that one run holds several complete simulations;
# ``directory-saturated`` is that shape at full length on the LPD
# directory baseline.
SIM_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "scorpio-saturated": {
        "builder": "scorpio", "params": {},
        "workload": {"kind": "benchmark", "name": "fft", "ops_per_core": 20,
                     "workload_scale": 0.05, "think_scale": 1.0}},
    "scorpio-sparse": {
        "builder": "scorpio", "params": {},
        "workload": {"kind": "benchmark", "name": "fft", "ops_per_core": 40,
                     "workload_scale": 0.05, "think_scale": 200.0}},
    "directory-saturated": {
        "builder": "directory", "params": {"scheme": "LPD"},
        "workload": {"kind": "benchmark", "name": "fft", "ops_per_core": 60,
                     "workload_scale": 0.05, "think_scale": 1.0}},
}

SERVICE_WORKLOAD = "sweep-service"
WORKLOADS = tuple(SIM_WORKLOADS) + (SERVICE_WORKLOAD,)

# Warm re-runs of the document after each cold (simulating) run of a
# simulation workload: the run-file path answered from the result cache.
WARM_RERUNS = 20

# The service's closed-loop clients and point workers, capped at the
# host's core count by the caller.
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2


def sim_document(workload: str, seed: int) -> Dict[str, Any]:
    """The one-point experiment document of a simulation workload."""
    shape = SIM_WORKLOADS[workload]
    run = {"builder": shape["builder"],
           "workload": {**shape["workload"], "seed": seed},
           "label": workload}
    if shape["params"]:
        run["params"] = dict(shape["params"])
    return {"schema": 1, "name": f"perfbench-{workload}", "runs": [run]}


# The canary: each simulation workload's document cut to CANARY_OPS
# operations per core at seed 0 (about 1 s), simulated once after every
# run.  Its outcome is pinned, so a change to what the program simulates
# fails the run whatever seed the run was given.
CANARY_OPS = 6


def canary_document(workload: str) -> Dict[str, Any]:
    document = sim_document(workload, 0)
    document["name"] += "-canary"
    document["runs"][0]["workload"]["ops_per_core"] = CANARY_OPS
    return document


def sim_ops(workload: str, n_cores: int = 36) -> int:
    """Memory operations a complete run of *workload* retires."""
    return SIM_WORKLOADS[workload]["workload"]["ops_per_core"] * n_cores


# The service's points.  A fixed set of popular points (builders x
# workloads x 3x3/4x4 meshes) is drawn with falling weights, so it is
# soon cached and answers most requests; fresh 3x3 points, each new to
# the cache, keep simulations arriving at a steady rate for the whole
# run, and a fresh point is often requested again while it is still
# being simulated (coalescing).  Small points simulate in 0.1-0.6 s, so
# the in-process reference pass that checks them stays short.
_POOL_BUILDERS = (("scorpio", {}), ("directory", {"scheme": "LPD"}),
                  ("tokenb", {}))
_POOL_WORKLOADS = (
    {"kind": "benchmark", "name": "fft", "ops_per_core": 12,
     "workload_scale": 0.05, "think_scale": 1.0},
    {"kind": "benchmark", "name": "blackscholes", "ops_per_core": 12,
     "workload_scale": 0.05, "think_scale": 1.0},
    {"kind": "locks", "acquisitions_per_core": 2, "critical_ops": 2},
)
_POOL_MESHES = ("m3", "m4")
_CONFIGS = {"m3": {"preset": "variant", "width": 3, "height": 3},
            "m4": {"preset": "variant", "width": 4, "height": 4}}
# Point keys at or above FRESH are fresh points; below it, popular ones.
FRESH = 1000
FRESH_SHARE = 0.015
REPEAT_SHARE = 0.015


def _popular() -> List[Dict[str, Any]]:
    return [{"builder": builder, "config": mesh, **(
                {"params": dict(params)} if params else {}),
             "workload": {**workload, "seed": 0}}
            for builder, params in _POOL_BUILDERS
            for workload in _POOL_WORKLOADS
            for mesh in _POOL_MESHES]


def point(key: int) -> Dict[str, Any]:
    """The run entry a point key stands for."""
    popular = _popular()
    if key < FRESH:
        return popular[key]
    # Fresh points: the popular 3x3 shapes with a seed never used before.
    shapes = [run for run in popular if run["config"] == "m3"]
    shape = shapes[key % len(shapes)]
    return {**shape, "workload": {**shape["workload"], "seed": key}}


def points_document(name: str, keys: List[int]) -> Dict[str, Any]:
    return {"schema": 1, "name": name, "configs": _CONFIGS,
            "runs": [dict(point(key), label=f"p{index}")
                     for index, key in enumerate(keys)]}


def service_documents(seed: int) -> Iterator[Tuple[List[int], Dict[str, Any]]]:
    """An endless seeded stream of (point keys, document) pairs.

    Each document asks for one popular point and a second point that is
    new (FRESH_SHARE), the latest new one again (REPEAT_SHARE) or another
    popular point.  The weights do not depend on the seed, so every seed
    gives the same mix in expectation.
    """
    rng = random.Random(seed)
    popular = range(len(_popular()))
    weights = [1.0 / (key + 1) for key in popular]
    fresh = FRESH + 1000 * seed
    latest = None
    while True:
        keys = rng.choices(popular, weights=weights, k=2)
        draw = rng.random()
        if draw < FRESH_SHARE:
            fresh += 1
            keys[1] = latest = fresh
        elif draw < FRESH_SHARE + REPEAT_SHARE and latest is not None:
            keys[1] = latest
        # Named by content, so equal documents give equal envelopes.
        name = "perfbench-" + "-".join(f"p{key}" for key in keys)
        yield keys, points_document(name, keys)


def outcome_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the simulated outcome of one run payload, computed
    exactly as ``repro.experiments.bench`` computes its outcome digest."""
    blob = json.dumps({"runtime": payload["runtime"],
                       "completed_ops": payload["completed_ops"],
                       "progress": payload["progress"],
                       "stats": payload["stats"],
                       "extra": payload["extra"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def without_fingerprint(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in payload.items()
            if key != "fingerprint"}
