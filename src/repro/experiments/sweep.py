"""Sweep expansion and the inline / worker-process batch runner.

A :class:`Sweep` expands a (config × benchmark × protocol × seed) matrix
into :class:`~repro.experiments.builders.SystemSpec` points (through
:func:`~repro.experiments.builders.RunSpec`); :func:`run_sweep` executes
any iterable of specs and returns one structured
:class:`~repro.experiments.plan.SweepResult` per spec, in spec order.

Execution strategy:

1. the batch is planned (:func:`~repro.experiments.plan.plan_batch`):
   every spec is fingerprinted and looked up in the result cache, if one
   is active, and repeated points are deduplicated;
2. the unique misses run — inline for ``jobs=1``, otherwise fanned out
   over per-point worker processes (:mod:`repro.experiments.procpool`).
   Simulations are deterministic in the spec (engine RNG and trace
   generation are seeded; see ``tests/test_determinism.py``), so runs
   are embarrassingly parallel and a parallel sweep is bit-identical to
   a serial one.  A worker that dies mid-point (crash, OOM kill,
   timeout) does not lose the point: it retries up to ``retries`` times
   (default 1) and a point that keeps failing raises a loud
   :class:`SweepPointError` naming every failed fingerprint — never a
   hang, never a silent gap in the results;
3. fresh results are written back to the cache.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.core.api import RunResult
from repro.core.config import ChipConfig
from repro.experiments.builders import RunSpec, SystemSpec
from repro.experiments.cache import ResultCache, as_cache
from repro.experiments.context import get_context
from repro.experiments.plan import (Plan, SweepResult, execute_point,
                                    plan_batch)
from repro.experiments.procpool import DEFAULT_RETRIES, run_points
from repro.workloads.synthetic import WorkloadProfile

# The per-point worker, looked up at call time (tests substitute it).
_pool_worker = execute_point


@dataclass
class Sweep:
    """A (config × benchmark × protocol × seed) experiment matrix.

    ``configs`` may be one :class:`ChipConfig`, a sequence (labelled by
    index), or a mapping of label -> config; ``None`` means the default
    36-core chip.  Expansion order is configs, then benchmarks, then
    protocols, then seeds — deterministic, so sweep output order is too.
    """

    benchmarks: Sequence[Union[str, WorkloadProfile]]
    protocols: Sequence[str] = ("scorpio",)
    configs: Union[None, ChipConfig, Sequence[ChipConfig],
                   Mapping[str, ChipConfig]] = None
    seeds: Sequence[int] = (0,)
    ops_per_core: int = 150
    workload_scale: float = 1.0
    think_scale: float = 1.0
    max_cycles: int = 400_000

    def labelled_configs(self) -> List[Tuple[str, Optional[ChipConfig]]]:
        if self.configs is None or isinstance(self.configs, ChipConfig):
            return [("", self.configs)]
        if isinstance(self.configs, Mapping):
            return list(self.configs.items())
        return [(str(i), config) for i, config in enumerate(self.configs)]

    def expand(self) -> List[SystemSpec]:
        specs: List[SystemSpec] = []
        for label, config in self.labelled_configs():
            for benchmark in self.benchmarks:
                for protocol in self.protocols:
                    for seed in self.seeds:
                        specs.append(RunSpec(
                            benchmark=benchmark, protocol=protocol,
                            config=config, ops_per_core=self.ops_per_core,
                            workload_scale=self.workload_scale,
                            think_scale=self.think_scale, seed=seed,
                            max_cycles=self.max_cycles, label=label))
        return specs

    def __len__(self) -> int:
        return (len(self.labelled_configs()) * len(self.benchmarks)
                * len(self.protocols) * len(self.seeds))


class SweepPointError(RuntimeError):
    """One or more sweep points failed permanently (after retries).

    ``failures`` maps fingerprint -> last error message; the exception
    text lists every failed point, so a partially-failed sweep is loud
    and attributable instead of a hang or a silent gap in the results.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = dict(failures)
        lines = "".join(f"\n  {fp}: {error}"
                        for fp, error in self.failures.items())
        super().__init__(f"{len(self.failures)} sweep point(s) failed "
                         f"permanently:{lines}")


def _run_plan(plan: Plan, jobs: int, retries: int,
              point_timeout: Optional[float]) -> Dict[str, Dict]:
    """Simulate the plan's runs; returns payloads by fingerprint."""
    runs = plan.runs()
    if jobs <= 1 or len(runs) <= 1:
        return {fp: _pool_worker((spec, fp)) for fp, spec in runs}

    def _report(event) -> None:
        if event[0] == "retry":
            print(f"warning: sweep point {event[1][:12]} attempt "
                  f"{event[2]} failed ({event[3]}); retrying",
                  file=sys.stderr)

    computed, failed = run_points([(fp, (spec, fp)) for fp, spec in runs],
                                  _pool_worker, jobs=min(jobs, len(runs)),
                                  retries=retries, timeout=point_timeout,
                                  on_event=_report)
    if failed:
        failures = {fp: failed[fp] for fp, _spec in runs if fp in failed}
        for fp, error in failures.items():
            print(f"error: sweep point {fp} failed permanently: "
                  f"{error}", file=sys.stderr)
        raise SweepPointError(failures)
    return computed


def execute_batch(specs: Iterable[SystemSpec],
                  jobs: Optional[int] = None,
                  cache: Union[None, bool, str, ResultCache] = None,
                  retries: int = DEFAULT_RETRIES,
                  point_timeout: Optional[float] = None,
                  ) -> Tuple[List[SweepResult], Optional[Dict[str, int]]]:
    """:func:`run_sweep` plus this batch's cache ``{"hits", "misses"}``
    counts (None when it ran uncached)."""
    ctx = get_context()
    if jobs is None:
        jobs = ctx.jobs
    resolved = ctx.cache if cache is None else as_cache(cache)
    plan = plan_batch(specs, resolved.get if resolved is not None else None)
    computed = _run_plan(plan, jobs, retries, point_timeout)
    if resolved is None:
        return plan.results(computed), None
    for fingerprint, payload in computed.items():
        resolved.put(fingerprint, payload)
    return plan.results(computed), plan.cache_stats()


def run_sweep(sweep: Union[Sweep, Iterable[SystemSpec]],
              jobs: Optional[int] = None,
              cache: Union[None, bool, str, ResultCache] = None,
              retries: int = DEFAULT_RETRIES,
              point_timeout: Optional[float] = None,
              ) -> List[SweepResult]:
    """Execute a sweep (or any iterable of specs), in spec order.

    ``jobs``/``cache`` default to the process execution context (see
    :mod:`repro.experiments.context`); pass ``cache=False`` to bypass an
    active cache for one call.  A point repeated in the batch simulates
    once.  In the parallel path a dying or ``point_timeout``-overrunning
    worker retries its point up to *retries* times; points that still
    fail raise :class:`SweepPointError` listing every failed
    fingerprint.
    """
    specs = sweep.expand() if isinstance(sweep, Sweep) else sweep
    return execute_batch(specs, jobs=jobs, cache=cache, retries=retries,
                         point_timeout=point_timeout)[0]


def run_grid(benchmarks: Sequence[Union[str, WorkloadProfile]],
             protocols: Sequence[str],
             config: Optional[ChipConfig] = None,
             jobs: Optional[int] = None,
             cache: Union[None, bool, str, ResultCache] = None,
             **knobs) -> Dict[Union[str, WorkloadProfile],
                              Dict[str, RunResult]]:
    """A benchmark × protocol grid in one sweep batch, reshaped to
    ``{benchmark: {protocol: RunResult}}``.

    The shared backend for the figure generators, the benchmark
    harness's ``sweep_grid``, and :func:`sweep_compare`; extra *knobs*
    (``ops_per_core``, ``seed``, ...) pass straight into each
    :func:`~repro.experiments.builders.RunSpec`.
    """
    specs = [RunSpec(benchmark=benchmark, protocol=protocol, config=config,
                     **knobs)
             for benchmark in benchmarks for protocol in protocols]
    results = iter(run_sweep(specs, jobs=jobs, cache=cache))
    return {benchmark: {protocol: next(results).to_run_result()
                        for protocol in protocols}
            for benchmark in benchmarks}


def sweep_compare(benchmark: Union[str, WorkloadProfile],
                  protocols: Sequence[str],
                  config: Optional[ChipConfig] = None,
                  ops_per_core: int = 150,
                  workload_scale: float = 1.0,
                  think_scale: float = 1.0,
                  seed: int = 0,
                  max_cycles: int = 400_000,
                  jobs: Optional[int] = None,
                  cache: Union[None, bool, str, ResultCache] = None,
                  ) -> Dict[str, RunResult]:
    """One benchmark under several protocols via the sweep runner — the
    engine behind :func:`repro.core.api.compare_protocols`."""
    grid = run_grid([benchmark], tuple(protocols), config=config,
                    jobs=jobs, cache=cache, ops_per_core=ops_per_core,
                    workload_scale=workload_scale,
                    think_scale=think_scale, seed=seed,
                    max_cycles=max_cycles)
    return grid[benchmark]
