"""High-level API: build and run full-system experiments in a few lines.

    from repro.core import ChipConfig, run_benchmark

    result = run_benchmark("barnes", protocol="scorpio",
                           config=ChipConfig.chip_36core(),
                           ops_per_core=200)
    print(result.runtime, result.avg_l2_service_latency)

This is the layer the examples and the benchmark harness are written
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.config import ChipConfig
from repro.sim.statsframe import StatsFrame
from repro.workloads.suites import profile as lookup_profile
from repro.workloads.synthetic import (WorkloadProfile,
                                       generate_system_traces, scaled)

# protocol -> (system builder, builder params): every protocol-shaped run
# (build_system, run_benchmark, RunSpec) is one of the registered
# builders of repro.experiments.builders.
PROTOCOL_BUILDERS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "scorpio": ("scorpio", {}),
    "lpd": ("directory", {"scheme": "LPD"}),
    "ht": ("directory", {"scheme": "HT"}),
    "fullbit": ("directory", {"scheme": "FULLBIT"}),
}
PROTOCOLS = tuple(PROTOCOL_BUILDERS)


@dataclass
class RunResult:
    """Outcome of one full-system run.

    ``stats`` is the raw flat snapshot (kept for payload compatibility);
    :attr:`frame` is the structured query interface over it — new code
    should read stats through the frame rather than prefix-slicing the
    dict.  The named latency properties and :meth:`breakdown` remain as
    stable shims, themselves implemented on the frame.
    """

    protocol: str
    benchmark: str
    n_cores: int
    runtime: int                  # cycles until every core finished
    completed_ops: int
    progress: float               # 1.0 when every trace fully ran
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def frame(self) -> StatsFrame:
        """Queryable :class:`~repro.sim.statsframe.StatsFrame` over
        :attr:`stats` (cached; rebuilt if ``stats`` is reassigned)."""
        frame = self.__dict__.get("_frame")
        if frame is None or frame._stats is not self.stats:
            frame = StatsFrame(self.stats)
            self.__dict__["_frame"] = frame
        return frame

    @property
    def avg_l2_service_latency(self) -> float:
        return self.frame.value("l2.miss_latency.mean")

    @property
    def cache_served_latency(self) -> float:
        return self.frame.value("l2.miss_latency.cache.mean")

    @property
    def memory_served_latency(self) -> float:
        return self.frame.value("l2.miss_latency.memory.mean")

    def breakdown(self, served: str = "cache") -> Dict[str, float]:
        """Latency decomposition (Fig. 6b/6c categories) in mean cycles."""
        return self.frame.relative_to(f"l2.breakdown.{served}.").mean


def protocol_builder(protocol: str) -> Tuple[str, Dict[str, Any]]:
    """The (builder name, builder params) that *protocol* lowers to."""
    try:
        builder, params = PROTOCOL_BUILDERS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of "
                         f"{PROTOCOLS}") from None
    return builder, dict(params)


def build_system(protocol: str, traces, config: Optional[ChipConfig] = None):
    """Instantiate a full system of the given *protocol* through the
    builder registry."""
    from repro.experiments.builders import get_builder
    name, params = protocol_builder(protocol)
    builder = get_builder(name)
    return builder.construct(config or ChipConfig.chip_36core(),
                             builder.resolved_params(params), traces)


def run_benchmark(benchmark: Union[str, WorkloadProfile],
                  protocol: str = "scorpio",
                  config: Optional[ChipConfig] = None,
                  ops_per_core: int = 150,
                  max_cycles: int = 400_000,
                  workload_scale: float = 1.0,
                  think_scale: float = 1.0,
                  seed: int = 0) -> RunResult:
    """Run one benchmark under one protocol and collect the statistics.

    ``max_cycles`` mirrors the paper's 400 K-cycle trace-driven windows;
    runs normally finish far earlier.  ``workload_scale`` shrinks the
    synthetic footprints for quick runs.  *benchmark* is a suite name or
    a custom :class:`~repro.workloads.synthetic.WorkloadProfile`.
    """
    config = config or ChipConfig.chip_36core()
    prof = lookup_profile(benchmark) if isinstance(benchmark, str) \
        else benchmark
    if workload_scale != 1.0 or think_scale != 1.0:
        prof = scaled(prof, workload_scale, think_scale)
    traces = generate_system_traces(prof, config.n_cores, ops_per_core,
                                    seed=seed)
    return _run(build_system(protocol, traces, config), protocol,
                prof.name, max_cycles)


def run_trace_file(path, protocol: str = "scorpio",
                   config: Optional[ChipConfig] = None,
                   max_cycles: int = 400_000) -> RunResult:
    """Run an externally produced trace file (see
    :mod:`repro.cpu.tracefile`) under one protocol — the equivalent of
    the paper's Graphite-traces-into-RTL flow."""
    from repro.cpu.tracefile import load_traces
    config = config or ChipConfig.chip_36core()
    traces = load_traces(path, expect_cores=config.n_cores)
    return _run(build_system(protocol, traces, config), protocol,
                str(path), max_cycles)


def _run(system, protocol: str, benchmark: str,
         max_cycles: int) -> RunResult:
    runtime = system.run_until_done(max_cycles)
    return RunResult(protocol=protocol, benchmark=benchmark,
                     n_cores=system.n_nodes, runtime=runtime,
                     completed_ops=system.total_completed_ops(),
                     progress=system.progress(),
                     stats=system.stats.snapshot())


def compare_protocols(benchmark: str,
                      protocols=PROTOCOLS,
                      config: Optional[ChipConfig] = None,
                      ops_per_core: int = 150,
                      workload_scale: float = 1.0,
                      think_scale: float = 1.0,
                      seed: int = 0,
                      max_cycles: int = 400_000) -> Dict[str, RunResult]:
    """Run the same workload under several protocols (Fig. 6a rows).

    Routed through the sweep runner (:mod:`repro.experiments`), so it
    honours the process execution context: with ``REPRO_JOBS``/
    ``REPRO_CACHE_DIR`` set (or :func:`repro.experiments.configure`
    called), the per-protocol runs fan out across workers and recall
    cached results.  Defaults reproduce the historical serial behaviour.
    """
    from repro.experiments.sweep import sweep_compare
    return sweep_compare(benchmark, tuple(protocols), config=config,
                         ops_per_core=ops_per_core,
                         workload_scale=workload_scale,
                         think_scale=think_scale, seed=seed,
                         max_cycles=max_cycles)


def normalized_runtimes(results: Dict[str, RunResult],
                        baseline: str = "lpd") -> Dict[str, float]:
    """Runtimes normalized to *baseline* (the paper normalizes to LPD-D)."""
    base = results[baseline].runtime
    if base <= 0:
        raise ValueError("baseline runtime is zero")
    return {name: result.runtime / base for name, result in results.items()}
