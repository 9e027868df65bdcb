"""The one plan/execute path for a batch of simulation points.

Every runner of a batch — :func:`~repro.experiments.sweep.run_sweep`
inline or over a :class:`~repro.experiments.procpool.SlotPool`,
:func:`~repro.api.document.run_experiment`, the checkpointed executor
(:mod:`repro.experiments.checkpoint_exec`) and the sweep service's
:class:`~repro.serve.jobs.JobManager` — resolves its batch with
:func:`plan_batch` and assembles its results with :meth:`Plan.results`.
Only *how the misses run* differs between them, so results, labels,
cache flags and per-batch hit/miss counts agree whichever door a batch
came through: byte identity between the runners holds by construction.

Planning, in spec order: fingerprint the spec; probe the cache (if any)
once; a hit is answered from the cache, a miss whose fingerprint is
already pending in this batch aliases the first occurrence (simulated
once, cached or not), and any other miss is a *run*.  Every miss counts,
duplicates included.

``SweepResult.payload()`` is the canonical serialized form: it is what
the cache stores, and byte-for-byte what a cache hit returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.core.api import RunResult
from repro.experiments.builders import (SystemRunOutcome, SystemSpec,
                                        execute_system_spec)
from repro.experiments.cache import code_version
from repro.sim.statsframe import StatsFrame

# 2: added the free-form "extra" dict (system-builder runs put litmus
# observations and similar non-scalar outcomes there).
PAYLOAD_SCHEMA = 2

Payload = Dict[str, Any]


@dataclass
class SweepResult:
    """One executed (or cache-recalled) sweep point.

    Contains no wall-clock or host-specific fields, so a fresh run and a
    cache hit of the same spec serialize identically (``cached`` is
    bookkeeping, not part of the payload).
    """

    fingerprint: str
    benchmark: str
    protocol: str
    n_cores: int
    seed: int
    runtime: int
    completed_ops: int
    progress: float
    stats: Dict[str, float] = field(default_factory=dict)
    # Free-form JSON-able outcome data beyond scalar stats (litmus
    # observations, per-run artifacts); part of the cached payload.
    extra: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    cached: bool = False

    @property
    def frame(self) -> StatsFrame:
        """Queryable :class:`~repro.sim.statsframe.StatsFrame` over
        :attr:`stats` — the structured alternative to prefix-slicing
        (cached; rebuilt if ``stats`` is reassigned)."""
        frame = self.__dict__.get("_frame")
        if frame is None or frame._stats is not self.stats:
            frame = StatsFrame(self.stats)
            self.__dict__["_frame"] = frame
        return frame

    def payload(self) -> Payload:
        """The canonical cacheable form.

        Excludes ``cached`` *and* ``label``: neither is part of the
        simulation outcome (label is display bookkeeping, set from the
        requesting spec on both the fresh and the cache-hit path), so a
        recalled result serializes byte-identically to a fresh one.
        """
        return {
            "schema": PAYLOAD_SCHEMA,
            "fingerprint": self.fingerprint,
            "benchmark": self.benchmark,
            "protocol": self.protocol,
            "n_cores": self.n_cores,
            "seed": self.seed,
            "runtime": self.runtime,
            "completed_ops": self.completed_ops,
            "progress": self.progress,
            "stats": self.stats,
            "extra": self.extra,
        }

    @classmethod
    def from_payload(cls, payload: Payload,
                     cached: bool = False) -> "SweepResult":
        return cls(fingerprint=payload["fingerprint"],
                   benchmark=payload["benchmark"],
                   protocol=payload["protocol"],
                   n_cores=payload["n_cores"],
                   seed=payload["seed"],
                   runtime=payload["runtime"],
                   completed_ops=payload["completed_ops"],
                   progress=payload["progress"],
                   stats=dict(payload["stats"]),
                   extra=dict(payload.get("extra", {})),
                   label=payload.get("label", ""),
                   cached=cached)

    @classmethod
    def from_outcome(cls, spec: SystemSpec, fingerprint: str,
                     outcome: SystemRunOutcome) -> "SweepResult":
        """Adapt a builder run (``benchmark`` carries the workload's
        display name, ``protocol`` :attr:`SystemSpec.protocol`)."""
        return cls(fingerprint=fingerprint,
                   benchmark=spec.benchmark_name,
                   protocol=spec.protocol,
                   n_cores=spec.resolved_config().n_cores,
                   seed=spec.seed,
                   runtime=outcome.runtime,
                   completed_ops=outcome.completed_ops,
                   progress=outcome.progress,
                   stats=dict(outcome.stats),
                   extra=dict(outcome.extra),
                   label=spec.label)

    def to_run_result(self) -> RunResult:
        """Adapt to the :class:`~repro.core.api.RunResult` interface the
        figure/analysis code is written against."""
        return RunResult(protocol=self.protocol, benchmark=self.benchmark,
                         n_cores=self.n_cores, runtime=self.runtime,
                         completed_ops=self.completed_ops,
                         progress=self.progress, stats=dict(self.stats))


def execute_point(item: Tuple[SystemSpec, str]) -> Payload:
    """Simulate one planned run in this process: ``(spec, fingerprint)``
    -> payload.  Module-level, so worker processes can run it."""
    spec, fingerprint = item
    return SweepResult.from_outcome(spec, fingerprint,
                                    execute_system_spec(spec)).payload()


@dataclass
class Plan:
    """A batch resolved against a cache: what is answered, what runs."""

    specs: List[SystemSpec]
    fingerprints: List[str]
    # spec index -> payload the cache probe answered
    recalled: Dict[int, Payload] = field(default_factory=dict)
    # fingerprint -> the spec indices it resolves, in first-occurrence
    # order; the first index runs, the rest alias it.
    pending: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return len(self.recalled)

    @property
    def misses(self) -> int:
        return len(self.specs) - len(self.recalled)

    def cache_stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def runs(self) -> List[Tuple[str, SystemSpec]]:
        """The unique ``(fingerprint, spec)`` points to simulate."""
        return [(fingerprint, self.specs[indices[0]])
                for fingerprint, indices in self.pending.items()]

    def results(self, computed: Mapping[str, Payload]) -> List[SweepResult]:
        """One result per spec, in spec order, given the payload of
        every run keyed by fingerprint.  Recalls and aliases are marked
        ``cached``; every result carries its own spec's label."""
        results = []
        for index, (spec, fingerprint) in enumerate(zip(self.specs,
                                                        self.fingerprints)):
            if index in self.recalled:
                payload, cached = self.recalled[index], True
            else:
                payload = computed[fingerprint]
                cached = self.pending[fingerprint][0] != index
            result = SweepResult.from_payload(payload, cached=cached)
            result.label = spec.label
            results.append(result)
        return results


def plan_batch(specs: Iterable[SystemSpec],
               probe: Optional[Callable[[str], Optional[Payload]]] = None,
               ) -> Plan:
    """Fingerprint *specs*, probe each against the cache (*probe* is a
    ``get``-style lookup; None plans uncached) and dedupe the misses."""
    specs = list(specs)
    version = code_version()
    plan = Plan(specs, [spec.fingerprint(code_version=version)
                        for spec in specs])
    for index, fingerprint in enumerate(plan.fingerprints):
        payload = probe(fingerprint) if probe is not None else None
        if payload is not None:
            plan.recalled[index] = payload
        else:
            plan.pending.setdefault(fingerprint, []).append(index)
    return plan
