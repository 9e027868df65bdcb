"""Every runner of a batch goes through one planner.

``run_experiment`` (inline and over worker processes), the sweep
service's ``JobManager`` and the checkpointed executor all plan a batch
with :func:`repro.experiments.plan.plan_batch` and assemble it with
``Plan.results``.  Locked here:

* one document holding protocol-shaped runs, a ``[matrix]``, a builder
  run, a repeated point and a ``[litmus]`` table gives a byte-identical
  envelope through every runner against the same half-warm cache, with
  the same hit/miss counts;
* a repeated point simulates once even without a cache;
* a cache backend that fails while a job is planned is a loud 503 that
  names the backend, never a job stuck in ``running``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.api import envelope_bytes, load_experiment, run_experiment
from repro.core.config import ChipConfig
from repro.experiments import (CacheBackend, LocalDirBackend, SystemSpec,
                               plan_batch, run_experiment_checkpointed,
                               run_sweep)
from repro.serve import CacheUnavailableError, serve
from repro.serve.jobs import JobManager
from repro.serve.scheduler import PointScheduler

DOC = (Path(__file__).resolve().parent.parent / "examples" / "experiments"
       / "runners_smoke.toml")

BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
         "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}

try:
    import tomllib                                     # noqa: F401
    HAS_TOML = True
except ImportError:   # pragma: no cover - Python < 3.11
    try:
        import tomli                                   # noqa: F401
        HAS_TOML = True
    except ImportError:
        HAS_TOML = False

needs_toml = pytest.mark.skipif(
    not HAS_TOML, reason="TOML documents need tomllib (3.11+) or tomli")


@pytest.fixture(autouse=True)
def isolated_execution_context(monkeypatch):
    import repro.experiments.context as context
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(context, "_context", context.ExecutionContext())


def without_cache_key(envelope: bytes) -> dict:
    payload = json.loads(envelope)
    payload.pop("cache", None)
    return payload


@needs_toml
def test_every_runner_gives_the_same_envelope(tmp_path):
    experiment = load_experiment(DOC)
    plan = plan_batch(experiment.specs)
    assert len(plan.specs) == 9 and len(plan.runs()) == 7, \
        "the document must keep its repeated point"

    # Half-warm: every other unique point is already cached; the
    # repeated point is among the misses.
    warm = tmp_path / "warm"
    run_sweep([spec for _fp, spec in plan.runs()[1::2]], jobs=1,
              cache=str(warm))

    def cache_copy(name: str) -> Path:
        return Path(shutil.copytree(warm, tmp_path / name))

    envelopes = {}
    for jobs in (1, 2):
        result = run_experiment(experiment, jobs=jobs,
                                cache=str(cache_copy(f"jobs{jobs}")))
        envelopes[f"jobs={jobs}"] = envelope_bytes(result.payload())

    backend = LocalDirBackend(cache_copy("serve"))
    scheduler = PointScheduler(backend, workers=2)
    try:
        job = JobManager(backend, scheduler).submit(experiment)
        assert job.wait(timeout=300.0)
        assert job.state == "done", job.error
        envelopes["JobManager"] = job.envelope
    finally:
        scheduler.stop()

    reference = envelopes["jobs=1"]
    for runner, envelope in envelopes.items():
        assert envelope == reference, runner
    stats = json.loads(reference)["cache"]
    assert stats == {"hits": 3, "misses": 6}

    checkpointed = run_experiment_checkpointed(
        experiment, checkpoint_every=200,
        checkpoint_dir=str(tmp_path / "ckpts"))
    assert "cache" not in checkpointed.payload()
    assert json.loads(envelope_bytes(checkpointed.payload())) \
        == without_cache_key(reference)
    assert json.loads(reference)["litmus"] == {"message-passing": True}


def test_uncached_duplicates_simulate_once(monkeypatch):
    import repro.experiments.builders as builders
    calls = []
    real_build = builders.build_spec_system

    def counting_build(spec):
        calls.append(spec.label)
        return real_build(spec)

    monkeypatch.setattr(builders, "build_spec_system", counting_build)
    config = ChipConfig.variant(3, 3)
    specs = [SystemSpec("scorpio", config, workload=BENCH, label=label)
             for label in ("a", "b")]
    first, second = run_sweep(specs, jobs=1, cache=False)
    assert calls == ["a"]
    assert first.payload() == second.payload()
    assert (first.label, second.label) == ("a", "b")
    assert (first.cached, second.cached) == (False, True)


class FailingBackend(CacheBackend):
    location = "failing-test-backend"

    def get(self, fingerprint):
        raise OSError("backend is down")

    def put(self, fingerprint, payload):
        raise OSError("backend is down")

    def contains(self, fingerprint):
        raise OSError("backend is down")

    def entries(self):
        return 0


def tiny_document():
    return {"schema": 1, "name": "outage",
            "runs": [{"builder": "scorpio", "workload": BENCH,
                      "config": "m3"}],
            "configs": {"m3": {"preset": "variant", "width": 3,
                               "height": 3}}}


class TestCacheOutageAtSubmit:
    def test_job_manager_registers_no_job(self):
        from repro.api.document import experiment_from_dict
        backend = FailingBackend()
        scheduler = PointScheduler(backend, workers=1)
        try:
            manager = JobManager(backend, scheduler)
            with pytest.raises(CacheUnavailableError,
                               match="failing-test-backend"):
                manager.submit(experiment_from_dict(tiny_document()))
            assert manager.jobs() == []
        finally:
            scheduler.stop()

    def test_post_answers_503_naming_the_backend(self):
        from repro.api.client import ServeClient, ServeError
        server = serve(FailingBackend(), port=0, workers=1).start()
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError, match="HTTP 503") as excinfo:
                client.submit_document(tiny_document())
            assert "failing-test-backend" in str(excinfo.value)
            assert "backend is down" in str(excinfo.value)
            assert client.jobs() == []
        finally:
            server.stop()
