"""The three workloads and the metrics each one reports.

Every workload reports every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``); README.md says what each one means on
each workload.  A per-layer metric whose layer a workload never reaches
reads 0.  Times are reference seconds (see ``measure.SpeedSampler``).

Layers are timed from outside: while tracing, the public entry points
(``execute_variant``, ``ScenarioSpec.build``, ``arm_catalog_attack``,
``TestHarness.execute``, ``KernelScenario.run``, ``SimClock.run_until``)
are wrapped in spans for the duration of one pass and restored after.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Sequence

from perfbench import inputs
from perfbench.measure import (
    SpeedSampler,
    Tracer,
    frame_counts,
    median,
    outcome_digest,
    peak_rss_mb,
    summarize,
    tail_percentile,
)
from repro.engine import run_campaign
from repro.service import ServiceClient, ServiceError

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = ROOT / "tests" / "data" / "golden_verdicts.json"
DIGESTS = DATA / "outcome_digests.json"
OUT = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "variants_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

PER_LAYER = {
    "sim.build_s": "s",
    "sim.build_share": "ratio",
    "sim.run_s": "s",
    "sim.clock_events": "count",
    "sim.run_us_per_event": "us",
    "sim.frames_sent": "count",
    "sim.frames_delivered": "count",
    "sim.run_us_per_frame": "us",
    "controls.rejected": "count",
    "controls.reject_share": "ratio",
    "engine.execute_s": "s",
    "engine.overhead_s": "s",
    "engine.arm_s": "s",
    "testing.harness_s": "s",
    "analysis.pipeline_s": "s",
    "engine.registry_s": "s",
    "setup.import_s": "s",
    "service.ping_p50_ms": "ms",
    "service.accept_ms": "ms",
    "service.memo_hit_ratio": "ratio",
    "service.first_outcome_ms": "ms",
    "service.drain_ms": "ms",
    "service.executed": "count",
    "service.exec_ratio": "ratio",
    "service.stolen_units": "count",
    "service.journal_bytes_per_entry": "B",
    "latency.samples": "count",
    "latency.tail_pct": "pct",
    "failed_ratio": "ratio",
    "trace.overhead_share": "ratio",
}

#: Per-layer units that are times (scaled to reference seconds).
TIME_UNITS = frozenset({"s", "ms", "us"})

#: Cold interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Daemon spawns timed per run; the last one serves the workload.
DAEMON_SPAWNS = 5

#: Warm submissions the daemon workload needs before it may stop, so
#: that at least ten samples lie beyond p95.
MIN_WARM = 200

#: Submissions between two timed ``ping`` requests.
PING_EVERY = 20

#: Daemon outcomes re-executed in-process after timing (cold, warm).
RERUN_SAMPLE = (12, 4)

#: No run may time work for longer than this many host seconds.
HARD_STOP_S = 150.0


@dataclasses.dataclass
class Report:
    """What one run measured and checked."""

    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    info: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    tracer: Tracer | None = None

    def fail(self, problem: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(problem)


class Oracle:
    """Outcome checks against data pinned at the seed commit."""

    def __init__(self) -> None:
        self.golden = json.loads(GOLDEN.read_text())
        self.digests = json.loads(DIGESTS.read_text())

    def check(self, outcome: Any, report: Report, table: str = "registry") -> None:
        report.attempted += 1
        if outcome.is_error:
            report.failed += 1
            report.fail(f"{outcome.variant_id}: error outcome: {outcome.notes}")
            return
        pinned = self.digests[table].get(outcome.variant_id)
        if pinned is None:
            report.fail(f"{outcome.variant_id}: no pinned digest")
        elif outcome_digest(outcome) != pinned:
            report.fail(f"{outcome.variant_id}: outcome digest differs from pin")
        if table == "registry" and self.golden.get(outcome.variant_id) != [
            outcome.verdict,
            list(outcome.violated_goals),
        ]:
            report.fail(f"{outcome.variant_id}: verdict differs from golden")


# -- set-up --------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def probe_setup(count: int) -> tuple[list[tuple[float, float]], list[dict[str, float]]]:
    """Spawn ``count`` cold interpreters; time each from spawn to ready.

    Returns each probe's ``(start, end)`` host interval and the phase
    times it measured inside.
    """
    intervals, phases = [], []
    for _ in range(count):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        intervals.append((started, time.perf_counter()))
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return intervals, phases


def setup_layer_metrics(phases: Sequence[dict[str, float]]) -> dict[str, float]:
    return {
        "setup.import_s": median([p["import_s"] for p in phases]),
        "engine.registry_s": median([p["registry_s"] for p in phases]),
        "analysis.pipeline_s": median([p["pipeline_s"] for p in phases]),
    }


# -- layer tracing -------------------------------------------------------------

@contextmanager
def traced_layers(tracer: Tracer):
    """Wrap the in-process layer entry points in spans; yields event counts."""
    from repro.engine import campaign
    from repro.engine.spec import ScenarioSpec
    from repro.sim.clock import SimClock
    from repro.sim.kernel import KernelScenario
    from repro.testing.harness import TestHarness

    counts = {"clock_events": 0}
    restore: list[tuple[Any, str, Any]] = []

    def wrap(owner: Any, attr: str, name: str, request: Callable | None = None,
             counter: str | None = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, request(*args) if request else None):
                result = original(*args, **kwargs)
            if counter is not None:
                counts[counter] += result
            return result

        restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    wrap(campaign, "execute_variant", "engine.execute_variant",
         request=lambda variant, *_: variant.variant_id)
    wrap(campaign, "arm_catalog_attack", "engine.arm")
    wrap(ScenarioSpec, "build", "sim.build")
    wrap(TestHarness, "execute", "testing.harness")
    wrap(KernelScenario, "run", "sim.run")
    wrap(SimClock, "run_until", "sim.run_until", counter="clock_events")
    try:
        yield counts
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def sim_layer_metrics(
    tracer: Tracer,
    clock_events: int,
    outcomes: Sequence[Any],
    campaign_wall: float,
    harness_requests: set[str],
) -> dict[str, float]:
    """Per-layer figures of one traced in-process pass, in host seconds."""
    build = tracer.total("sim.build")
    run = tracer.total("sim.run")
    execute = tracer.total("engine.execute_variant")
    harness_self = sum(
        own
        for span, own in zip(tracer.spans, tracer.self_times())
        if span.name == "testing.harness" and span.request in harness_requests
    )
    sent = delivered = rejected = 0
    for outcome in outcomes:
        s, d, r = frame_counts(outcome.stats)
        sent, delivered, rejected = sent + s, delivered + d, rejected + r
    return {
        "sim.build_s": build,
        "sim.build_share": build / campaign_wall,
        "sim.run_s": run,
        "sim.clock_events": clock_events,
        "sim.run_us_per_event": run * 1e6 / max(clock_events, 1),
        "sim.frames_sent": sent,
        "sim.frames_delivered": delivered,
        "sim.run_us_per_frame": run * 1e6 / max(sent, 1),
        "controls.rejected": rejected,
        "controls.reject_share": rejected / max(delivered, 1),
        "engine.execute_s": execute,
        "engine.overhead_s": campaign_wall - execute,
        "engine.arm_s": tracer.total("engine.arm"),
        "testing.harness_s": harness_self,
    }


@dataclasses.dataclass
class Pass:
    """One serial ``run_campaign`` call and its host timestamps."""

    result: Any
    marks: list[float]  # call start, then one stamp per finished variant
    end: float

    @property
    def host_wall(self) -> float:
        return self.end - self.marks[0]

    def wall(self, speed: SpeedSampler) -> float:
        return speed.reference(self.marks[0], self.end)

    def latencies(self, speed: SpeedSampler) -> list[float]:
        """Each variant's time to verdict, in reference seconds."""
        return [speed.reference(a, b) for a, b in zip(self.marks, self.marks[1:])]


def campaign(variants: Sequence[Any], tracer: Tracer | None = None) -> Pass:
    """Run ``variants`` serially, stamping each variant's completion."""
    marks = [time.perf_counter()]

    def on_event(event: Any) -> None:
        if event.kind == "completed":
            marks.append(time.perf_counter())

    def call() -> Any:
        return run_campaign(variants, backend="serial", on_error="record",
                            on_event=on_event)

    if tracer is None:
        result = call()
    else:
        with tracer.span("engine.run_campaign"):
            result = call()
    return Pass(result, marks, time.perf_counter())


def traced_campaign(variants: Sequence[Any], tracer: Tracer) -> tuple[Pass, int]:
    with traced_layers(tracer) as counts:
        timed = campaign(variants, tracer)
    return timed, counts["clock_events"]


def _finish(report: Report, factor: float, untraced: float, traced: float) -> None:
    """Scale per-layer times to reference seconds; fill the common entries."""
    for name, unit in PER_LAYER.items():
        if unit in TIME_UNITS and name in report.metrics:
            report.metrics[name] *= factor
    report.metrics["trace.overhead_share"] = traced / untraced - 1.0
    report.metrics["failed_ratio"] = report.failed / max(report.attempted, 1)
    for name in PER_LAYER:
        report.metrics.setdefault(name, 0.0)


# -- registry ------------------------------------------------------------------

def registry(seed: int, seconds: float, trace: bool) -> Report:
    """All 162 registry variants, serial, seed-shuffled; whole passes."""
    report = Report()
    oracle = Oracle()
    variants = inputs.registry_variants(seed)
    with SpeedSampler() as speed:
        probes, phases = probe_setup(3 if trace else SETUP_PROBES)
        if trace:
            tracer = Tracer()
            untraced = campaign(variants)
            traced, events = traced_campaign(variants, tracer)
            passes = [untraced, traced]
        else:
            passes = []
            started = time.perf_counter()
            while not passes or time.perf_counter() - started < seconds:
                passes.append(campaign(variants))
                if len(passes) == 1:
                    rss = peak_rss_mb()
    for timed in passes:
        for outcome in timed.result.outcomes:
            oracle.check(outcome, report)

    if trace:
        parity = {v.variant_id for v in variants if v.family == "parity"}
        report.metrics.update(sim_layer_metrics(
            tracer, events, traced.result.outcomes, traced.host_wall, parity))
        report.metrics.update(setup_layer_metrics(phases))
        report.metrics["latency.samples"] = len(variants)
        report.metrics["latency.tail_pct"] = tail_percentile(len(variants)) or 0.0
        report.tracer = tracer
        _finish(report, speed.factor(), untraced.wall(speed), traced.wall(speed))
        return report

    summaries = [summarize(p.latencies(speed)) for p in passes]
    done = len(variants) * len(passes)
    rate = done / sum(p.wall(speed) for p in passes)
    tail = median([s["tail"] for s in summaries])
    report.metrics.update({
        "setup_s": median([speed.reference(*probe) for probe in probes]),
        "peak_rss_mb": rss,
        "variants_per_s": rate,
        "latency_p50_ms": median([s["p50"] for s in summaries]) * 1e3,
        "latency_tail_ms": tail * 1e3,
    })
    report.info["registry_variants_per_s"] = (rate, "1/s")
    report.info["registry_variants_per_host_s"] = (
        done / sum(p.host_wall for p in passes), "1/s")
    report.info["registry_passes"] = (len(passes), "count")
    report.info[f"variant_latency_p{summaries[0]['tail_pct']:g}_ms"] = (tail * 1e3, "ms")
    report.info["reference_per_host_s"] = (speed.factor(), "ratio")
    return report


# -- fleet-scale ---------------------------------------------------------------

def fleet_scale(seed: int, seconds: float, trace: bool) -> Report:
    """Baseline + jam convoys rescaled to n=256 and n=1024, serial rounds.

    A round runs the n=1024 set once, then the n=256 set three times.
    """
    report = Report()
    oracle = Oracle()
    rounds = inputs.fleet_rounds(seed)
    runs: list[tuple[int, Pass]] = []
    with SpeedSampler() as speed:
        probes, phases = probe_setup(3 if trace else SETUP_PROBES)
        if trace:
            tracer = Tracer()
            plan = next(rounds)
            untraced = [campaign(variants) for _size, variants in plan]
            traced, events = [], 0
            for _size, variants in plan:
                timed, count = traced_campaign(variants, tracer)
                traced.append(timed)
                events += count
            timings = untraced + traced
        else:
            started = time.perf_counter()
            while not runs or time.perf_counter() - started < seconds:
                runs.extend((size, campaign(variants)) for size, variants in next(rounds))
                if len(runs) == sum(repeats for _size, repeats in inputs.FLEET_ROUND):
                    rss = peak_rss_mb()
            timings = [timed for _size, timed in runs]
    for timed in timings:
        for outcome in timed.result.outcomes:
            oracle.check(outcome, report, "fleet")

    if trace:
        outcomes = [o for timed in traced for o in timed.result.outcomes]
        host = sum(timed.host_wall for timed in traced)
        report.metrics.update(sim_layer_metrics(tracer, events, outcomes, host, set()))
        report.metrics.update(setup_layer_metrics(phases))
        report.metrics["latency.samples"] = len(outcomes)
        report.tracer = tracer
        _finish(report, speed.factor(), sum(t.wall(speed) for t in untraced),
                sum(t.wall(speed) for t in traced))
        return report

    by_size = {size: [t.wall(speed) for s, t in runs if s == size]
               for size in inputs.FLEET_SIZES}
    small, large = (median(by_size[size]) for size in inputs.FLEET_SIZES)
    done = sum(len(t.result.outcomes) for t in timings)
    report.metrics.update({
        "setup_s": median([speed.reference(*probe) for probe in probes]),
        "peak_rss_mb": rss,
        "variants_per_s": done / sum(sum(walls) for walls in by_size.values()),
        "latency_p50_ms": small * 1e3,
        "latency_tail_ms": large * 1e3,
    })
    report.info["fleet_n256_s"] = (small, "s")
    report.info["fleet_n1024_s"] = (large, "s")
    report.info["fleet_variants_per_host_s"] = (
        done / sum(t.host_wall for t in timings), "1/s")
    report.info["fleet_rounds"] = (len(by_size[inputs.FLEET_SIZES[-1]]), "count")
    report.info["reference_per_host_s"] = (speed.factor(), "ratio")
    return report


# -- daemon-mixed --------------------------------------------------------------

@dataclasses.dataclass
class Submission:
    kind: str
    variants: list[Any]
    outcomes: dict[int, Any]
    sent: float
    accepted: float
    first: float | None
    done: float
    ident: str

    @property
    def host_wall(self) -> float:
        return self.done - self.sent


class Daemon:
    """One ``repro serve`` subprocess with a fresh memo directory.

    It inherits the client's one-core affinity (see run.py), so its two
    worker threads share that core.
    """

    def __init__(self, workdir: Path, index: int) -> None:
        self.memo_dir = workdir / f"memo-{index}"
        port_file = workdir / f"port-{index}"
        self.log = open(workdir / f"daemon-{index}.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--memo-dir", str(self.memo_dir), "--port-file", str(port_file)],
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
        )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.proc.returncode}")
                if time.perf_counter() - started > 60.0:
                    raise RuntimeError("daemon not ready within 60 s")
                try:
                    self.client = ServiceClient.from_port_file(port_file, timeout=60.0)
                    self.client.ping()
                    break
                except ServiceError:
                    time.sleep(0.005)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise
        self.ready = (started, time.perf_counter())

    def stop(self) -> None:
        """Ask the daemon to exit; kill it if it does not; always reap it."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=15)
            except (ServiceError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _submit(client: Any, kind: str, variants: list[Any], report: Report,
            tracer: Tracer | None = None) -> Submission | None:
    sent = time.perf_counter()
    accepted = first = None
    outcomes: dict[int, Any] = {}
    ident = ""
    try:
        for event, key, payload in client.submit_stream(variants):
            now = time.perf_counter()
            if event == "accepted":
                accepted, ident = now, key
            elif event == "outcome":
                first = now if first is None else first
                outcomes[key] = payload
    except ServiceError as exc:
        report.attempted += 1
        report.failed += 1
        report.fail(f"{kind} submission failed: {exc}")
        return None
    sub = Submission(kind, variants, outcomes, sent, accepted or sent, first,
                     time.perf_counter(), ident)
    if tracer is not None:
        root = tracer.record(f"service.submit.{kind}", sub.sent, sub.done, ident)
        tracer.record("service.accept", sub.sent, sub.accepted, ident, root)
        tracer.record("service.stream", sub.accepted, sub.done, ident, root)
    return sub


def _check_submission(sub: Submission, oracle: Oracle, report: Report,
                      fresh_digests: dict[str, str]) -> None:
    report.attempted += 1
    if len(sub.outcomes) != len(sub.variants):
        report.failed += 1
        report.fail(f"{sub.ident}: {len(sub.outcomes)} of {len(sub.variants)} outcomes")
        return
    for index, variant in enumerate(sub.variants):
        outcome = sub.outcomes[index]
        if outcome.variant_id != variant.variant_id:
            report.fail(f"{sub.ident}: outcome {index} is {outcome.variant_id}")
        elif outcome.is_error:
            report.failed += 1
            report.fail(f"{variant.variant_id}: error outcome: {outcome.notes}")
        elif sub.kind == "cold":
            fresh_digests[variant.variant_id] = outcome_digest(outcome)
        elif outcome_digest(outcome) != oracle.digests["registry"][variant.variant_id]:
            report.fail(f"{variant.variant_id}: served outcome differs from pin")


def daemon_mixed(seed: int, seconds: float, trace: bool) -> Report:
    """A ``repro serve`` daemon and one closed-loop client, ~4:1 warm:cold."""
    report = Report()
    oracle = Oracle()
    workdir = OUT / f"daemon-s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    pool = inputs.warm_pool()
    stream = inputs.daemon_stream(seed, pool, f"fresh/s{seed}")
    fresh_digests: dict[str, str] = {}
    pings: list[float] = []
    rss: list[float] = []
    daemons: list[Daemon] = []

    def drive(budget: float, traced: Tracer | None,
              count: int | None = None) -> list[Submission]:
        """Submit until ``count`` submissions, or until ``budget`` host
        seconds have passed and ``MIN_WARM`` warm submissions are in."""
        client = daemons[-1].client
        segment: list[Submission] = []
        warm = 0
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if report.failed or elapsed > HARD_STOP_S:
                break
            if count is None and elapsed >= budget and warm >= MIN_WARM:
                break
            if count is not None and len(segment) >= count:
                break
            kind, variants = next(stream)
            sub = _submit(client, kind, variants, report, traced)
            if sub is not None:
                _check_submission(sub, oracle, report, fresh_digests)
                segment.append(sub)
                warm += sub.kind == "warm"
                if warm == MIN_WARM and not rss:
                    # Memory after a fixed amount of work, not after
                    # however many fresh variants the run had time for.
                    rss.append(peak_rss_mb(daemons[-1].proc.pid))
            if len(segment) % PING_EVERY == 0:
                sent = time.perf_counter()
                client.ping()
                pings.append(time.perf_counter() - sent)
            speed.tick()
        return segment

    with SpeedSampler(background=False) as speed:
        try:
            for index in range(DAEMON_SPAWNS):
                if daemons:
                    daemons[-1].stop()
                daemons.append(Daemon(workdir, index))
                speed.sample()
            warmup = _submit(daemons[-1].client, "warm", list(pool), report)
            if warmup is not None:
                _check_submission(warmup, oracle, report, {})
            if trace:
                plain = drive(seconds / 2, None)
                traced = drive(0.0, tracer, count=len(plain))
                subs = plain + traced
            else:
                subs = drive(seconds, None)
            if not rss:
                rss.append(peak_rss_mb(daemons[-1].proc.pid))
            status = daemons[-1].client.status()
            journal = daemons[-1].memo_dir / "memo.jsonl"
            journal_bytes = journal.stat().st_size if journal.exists() else 0
        finally:
            for daemon in daemons:
                daemon.stop()
                shutil.rmtree(daemon.memo_dir, ignore_errors=True)
        if trace:
            _phases = probe_setup(3)[1]

    walls = {id(s): speed.reference(s.sent, s.done) for s in subs}
    warm = [s for s in subs if s.kind == "warm"]
    cold = [s for s in subs if s.kind == "cold"]
    cold_variants = sum(len(s.variants) for s in cold)
    warm_summary = summarize([walls[id(s)] for s in warm])
    if len(warm) < MIN_WARM:
        report.fail(f"only {len(warm)} warm submissions, {MIN_WARM} needed")
    if warm_summary["tail"] is None:
        warm_summary.update(tail=warm_summary["p50"], tail_pct=50.0)
    cold_rate = cold_variants / sum(walls[id(s)] for s in cold)
    report.info["daemon_warm_submit_p50_ms"] = (warm_summary["p50"] * 1e3, "ms")
    report.info[f"daemon_warm_submit_p{warm_summary['tail_pct']:g}_ms"] = (
        warm_summary["tail"] * 1e3, "ms")
    report.info["daemon_cold_variants_per_s"] = (cold_rate, "1/s")
    report.info["daemon_cold_variants_per_host_s"] = (
        cold_variants / sum(s.host_wall for s in cold), "1/s")
    report.info["daemon_warm_submissions"] = (len(warm), "count")
    report.info["daemon_cold_submissions"] = (len(cold), "count")
    report.info["reference_per_host_s"] = (speed.factor(), "ratio")

    # Re-execute a seeded sample in-process; served outcomes must match.
    rng = random.Random(seed)
    cold_ids = sorted(fresh_digests)
    by_id = {v.variant_id: v for s in cold for v in s.variants}
    sample = [by_id[i] for i in rng.sample(cold_ids, min(RERUN_SAMPLE[0], len(cold_ids)))]
    sample += rng.sample(pool, RERUN_SAMPLE[1])
    rerun_tracer = Tracer()
    if trace:
        rerun, events = traced_campaign(sample, rerun_tracer)
    else:
        rerun = campaign(sample)
    for outcome in rerun.result.outcomes:
        report.attempted += 1
        if outcome.is_error:
            report.failed += 1
        expected = fresh_digests.get(outcome.variant_id) or oracle.digests[
            "registry"][outcome.variant_id]
        if outcome_digest(outcome) != expected:
            report.fail(f"{outcome.variant_id}: in-process rerun differs from daemon")

    if not trace:
        report.metrics.update({
            "setup_s": median([speed.reference(*d.ready) for d in daemons]),
            "peak_rss_mb": rss[0],
            "variants_per_s": cold_rate,
            "latency_p50_ms": warm_summary["p50"] * 1e3,
            "latency_tail_ms": warm_summary["tail"] * 1e3,
        })
        return report

    scheduler, memo = status["scheduler"], status["memo"]
    executed = scheduler["executed"]
    report.metrics.update(sim_layer_metrics(
        rerun_tracer, events, rerun.result.outcomes, rerun.host_wall, set()))
    report.metrics.update(setup_layer_metrics(_phases))
    report.metrics.update({
        "service.ping_p50_ms": median(pings) * 1e3,
        "service.accept_ms": median([s.accepted - s.sent for s in subs]) * 1e3,
        "service.memo_hit_ratio": memo["hits"] / max(memo["hits"] + memo["misses"], 1),
        "service.first_outcome_ms": median(
            [s.first - s.accepted for s in cold if s.first is not None]) * 1e3,
        "service.drain_ms": median([s.done - s.accepted for s in cold]) * 1e3,
        "service.executed": executed,
        "service.exec_ratio": executed / (len(pool) + cold_variants),
        "service.stolen_units": scheduler["stolen_units"],
        "service.journal_bytes_per_entry": journal_bytes / max(memo["entries"], 1),
        "latency.samples": len(warm),
        "latency.tail_pct": warm_summary["tail_pct"],
    })
    # The two segments hold the same number of submissions but not the
    # same warm/cold mix: compare the traced wall with what the untraced
    # per-kind means predict for the traced segment's mix.
    means = {
        kind: sum(walls[id(s)] for s in plain if s.kind == kind)
        / max(1, sum(1 for s in plain if s.kind == kind))
        for kind in ("warm", "cold")
    }
    predicted = sum(means[s.kind] for s in traced)
    report.tracer = tracer
    _finish(report, speed.factor(), predicted, sum(walls[id(s)] for s in traced))
    return report


WORKLOADS: dict[str, Callable[[int, float, bool], Report]] = {
    "registry": registry,
    "fleet-scale": fleet_scale,
    "daemon-mixed": daemon_mixed,
}
