"""The campaign runner: fan scenario x attack x control combos across workers.

``execute_variant`` runs one :class:`~repro.engine.spec.VariantSpec` end
to end: bound attack descriptions (``AD20``, ``AD08``, ...) go through the
use case's Step-4 binding and the published oracles -- with the scenario
rebuilt from the registry spec instead of the hard-coded class -- while
catalog attacks and unattacked sweeps derive their verdict directly from
the safety monitor (any violated goal counts as a successful attack).

``run_campaign``/``iter_campaign`` execute a variant list on any
:mod:`repro.runtime` execution backend -- serial, thread pool or process
pool -- instead of the hand-rolled ``multiprocessing.Pool`` this module
used to own.  Every backend takes the same path: a
:class:`~repro.engine.batch.BatchPlan` dispatched through
:meth:`Runtime.map_batches <repro.runtime.Runtime.map_batches>`, where
an unbatched backend is batch size 1.  Variants are pure data and outcomes are plain dataclasses
of primitives, so process fan-out works under both ``fork`` and ``spawn``
start methods; each worker process claims a disjoint identifier block on
first use so parallel workers cannot mint colliding ``AD``/``SG``
identifiers.  Outcomes stream: ``iter_campaign`` yields each
:class:`VariantOutcome` as its job completes (and pushes its record into
an optional :class:`~repro.results.ResultSink`), so long campaigns can
export partial results, report progress and honour cooperative
cancellation.  A failed job never crashes the campaign machinery: with
``on_error="record"`` it becomes a tagged ``ERROR`` outcome, and with the
default ``on_error="raise"`` it surfaces as a
:class:`~repro.errors.VariantExecutionError` naming the variant.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.engine.attacks import arm_catalog_attack
from repro.engine.batch import BatchPlan, execute_batch, run_batch_payload
from repro.engine.registry import ScenarioRegistry, default_registry
from repro.engine.spec import VariantSpec
from repro.errors import (
    DeadlineExceededError,
    ValidationError,
    VariantExecutionError,
)
from repro.faults import fault_point
from repro.results import (
    SOURCE_CAMPAIGN,
    ResultSet,
    ResultSink,
    RunRecord,
    freeze_items,
)
from repro.runtime import (
    CancelToken,
    ExecutionBackend,
    JobError,
    ProgressEvent,
    RetryPolicy,
    Runtime,
    backend_from_spec,
    in_worker_process,
    worker_index,
)
from repro.testing.harness import TestHarness
from repro.testing.testcase import TestCase, Verdict

#: Verdict label of an outcome whose worker-side execution raised.
ERROR_VERDICT = "ERROR"

#: The trace mode campaign workers run scenarios under.  Campaigns only
#: read verdicts, violations, detections and stats, so they default to
#: the lean ``"counts"`` bus mode (per-prefix counters + the scenario's
#: ``RETAINED_TOPICS``); verdicts are mode-independent by construction
#: and asserted so by the golden-parity harness and the trace-mode
#: property tests.  Pass ``trace_mode="full"`` to keep complete traces.
CAMPAIGN_TRACE_MODE = "counts"


@dataclasses.dataclass(frozen=True)
class VariantOutcome:
    """The plain-data record of one executed variant.

    Every field is a primitive (or tuple/dict of primitives) so outcomes
    cross process boundaries and serialise without ceremony.
    """

    variant_id: str
    scenario: str
    family: str
    attack: str | None
    verdict: str
    violated_goals: tuple[str, ...]
    violations: tuple[tuple[float, str, str], ...]
    detections: tuple[tuple[str, int], ...]
    detections_by_control: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    stats: dict[str, Any]
    duration_ms: float
    wall_time_s: float
    notes: str = ""
    #: True when this outcome was served from a content-addressed memo
    #: store (:mod:`repro.service.memo`) instead of being re-executed.
    from_cache: bool = False

    @property
    def sut_passed(self) -> bool:
        """True when the SUT withstood (or nothing was violated)."""
        return self.verdict == Verdict.ATTACK_FAILED.name

    @property
    def is_error(self) -> bool:
        """True when this outcome records a worker-side failure."""
        return self.verdict == ERROR_VERDICT

    def detections_of(self, ecu: str, control: str | None = None) -> int:
        """Detection count of one ECU (optionally one control)."""
        if control is None:
            return dict(self.detections).get(ecu, 0)
        per_ecu = dict(self.detections_by_control).get(ecu, ())
        return dict(per_ecu).get(control, 0)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "VariantOutcome":
        """Rebuild an outcome from its ``dataclasses.asdict`` form."""
        data = dict(payload)
        data["violated_goals"] = tuple(data["violated_goals"])
        data["violations"] = tuple(tuple(v) for v in data["violations"])
        data["detections"] = tuple(tuple(d) for d in data["detections"])
        data["detections_by_control"] = tuple(
            (ecu, tuple(tuple(item) for item in counts))
            for ecu, counts in data["detections_by_control"]
        )
        return cls(**data)

    def to_record(self) -> RunRecord:
        """This outcome as a uniform :class:`~repro.results.RunRecord`."""
        use_case = self.scenario.split("-", 1)[0]
        if use_case not in ("uc1", "uc2"):
            use_case = ""
        attrs = {"scenario": self.scenario}
        if self.attack:
            attrs["attack"] = self.attack
        if self.is_error and "error_type" in self.stats:
            attrs["error_type"] = str(self.stats["error_type"])
        if self.from_cache:
            attrs["cached"] = "true"
        return RunRecord(
            source=SOURCE_CAMPAIGN,
            subject=self.variant_id,
            verdict=self.verdict,
            passed=False if self.is_error else self.sut_passed,
            use_case=use_case,
            family=self.family,
            goals=self.violated_goals,
            metrics=freeze_items(
                {
                    "duration_ms": self.duration_ms,
                    "wall_time_s": self.wall_time_s,
                    "violations": len(self.violations),
                    "detections": sum(
                        count for _, count in self.detections
                    ),
                }
            ),
            attrs=freeze_items(attrs),
            notes=self.notes,
        )


@functools.lru_cache(maxsize=None)
def _bound_test(use_case: str, attack_id: str) -> TestCase:
    """The Step-4 test case for a bound attack (cached per process)."""
    from repro.usecases import uc1, uc2

    module = {"uc1": uc1, "uc2": uc2}[use_case]
    attacks = module.build_attacks()
    if attack_id not in attacks:
        raise ValidationError(f"no attack {attack_id} in {use_case}")
    registry = module.build_bindings()
    attack = attacks.get(attack_id)
    if not registry.can_compile(attack):
        raise ValidationError(
            f"{attack_id} has no executable binding in {use_case}"
        )
    return registry.compile(attack)


def _result_violations(result) -> tuple[tuple[float, str, str], ...]:
    return tuple(
        (violation.time, violation.goal_id, violation.detail)
        for violation in result.violations
    )


def _result_detections(
    result,
) -> tuple[tuple[tuple[str, int], ...], tuple]:
    """(total per ECU, per-ECU per-control counts), both as sorted tuples."""
    incremental = getattr(result, "detection_control_counts", None)
    if incremental is not None:
        # Scenario-maintained counters: no walk over the (potentially
        # tens of thousands of rows long) detection logs.
        totals = tuple(
            sorted(
                (ecu, sum(counts.values()))
                for ecu, counts in incremental.items()
            )
        )
        by_control = tuple(
            (ecu, tuple(sorted(counts.items())))
            for ecu, counts in sorted(incremental.items())
        )
        return totals, by_control
    totals = tuple(sorted(result.detection_counts().items()))
    by_control = []
    for ecu, records in sorted(result.detection_records.items()):
        counts: dict[str, int] = {}
        for record in records:
            # Index 1 is the control name; rows may be raw tuples.
            counts[record[1]] = counts.get(record[1], 0) + 1
        by_control.append((ecu, tuple(sorted(counts.items()))))
    return totals, tuple(by_control)


def execute_variant(
    variant: VariantSpec,
    registry: ScenarioRegistry | None = None,
    trace_mode: str = CAMPAIGN_TRACE_MODE,
) -> VariantOutcome:
    """Execute one variant end to end and derive its verdict.

    ``trace_mode`` selects the scenario's event-bus retention mode
    (lean ``"counts"`` by default -- see :data:`CAMPAIGN_TRACE_MODE`).
    """
    registry = registry or default_registry()
    spec = registry.get(variant.scenario)
    started = time.perf_counter()

    if variant.uses_bound_attack:
        template = _bound_test(spec.use_case, variant.attack)
        test = dataclasses.replace(
            template,
            build_scenario=lambda: spec.build(
                variant.params, trace_mode=trace_mode
            ),
            duration_ms=variant.duration_ms or template.duration_ms,
        )
        execution = TestHarness().execute(test)
        result = execution.scenario_result
        detections, by_control = _result_detections(result)
        return VariantOutcome(
            variant_id=variant.variant_id,
            scenario=variant.scenario,
            family=variant.family,
            attack=variant.attack,
            verdict=execution.verdict.name,
            violated_goals=result.violated_goals(),
            violations=_result_violations(result),
            detections=detections,
            detections_by_control=by_control,
            stats=result.stats,
            duration_ms=test.duration_ms,
            wall_time_s=time.perf_counter() - started,
            notes=execution.notes,
        )

    scenario = spec.build(variant.params, trace_mode=trace_mode)
    if variant.attack is not None:
        arm_catalog_attack(scenario, variant.attack, variant.attack_params_dict())
    duration_ms = (
        variant.duration_ms
        if variant.duration_ms is not None
        else type(scenario).DEFAULT_DURATION_MS
    )
    result = scenario.run(duration_ms)
    violated = result.violated_goals()
    verdict = Verdict.ATTACK_SUCCEEDED if violated else Verdict.ATTACK_FAILED
    notes = (
        f"violated {', '.join(violated)}"
        if violated
        else "no safety goal violated"
    )
    if variant.attack is None or variant.attack == "owner-cycle":
        notes += " (no attacker; verdict reflects violation presence)"
    detections, by_control = _result_detections(result)
    return VariantOutcome(
        variant_id=variant.variant_id,
        scenario=variant.scenario,
        family=variant.family,
        attack=variant.attack,
        verdict=verdict.name,
        violated_goals=violated,
        violations=_result_violations(result),
        detections=detections,
        detections_by_control=by_control,
        stats=result.stats,
        duration_ms=duration_ms,
        wall_time_s=time.perf_counter() - started,
        notes=notes,
    )


# -- worker-process entry points ---------------------------------------------

#: Identifier numbers each worker may mint before colliding with the next
#: worker's block -- far beyond any realistic per-run minting volume.
_WORKER_ID_BLOCK = 1000

#: Per-process latch: has this pool worker claimed its identifier block?
_worker_identity_claimed = False


def _ensure_worker_identity() -> None:
    """Give a pool worker process its disjoint identifier block, once.

    Runs in the job path (not a pool initializer) so it works with *any*
    :class:`~repro.runtime.ProcessBackend` -- including ones the caller
    constructed -- and is a no-op in the main process and in thread
    workers, where the (thread-safe) allocator must keep its state.
    """
    global _worker_identity_claimed
    if _worker_identity_claimed or not in_worker_process():
        return
    from repro.model.identifiers import reset_default_allocator

    # Disjoint numbering blocks: worker k mints AD/SG numbers strictly
    # above k * _WORKER_ID_BLOCK, so merged results never collide.
    reset_default_allocator(floor=worker_index() * _WORKER_ID_BLOCK)
    _worker_identity_claimed = True


def _execute_checked(
    variant: VariantSpec,
    registry: ScenarioRegistry | None = None,
    trace_mode: str = CAMPAIGN_TRACE_MODE,
    default_deadline_s: float | None = None,
) -> VariantOutcome:
    """:func:`execute_variant` under the fault-tolerance contract.

    The single chokepoint every campaign execution path (serial, thread,
    process, batched, the service scheduler) funnels through: it hosts
    the ``job-start`` fault-injection hook and enforces the variant's
    wall-clock deadline.  Deadlines are cooperative -- the run completes
    and the breach is reported afterwards as a
    :class:`~repro.errors.DeadlineExceededError`, keeping the check
    deterministic (no timer races, no partially-executed simulations).
    """
    fault_point("job-start")
    outcome = execute_variant(variant, registry, trace_mode=trace_mode)
    deadline = (
        variant.deadline_s
        if variant.deadline_s is not None
        else default_deadline_s
    )
    if deadline is not None and outcome.wall_time_s > deadline:
        raise DeadlineExceededError(
            f"variant {variant.variant_id!r} exceeded its {deadline:g}s "
            f"deadline ({outcome.wall_time_s:.3f}s)"
        )
    return outcome


# -- the runner ---------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Aggregated outcomes of one campaign run."""

    outcomes: tuple[VariantOutcome, ...]
    workers: int
    wall_time_s: float
    backend: str = "serial"
    cancelled: bool = False

    @property
    def total(self) -> int:
        """Number of executed variants."""
        return len(self.outcomes)

    @property
    def memo_hits(self) -> int:
        """Outcomes served from a memo store instead of re-executed."""
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    def counts(self) -> dict[str, int]:
        """Outcome counts by verdict name."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
        return counts

    def by_family(self) -> dict[str, tuple[VariantOutcome, ...]]:
        """Outcomes grouped by variant family (insertion-ordered)."""
        grouped: dict[str, list[VariantOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.family, []).append(outcome)
        return {family: tuple(items) for family, items in grouped.items()}

    def errors(self) -> tuple[VariantOutcome, ...]:
        """Outcomes recording a worker-side failure (``ERROR`` verdict)."""
        return tuple(o for o in self.outcomes if o.is_error)

    def outcome(self, variant_id: str) -> VariantOutcome:
        """Look up one outcome by variant id.

        Raises:
            KeyError: for an unknown id, listing the known variant ids so
                a typo is immediately diagnosable.
        """
        for outcome in self.outcomes:
            if outcome.variant_id == variant_id:
                return outcome
        known = ", ".join(o.variant_id for o in self.outcomes) or "<none>"
        raise KeyError(
            f"no outcome for variant {variant_id!r}; known variant ids: "
            f"{known}"
        )

    def summary(self) -> dict[str, Any]:
        """Plain-data campaign summary for reporting and CI gates."""
        return {
            "total": self.total,
            "workers": self.workers,
            "backend": self.backend,
            "cancelled": self.cancelled,
            "errors": len(self.errors()),
            "memo_hits": self.memo_hits,
            "wall_time_s": round(self.wall_time_s, 3),
            "verdicts": self.counts(),
            "families": {
                family: len(items) for family, items in self.by_family().items()
            },
        }

    def to_result_set(self) -> ResultSet:
        """Every outcome as a :class:`~repro.results.RunRecord` set."""
        return ResultSet.of(outcome.to_record() for outcome in self.outcomes)

    def to_text(self, verbose: bool = False) -> str:
        """Render the campaign as a plain-text report."""
        counts = self.counts()
        lines = [
            (
                f"Campaign: {self.total} variants, {self.workers} worker(s), "
                f"{self.backend} backend, {self.wall_time_s:.1f} s"
                + (" [cancelled]" if self.cancelled else "")
            ),
            (
                "  verdicts: "
                f"{counts.get(Verdict.ATTACK_FAILED.name, 0)} withstood, "
                f"{counts.get(Verdict.ATTACK_SUCCEEDED.name, 0)} violated, "
                f"{counts.get(Verdict.INCONCLUSIVE.name, 0)} inconclusive"
                + (
                    f", {counts[ERROR_VERDICT]} errored"
                    if counts.get(ERROR_VERDICT)
                    else ""
                )
            ),
        ]
        for family, items in self.by_family().items():
            withstood = sum(1 for o in items if o.sut_passed)
            lines.append(
                f"  {family}: {len(items)} variants, {withstood} withstood"
            )
            if verbose:
                for outcome in items:
                    marker = (
                        "ERR!" if outcome.is_error
                        else "PASS" if outcome.sut_passed
                        else "FAIL"
                    )
                    goals = (
                        f" [{', '.join(outcome.violated_goals)}]"
                        if outcome.violated_goals
                        else ""
                    )
                    lines.append(
                        f"    [{marker}] {outcome.variant_id}{goals}"
                    )
        return "\n".join(lines)


def error_outcome(
    variant: VariantSpec,
    error: JobError,
    wall_time_s: float = 0.0,
    *,
    attempts: int = 1,
    quarantined: bool = False,
) -> VariantOutcome:
    """A tagged ``ERROR`` outcome for a variant whose execution raised.

    Public so out-of-band executors (the service scheduler) report
    failures in exactly the shape ``on_error="record"`` produces.
    ``attempts`` records how many executions were tried and
    ``quarantined=True`` tags a variant that exhausted its
    :class:`~repro.runtime.RetryPolicy` budget -- the campaign carries
    on without it, so one pathological variant never poisons its batch.
    """
    stats: dict[str, Any] = {
        "error_type": error.type,
        "error_traceback": error.traceback,
        "attempts": attempts,
    }
    notes = f"{error.type}: {error.message}"
    if quarantined:
        stats["quarantined"] = True
        notes = f"quarantined after {attempts} attempt(s) -- {notes}"
    return VariantOutcome(
        variant_id=variant.variant_id,
        scenario=variant.scenario,
        family=variant.family,
        attack=variant.attack,
        verdict=ERROR_VERDICT,
        violated_goals=(),
        violations=(),
        detections=(),
        detections_by_control=(),
        stats=stats,
        duration_ms=0.0,
        wall_time_s=wall_time_s,
        notes=notes,
    )


@runtime_checkable
class CampaignMemo(Protocol):
    """The duck type ``iter_campaign``'s ``memo=`` parameter accepts.

    :class:`repro.service.MemoStore` is the production implementation;
    the engine deliberately depends only on this two-method shape so it
    never imports the service plane (layering: service -> engine, not
    back).  ``lookup`` returns a cached outcome (marked ``from_cache``)
    or ``None``; ``record`` observes each freshly-executed outcome.
    """

    def lookup(
        self, variant: VariantSpec, trace_mode: str | None = None
    ) -> VariantOutcome | None: ...

    def record(
        self,
        variant: VariantSpec,
        outcome: VariantOutcome,
        trace_mode: str | None = None,
    ) -> None: ...


def iter_campaign(
    variants: Iterable[VariantSpec],
    *,
    backend: "ExecutionBackend | str | None" = None,
    registry: ScenarioRegistry | None = None,
    on_error: str = "raise",
    on_event: Callable[[ProgressEvent], None] | None = None,
    cancel: CancelToken | None = None,
    sink: ResultSink | None = None,
    trace_mode: str = CAMPAIGN_TRACE_MODE,
    memo: CampaignMemo | None = None,
    retry: RetryPolicy | None = None,
    deadline_s: float | None = None,
) -> Iterator[VariantOutcome]:
    """Execute ``variants`` on ``backend``; yield outcomes as they finish.

    This is the streaming core every campaign entry point shares.
    Outcomes arrive in **completion** order (use :func:`run_campaign` for
    input-ordered aggregation); each one's record is pushed into ``sink``
    the moment it exists, so partial results are exportable mid-run.

    Args:
        backend: Any :mod:`repro.runtime` backend or its name (default
            serial; a backend built from a name is shut down when the
            iterator finishes or is closed).
        registry: Custom scenario registry.  Memory-sharing backends
            (serial, thread) honour it directly; process backends refuse
            it loudly -- their workers rebuild variants against the
            default registry and would silently resolve wrong specs.
        on_error: ``"raise"`` (default) surfaces a worker failure as
            :class:`~repro.errors.VariantExecutionError` naming the
            variant; ``"record"`` converts it into a tagged ``ERROR``
            outcome and keeps going.
        on_event: Progress callback (see :class:`~repro.runtime.ProgressEvent`).
        cancel: Cooperative cancellation token; jobs already running
            finish, nothing new starts.
        sink: Streaming record accumulator
            (:class:`~repro.results.ResultSink`).
        trace_mode: Scenario event-trace mode (lean ``"counts"`` by
            default; ``"full"`` retains complete traces).
        memo: Optional :class:`CampaignMemo` (e.g.
            :class:`repro.service.MemoStore`): variants it already knows
            are yielded instantly as ``from_cache`` outcomes and never
            re-executed; fresh outcomes are recorded back into it.
        retry: Optional :class:`~repro.runtime.RetryPolicy`: a variant
            failing with a transient error class is re-executed (with
            the policy's deterministic backoff) instead of failing the
            campaign; a variant that exhausts the budget yields a
            ``quarantined`` error outcome under ``on_error="record"``
            (or raises, under ``"raise"``).
        deadline_s: Campaign-level wall-clock budget per variant;
            a variant's own ``deadline_s`` takes precedence.
    """
    for _index, outcome in _iter_campaign_indexed(
        variants,
        backend=backend,
        registry=registry,
        on_error=on_error,
        on_event=on_event,
        cancel=cancel,
        sink=sink,
        trace_mode=trace_mode,
        memo=memo,
        retry=retry,
        deadline_s=deadline_s,
    ):
        yield outcome


def _iter_campaign_indexed(
    variants: Iterable[VariantSpec],
    *,
    backend: "ExecutionBackend | str | None" = None,
    registry: ScenarioRegistry | None = None,
    on_error: str = "raise",
    on_event: Callable[[ProgressEvent], None] | None = None,
    cancel: CancelToken | None = None,
    sink: ResultSink | None = None,
    trace_mode: str = CAMPAIGN_TRACE_MODE,
    memo: CampaignMemo | None = None,
    retry: RetryPolicy | None = None,
    deadline_s: float | None = None,
) -> Iterator[tuple[int, VariantOutcome]]:
    """:func:`iter_campaign` plus each outcome's input position, so
    aggregators can restore exact submission order even when variant ids
    repeat in an explicit list."""
    if on_error not in ("raise", "record"):
        raise ValidationError(
            f"on_error must be 'raise' or 'record', got {on_error!r}"
        )
    if deadline_s is not None and deadline_s <= 0:
        raise ValidationError(
            f"deadline_s must be positive, got {deadline_s}"
        )
    owns_backend = backend is None or isinstance(backend, str)
    if owns_backend:
        backend = backend_from_spec(backend)
    variant_list = list(variants)
    if (
        registry is not None
        and registry is not default_registry()
        and not backend.shares_memory
    ):
        raise ValidationError(
            "custom registries only run on in-process backends (serial or "
            "thread): process workers resolve variants against the default "
            "registry"
        )
    # Memo filtering: serve cache hits immediately, submit only misses.
    # Verdicts cannot move under this split -- variant execution never
    # consumes the runtime's per-index seed (``seeded=False`` throughout),
    # so re-indexing the submitted subset changes nothing observable; the
    # ``positions`` remap restores every outcome's original input index.
    submit_variants = variant_list
    positions = range(len(variant_list))
    cached: list[tuple[int, VariantOutcome]] = []
    if memo is not None:
        submit_variants, remap = [], []
        for index, variant in enumerate(variant_list):
            hit = memo.lookup(variant, trace_mode)
            if hit is not None:
                cached.append((index, hit))
            else:
                submit_variants.append(variant)
                remap.append(index)
        positions = remap
    try:
        for index, outcome in cached:
            if sink is not None:
                sink.add(outcome.to_record())
            yield index, outcome
        # Every campaign is a batch plan: same-family variants share
        # setup per batch, and batch size 1 (any unbatched backend) is
        # the plain one-variant-per-task case.  Seeds derive from each
        # variant's original index, so batching never moves a verdict.
        plan = BatchPlan.plan(submit_variants, getattr(backend, "batch_size", 1))
        # The one real choice: live outcomes in memory, or plain payloads
        # across a process boundary.
        if backend.shares_memory:
            batch_fn: Callable[..., Any] = functools.partial(
                execute_batch, registry=registry
            )
        else:
            batch_fn = run_batch_payload
        runtime = Runtime(backend, on_event=on_event, cancel=cancel)
        stream = runtime.map_batches(
            functools.partial(
                batch_fn, trace_mode=trace_mode, default_deadline_s=deadline_s
            ),
            [
                (batch.context(), batch.jobs(as_payload=not backend.shares_memory))
                for batch in plan
            ],
        )
        # Transient failures are parked here and re-executed after the
        # main stream drains; ``run_campaign``'s position sort restores
        # input order, so late retries never move another verdict.
        retries: list[tuple[int, JobError]] = []
        for result in stream:
            variant = submit_variants[result.index]
            if result.ok:
                value = result.value
                outcome = (
                    value
                    if isinstance(value, VariantOutcome)
                    else VariantOutcome.from_payload(value)
                )
                if memo is not None:
                    memo.record(variant, outcome, trace_mode)
            elif retry is not None and retry.should_retry(result.error, 1):
                retries.append((result.index, result.error))
                continue
            elif on_error == "record":
                outcome = error_outcome(
                    variant, result.error, result.wall_time_s
                )
            else:
                raise VariantExecutionError(
                    f"variant {variant.variant_id!r} failed in a "
                    f"{backend.name} worker: {result.error.type}: "
                    f"{result.error.message}",
                    variant_id=variant.variant_id,
                    error_type=result.error.type,
                    error_traceback=result.error.traceback,
                )
            if sink is not None:
                sink.add(outcome.to_record())
            yield positions[result.index], outcome
        for submit_index, first_error in retries:
            if cancel is not None and cancel.cancelled:
                return
            variant = submit_variants[submit_index]
            yield positions[submit_index], _retry_variant(
                variant,
                first_error,
                retry=retry,
                registry=registry if backend.shares_memory else None,
                trace_mode=trace_mode,
                deadline_s=deadline_s,
                on_error=on_error,
                backend_name=backend.name,
                memo=memo,
                sink=sink,
                cancel=cancel,
            )
    finally:
        if owns_backend:
            backend.shutdown()


def _retry_variant(
    variant: VariantSpec,
    first_error: JobError,
    *,
    retry: RetryPolicy,
    registry: ScenarioRegistry | None,
    trace_mode: str,
    deadline_s: float | None,
    on_error: str,
    backend_name: str,
    memo: CampaignMemo | None,
    sink: ResultSink | None,
    cancel: CancelToken | None,
) -> VariantOutcome:
    """Re-run one transiently-failed variant under the retry policy.

    Retries run inline in the driver process: they are rare, variant
    execution is unseeded, and the simulator is deterministic, so the
    verdict matches what any backend's worker would have produced.  Each
    attempt waits out the policy's seeded backoff first (the wait doubles
    as a cancellation point).  Returns the final outcome -- a success
    annotated with its attempt count, or a ``quarantined`` error outcome
    under ``on_error="record"``; under ``"raise"`` exhaustion raises
    :class:`~repro.errors.VariantExecutionError`.
    """
    error = first_error
    attempt = 1
    while retry.should_retry(error, attempt) and not (
        cancel is not None and cancel.cancelled
    ):
        retry.wait(attempt, variant.variant_id, cancel=cancel)
        attempt += 1
        try:
            outcome = _execute_checked(
                variant,
                registry,
                trace_mode=trace_mode,
                default_deadline_s=deadline_s,
            )
        except Exception as exc:  # noqa: BLE001 - captured, policy decides
            error = JobError.from_exception(exc)
            continue
        outcome = dataclasses.replace(
            outcome, stats={**outcome.stats, "attempts": attempt}
        )
        if memo is not None:
            memo.record(variant, outcome, trace_mode)
        if sink is not None:
            sink.add(outcome.to_record())
        return outcome
    if on_error == "record":
        outcome = error_outcome(
            variant, error, attempts=attempt, quarantined=True
        )
        if sink is not None:
            sink.add(outcome.to_record())
        return outcome
    raise VariantExecutionError(
        f"variant {variant.variant_id!r} quarantined after {attempt} "
        f"attempt(s) on the {backend_name} backend: {error.type}: "
        f"{error.message}",
        variant_id=variant.variant_id,
        error_type=error.type,
        error_traceback=error.traceback,
    )


def run_campaign(
    variants: Iterable[VariantSpec],
    jobs: int | None = None,
    registry: ScenarioRegistry | None = None,
    *,
    backend: "ExecutionBackend | str | None" = None,
    on_error: str = "raise",
    on_event: Callable[[ProgressEvent], None] | None = None,
    cancel: CancelToken | None = None,
    sink: ResultSink | None = None,
    trace_mode: str = CAMPAIGN_TRACE_MODE,
    memo: CampaignMemo | None = None,
    retry: RetryPolicy | None = None,
    deadline_s: float | None = None,
) -> CampaignResult:
    """Execute ``variants`` on an execution backend; aggregate outcomes.

    ``backend``/``jobs`` go through
    :func:`~repro.runtime.backend_from_spec`: any :mod:`repro.runtime`
    backend or its name, sized by ``jobs`` (no backend and ``jobs > 1``
    means a process pool)::

        run_campaign(variants, backend=ProcessBackend(jobs=4))
        run_campaign(variants, backend="thread", jobs=2)
        run_campaign(variants, jobs=4)

    Outcomes are returned in input order regardless of completion order;
    verdicts are backend-independent by construction (pure-data variants,
    deterministic simulator).
    """
    resolved = backend_from_spec(backend, jobs)
    owns_backend = backend is None or isinstance(backend, str)
    started = time.perf_counter()
    token = cancel if cancel is not None else CancelToken()
    try:
        indexed = sorted(
            _iter_campaign_indexed(
                variants,
                backend=resolved,
                registry=registry,
                on_error=on_error,
                on_event=on_event,
                cancel=token,
                sink=sink,
                trace_mode=trace_mode,
                memo=memo,
                retry=retry,
                deadline_s=deadline_s,
            ),
            key=lambda pair: pair[0],
        )
    finally:
        if owns_backend:
            resolved.shutdown()
    return CampaignResult(
        outcomes=tuple(outcome for _index, outcome in indexed),
        workers=resolved.jobs,
        wall_time_s=time.perf_counter() - started,
        backend=resolved.name,
        cancelled=token.cancelled,
    )


class CampaignRunner:
    """Object-style façade over :func:`run_campaign` (convenient for CLI).

    A runner that *constructed* its backend (from a name or ``jobs=``)
    also owns it: each :meth:`run` shuts the worker pool down afterwards
    (pooled backends restart lazily on the next run).  A caller-provided
    backend instance is left running -- its lifecycle stays with the
    caller, as everywhere else in the runtime layer.
    """

    def __init__(
        self,
        registry: ScenarioRegistry | None = None,
        jobs: int | None = None,
        backend: "ExecutionBackend | str | None" = None,
        batch_size: int | None = None,
    ) -> None:
        self.registry = registry or default_registry()
        self._owns_backend = backend is None or isinstance(backend, str)
        self.backend = backend_from_spec(backend, jobs, batch_size=batch_size)

    def close(self) -> None:
        """Shut down an owned backend's workers (idempotent)."""
        if self._owns_backend:
            self.backend.shutdown()

    def select(
        self,
        scenario: str | None = None,
        family: str | None = None,
        attack: str | None = None,
        limit: int | None = None,
        use_case: str | None = None,
    ) -> tuple[VariantSpec, ...]:
        """The registry's (filtered) variant list."""
        return self.registry.variants(
            scenario=scenario,
            family=family,
            attack=attack,
            limit=limit,
            use_case=use_case,
        )

    def run(
        self,
        variants: Iterable[VariantSpec] | None = None,
        *,
        on_error: str = "raise",
        on_event: Callable[[ProgressEvent], None] | None = None,
        cancel: CancelToken | None = None,
        sink: ResultSink | None = None,
        trace_mode: str = CAMPAIGN_TRACE_MODE,
        memo: CampaignMemo | None = None,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
    ) -> CampaignResult:
        """Run the given (or all) variants on the configured backend."""
        selected = tuple(variants) if variants is not None else self.select()
        try:
            return run_campaign(
                selected,
                registry=self.registry,
                backend=self.backend,
                on_error=on_error,
                on_event=on_event,
                cancel=cancel,
                sink=sink,
                trace_mode=trace_mode,
                memo=memo,
                retry=retry,
                deadline_s=deadline_s,
            )
        finally:
            self.close()


__all__ = [
    "CAMPAIGN_TRACE_MODE",
    "CampaignMemo",
    "CampaignResult",
    "CampaignRunner",
    "ERROR_VERDICT",
    "VariantOutcome",
    "error_outcome",
    "execute_variant",
    "iter_campaign",
    "run_campaign",
]
